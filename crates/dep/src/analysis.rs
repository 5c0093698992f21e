//! Dependence-set computation for uniformly generated references.

use crate::uniform::{uniform_groups, RefPos};
use crate::vectors::{level, lex_positive};
use loopmem_ir::{AccessKind, ArrayId, LoopNest};
use loopmem_linalg::hnf::solve_diophantine;
use loopmem_poly::Polyhedron;
use std::collections::HashSet;
use std::fmt;

/// Most solution-family members one [`analyze`] call visits while
/// enumerating multi-dimensional families (the work, not the output, is
/// capped). A nest that needs more — a constant subscript over a huge
/// iteration space — gets a conservative dependence set instead (see
/// [`DependenceSet::is_truncated`]).
pub const MULTI_FAMILY_WORK_CAP: u64 = 1 << 20;

/// Position of a reference inside a nest: `(statement index, ref index)`.
pub type RefIdx = RefPos;

/// Classification of a dependence by its endpoint kinds (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write before read (true dependence).
    Flow,
    /// Read before write.
    Anti,
    /// Write before write.
    Output,
    /// Read before read (pure reuse; does not constrain legality).
    Input,
}

impl DepKind {
    fn classify(src: AccessKind, dst: AccessKind) -> DepKind {
        match (src, dst) {
            (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
            (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
            (AccessKind::Write, AccessKind::Write) => DepKind::Output,
            (AccessKind::Read, AccessKind::Read) => DepKind::Input,
        }
    }

    /// `true` for the kinds that constrain transformation legality
    /// (everything except [`DepKind::Input`]).
    pub fn constrains_legality(&self) -> bool {
        !matches!(self, DepKind::Input)
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Input => "input",
        };
        f.write_str(s)
    }
}

/// One dependence: the source reference executes at iteration `I`, the
/// destination at `I + distance`, and both touch the same element of
/// `array`. `distance` is lexicographically positive and non-zero.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Dependence {
    /// Array both endpoints reference.
    pub array: ArrayId,
    /// `(statement, ref)` of the earlier access.
    pub src: RefIdx,
    /// `(statement, ref)` of the later access.
    pub dst: RefIdx,
    /// The distance vector `J − I`.
    pub distance: Vec<i64>,
    /// Flow / anti / output / input.
    pub kind: DepKind,
}

impl Dependence {
    /// 1-based level: index of the first non-zero distance component.
    pub fn level(&self) -> usize {
        level(&self.distance).expect("dependence distances are non-zero")
    }
}

/// The dependences of a nest, plus bookkeeping about what could not be
/// represented exactly.
#[derive(Clone, Debug, Default)]
pub struct DependenceSet {
    deps: Vec<Dependence>,
    nonuniform_pairs: usize,
    truncated: bool,
}

impl DependenceSet {
    /// `true` when the multi-dimensional family enumeration hit
    /// [`MULTI_FAMILY_WORK_CAP`], so the recorded dependences may be
    /// incomplete. The legality predicates ([`crate::legality`]) then
    /// treat the nest conservatively: no transformation except the
    /// identity is legal, and none is tileable.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Iterator over the dependences.
    pub fn iter(&self) -> impl Iterator<Item = &Dependence> {
        self.deps.iter()
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// `true` when no dependences were found.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Deduplicated distance vectors, optionally restricted to
    /// legality-constraining kinds.
    pub fn distances(&self, legality_only: bool) -> Vec<Vec<i64>> {
        let mut out: Vec<Vec<i64>> = Vec::new();
        for d in &self.deps {
            if legality_only && !d.kind.constrains_legality() {
                continue;
            }
            if !out.contains(&d.distance) {
                out.push(d.distance.clone());
            }
        }
        out
    }

    /// Number of reference pairs sharing an array but not an access matrix;
    /// such pairs have direction (not distance) dependences and are handled
    /// by the bounding path (`gcd_test`, §3.2 Example 6) instead.
    pub fn nonuniform_pair_count(&self) -> usize {
        self.nonuniform_pairs
    }
}

impl<'a> IntoIterator for &'a DependenceSet {
    type Item = &'a Dependence;
    type IntoIter = std::slice::Iter<'a, Dependence>;
    fn into_iter(self) -> Self::IntoIter {
        self.deps.iter()
    }
}

/// Per-loop spans `hi − lo` (the largest magnitude a distance component can
/// have), saturating at `i64::MAX`. Rectangular nests read them off the
/// bounds; transformed nests fall back to the polyhedral projection.
fn loop_spans(nest: &LoopNest) -> Vec<i64> {
    if let Some(ranges) = nest.rectangular_ranges() {
        return ranges
            .iter()
            .map(|&(lo, hi)| hi.saturating_sub(lo).max(0))
            .collect();
    }
    let p = Polyhedron::from_nest(nest);
    (0..nest.depth())
        .map(|k| {
            p.var_range(k)
                .map_or(0, |(lo, hi)| hi.saturating_sub(lo).max(0))
        })
        .collect()
}

/// Computes the dependence set of a nest.
///
/// For every ordered pair of uniformly generated references (including a
/// reference with itself), the Diophantine system `A·δ = c_src − c_dst` is
/// solved exactly:
///
/// * a zero-dimensional solution family records its single in-range,
///   lexicographically positive distance (full-rank access matrices);
/// * a one-dimensional family records the lexicographically smallest
///   positive in-range member (the paper's "dependence vector of
///   interest", §4.2) — the family's direction itself is recorded through
///   the self-pair, whose solutions are the kernel multiples;
/// * higher-dimensional families enumerate all in-range positive members.
///   Only constant-like subscripts produce them; the enumeration's total
///   work is capped at [`MULTI_FAMILY_WORK_CAP`] members, and a nest that
///   hits the cap is marked [`DependenceSet::is_truncated`].
///
/// Pairs of references to the same array with *different* access matrices
/// (non-uniformly generated) are counted in
/// [`DependenceSet::nonuniform_pair_count`] and otherwise skipped, exactly
/// as the paper's framework does.
pub fn analyze(nest: &LoopNest) -> DependenceSet {
    // An empty iteration space executes nothing and carries no
    // dependences. Bail out before the distance enumeration: its span
    // windows assume at least one executed iteration, and a constant
    // subscript inside an empty nest would otherwise send the
    // multi-dimensional family walk over the full (never-executed)
    // inner ranges.
    if nest.var_ranges().is_none() {
        return DependenceSet::default();
    }
    let spans = loop_spans(nest);
    let groups = uniform_groups(nest);
    let mut set = DependenceSet::default();
    let mut seen: HashSet<Dependence> = HashSet::new();
    let mut work = MULTI_FAMILY_WORK_CAP;

    // Count non-uniform same-array pairs across groups.
    for (i, a) in groups.iter().enumerate() {
        for b in &groups[i + 1..] {
            if a.array == b.array {
                set.nonuniform_pairs += a.len() * b.len();
            }
        }
    }

    for g in &groups {
        for (src_pos, src_off, src_kind) in &g.members {
            for (dst_pos, dst_off, dst_kind) in &g.members {
                let self_pair = src_pos == dst_pos;
                // A·δ = c_src − c_dst.
                let rhs: Vec<i64> = src_off.iter().zip(dst_off).map(|(&a, &b)| a - b).collect();
                let Some(sol) = solve_diophantine(&g.matrix, &rhs) else {
                    continue;
                };
                let kind = DepKind::classify(*src_kind, *dst_kind);
                let Some(members) =
                    positive_members(&sol.particular, &sol.kernel, &spans, self_pair, &mut work)
                else {
                    set.truncated = true;
                    continue;
                };
                for distance in members {
                    let dep = Dependence {
                        array: g.array,
                        src: *src_pos,
                        dst: *dst_pos,
                        distance,
                        kind,
                    };
                    if seen.insert(dep.clone()) {
                        set.deps.push(dep);
                    }
                }
            }
        }
    }
    set
}

/// In-range, lexicographically positive members of the solution family,
/// or `None` when enumerating them would exceed the remaining `work`.
///
/// * kernel dimension 0 → the particular solution (if positive/in range);
/// * dimension 1 → the lex-min positive member only, in closed form (for
///   self pairs the primitive kernel direction is that very member);
/// * dimension ≥ 2 → exhaustive enumeration, charged to `work`.
fn positive_members(
    particular: &[i64],
    kernel: &[Vec<i64>],
    spans: &[i64],
    self_pair: bool,
    work: &mut u64,
) -> Option<Vec<Vec<i64>>> {
    let in_range = |v: &[i64]| v.iter().zip(spans).all(|(&x, &s)| x.abs() <= s);
    Some(match kernel.len() {
        0 => {
            if !self_pair && lex_positive(particular) && in_range(particular) {
                vec![particular.to_vec()]
            } else {
                Vec::new()
            }
        }
        1 => lexmin_positive_member(particular, &kernel[0], spans)
            .into_iter()
            .collect(),
        _ => {
            let bound: i64 = spans.iter().copied().max().unwrap_or(0);
            let side = 2 * i128::from(bound) + 1;
            let combos = (0..kernel.len()).try_fold(1u64, |acc, _| {
                u64::try_from(side).ok().and_then(|w| acc.checked_mul(w))
            });
            match combos {
                Some(n) if n <= *work => *work -= n,
                _ => {
                    *work = 0;
                    return None;
                }
            }
            let mut out = Vec::new();
            let mut coeffs = vec![0i64; kernel.len()];
            enumerate_multi(particular, kernel, spans, bound, 0, &mut coeffs, &mut out);
            out.retain(|v| lex_positive(v));
            out.sort();
            out.dedup();
            out
        }
    })
}

/// `⌊a / b⌋` for any signs.
fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// `⌈a / b⌉` for any signs.
fn ceil_div(a: i128, b: i128) -> i128 {
    -floor_div(-a, b)
}

/// The lexicographically smallest lex-positive member of `{p + t·k : t ∈ ℤ}`
/// with every component inside `±spans`, in closed form (i128 arithmetic,
/// so spans near `i64::MAX` cannot overflow).
///
/// The box confines `t` to a window `[lo, hi]`. Let `j` be the first
/// component where `k` is non-zero; earlier components are the constants
/// `p[..j]`. If those are lex-positive every member is, and the lex-min
/// minimizes the strictly monotone `p_j + t·k_j` over the window; if they
/// are lex-negative no member is. If they are all zero, the member with
/// `p_j + t·k_j = 0` (when `t` is integral and its tail is lex-positive)
/// beats every member with a positive `j`-th component, and otherwise the
/// smallest positive `j`-th component wins.
fn lexmin_positive_member(p: &[i64], k: &[i64], spans: &[i64]) -> Option<Vec<i64>> {
    let (mut lo, mut hi) = (i128::MIN, i128::MAX);
    for ((&pj, &kj), &s) in p.iter().zip(k).zip(spans) {
        let (pj, kj, s) = (i128::from(pj), i128::from(kj), i128::from(s));
        if kj == 0 {
            if pj.abs() > s {
                return None;
            }
            continue;
        }
        // -s <= pj + t·kj <= s.
        let (a, b) = if kj > 0 {
            (ceil_div(-s - pj, kj), floor_div(s - pj, kj))
        } else {
            (ceil_div(s - pj, kj), floor_div(-s - pj, kj))
        };
        lo = lo.max(a);
        hi = hi.min(b);
    }
    if lo > hi {
        return None;
    }
    // Every component is within its span at t ∈ [lo, hi], so it fits i64.
    let at = |t: i128| -> Vec<i64> {
        p.iter()
            .zip(k)
            .map(|(&pj, &kj)| (i128::from(pj) + t * i128::from(kj)) as i64)
            .collect()
    };
    let j = k.iter().position(|&x| x != 0)?;
    let (pj, kj) = (i128::from(p[j]), i128::from(k[j]));
    match p[..j].iter().find(|&&x| x != 0) {
        Some(&c) if c < 0 => return None,
        Some(_) => return Some(at(if kj > 0 { lo } else { hi })),
        None => {}
    }
    if pj % kj == 0 {
        let t0 = -pj / kj;
        if (lo..=hi).contains(&t0) {
            let v = at(t0);
            if lex_positive(&v) {
                return Some(v);
            }
        }
    }
    // The t whose j-th component is the smallest positive value.
    let t = if kj > 0 {
        (floor_div(-pj, kj) + 1).max(lo)
    } else {
        (ceil_div(-pj, kj) - 1).min(hi)
    };
    (lo..=hi).contains(&t).then(|| at(t))
}

/// Every in-range member `particular + Σ t_d·kernel_d` with each
/// `t_d ∈ [-bound, bound]`.
fn enumerate_multi(
    particular: &[i64],
    kernel: &[Vec<i64>],
    spans: &[i64],
    bound: i64,
    depth: usize,
    coeffs: &mut Vec<i64>,
    out: &mut Vec<Vec<i64>>,
) {
    if depth == kernel.len() {
        let v: Vec<i64> = (0..particular.len())
            .map(|j| {
                particular[j]
                    + kernel
                        .iter()
                        .zip(coeffs.iter())
                        .map(|(k, &t)| t * k[j])
                        .sum::<i64>()
            })
            .collect();
        if v.iter().zip(spans).all(|(&x, &s)| x.abs() <= s) {
            out.push(v);
        }
        return;
    }
    for t in -bound..=bound {
        coeffs[depth] = t;
        enumerate_multi(particular, kernel, spans, bound, depth + 1, coeffs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;
    use loopmem_linalg::rng::Lcg;

    /// The walk the closed form replaced: every `t` of the feasible
    /// window, keeping the lex-min positive in-range member. Affordable
    /// only on small windows, so it is the oracle there.
    fn walk_lexmin(p: &[i64], k: &[i64], spans: &[i64]) -> Option<Vec<i64>> {
        let in_range = |v: &[i64]| v.iter().zip(spans).all(|(&x, &s)| x.abs() <= s);
        let (mut lo, mut hi) = (i128::MIN, i128::MAX);
        for ((&pj, &kj), &s) in p.iter().zip(k).zip(spans) {
            let (pj, kj, s) = (i128::from(pj), i128::from(kj), i128::from(s));
            if kj != 0 {
                let (a, b) = if kj > 0 {
                    (ceil_div(-s - pj, kj), floor_div(s - pj, kj))
                } else {
                    (ceil_div(s - pj, kj), floor_div(-s - pj, kj))
                };
                lo = lo.max(a);
                hi = hi.min(b);
            }
        }
        assert!(hi < lo || hi - lo <= 1_000_000, "walk window too wide");
        let mut best: Option<Vec<i64>> = None;
        for t in lo..=hi {
            let cand: Vec<i64> = p
                .iter()
                .zip(k)
                .map(|(&pj, &kj)| (i128::from(pj) + t * i128::from(kj)) as i64)
                .collect();
            if lex_positive(&cand) && in_range(&cand) && best.as_ref().is_none_or(|b| cand < *b) {
                best = Some(cand);
            }
        }
        best
    }

    #[test]
    fn closed_form_lexmin_matches_the_walk_on_seeded_families() {
        let mut rng = Lcg::new(0x1d_fa111);
        for case in 0..20_000 {
            let depth = rng.range_usize(1, 4);
            let spans: Vec<i64> = (0..depth)
                .map(|_| match rng.range_usize(0, 3) {
                    0 => rng.range_i64(0, 3),
                    1 => rng.range_i64(0, 40),
                    _ => rng.range_i64(0, 5_000),
                })
                .collect();
            let p: Vec<i64> = spans
                .iter()
                .map(|&s| rng.range_i64(-2 * s - 3, 2 * s + 3))
                .collect();
            let mut k = rng.ivec(depth, -4, 4);
            if k.iter().all(|&x| x == 0) {
                k[rng.range_usize(0, depth - 1)] = 1;
            }
            assert_eq!(
                lexmin_positive_member(&p, &k, &spans),
                walk_lexmin(&p, &k, &spans),
                "case {case}: p={p:?} k={k:?} spans={spans:?}"
            );
        }
    }

    /// Regression: a one-dimensional family wider than 10^6 used to be
    /// probed at its first `t` only, dropping the `(0, 1)` dependences of
    /// `A[i]` below and letting the optimizer pick an illegal `T`.
    #[test]
    fn wide_one_dimensional_family_keeps_its_dependences() {
        let nest = parse(
            "array A[3]\narray B[600001]\n\
             for i = 1 to 2 { for j = 1 to 600000 { A[i] = A[i] + B[j]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        for kind in [DepKind::Flow, DepKind::Anti, DepKind::Output] {
            assert!(
                deps.iter()
                    .any(|d| d.kind == kind && d.distance == vec![0, 1]),
                "missing {kind} (0, 1) in {deps:?}"
            );
        }
        let illegal = loopmem_linalg::IMat::from_rows(&[vec![-1, -2], vec![0, -1]]);
        assert!(!crate::is_legal(&illegal, &deps));
    }

    /// Regression: the span of `near_max_bounds` (≈ 9.2·10^18) overflowed
    /// the window width, and the walk then ran for ~10^19 steps.
    #[test]
    fn near_max_bounds_returns_promptly() {
        let nest = parse("array X[10]\nfor i = 1 to 9223372036854775000 { X[1]; }").unwrap();
        let started = std::time::Instant::now();
        let deps = analyze(&nest);
        assert!(started.elapsed().as_secs() < 1);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps.iter().next().unwrap().distance, vec![1]);
        let wide =
            parse("array X[10]\nfor i = -9223372036854775000 to 9223372036854775000 { X[1]; }")
                .unwrap();
        assert_eq!(analyze(&wide).len(), 1);
    }

    /// `X[1] = X[1]` in an n×n nest: a two-dimensional family per pair.
    fn constant_subscript(n: i64) -> LoopNest {
        parse(&format!(
            "array X[2]\nfor i = 1 to {n} {{ for j = 1 to {n} {{ X[1] = X[1]; }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn multi_dimensional_families_dedupe_in_linear_time() {
        let started = std::time::Instant::now();
        let deps = analyze(&constant_subscript(100));
        assert!(
            started.elapsed().as_secs_f64() < 1.0,
            "took {:?}",
            started.elapsed()
        );
        assert!(!deps.is_truncated());
        // Every lex-positive in-range distance, once per kind.
        assert_eq!(deps.len(), 4 * (99 * 199 + 99));
    }

    #[test]
    fn work_cap_restricts_the_nest_to_the_identity() {
        // (2·299 + 1)² members per pair exceed the work cap: the set is
        // truncated, and the legality predicates refuse every transform
        // but the identity — never an unsound "no dependences".
        let deps = analyze(&constant_subscript(300));
        assert!(deps.is_truncated());
        let id = loopmem_linalg::IMat::identity(2);
        assert!(crate::is_legal(&id, &deps));
        for t in [
            loopmem_linalg::IMat::from_rows(&[vec![0, 1], vec![1, 0]]),
            loopmem_linalg::IMat::from_rows(&[vec![1, 0], vec![1, 1]]),
            loopmem_linalg::IMat::from_rows(&[vec![1, 0], vec![0, -1]]),
        ] {
            assert!(!crate::is_legal(&t, &deps), "{t:?}");
        }
        assert!(!crate::is_tileable(&id, &deps));
        assert!(!crate::row_tileable(&[1, 0], &deps));
    }

    #[test]
    fn empty_nest_has_no_dependences() {
        // Regression: a constant subscript inside an empty nest used to
        // send the multi-dimensional family enumeration over the full
        // (never-executed) inner range — an effectively unbounded walk.
        let nest = parse(
            "array X[10]\n\
             for i = 5 to 4 { for j = 1 to 1000000 { X[1]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.len(), 0);
        assert_eq!(deps.nonuniform_pair_count(), 0);
    }

    #[test]
    fn example2_single_flow_dependence() {
        let nest = parse(
            "array A[100][100]\n\
             for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.len(), 1);
        let d = deps.iter().next().unwrap();
        assert_eq!(d.distance, vec![1, -2]);
        assert_eq!(d.kind, DepKind::Flow);
        assert_eq!(d.level(), 1);
    }

    #[test]
    fn example3_dependences_from_sink() {
        let nest = parse(
            "array A[11][11]\n\
             for i = 1 to 10 { for j = 1 to 10 {\n\
               A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1];\n\
             } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        let distances = deps.distances(false);
        // Paper: (1,0), (0,1), (1,1) from S1 to the reads; the read-read
        // differences (0,1)-(1,0) etc. also appear as input deps.
        for want in [vec![1, 0], vec![0, 1], vec![1, 1]] {
            assert!(
                distances.contains(&want),
                "missing {want:?} in {distances:?}"
            );
        }
        // All flow distances are exactly those three.
        let flows: Vec<_> = deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| d.distance.clone())
            .collect();
        assert_eq!(flows.len(), 3);
    }

    #[test]
    fn example7_kernel_dependence() {
        let nest =
            parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.len(), 1);
        let d = deps.iter().next().unwrap();
        assert_eq!(d.distance, vec![3, 2]);
        assert_eq!(d.kind, DepKind::Input);
        assert!(!d.kind.constrains_legality());
    }

    #[test]
    fn example8_three_direct_dependences() {
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        let legality = deps.distances(true);
        assert!(
            legality.contains(&vec![3, -2]),
            "flow missing: {legality:?}"
        );
        assert!(legality.contains(&vec![2, 0]), "anti missing: {legality:?}");
        assert!(
            legality.contains(&vec![5, -2]),
            "output missing: {legality:?}"
        );
        assert_eq!(legality.len(), 3);
        // Kinds match the paper's classification.
        for d in deps.iter() {
            match d.distance.as_slice() {
                [3, -2] => assert_eq!(d.kind, DepKind::Flow),
                [2, 0] => assert_eq!(d.kind, DepKind::Anti),
                [5, -2] => assert!(
                    d.kind == DepKind::Output || d.kind == DepKind::Input,
                    "kernel self-distance is output (write) or input (read)"
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn nonuniform_pairs_are_counted_not_analyzed() {
        let nest = parse(
            "array A[200]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.nonuniform_pair_count(), 1);
    }

    #[test]
    fn out_of_range_distance_excluded() {
        // A[i][j] vs A[i-50][j]: distance (50, 0) exceeds the 10-iteration
        // span, so no dependence exists inside the nest.
        let nest = parse(
            "array A[100][100]\n\
             for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-50][j]; } }",
        )
        .unwrap();
        assert!(analyze(&nest).is_empty());
    }

    #[test]
    fn no_dependence_when_gcd_fails() {
        // 2·δ = 1 has no integer solution: accesses interleave, never collide.
        let nest =
            parse("array A[100]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i] = A[2i + 1]; } }")
                .unwrap();
        let deps = analyze(&nest);
        // Only self-reuse along j (kernel (0,1)) appears.
        assert!(deps.iter().all(|d| d.distance == vec![0, 1]));
    }

    #[test]
    fn multi_dimensional_kernel_enumerates() {
        // C[k] in a 3-deep nest: kernel dimension 2 over (i, j).
        let nest = parse(
            "array C[4]\n\
             for i = 1 to 3 { for j = 1 to 3 { for k = 1 to 4 { C[k]; } } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert!(!deps.is_empty());
        // Every distance annihilates the access row (0,0,1): third
        // component zero; and is lex positive.
        for d in deps.iter() {
            assert_eq!(d.distance[2], 0);
            assert!(lex_positive(&d.distance));
            assert_eq!(d.kind, DepKind::Input);
        }
        // (1, -2, 0) is a genuine in-range member that a cone of basis
        // vectors alone would miss.
        assert!(deps.iter().any(|d| d.distance == vec![1, -2, 0]));
    }
}
