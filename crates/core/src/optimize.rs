//! Window-minimizing transformation search (§4 of the paper).
//!
//! The optimizer looks for a legal unimodular transformation that minimizes
//! the maximum window size. Three search modes reproduce the paper's
//! comparison:
//!
//! * [`SearchMode::Compound`] — the paper's technique. For 2-deep nests it
//!   enumerates coprime leading rows `(a, b)` inside a coefficient bound
//!   (the integer equivalent of §4.2's branch and bound: the objective is
//!   evaluated exactly on every feasible point), keeps the rows that admit
//!   a tileable unimodular completion, ranks completions by the closed-form
//!   objective, and re-evaluates the best few *exactly* with the simulator.
//!   Deeper nests combine signed permutations with §4.3's access-matrix
//!   completions.
//! * [`SearchMode::InterchangeReversal`] — the Eisenbeis et al. baseline:
//!   only signed permutation matrices (interchange + reversal).
//! * [`SearchMode::LiPingali`] — the Li–Pingali baseline: the leading rows
//!   come from the data access matrix (± sign); when no legal completion
//!   exists the search *fails*, reproducing the paper's Example 8 claim.

use crate::mws::two_level_estimate;
use crate::transform::apply_transform;
use loopmem_dep::uniform::uniform_groups;
use loopmem_dep::{analyze, constraining_distances, DependenceSet};
use loopmem_ir::{AnalysisError, ArrayId, LoopNest, TripReason};
use loopmem_linalg::gcd::{extended_gcd, gcd_i64};
use loopmem_linalg::{complete_unimodular_rows, IMat};
use loopmem_obs::{EventKind, Phase, TraceEvent};
use loopmem_sim::{panic_message, try_simulate_tracked, AnalysisBudget, BudgetTracker};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which transformation space to search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// The paper's compound-transformation search.
    Compound {
        /// Bound on `|a|, |b|` (and completion coefficients) for 2-deep
        /// nests. 6 covers every kernel in the paper.
        max_coeff: i64,
        /// How many top-ranked candidates to re-evaluate exactly with the
        /// simulator.
        simulate_top: usize,
    },
    /// Interchange + reversal only (Eisenbeis et al. baseline).
    InterchangeReversal,
    /// Li–Pingali access-matrix completion baseline.
    LiPingali,
}

impl Default for SearchMode {
    fn default() -> Self {
        SearchMode::Compound {
            max_coeff: 6,
            simulate_top: 12,
        }
    }
}

/// A successful optimization.
#[derive(Clone, Debug)]
pub struct Optimization {
    /// The chosen unimodular transformation.
    pub transform: IMat,
    /// The transformed nest.
    pub transformed: LoopNest,
    /// Exact MWS of the original nest.
    pub mws_before: u64,
    /// Exact MWS of the transformed nest.
    pub mws_after: u64,
    /// Number of legal candidates the search considered.
    pub candidates_considered: usize,
    /// Every candidate the search exactly simulated, as
    /// `(transform, exact MWS)` pairs in candidate-rank order — the
    /// evidence frontier behind the winner's minimality claim, exported
    /// into optimality certificates (see [`crate::cert`]).
    pub evaluated: Vec<(IMat, u64)>,
}

// ------------------------------------------------------- governed search --

/// The search's degradation payload: closed-form §3 MWS bounds when they
/// apply, the union-box enclosure otherwise. Always computed on the
/// *original* nest — the identity candidate makes the search's answer
/// subject to the same bounds, and a payload that never depends on which
/// candidate tripped keeps the governed search deterministic across
/// thread counts and steal orders.
fn exhausted(nest: &LoopNest, reason: TripReason) -> AnalysisError {
    AnalysisError::Exhausted {
        reason,
        partial: crate::distinct::analytic_mws_bounds(nest),
    }
}

/// Rebases any `Exhausted` payload onto the original nest's analytical
/// bounds (see [`exhausted`]); other errors pass through.
fn normalize_error(nest: &LoopNest, e: AnalysisError) -> AnalysisError {
    match e {
        AnalysisError::Exhausted { reason, .. } => exhausted(nest, reason),
        other => other,
    }
}

/// Exact iteration count of a rectangular nest (`None` when bounds are not
/// rectangular). Cheap — used for budget pre-flight, not execution.
fn exact_iteration_count(nest: &LoopNest) -> Option<u128> {
    nest.rectangular_ranges().map(|rs| {
        rs.iter().fold(1u128, |acc, &(lo, hi)| {
            acc.saturating_mul((i128::from(hi) - i128::from(lo) + 1).max(0) as u128)
        })
    })
}

/// The governed §4 search behind [`Session::optimize`](crate::Session):
/// never panics, and one tracker governs the *whole* search — one
/// deadline, one cumulative iteration count across every candidate
/// simulation, and one search node charged per candidate (capped by
/// [`AnalysisBudget::with_max_search_nodes`]). The program-level
/// optimizer shares its tracker across every nest; `nest_index` tags
/// [`AnalysisError::NestPanicked`] with the nest's position in its
/// program.
///
/// The identity is always a candidate, so `mws_after <= mws_before`
/// holds whenever the search succeeds. Candidates are ranked with the
/// closed-form estimates and the best few simulated exactly, in parallel
/// on `threads` workers; the winner is chosen by `(exact MWS, candidate
/// rank)`, so the result is bit-identical for every `threads` value.
///
/// On a budget trip the error degrades to analytical MWS bounds on the
/// original nest ([`crate::distinct::analytic_mws_bounds`]). An empty
/// candidate space (possible for [`SearchMode::LiPingali`]) or an
/// inapplicable transformation reports [`AnalysisError::Invalid`];
/// contained panics surface as [`AnalysisError::NestPanicked`].
pub(crate) fn governed_search(
    nest_index: usize,
    nest: &LoopNest,
    mode: SearchMode,
    threads: usize,
    tracker: &BudgetTracker,
    budget: &AnalysisBudget,
) -> Result<Optimization, AnalysisError> {
    match catch_unwind(AssertUnwindSafe(|| {
        try_minimize_impl(nest, mode, threads, tracker, budget)
    })) {
        Ok(r) => r.map_err(|e| match e {
            // Panics contained deeper in the stack (inside a single-nest
            // simulation) report nest 0 — rebase onto the caller's index.
            AnalysisError::NestPanicked { message, .. } => AnalysisError::NestPanicked {
                nest: nest_index,
                message,
            },
            other => other,
        }),
        Err(payload) => Err(AnalysisError::NestPanicked {
            nest: nest_index,
            message: panic_message(payload),
        }),
    }
}

fn try_minimize_impl(
    nest: &LoopNest,
    mode: SearchMode,
    threads: usize,
    tracker: &BudgetTracker,
    budget: &AnalysisBudget,
) -> Result<Optimization, AnalysisError> {
    // Pre-flight: a rectangular nest's iteration count is exact and free,
    // so refuse immediately when even one candidate simulation would blow
    // the iteration cap (unimodular transformations preserve the count).
    if let (Some(cap), Some(n)) = (budget.max_iterations(), exact_iteration_count(nest)) {
        if n > u128::from(cap) {
            return Err(exhausted(nest, TripReason::MaxIterations));
        }
    }
    // The span is flushed only on success: on a budget trip the set of
    // candidates that completed is schedule-dependent, so nothing about
    // the failed search may reach the sink.
    let search_started = tracker.trace().map(|_| std::time::Instant::now());
    tracker.check().map_err(|r| exhausted(nest, r))?;
    let deps = analyze(nest);
    let candidates = generate_candidates(nest, &deps, mode).map_err(|r| exhausted(nest, r))?;
    if candidates.is_empty() {
        return Err(AnalysisError::Invalid {
            message: "no legal transformation in the search space".into(),
        });
    }
    let simulate = |n: &LoopNest| -> Result<u64, AnalysisError> {
        try_simulate_tracked(n, false, 1, tracker, budget.max_table_bytes(), false)
            .map(|s| s.mws_total)
    };
    let mws_before = simulate(nest).map_err(|e| normalize_error(nest, e))?;
    let considered = candidates.len();

    let eval_one = |t: &IMat| -> Result<u64, AnalysisError> {
        tracker
            .charge_search_nodes(1)
            .map_err(|r| exhausted(nest, r))?;
        let out = apply_transform(nest, t).map_err(|e| AnalysisError::Invalid {
            message: e.to_string(),
        })?;
        simulate(&out)
    };
    let workers = threads.max(1).min(candidates.len());
    let evals: Vec<(usize, Result<u64, AnalysisError>)> = if workers <= 1 {
        candidates
            .iter()
            .enumerate()
            .map(|(rank, t)| (rank, eval_one(t)))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(candidates.len()));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let rank = next.fetch_add(1, Ordering::Relaxed);
                    if rank >= candidates.len() {
                        break;
                    }
                    let r = eval_one(&candidates[rank]);
                    results.lock().expect("results poisoned").push((rank, r));
                });
            }
        });
        results.into_inner().expect("results poisoned")
    };

    // Budget trips dominate other failures (once the shared counters trip,
    // *which* candidates observe it depends on scheduling — the normalized
    // error does not); among equals the earliest candidate wins.
    let pick = |errs: &[(usize, &AnalysisError)]| -> Option<AnalysisError> {
        errs.iter()
            .min_by_key(|(rank, _)| *rank)
            .map(|(_, e)| (*e).clone())
    };
    let trips: Vec<(usize, &AnalysisError)> = evals
        .iter()
        .filter_map(|(rank, r)| match r {
            Err(e @ AnalysisError::Exhausted { .. }) => Some((*rank, e)),
            _ => None,
        })
        .collect();
    let others: Vec<(usize, &AnalysisError)> = evals
        .iter()
        .filter_map(|(rank, r)| match r {
            Err(e) if !matches!(e, AnalysisError::Exhausted { .. }) => Some((*rank, e)),
            _ => None,
        })
        .collect();
    if let Some(e) = pick(&trips).or_else(|| pick(&others)) {
        return Err(normalize_error(nest, e));
    }

    let mut by_rank: Vec<(usize, u64)> = evals
        .into_iter()
        .map(|(rank, r)| (rank, r.expect("errors were handled above")))
        .collect();
    by_rank.sort_unstable_by_key(|&(rank, _)| rank);
    let (mws_after, rank) = by_rank
        .iter()
        .map(|&(rank, mws)| (mws, rank))
        .min()
        .expect("candidates were non-empty");
    let evaluated: Vec<(IMat, u64)> = by_rank
        .into_iter()
        .map(|(rank, mws)| (candidates[rank].clone(), mws))
        .collect();
    let transform = candidates.into_iter().nth(rank).expect("rank is in range");
    let transformed = apply_transform(nest, &transform).map_err(|e| AnalysisError::Invalid {
        message: e.to_string(),
    })?;
    if let Some(sink) = tracker.trace() {
        let micros = search_started.map_or(0, |s| s.elapsed().as_micros() as u64);
        sink.record_all(vec![
            TraceEvent {
                phase: Phase::Search,
                nest: None,
                ord: (0, 0),
                thread: 0,
                kind: EventKind::SpanBegin { label: "search" },
            },
            TraceEvent {
                phase: Phase::Search,
                nest: None,
                ord: (u64::MAX, 0),
                thread: 0,
                kind: EventKind::SpanEnd {
                    label: "search",
                    micros,
                    charged: considered as u64,
                },
            },
        ]);
    }
    Ok(Optimization {
        transform,
        transformed,
        mws_before,
        mws_after,
        candidates_considered: considered,
        evaluated,
    })
}

// ------------------------------------------------------------ candidates --

/// Most matrices one search may generate — legal or not, duplicates
/// included — before it trips [`TripReason::MaxSearchNodes`]. It covers
/// every nest of depth ≤ 7 (`7!·8 = 40 320` signed permutations) and every
/// 4-deep nest (about 19.6k skew products); past it, the `n!·(n+1)`
/// permutations of a deeper nest would run for minutes.
const MAX_GENERATED: usize = 1 << 16;

/// The mode's ranked, truncated candidate list, or the trip that stopped
/// its generation. The identity is always a member for
/// [`SearchMode::Compound`] and [`SearchMode::InterchangeReversal`];
/// [`SearchMode::LiPingali`] may come back empty.
fn generate_candidates(
    nest: &LoopNest,
    deps: &DependenceSet,
    mode: SearchMode,
) -> Result<Vec<IMat>, TripReason> {
    let n = nest.depth();
    match mode {
        SearchMode::Compound {
            max_coeff,
            simulate_top,
        } => {
            let mut s = CandidateStream::new(nest, deps, simulate_top);
            s.admit(&IMat::identity(n))?;
            if n == 2 {
                two_level_candidates(&mut s, max_coeff)?;
            } else {
                deep_candidates(nest, &mut s)?;
            }
            Ok(s.finish())
        }
        SearchMode::InterchangeReversal => {
            let mut s = CandidateStream::new(nest, deps, 16);
            s.ensure_room(signed_permutation_count(n))?;
            signed_permutations(n, &mut |t| s.offer(&t).map(drop))?;
            Ok(s.finish())
        }
        SearchMode::LiPingali => {
            // Li–Pingali simulates every legal completion: nothing is ranked.
            let mut s = CandidateStream::new(nest, deps, usize::MAX);
            access_completions(nest, &mut |t| s.offer(&t).map(drop))?;
            Ok(s.finish())
        }
    }
}

/// Generated matrices on their way into the ranking: each one is charged
/// against [`MAX_GENERATED`], tested for legality, and dropped when an
/// equal matrix was already admitted.
struct CandidateStream<'a> {
    legality: Legality,
    generated: usize,
    seen: HashSet<IMat>,
    top: TopK<'a>,
}

impl<'a> CandidateStream<'a> {
    fn new(nest: &'a LoopNest, deps: &'a DependenceSet, keep: usize) -> Self {
        CandidateStream {
            legality: Legality::new(deps),
            generated: 0,
            seen: HashSet::new(),
            top: TopK::new(nest, deps, keep),
        }
    }

    fn charge(&mut self) -> Result<(), TripReason> {
        self.generated += 1;
        if self.generated > MAX_GENERATED {
            return Err(TripReason::MaxSearchNodes);
        }
        Ok(())
    }

    /// Trips now when charging `count` more matrices would: a family of
    /// known size that cannot fit is not generated at all.
    fn ensure_room(&self, count: Option<usize>) -> Result<(), TripReason> {
        match count.and_then(|c| c.checked_add(self.generated)) {
            Some(total) if total <= MAX_GENERATED => Ok(()),
            _ => Err(TripReason::MaxSearchNodes),
        }
    }

    /// Admits `t` without a legality test (it is legal by construction);
    /// `true` when it is new.
    fn admit(&mut self, t: &IMat) -> Result<bool, TripReason> {
        self.charge()?;
        Ok(self.insert(t))
    }

    /// Admits `t` when it is legal; `true` when it is legal and new.
    fn offer(&mut self, t: &IMat) -> Result<bool, TripReason> {
        self.charge()?;
        Ok(self.legality.is_legal(t) && self.insert(t))
    }

    fn insert(&mut self, t: &IMat) -> bool {
        if self.seen.contains(t) {
            return false;
        }
        self.seen.insert(t.clone());
        self.top.push(t.clone());
        true
    }

    fn finish(self) -> Vec<IMat> {
        self.top.finish()
    }
}

/// [`loopmem_dep::is_legal`] and [`loopmem_dep::row_tileable`] against the
/// deduplicated constraining distances ([`constraining_distances`])
/// thinned by [`hull_points`]: the same verdicts, including the
/// truncated-set rule, at a cost proportional to a handful of hull points
/// rather than to every dependence.
struct Legality {
    distances: Vec<Vec<i64>>,
    truncated: bool,
}

impl Legality {
    fn new(deps: &DependenceSet) -> Self {
        Legality {
            distances: hull_points(constraining_distances(deps)),
            truncated: deps.is_truncated(),
        }
    }

    /// Every `T·δ` is lexicographically positive. A truncated set admits
    /// only the identity.
    fn is_legal(&self, t: &IMat) -> bool {
        assert_eq!(t.nrows(), t.ncols(), "transformations are square");
        if self.truncated {
            return *t == IMat::identity(t.nrows());
        }
        self.distances.iter().all(|d| {
            (0..t.nrows())
                .map(|i| t.row_dot(i, d))
                .find(|&x| x != 0)
                .is_some_and(|x| x > 0)
        })
    }

    /// `row · δ ≥ 0` for every distance. No row of a truncated set is
    /// tileable.
    fn row_tileable(&self, row: &[i64]) -> bool {
        !self.truncated
            && self.distances.iter().all(|d| {
                row.iter()
                    .zip(d)
                    .map(|(&r, &x)| (r as i128) * (x as i128))
                    .sum::<i128>()
                    >= 0
            })
    }
}

/// 2-deep compound candidates: coprime tileable leading rows completed to
/// tileable unimodular matrices (§4.2).
fn two_level_candidates(s: &mut CandidateStream, max_coeff: i64) -> Result<(), TripReason> {
    for a in -max_coeff..=max_coeff {
        for b in -max_coeff..=max_coeff {
            if (a, b) == (0, 0) || gcd_i64(a, b) != 1 || !s.legality.row_tileable(&[a, b]) {
                continue;
            }
            if let Some(t) = complete_tileable(a, b, &s.legality, max_coeff) {
                s.admit(&t)?;
            }
        }
    }
    Ok(())
}

/// Completes a tileable leading row `(a, b)` with a second row `(c, d)`
/// such that `a·d − b·c = ±1` and `(c, d)` is itself tileable. Both
/// determinant signs must be tried: for Example 8's optimum `(2, 3)`,
/// every `det = +1` completion has `3c − 2d = −1` (never tileable), while
/// `det = −1` admits the paper's actual transformation `[[2,3],[1,1]]`.
/// Among each family `(c₀ + t·a, d₀ + t·b)`, the smallest-coefficient
/// member wins.
fn complete_tileable(a: i64, b: i64, legality: &Legality, max_coeff: i64) -> Option<IMat> {
    let (g, x, y) = extended_gcd(a, b);
    debug_assert_eq!(g, 1);
    // a·x + b·y = 1: (−y, x) gives det +1, (y, −x) gives det −1.
    let mut best: Option<(i64, i64, i64)> = None; // (score, c, d)
    for (c0, d0) in [(-y, x), (y, -x)] {
        for t in -(3 * max_coeff + 3)..=(3 * max_coeff + 3) {
            let (c, d) = (c0 + t * a, d0 + t * b);
            if !legality.row_tileable(&[c, d]) {
                continue;
            }
            let score = c.abs() + d.abs();
            if best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, c, d));
            }
        }
    }
    let (_, c, d) = best?;
    Some(IMat::from_rows(&[vec![a, b], vec![c, d]]))
}

/// Candidates for nests deeper than two: signed permutations, §4.3's
/// access-matrix completions, and skew-composed permutations, all
/// filtered for legality.
fn deep_candidates(nest: &LoopNest, s: &mut CandidateStream) -> Result<(), TripReason> {
    let n = nest.depth();
    // Compound candidates: an elementary skew composed with each candidate
    // found before it. This reaches orders like "wavefront over a permuted
    // nest" that neither family contains alone; the analytic ranking keeps
    // the exact re-simulation budget fixed.
    let skewed = n <= 4;
    s.ensure_room(signed_permutation_count(n))?;
    let mut base = vec![IMat::identity(n)];
    let mut found = |t: IMat| -> Result<(), TripReason> {
        if s.offer(&t)? && skewed {
            base.push(t);
        }
        Ok(())
    };
    signed_permutations(n, &mut found)?;
    access_completions(nest, &mut found)?;
    if skewed {
        for skew in elementary_skews(n) {
            for p in &base {
                s.offer(&(&skew * p))?;
            }
        }
    }
    Ok(())
}

/// §4.3: unimodular completions whose leading rows are a data access
/// matrix (in each of its [`access_row_variants`]), so the innermost
/// transformed loop carries the reuse.
fn access_completions(
    nest: &LoopNest,
    f: &mut impl FnMut(IMat) -> Result<(), TripReason>,
) -> Result<(), TripReason> {
    for r in nest.refs() {
        if r.matrix.nrows() >= nest.depth() {
            continue;
        }
        for rows in access_row_variants(&r.matrix) {
            if let Some(t) = complete_unimodular_rows(&rows) {
                f(t)?;
            }
        }
    }
    Ok(())
}

/// Elementary skew matrices `I + k·e_i·e_jᵀ` for `i ≠ j`, `k ∈ {−2…2}`.
fn elementary_skews(n: usize) -> Vec<IMat> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            for k in [-2i64, -1, 1, 2] {
                let mut m = IMat::identity(n);
                m[(i, j)] = k;
                out.push(m);
            }
        }
    }
    out
}

/// Row orderings/signs of an access matrix worth trying as leading rows.
fn access_row_variants(m: &IMat) -> Vec<IMat> {
    let rows: Vec<Vec<i64>> = (0..m.nrows()).map(|i| m.row(i).to_vec()).collect();
    let neg = |r: &Vec<i64>| r.iter().map(|&x| -x).collect::<Vec<i64>>();
    let mut out = vec![IMat::from_rows(&rows)];
    if rows.len() == 2 {
        out.push(IMat::from_rows(&[rows[1].clone(), rows[0].clone()]));
        out.push(IMat::from_rows(&[neg(&rows[0]), rows[1].clone()]));
        out.push(IMat::from_rows(&[rows[0].clone(), neg(&rows[1])]));
    } else if rows.len() == 1 {
        out.push(IMat::from_rows(&[neg(&rows[0])]));
    }
    out
}

/// Streams the signed permutation matrices to `f`: all `n! · 2ⁿ` for
/// `n ≤ 4`, permutations plus single-loop reversals (`n! · (n+1)`) beyond
/// that. Stops at the first error `f` returns.
fn signed_permutations(
    n: usize,
    f: &mut impl FnMut(IMat) -> Result<(), TripReason>,
) -> Result<(), TripReason> {
    let mut idx: Vec<usize> = (0..n).collect();
    permute(&mut idx, 0, &mut |p| {
        if n <= 4 {
            for signs in 0..(1u32 << n) {
                let mut m = IMat::zeros(n, n);
                for (row, &col) in p.iter().enumerate() {
                    m[(row, col)] = if signs & (1 << row) != 0 { -1 } else { 1 };
                }
                f(m)?;
            }
        } else {
            let mut m = IMat::zeros(n, n);
            for (row, &col) in p.iter().enumerate() {
                m[(row, col)] = 1;
            }
            f(m.clone())?;
            for flip in 0..n {
                let mut flipped = m.clone();
                flipped[(flip, p[flip])] = -1;
                f(flipped)?;
            }
        }
        Ok(())
    })
}

/// How many matrices [`signed_permutations`] streams; `None` past `usize`.
fn signed_permutation_count(n: usize) -> Option<usize> {
    let perms = (1..=n).try_fold(1usize, |acc, k| acc.checked_mul(k))?;
    perms.checked_mul(if n <= 4 { 1 << n } else { n + 1 })
}

fn permute(
    idx: &mut [usize],
    k: usize,
    f: &mut impl FnMut(&[usize]) -> Result<(), TripReason>,
) -> Result<(), TripReason> {
    if k == idx.len() {
        return f(idx);
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        permute(idx, k + 1, f)?;
        idx.swap(k, i);
    }
    Ok(())
}

/// Drops from a sorted, deduplicated point set every point that is the
/// midpoint of two others along a unit axis or along one of the set's
/// most frequent steps between sorted neighbours. A dropped point lies in
/// the convex hull of the kept ones, so the set's verdicts stay exact for
/// every convex test: "`T·δ` is lexicographically positive" (those
/// vectors form a convex cone), "`row · δ ≥ 0`" (a half-space), and "the
/// maximum of `Σ_k w_k·|(T·δ)_k|` with `w ≥ 0`" (a convex function).
/// Dependence distances are lattice points in a box, so most of them go.
fn hull_points(points: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    let Some(n) = points.first().map(Vec::len) else {
        return points;
    };
    let mut steps: HashMap<Vec<i64>, usize> = HashMap::new();
    for pair in points.windows(2) {
        let step: Option<Vec<i64>> = pair[1]
            .iter()
            .zip(&pair[0])
            .map(|(&b, &a)| b.checked_sub(a))
            .collect();
        if let Some(step) = step {
            *steps.entry(step).or_default() += 1;
        }
    }
    let mut steps: Vec<(usize, Vec<i64>)> = steps.into_iter().map(|(e, c)| (c, e)).collect();
    steps.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut directions: Vec<Vec<i64>> = (0..n)
        .map(|k| (0..n).map(|j| i64::from(j == k)).collect())
        .collect();
    directions.extend(steps.into_iter().take(n).map(|(_, e)| e));
    let set: HashSet<&[i64]> = points.iter().map(Vec::as_slice).collect();
    let (mut plus, mut minus) = (vec![0; n], vec![0; n]);
    let mut is_midpoint = |p: &[i64], e: &[i64]| {
        for k in 0..n {
            match (p[k].checked_add(e[k]), p[k].checked_sub(e[k])) {
                (Some(a), Some(b)) => (plus[k], minus[k]) = (a, b),
                _ => return false,
            }
        }
        set.contains(plus.as_slice()) && set.contains(minus.as_slice())
    };
    let keep: Vec<bool> = points
        .iter()
        .map(|p| !directions.iter().any(|e| is_midpoint(p, e)))
        .collect();
    points
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

// --------------------------------------------------------------- ranking --

/// Stable streaming selection of the `keep` best candidates by
/// [`Ranking::score`]: the list a stable sort of every candidate by score
/// would start with, in that order, without storing or fully scoring the
/// rest. At most `keep` candidates come back unranked, in generation
/// order; a longer stream is ranked, and the identity is appended when it
/// missed the cut (the do-nothing baseline).
struct TopK<'a> {
    nest: &'a LoopNest,
    deps: &'a DependenceSet,
    keep: usize,
    /// Candidates pushed so far: the generation index of the next one.
    pushed: usize,
    /// Built once, when the stream outgrows `keep`.
    ranking: Option<Ranking>,
    /// `(score, generation index, transform)`; scores are 0 until ranked.
    kept: Vec<(i64, usize, IMat)>,
    /// Max-heap of the kept `(score, index, slot in kept)`: its top is the
    /// candidate a better one evicts.
    worst: BinaryHeap<(i64, usize, usize)>,
    scratch: Vec<i64>,
}

impl<'a> TopK<'a> {
    fn new(nest: &'a LoopNest, deps: &'a DependenceSet, keep: usize) -> Self {
        TopK {
            nest,
            deps,
            keep,
            pushed: 0,
            ranking: None,
            kept: Vec::new(),
            worst: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    fn push(&mut self, t: IMat) {
        let index = self.pushed;
        self.pushed += 1;
        if index < self.keep {
            self.kept.push((0, index, t));
            return;
        }
        if index == self.keep {
            let ranking = Ranking::new(self.nest, self.deps);
            for (slot, (score, index, t)) in self.kept.iter_mut().enumerate() {
                *score = ranking
                    .score(t, None, &mut self.scratch)
                    .expect("an unbounded score always completes");
                self.worst.push((*score, *index, slot));
            }
            self.ranking = Some(ranking);
        }
        let ranking = self.ranking.as_ref().expect("ranked once past keep");
        // A later candidate must beat the worst kept score strictly: on a
        // tie the stable order keeps the earlier one.
        let bound = self.worst.peek().map_or(i64::MIN, |&(score, _, _)| score);
        if let Some(score) = ranking.score(&t, Some(bound), &mut self.scratch) {
            let (_, _, slot) = self.worst.pop().expect("only a kept score bounds");
            self.kept[slot] = (score, index, t);
            self.worst.push((score, index, slot));
        }
    }

    fn finish(mut self) -> Vec<IMat> {
        if self.ranking.is_none() {
            return self.kept.into_iter().map(|(_, _, t)| t).collect();
        }
        self.kept
            .sort_unstable_by_key(|&(score, index, _)| (score, index));
        let mut out: Vec<IMat> = self.kept.into_iter().map(|(_, _, t)| t).collect();
        let id = IMat::identity(self.nest.depth());
        if !out.contains(&id) {
            out.push(id);
        }
        out
    }
}

/// The per-search data of the closed-form ranking objective, built once:
/// per uniformly generated group, eq. (2) where it applies (2-deep, 1-D
/// arrays), the lexicographic-delay estimate over the group's array's
/// dependence distances otherwise, summed over groups.
struct Ranking {
    /// Loop extents (16 per loop for non-rectangular nests).
    extents: Vec<i64>,
    /// Access rows of the eq. (2) groups.
    alphas: Vec<(i64, i64)>,
    /// Per array with distances: its distinct dependence distances and the
    /// number of delay-estimated groups on it, in first-appearance order.
    delays: Vec<(Vec<Vec<i64>>, i64)>,
}

impl Ranking {
    fn new(nest: &LoopNest, deps: &DependenceSet) -> Self {
        let n = nest.depth();
        let extents: Vec<i64> = nest
            .rectangular_ranges()
            .map(|rs| rs.iter().map(|&(lo, hi)| hi - lo + 1).collect())
            .unwrap_or_else(|| vec![16; n]);
        let mut alphas = Vec::new();
        let mut arrays: Vec<(ArrayId, i64)> = Vec::new();
        for g in uniform_groups(nest) {
            if n == 2 && g.matrix.nrows() == 1 {
                alphas.push((g.matrix[(0, 0)], g.matrix[(0, 1)]));
            } else if let Some(entry) = arrays.iter_mut().find(|(a, _)| *a == g.array) {
                entry.1 += 1;
            } else {
                arrays.push((g.array, 1));
            }
        }
        let delays = arrays
            .into_iter()
            .filter_map(|(array, groups)| {
                let mut distances: Vec<Vec<i64>> = deps
                    .iter()
                    .filter(|d| d.array == array)
                    .map(|d| d.distance.clone())
                    .collect();
                distances.sort_unstable();
                distances.dedup();
                (!distances.is_empty()).then_some((hull_points(distances), groups))
            })
            .collect();
        Ranking {
            extents,
            alphas,
            delays,
        }
    }

    /// The objective of `t`, or `None` once it provably reaches `bound`.
    /// The eq. (2) terms are summed first; after them every delay term is
    /// at least 1, so a partial sum that reaches `bound` only grows and
    /// the early exit is exact. Delay arithmetic saturates at `i64::MAX`.
    /// A nest with dependences executes, so every extent and hence every
    /// delay weight `inner[k]` is at least 1: the delay is convex in the
    /// distance, and the [`hull_points`] of each array's distances give
    /// the same maximum as all of them.
    fn score(&self, t: &IMat, bound: Option<i64>, inner: &mut Vec<i64>) -> Option<i64> {
        let reached = |total: i64| bound.is_some_and(|b| total >= b);
        let mut total = 0i64;
        for &alpha in &self.alphas {
            let row = (t[(0, 0)], t[(0, 1)]);
            let term = two_level_estimate(alpha, row, (self.extents[0], self.extents[1]));
            total = total.saturating_add(term);
        }
        if !self.delays.is_empty() {
            // inner[k]: iterations of the transformed loops inside loop k,
            // each transformed extent over-approximated per row.
            let n = self.extents.len();
            inner.clear();
            inner.resize(n, 1);
            for k in (0..n.saturating_sub(1)).rev() {
                let extent = (0..n).fold(1i64, |acc, j| {
                    acc.saturating_add(
                        t[(k + 1, j)]
                            .saturating_abs()
                            .saturating_mul(self.extents[j] - 1),
                    )
                });
                inner[k] = inner[k + 1].saturating_mul(extent);
            }
            for (distances, groups) in &self.delays {
                let term = |best: i64| (best + 1).saturating_mul(*groups);
                let mut best = 0i64;
                for d in distances {
                    let delay = (0..n).fold(0i64, |acc, k| {
                        acc.saturating_add(
                            t.row_dot(k, d).saturating_abs().saturating_mul(inner[k]),
                        )
                    });
                    if delay > best {
                        best = delay;
                        if reached(total.saturating_add(term(best))) {
                            return None;
                        }
                    }
                }
                total = total.saturating_add(term(best));
            }
        }
        (!reached(total)).then_some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mws::lex_delay_estimate;
    use crate::Session;
    use loopmem_dep::{is_legal, row_tileable};
    use loopmem_ir::parse;
    use loopmem_linalg::Lcg;

    fn example7() -> LoopNest {
        parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap()
    }

    fn example8() -> LoopNest {
        parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap()
    }

    fn minimize(nest: &LoopNest, mode: SearchMode) -> Result<Optimization, AnalysisError> {
        Session::new().search_mode(mode).optimize(nest)
    }

    #[test]
    fn example7_compound_reaches_one() {
        let opt = minimize(&example7(), SearchMode::default()).unwrap();
        assert_eq!(opt.mws_after, 1, "paper: cost reduced to 1");
        assert_eq!(opt.mws_before, 86); // exact (paper's metric says 89)
    }

    #[test]
    fn example7_interchange_reversal_baseline() {
        let opt = minimize(&example7(), SearchMode::InterchangeReversal).unwrap();
        // Best interchange+reversal order: exact MWS 34 (paper's cost
        // metric reports 36); far worse than the compound result of 1.
        assert_eq!(opt.mws_after, 34);
    }

    #[test]
    fn example8_compound_reaches_21() {
        let opt = minimize(&example8(), SearchMode::default()).unwrap();
        assert_eq!(opt.mws_after, 21, "paper's actual minimum MWS");
        assert_eq!(opt.mws_before, 44); // formula says 50
    }

    #[test]
    fn example8_li_pingali_fails() {
        // The paper: "Li and Pingali's technique will not find any partial
        // transformation that can be completed to a legal transformation."
        let err = minimize(&example8(), SearchMode::LiPingali).unwrap_err();
        assert!(
            matches!(&err, AnalysisError::Invalid { message }
                if message == "no legal transformation in the search space"),
            "{err:?}"
        );
    }

    #[test]
    fn example8_interchange_reversal_cannot_improve() {
        // Paper: "A combination of reversal and interchange does not
        // change the maximum window size from 50" (exact: 44).
        let opt = minimize(&example8(), SearchMode::InterchangeReversal).unwrap();
        assert_eq!(opt.mws_after, opt.mws_before);
        assert_eq!(opt.mws_after, 44);
    }

    #[test]
    fn example7_li_pingali_succeeds() {
        // Example 7 has only an input dependence; the access row (2,-3)
        // completes legally and collapses the window.
        let opt = minimize(&example7(), SearchMode::LiPingali).unwrap();
        assert_eq!(opt.mws_after, 1);
    }

    #[test]
    fn example10_deep_search_collapses_window() {
        let nest = parse(
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        )
        .unwrap();
        let opt = minimize(&nest, SearchMode::default()).unwrap();
        assert_eq!(opt.mws_after, 1, "§4.3: access-matrix rows lead T");
        assert!(opt.mws_before > 400, "original window is hundreds wide");
    }

    #[test]
    fn identity_is_floor_never_worse() {
        for src in [
            "array A[20][20]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
            "array A[40]\nfor i = 1 to 10 { for j = 1 to 10 { A[i + j] = A[i + j - 1]; } }",
        ] {
            let nest = parse(src).unwrap();
            let opt = minimize(&nest, SearchMode::default()).unwrap();
            assert!(opt.mws_after <= opt.mws_before, "{src}");
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        for src in [
            "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }",
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        ] {
            let nest = parse(src).unwrap();
            let serial = Session::new().threads(1).optimize(&nest).unwrap();
            for threads in [2, 4, 7] {
                let par = Session::new().threads(threads).optimize(&nest).unwrap();
                assert_eq!(par.transform, serial.transform, "{src}");
                assert_eq!(par.mws_after, serial.mws_after);
                assert_eq!(par.mws_before, serial.mws_before);
                assert_eq!(par.candidates_considered, serial.candidates_considered);
                assert_eq!(par.evaluated, serial.evaluated);
            }
        }
    }

    fn all_signed_permutations(n: usize) -> Vec<IMat> {
        let mut out = Vec::new();
        signed_permutations(n, &mut |t| {
            out.push(t);
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn signed_permutations_stream_their_count() {
        for n in 1..=6 {
            let all = all_signed_permutations(n);
            assert_eq!(Some(all.len()), signed_permutation_count(n), "n = {n}");
            assert!(all.iter().all(|t| t.det().abs() == 1));
            assert_eq!(all[0], IMat::identity(n), "the identity streams first");
            assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
        }
        assert_eq!(signed_permutation_count(2), Some(8));
        assert_eq!(signed_permutation_count(3), Some(48));
        assert_eq!(signed_permutation_count(8), Some(362_880));
        assert_eq!(signed_permutation_count(64), None);
    }

    // ------------------------------------------ the full-sort reference --
    // The candidate generation and full-sort ranking this module used before
    // it streamed: every dependence through `is_legal`/`row_tileable`, every
    // candidate scored in full (`uniform_groups` and a fresh `T·δ` per
    // dependence), then a stable sort. Kept as the oracle the streaming
    // search must reproduce exactly.

    fn reference_complete_tileable(a: i64, b: i64, deps: &DependenceSet, m: i64) -> Option<IMat> {
        let (_, x, y) = extended_gcd(a, b);
        let mut best: Option<(i64, i64, i64)> = None;
        for (c0, d0) in [(-y, x), (y, -x)] {
            for t in -(3 * m + 3)..=(3 * m + 3) {
                let (c, d) = (c0 + t * a, d0 + t * b);
                if !row_tileable(&[c, d], deps) {
                    continue;
                }
                let score = c.abs() + d.abs();
                if best.is_none_or(|(s, _, _)| score < s) {
                    best = Some((score, c, d));
                }
            }
        }
        let (_, c, d) = best?;
        Some(IMat::from_rows(&[vec![a, b], vec![c, d]]))
    }

    fn reference_candidates(nest: &LoopNest, deps: &DependenceSet, mode: SearchMode) -> Vec<IMat> {
        let mut out = reference_unranked(nest, deps, mode);
        let keep = match mode {
            SearchMode::Compound { simulate_top, .. } => simulate_top,
            SearchMode::InterchangeReversal => 16,
            SearchMode::LiPingali => return out,
        };
        reference_rank_and_truncate(nest, deps, &mut out, keep, &mut HashMap::new());
        out
    }

    /// The reference candidate list before ranking.
    fn reference_unranked(nest: &LoopNest, deps: &DependenceSet, mode: SearchMode) -> Vec<IMat> {
        let n = nest.depth();
        // The search once scanned `out` for duplicates; a set gives the same
        // list without the quadratic cost that would dominate this test.
        let mut seen = HashSet::from([IMat::identity(n)]);
        let mut push = |out: &mut Vec<IMat>, t: IMat| {
            if is_legal(&t, deps) && seen.insert(t.clone()) {
                out.push(t);
            }
        };
        let access = |out: &mut Vec<IMat>, push: &mut dyn FnMut(&mut Vec<IMat>, IMat)| {
            for r in nest.refs() {
                if r.matrix.nrows() < n {
                    for rows in access_row_variants(&r.matrix) {
                        if let Some(t) = complete_unimodular_rows(&rows) {
                            push(out, t);
                        }
                    }
                }
            }
        };
        match mode {
            SearchMode::Compound { max_coeff, .. } => {
                let mut out = vec![IMat::identity(n)];
                if n == 2 {
                    for a in -max_coeff..=max_coeff {
                        for b in -max_coeff..=max_coeff {
                            if (a, b) == (0, 0)
                                || gcd_i64(a, b) != 1
                                || !row_tileable(&[a, b], deps)
                            {
                                continue;
                            }
                            if let Some(t) = reference_complete_tileable(a, b, deps, max_coeff) {
                                if seen.insert(t.clone()) {
                                    out.push(t);
                                }
                            }
                        }
                    }
                } else {
                    for t in all_signed_permutations(n) {
                        push(&mut out, t);
                    }
                    access(&mut out, &mut push);
                    if n <= 4 {
                        let base = out.clone();
                        for skew in elementary_skews(n) {
                            for p in &base {
                                push(&mut out, &skew * p);
                            }
                        }
                    }
                }
                out
            }
            SearchMode::InterchangeReversal => all_signed_permutations(n)
                .into_iter()
                .filter(|t| is_legal(t, deps))
                .collect(),
            SearchMode::LiPingali => {
                // Li–Pingali has no identity seed: only completions count.
                let mut lp_seen = HashSet::new();
                let mut out = Vec::new();
                access(&mut out, &mut |out: &mut Vec<IMat>, t: IMat| {
                    if is_legal(&t, deps) && lp_seen.insert(t.clone()) {
                        out.push(t);
                    }
                });
                out
            }
        }
    }

    /// The full-sort ranking; `memo` only caches the objective across the
    /// test's repeated rankings of one list.
    fn reference_rank_and_truncate(
        nest: &LoopNest,
        deps: &DependenceSet,
        cands: &mut Vec<IMat>,
        keep: usize,
        memo: &mut HashMap<IMat, i64>,
    ) {
        if cands.len() <= keep {
            return;
        }
        let mut scored: Vec<(i64, IMat)> = cands
            .drain(..)
            .map(|t| {
                let score = *memo
                    .entry(t.clone())
                    .or_insert_with(|| reference_analytic_objective(nest, deps, &t));
                (score, t)
            })
            .collect();
        scored.sort_by_key(|(s, _)| *s);
        let id = IMat::identity(nest.depth());
        let mut kept: Vec<IMat> = scored.into_iter().take(keep).map(|(_, t)| t).collect();
        if !kept.contains(&id) {
            kept.push(id);
        }
        *cands = kept;
    }

    fn reference_analytic_objective(nest: &LoopNest, deps: &DependenceSet, t: &IMat) -> i64 {
        let n = nest.depth();
        let extents: Vec<i64> = nest
            .rectangular_ranges()
            .map(|rs| rs.iter().map(|&(lo, hi)| hi - lo + 1).collect())
            .unwrap_or_else(|| vec![16; n]);
        let t_extents: Vec<i64> = (0..n)
            .map(|k| {
                1 + (0..n)
                    .map(|j| t[(k, j)].abs() * (extents[j] - 1))
                    .sum::<i64>()
            })
            .collect();
        let mut total = 0i64;
        for g in uniform_groups(nest) {
            if n == 2 && g.matrix.nrows() == 1 {
                let alpha = (g.matrix[(0, 0)], g.matrix[(0, 1)]);
                total +=
                    two_level_estimate(alpha, (t[(0, 0)], t[(0, 1)]), (extents[0], extents[1]));
            } else {
                let distances: Vec<Vec<i64>> = deps
                    .iter()
                    .filter(|d| d.array == g.array)
                    .map(|d| t.mul_vec(&d.distance))
                    .collect();
                if !distances.is_empty() {
                    total += lex_delay_estimate(&distances, &t_extents);
                }
            }
        }
        total
    }

    /// A seeded nest of depth 2–4 with small coefficients (so objective
    /// ties are common), an occasional zero-trip loop, and an occasional
    /// bound on an outer variable (non-rectangular).
    fn random_nest(rng: &mut Lcg) -> String {
        let vars = ["i", "j", "k", "l"];
        let n = [2, 2, 2, 3, 3, 4][rng.range_usize(0, 5)];
        let mut src = String::from("array A[400]\narray B[40][40]\n");
        for (k, var) in vars.iter().enumerate().take(n) {
            let lo = if k > 0 && rng.range_usize(0, 4) == 0 {
                vars[k - 1].to_string()
            } else {
                rng.range_i64(0, 2).to_string()
            };
            let hi = if rng.range_usize(0, 15) == 0 {
                -1
            } else {
                rng.range_i64(2, 6 - n as i64)
            };
            src.push_str(&format!("for {var} = {lo} to {hi} {{ "));
        }
        let subscript = |rng: &mut Lcg| {
            let mut expr = rng.range_i64(0, 3).to_string();
            for v in &vars[..n] {
                match rng.range_i64(-2, 2) {
                    0 => {}
                    c if c > 0 => expr.push_str(&format!(" + {c}*{v}")),
                    c => expr.push_str(&format!(" - {}*{v}", -c)),
                }
            }
            expr
        };
        let one_d = rng.range_usize(0, 1) == 0;
        for r in 0..rng.range_usize(2, 3) {
            let access = if one_d {
                format!("A[{}]", subscript(rng))
            } else {
                format!("B[{}][{}]", subscript(rng), subscript(rng))
            };
            src.push_str(&access);
            src.push_str(if r == 0 { " = " } else { " + " });
        }
        src.push_str("A[0]; ");
        src.push_str(&"}".repeat(n));
        src
    }

    #[test]
    fn streaming_search_matches_the_full_sort_reference() {
        let mut rng = Lcg::new(0x5eed_0e14);
        let (mut compared, mut ranked) = (0, 0);
        for _ in 0..40 {
            let src = random_nest(&mut rng);
            let nest = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            let deps = analyze(&nest);
            // Deeper than 2, the compound list does not depend on
            // `max_coeff`: generate it once and rank it per `keep`.
            let deep =
                (nest.depth() > 2).then(|| reference_unranked(&nest, &deps, SearchMode::default()));
            let mut memo = HashMap::new();
            for mode in [
                SearchMode::default(),
                SearchMode::Compound {
                    max_coeff: 3,
                    simulate_top: 0,
                },
                SearchMode::Compound {
                    max_coeff: 4,
                    simulate_top: 1,
                },
                SearchMode::Compound {
                    max_coeff: 2,
                    simulate_top: 5,
                },
                SearchMode::InterchangeReversal,
                SearchMode::LiPingali,
            ] {
                // A zero-trip 2-deep nest panics inside eq. (2) in both.
                let reference = catch_unwind(AssertUnwindSafe(|| match (mode, &deep) {
                    (SearchMode::Compound { simulate_top, .. }, Some(full)) => {
                        let mut out = full.clone();
                        reference_rank_and_truncate(
                            &nest,
                            &deps,
                            &mut out,
                            simulate_top,
                            &mut memo,
                        );
                        out
                    }
                    _ => reference_candidates(&nest, &deps, mode),
                }))
                .ok();
                let streamed =
                    catch_unwind(|| generate_candidates(&nest, &deps, mode).unwrap()).ok();
                assert_eq!(streamed, reference, "{mode:?}\n{src}");
                let unranked = match (mode, &deep) {
                    (SearchMode::Compound { .. }, Some(full)) => full.len(),
                    _ => reference_unranked(&nest, &deps, mode).len(),
                };
                ranked += usize::from(streamed.is_some_and(|list| unranked > list.len()));
                compared += 1;
            }
        }
        assert_eq!(compared, 240);
        assert!(ranked > 100, "only {ranked} searches ranked");
    }

    #[test]
    fn hull_legality_matches_every_dependence() {
        let mut rng = Lcg::new(7);
        for _ in 0..60 {
            let src = random_nest(&mut rng);
            let nest = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            let deps = analyze(&nest);
            let legality = Legality::new(&deps);
            let n = nest.depth();
            for p in all_signed_permutations(n) {
                for skew in elementary_skews(n) {
                    let t = &skew * &p;
                    assert_eq!(legality.is_legal(&t), is_legal(&t, &deps), "{t:?}\n{src}");
                    let row = t.row(0);
                    assert_eq!(legality.row_tileable(row), row_tileable(row, &deps));
                }
            }
        }
    }

    #[test]
    fn hull_points_drop_only_midpoints() {
        let grid: Vec<Vec<i64>> = (0..4)
            .flat_map(|a| (-3..=3).map(move |b| vec![0, a, b]))
            .collect();
        let hull = hull_points(grid.clone());
        assert_eq!(
            hull,
            vec![vec![0, 0, -3], vec![0, 0, 3], vec![0, 3, -3], vec![0, 3, 3]]
        );
        // 3 is the midpoint of 1 and 5; 2 is no midpoint of two members.
        let line = vec![vec![1, 0], vec![3, 0], vec![5, 0]];
        assert_eq!(hull_points(line), vec![vec![1, 0], vec![5, 0]]);
        let line = vec![vec![1, 0], vec![2, 0], vec![5, 0]];
        assert_eq!(hull_points(line.clone()), line);
        assert!(hull_points(Vec::new()).is_empty());
    }

    #[test]
    fn generation_past_the_cap_trips() {
        let nest = example8();
        let deps = analyze(&nest);
        let mut s = CandidateStream::new(&nest, &deps, 12);
        for _ in 0..MAX_GENERATED {
            s.charge().unwrap();
        }
        assert_eq!(s.ensure_room(Some(0)), Ok(()));
        assert_eq!(s.ensure_room(Some(1)), Err(TripReason::MaxSearchNodes));
        assert_eq!(s.ensure_room(None), Err(TripReason::MaxSearchNodes));
        assert_eq!(s.admit(&IMat::identity(2)), Err(TripReason::MaxSearchNodes));
    }

    #[test]
    fn very_deep_nests_trip_the_generation_cap_at_once() {
        for depth in [9, 12] {
            let vars: Vec<String> = (0..depth).map(|k| format!("v{k}")).collect();
            let mut src = format!("array A{}\n", "[3]".repeat(depth));
            for v in &vars {
                src.push_str(&format!("for {v} = 1 to 2 {{ "));
            }
            let subs: Vec<String> = vars.iter().map(|v| format!("[{v}]")).collect();
            src.push_str(&format!(
                "A{} = A{}[{} - 1]; ",
                subs.join(""),
                subs[..depth - 1].join(""),
                vars[depth - 1]
            ));
            src.push_str(&"}".repeat(depth));
            let nest = parse(&src).unwrap();
            for mode in [SearchMode::default(), SearchMode::InterchangeReversal] {
                let started = std::time::Instant::now();
                let err = Session::new()
                    .budget(AnalysisBudget::unlimited().with_max_iterations(1 << 21))
                    .search_mode(mode)
                    .optimize(&nest)
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        AnalysisError::Exhausted {
                            reason: TripReason::MaxSearchNodes,
                            ..
                        }
                    ),
                    "depth {depth}: {err:?}"
                );
                assert!(started.elapsed().as_secs_f64() < 1.0, "depth {depth}");
            }
        }
    }
}
