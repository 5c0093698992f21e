//! Independent replay primitives for the certificate checker.
//!
//! Everything here is re-derived from the source nest with
//! `loopmem-linalg` / `loopmem-poly` / `loopmem-ir` primitives only — no
//! code is shared with the optimizer or the production simulator engines,
//! so an answer and its check cannot fail together. The replay is the
//! *exact but expensive* path the paper assigns to Clauss/Pugh-style
//! counting: lexicographic enumeration of the iteration space with
//! per-iteration time stamps, first/last-touch tables, and a
//! difference-array sweep. It is deliberately naive (single-threaded
//! hashmaps, no chunking) and capped at [`REPLAY_CAP`] iterations; the
//! checker skips the cross-checks — never approximates them — for nests
//! beyond the cap.

use loopmem_ir::{Affine, ArrayRef, Bound, LoopNest, Program, Statement};
use loopmem_linalg::gcd::{div_ceil, div_floor};
use loopmem_linalg::IMat;
use loopmem_poly::{regenerate_loops, Constraint, Polyhedron};
use std::collections::HashMap;

/// Iteration cap for exact replay cross-checks: the same order of
/// magnitude as the analyzer's sanitizer oracle, small enough that
/// `ci.sh verify` stays inside its time budget.
pub const REPLAY_CAP: u64 = 200_000;

/// Checked [`Affine`] evaluation: `None` when the result leaves `i64`.
/// The production `Affine::eval` panics on overflow; the checker must
/// stay total on adversarial nests (the robustness corpus includes
/// coefficients near `i64::MAX`), so it degrades to "replay unavailable"
/// instead.
fn affine_eval_checked(f: &Affine, iter: &[i64]) -> Option<i64> {
    let acc: i128 = f
        .coeffs()
        .iter()
        .zip(iter)
        .map(|(&c, &x)| (c as i128) * (x as i128))
        .sum::<i128>()
        + f.constant_term() as i128;
    i64::try_from(acc).ok()
}

/// Checked lower-bound evaluation (`max` over pieces of `ceil(expr/div)`).
fn bound_lower_checked(b: &Bound, iter: &[i64]) -> Option<i64> {
    b.pieces()
        .iter()
        .map(|p| Some(div_ceil(affine_eval_checked(&p.expr, iter)?, p.div)))
        .try_fold(i64::MIN, |acc, v| Some(acc.max(v?)))
}

/// Checked upper-bound evaluation (`min` over pieces of `floor(expr/div)`).
fn bound_upper_checked(b: &Bound, iter: &[i64]) -> Option<i64> {
    b.pieces()
        .iter()
        .map(|p| Some(div_floor(affine_eval_checked(&p.expr, iter)?, p.div)))
        .try_fold(i64::MAX, |acc, v| Some(acc.min(v?)))
}

/// Checked subscript computation `M·iter + offset`: `None` when any
/// component leaves `i64`.
fn index_at_checked(r: &ArrayRef, iter: &[i64]) -> Option<Vec<i64>> {
    r.matrix
        .rows_iter()
        .zip(&r.offset)
        .map(|(row, &off)| {
            let acc: i128 = row
                .iter()
                .zip(iter)
                .map(|(&c, &x)| (c as i128) * (x as i128))
                .sum::<i128>()
                + off as i128;
            i64::try_from(acc).ok()
        })
        .collect()
}

/// Static iteration count for nests whose bounds are all loop-invariant
/// (every piece's coefficient vector is zero): the product of the
/// per-level extents. `None` when any bound depends on an outer iterator
/// or an evaluation overflows — the walk must then discover the volume
/// itself.
fn static_volume(nest: &LoopNest) -> Option<u128> {
    let zero = vec![0i64; nest.depth()];
    let invariant = |b: &Bound| {
        b.pieces()
            .iter()
            .all(|p| p.expr.coeffs().iter().all(|&c| c == 0))
    };
    let mut vol: u128 = 1;
    for l in nest.loops() {
        if !invariant(&l.lower) || !invariant(&l.upper) {
            return None;
        }
        let lo = bound_lower_checked(&l.lower, &zero)?;
        let hi = bound_upper_checked(&l.upper, &zero)?;
        let extent = if hi < lo {
            0
        } else {
            (hi as i128 - lo as i128 + 1) as u128
        };
        vol = vol.checked_mul(extent)?;
    }
    Some(vol)
}

/// Calls `f` for every iteration of `nest` in lexicographic order.
/// Returns `false` (abandoning the walk) if more than `cap` iterations
/// would run or a bound evaluation overflows `i64`.
pub fn for_each_iteration_capped(
    nest: &LoopNest,
    cap: u64,
    f: &mut impl FnMut(&[i64]) -> bool,
) -> bool {
    // Declaring an over-cap rectangular nest unreplayable up front is
    // observationally identical to walking `cap` iterations and then
    // abandoning (the partial touches are discarded either way), and it
    // keeps adversarial huge-volume nests from costing `cap` hashmap
    // operations per replay.
    if matches!(static_volume(nest), Some(vol) if vol > cap as u128) {
        return false;
    }
    let n = nest.depth();
    let mut iter = vec![0i64; n];
    let mut count = 0u64;
    walk(nest, 0, &mut iter, &mut count, cap, f)
}

fn walk(
    nest: &LoopNest,
    level: usize,
    iter: &mut Vec<i64>,
    count: &mut u64,
    cap: u64,
    f: &mut impl FnMut(&[i64]) -> bool,
) -> bool {
    if level == nest.depth() {
        if *count == cap {
            return false;
        }
        *count += 1;
        return f(iter);
    }
    let Some(lo) = bound_lower_checked(&nest.loops()[level].lower, iter) else {
        return false;
    };
    let Some(hi) = bound_upper_checked(&nest.loops()[level].upper, iter) else {
        return false;
    };
    for v in lo..=hi {
        iter[level] = v;
        if !walk(nest, level + 1, iter, count, cap, f) {
            return false;
        }
    }
    iter[level] = 0;
    true
}

/// First/last per-iteration time stamps of every element touched by a
/// stream of nests, with one global clock. `(array, flat index)` keys a
/// touched element; values are `(first, last)` stamps.
type TouchMap = HashMap<(usize, Vec<i64>), (u64, u64)>;

/// Stamps every element the nest touches into `global`, and into `local`
/// too when the caller needs the nest's own touches.
fn record_touches(
    nest: &LoopNest,
    clock: &mut u64,
    cap: u64,
    global: &mut TouchMap,
    mut local: Option<&mut TouchMap>,
) -> bool {
    let mut t = *clock;
    let ok = for_each_iteration_capped(nest, cap, &mut |iter| {
        for r in nest.refs() {
            // An overflowing subscript makes the whole replay unavailable
            // — never a wrapped (wrong) address.
            let Some(idx) = index_at_checked(r, iter) else {
                return false;
            };
            let key = (r.array.0, idx);
            if let Some(local) = local.as_deref_mut() {
                local
                    .entry(key.clone())
                    .and_modify(|e| e.1 = t)
                    .or_insert((t, t));
            }
            global.entry(key).and_modify(|e| e.1 = t).or_insert((t, t));
        }
        t += 1;
        true
    });
    *clock = t;
    ok
}

/// Maximum over time of the live count of `touches` inside the stamp
/// range `[start, end)`: an element is live at `t` when
/// `first ≤ t < last`.
fn sweep_mws(touches: &TouchMap, start: u64, end: u64) -> u64 {
    if end <= start {
        return 0;
    }
    let len = (end - start) as usize;
    let mut delta = vec![0i64; len];
    for &(first, last) in touches.values() {
        if first < last {
            delta[(first - start) as usize] += 1;
            delta[(last - start) as usize] -= 1;
        }
    }
    let mut cur = 0i64;
    let mut mws = 0i64;
    for d in delta {
        cur += d;
        mws = mws.max(cur);
    }
    mws as u64
}

/// Exact maximum window size of one nest, or `None` when the nest
/// exceeds `cap` iterations.
pub fn nest_mws(nest: &LoopNest, cap: u64) -> Option<u64> {
    let mut clock = 0u64;
    let mut global = TouchMap::new();
    if !record_touches(nest, &mut clock, cap, &mut global, None) {
        return None;
    }
    Some(sweep_mws(&global, 0, clock))
}

/// Whole-program replay tables: everything the sizing certificate claims,
/// re-derived with one global clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramReplay {
    /// Exact per-nest MWS from each nest's own touches only.
    pub per_nest_mws: Vec<u64>,
    /// Elements whose global lifetime crosses a boundary of nest `k`
    /// (in + out − cross inclusion–exclusion).
    pub live_through: Vec<u64>,
    /// Elements live across each adjacent-nest boundary.
    pub boundary_live: Vec<u64>,
    /// Maximum over time of the global live count.
    pub program_mws: u64,
}

/// Replays a whole program under one global clock, or `None` when the
/// total iteration count exceeds `cap`.
pub fn replay_program(program: &Program, cap: u64) -> Option<ProgramReplay> {
    let mut clock = 0u64;
    let mut global = TouchMap::new();
    let mut locals: Vec<TouchMap> = Vec::with_capacity(program.len());
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(program.len());
    for nest in program.nests() {
        let start = clock;
        let mut local = TouchMap::new();
        if !record_touches(nest, &mut clock, cap, &mut global, Some(&mut local)) {
            return None;
        }
        locals.push(local);
        spans.push((start, clock));
    }

    let per_nest_mws: Vec<u64> = locals
        .iter()
        .zip(&spans)
        .map(|(local, &(s, e))| sweep_mws(local, s, e))
        .collect();

    let mut live_through = vec![0u64; program.len()];
    let mut boundary_live = vec![0u64; program.len().saturating_sub(1)];
    for &(first, last) in global.values() {
        if first == last {
            continue;
        }
        for (k, &(s, e)) in spans.iter().enumerate() {
            // Live at the nest's start boundary (stamp s-1 → s) and/or at
            // its end boundary (stamp e-1 → e); crossing both counts once.
            let enters = first < s && last >= s;
            let exits = first < e && last >= e;
            if enters || exits {
                live_through[k] += 1;
            }
            if k + 1 < program.len() && exits {
                boundary_live[k] += 1;
            }
        }
    }

    Some(ProgramReplay {
        per_nest_mws,
        live_through,
        boundary_live,
        program_mws: sweep_mws(&global, 0, clock),
    })
}

/// Applies a unimodular transformation to a nest using only
/// `loopmem-poly` bound regeneration — the checker's own copy of the §4
/// code-generation step, kept independent of the optimizer's.
///
/// Returns `None` when `t` is not unimodular, its size differs from the
/// nest depth, or the image polyhedron cannot be regenerated.
pub fn apply_transform(nest: &LoopNest, t: &IMat) -> Option<LoopNest> {
    let n = nest.depth();
    if t.nrows() != n || t.ncols() != n {
        return None;
    }
    let t_inv = t.unimodular_inverse()?;
    let p = Polyhedron::from_nest(nest);
    let mut image = Polyhedron::universe(n);
    for c in p.constraints() {
        let coeffs: Vec<i64> = (0..n)
            .map(|j| (0..n).map(|i| c.coeffs[i] * t_inv[(i, j)]).sum::<i64>())
            .collect();
        image.add(Constraint::new(coeffs, c.constant));
    }
    let names: Vec<String> = (1..=n).map(|k| format!("t{k}")).collect();
    let loops = regenerate_loops(&image, &names).ok()?;
    let statements: Vec<Statement> = nest
        .statements()
        .iter()
        .map(|s| {
            Statement::new(
                s.refs()
                    .iter()
                    .map(|r| ArrayRef::new(r.array, &r.matrix * &t_inv, r.offset.clone(), r.kind))
                    .collect(),
            )
        })
        .collect();
    LoopNest::new(loops, nest.arrays().to_vec(), statements).ok()
}

/// A coarse but *sound* upper bound on a nest's MWS from interval
/// arithmetic alone: the MWS never exceeds the number of distinct touched
/// elements, which is capped by the union of per-reference subscript
/// boxes. `None` when the nest is not rectangular (no cheap box exists).
pub fn union_box_upper(nest: &LoopNest) -> Option<u64> {
    if nest
        .loops()
        .iter()
        .any(|l| l.constant_range().map(|(lo, hi)| hi < lo).unwrap_or(false))
    {
        // A zero-trip nest touches nothing.
        return Some(0);
    }
    let ranges = nest.var_ranges()?;
    let mut total: u128 = 0;
    for a in 0..nest.arrays().len() {
        let refs = nest.refs_to(loopmem_ir::ArrayId(a));
        if refs.is_empty() {
            continue;
        }
        let rank = refs[0].rank();
        let mut lo = vec![i64::MAX; rank];
        let mut hi = vec![i64::MIN; rank];
        for r in &refs {
            for (d, (rlo, rhi)) in r.index_ranges(&ranges).into_iter().enumerate() {
                lo[d] = lo[d].min(rlo);
                hi[d] = hi[d].max(rhi);
            }
        }
        let mut cells: u128 = 1;
        for d in 0..rank {
            let width = (hi[d] as i128 - lo[d] as i128 + 1).max(0) as u128;
            cells = cells.saturating_mul(width);
        }
        total = total.saturating_add(cells);
    }
    Some(u64::try_from(total).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::{parse, parse_program};

    #[test]
    fn replay_mws_matches_the_paper_examples() {
        // Example 8: exact MWS 44 (closed form says 50).
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        assert_eq!(nest_mws(&nest, REPLAY_CAP), Some(44));
        // Single-touch elements never enter the window.
        let once =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j]; } }").unwrap();
        assert_eq!(nest_mws(&once, REPLAY_CAP), Some(0));
    }

    #[test]
    fn replay_respects_the_cap() {
        let nest = parse("array A[10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i]; } }").unwrap();
        assert_eq!(nest_mws(&nest, 5), None);
        assert!(nest_mws(&nest, 100).is_some());
    }

    #[test]
    fn program_replay_reproduces_the_pipeline_tables() {
        let program = parse_program(
            "array A[16][16]\narray B[16][16]\narray C[16][16]\n\
             for i = 1 to 16 { for j = 1 to 16 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 16 { for j = 1 to 16 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let r = replay_program(&program, REPLAY_CAP).unwrap();
        // All 256 elements of A are written by nest 0 and read by nest 1.
        assert_eq!(r.boundary_live, vec![256]);
        assert_eq!(r.live_through, vec![256, 256]);
        assert_eq!(r.per_nest_mws, vec![0, 0]);
        assert_eq!(r.program_mws, 256);
    }

    #[test]
    fn transform_replay_reaches_the_paper_minimum() {
        // T = [[2,3],[1,1]] turns example 8's MWS 44 into the paper's 21.
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let t = IMat::from_rows(&[vec![2, 3], vec![1, 1]]);
        let out = apply_transform(&nest, &t).unwrap();
        assert_eq!(nest_mws(&out, REPLAY_CAP), Some(21));
        // Non-unimodular and wrong-size matrices are refused.
        assert!(apply_transform(&nest, &IMat::from_rows(&[vec![2, 0], vec![0, 1]])).is_none());
        assert!(apply_transform(&nest, &IMat::identity(3)).is_none());
    }

    #[test]
    fn overflowing_nests_are_unreplayable_not_wrong() {
        // Robustness-corpus shapes: a subscript product and a loop bound
        // that leave `i64`. The replay must degrade to `None` (skipping
        // the cross-check), never panic or wrap to a bogus address.
        let subscript = parse("array X[10]\nfor i = 1 to 5 { X[4000000000000000000i]; }").unwrap();
        assert_eq!(nest_mws(&subscript, REPLAY_CAP), None);
        let bound = parse(
            "array B[10]\n\
             for i = 800 to 900 {\n\
               for j = i + 9223372036854775000 to 9223372036854775807 { B[1]; }\n\
             }",
        )
        .unwrap();
        assert_eq!(nest_mws(&bound, REPLAY_CAP), None);
    }

    #[test]
    fn union_box_is_a_sound_mws_cap() {
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let upper = union_box_upper(&nest).unwrap();
        assert!(upper >= 44, "box cap {upper} must dominate the exact MWS");
        let empty = parse("array X[10]\nfor i = 5 to 4 { X[1]; }").unwrap();
        assert_eq!(union_box_upper(&empty), Some(0));
    }
}
