//! Buffer simulation under LRU and Belady-optimal replacement.
//!
//! The MWS is the paper's *analytical* answer to "how small can the
//! on-chip buffer be?". This module provides the *operational* check: run
//! the access trace through a buffer of capacity `C` and count misses.
//! With `C` at least the MWS (plus the handful of single-use elements in
//! flight within one iteration), an optimal policy misses only on cold
//! accesses — every reuse is served on-chip — while smaller buffers leak
//! capacity misses. The `capacity_sweep` experiment binary plots the knee.

use crate::exec::for_each_iteration;
use loopmem_ir::LoopNest;
use std::collections::HashMap;

/// A flattened access trace: one interned element id per access, in
/// execution order.
#[derive(Clone, Debug)]
pub struct Trace {
    addrs: Vec<u32>,
    distinct: usize,
}

impl Trace {
    /// Records the nest's full access trace (reads and writes alike, in
    /// statement order within each iteration).
    pub fn from_nest(nest: &LoopNest) -> Trace {
        let mut intern: HashMap<(usize, Vec<i64>), u32> = HashMap::new();
        let mut addrs = Vec::new();
        for_each_iteration(nest, |it| {
            for r in nest.refs() {
                let key = (r.array.0, r.index_at(it));
                let next = intern.len() as u32;
                let id = *intern.entry(key).or_insert(next);
                addrs.push(id);
            }
        });
        Trace {
            addrs,
            distinct: intern.len(),
        }
    }

    /// Builds a trace from pre-interned ids (the layout module's
    /// line-granular traces use this).
    pub fn from_line_ids(addrs: Vec<u32>) -> Trace {
        let distinct = addrs
            .iter()
            .copied()
            .collect::<std::collections::HashSet<u32>>()
            .len();
        Trace { addrs, distinct }
    }

    /// The interned id sequence (used by the reuse-distance analysis).
    pub(crate) fn as_ids(&self) -> &[u32] {
        &self.addrs
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` when the nest performed no accesses.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Number of distinct elements (the unavoidable cold misses).
    pub fn distinct(&self) -> usize {
        self.distinct
    }
}

/// Replacement policy of the simulated buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Least-recently-used.
    Lru,
    /// Belady's optimal (evict the entry reused farthest in the future).
    Opt,
}

/// Misses of a fully associative buffer of `capacity` elements under the
/// given policy. `capacity == 0` makes every access miss.
pub fn misses(trace: &Trace, capacity: usize, policy: Policy) -> u64 {
    if capacity == 0 {
        return trace.len() as u64;
    }
    match policy {
        Policy::Lru => misses_lru(trace, capacity),
        Policy::Opt => misses_opt(trace, capacity),
    }
}

/// `(capacity, misses)` for each requested capacity.
pub fn miss_curve(trace: &Trace, capacities: &[usize], policy: Policy) -> Vec<(usize, u64)> {
    capacities
        .iter()
        .map(|&c| (c, misses(trace, c, policy)))
        .collect()
}

/// Smallest capacity at which the policy achieves cold-misses-only,
/// found by binary search (miss counts are non-increasing in capacity for
/// both LRU — by inclusion — and OPT).
pub fn min_perfect_capacity(trace: &Trace, policy: Policy) -> usize {
    let cold = trace.distinct() as u64;
    let (mut lo, mut hi) = (1usize, trace.distinct().max(1));
    if misses(trace, hi, policy) > cold {
        return hi + 1; // cannot happen: full capacity never evicts
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if misses(trace, mid, policy) <= cold {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn misses_lru(trace: &Trace, capacity: usize) -> u64 {
    // last_use ticks are unique, so a BTreeMap<tick, elem> is a faithful
    // LRU queue.
    use std::collections::BTreeMap;
    let mut in_buf: HashMap<u32, u64> = HashMap::new(); // elem -> tick
    let mut queue: BTreeMap<u64, u32> = BTreeMap::new(); // tick -> elem
    let mut misses = 0u64;
    for (t, &a) in trace.addrs.iter().enumerate() {
        let t = t as u64;
        if let Some(old) = in_buf.insert(a, t) {
            queue.remove(&old);
        } else {
            misses += 1;
            if in_buf.len() > capacity {
                let (&oldest, &victim) = queue.iter().next().expect("buffer non-empty");
                queue.remove(&oldest);
                in_buf.remove(&victim);
            }
        }
        queue.insert(t, a);
    }
    misses
}

fn misses_opt(trace: &Trace, capacity: usize) -> u64 {
    // Precompute each access's next-use position (usize::MAX = never).
    let n = trace.addrs.len();
    let mut next_use = vec![usize::MAX; n];
    let mut last_pos: HashMap<u32, usize> = HashMap::new();
    for (t, &a) in trace.addrs.iter().enumerate() {
        if let Some(&p) = last_pos.get(&a) {
            next_use[p] = t;
        }
        last_pos.insert(a, t);
    }
    // Buffer as max-heap on next use, with lazy invalidation.
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<(usize, u32)> = BinaryHeap::new();
    let mut in_buf: HashMap<u32, usize> = HashMap::new(); // elem -> its next use
    let mut misses = 0u64;
    for (t, &a) in trace.addrs.iter().enumerate() {
        let nu = next_use[t];
        if let std::collections::hash_map::Entry::Occupied(mut e) = in_buf.entry(a) {
            // Hit: refresh the element's next use.
            e.insert(nu);
            heap.push((nu, a));
            continue;
        }
        misses += 1;
        if nu == usize::MAX {
            continue; // never reused: OPT bypasses it (would evict it first)
        }
        if in_buf.len() >= capacity {
            // Find the live entry with the farthest next use.
            let victim = loop {
                let (d, v) = *heap.peek().expect("non-empty buffer has heap entries");
                if in_buf.get(&v) == Some(&d) {
                    break (d, v);
                }
                heap.pop(); // stale entry
            };
            if victim.0 <= nu {
                // The incoming element itself is the farthest-used one:
                // bypassing it is optimal; keep the buffer unchanged.
                continue;
            }
            heap.pop();
            in_buf.remove(&victim.1);
        }
        in_buf.insert(a, nu);
        heap.push((nu, a));
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    fn trace(src: &str) -> Trace {
        Trace::from_nest(&parse(src).expect("test source parses"))
    }

    #[test]
    fn full_capacity_gives_cold_misses_only() {
        let t =
            trace("array A[20][20]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j]; } }");
        for p in [Policy::Lru, Policy::Opt] {
            assert_eq!(misses(&t, t.distinct(), p), t.distinct() as u64, "{p:?}");
        }
    }

    #[test]
    fn zero_and_tiny_capacity() {
        let t = trace("array A[4]\nfor i = 1 to 4 { for j = 1 to 3 { A[i]; } }");
        assert_eq!(misses(&t, 0, Policy::Lru), t.len() as u64);
        // Capacity 1 with immediate reuse: A[i] hits within each row.
        assert_eq!(misses(&t, 1, Policy::Lru), 4);
        assert_eq!(misses(&t, 1, Policy::Opt), 4);
    }

    #[test]
    fn opt_never_worse_than_lru() {
        let t = trace(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        );
        for c in [1usize, 2, 4, 8, 16, 32, 64] {
            assert!(
                misses(&t, c, Policy::Opt) <= misses(&t, c, Policy::Lru),
                "capacity {c}"
            );
        }
    }

    #[test]
    fn miss_counts_monotone_in_capacity() {
        let t = trace(
            "array A[34][34]\nfor i = 2 to 32 { for j = 1 to 32 { A[i][j] = A[i-1][j] + A[i+1][j]; } }",
        );
        for p in [Policy::Lru, Policy::Opt] {
            let curve = miss_curve(&t, &[1, 2, 4, 8, 16, 32, 64, 128], p);
            for w in curve.windows(2) {
                assert!(w[1].1 <= w[0].1, "{p:?}: {curve:?}");
            }
        }
    }

    #[test]
    fn mws_capacity_achieves_cold_misses_under_opt() {
        // The operational meaning of the window: a buffer of MWS (+ the
        // current iteration's in-flight elements) suffices under OPT.
        for src in [
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
            "array A[20][20]\nfor i = 2 to 18 { for j = 1 to 18 { A[i][j] = A[i-1][j]; } }",
            "array A[60]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i + 3j]; } }",
        ] {
            let nest = parse(src).expect("source parses");
            let mws = crate::dense::exact(&nest, false, 1).mws_total as usize;
            let refs = nest.refs().count();
            let t = Trace::from_nest(&nest);
            let perfect = min_perfect_capacity(&t, Policy::Opt);
            assert!(
                perfect <= mws + refs + 1,
                "{src}: perfect capacity {perfect} vs MWS {mws} (+{refs} in flight)"
            );
        }
    }

    #[test]
    fn min_perfect_capacity_is_tight() {
        let t =
            trace("array A[34][34]\nfor i = 2 to 33 { for j = 1 to 32 { A[i][j] = A[i-1][j]; } }");
        for p in [Policy::Lru, Policy::Opt] {
            let c = min_perfect_capacity(&t, p);
            assert_eq!(misses(&t, c, p), t.distinct() as u64);
            if c > 1 {
                assert!(misses(&t, c - 1, p) > t.distinct() as u64);
            }
        }
    }
}
