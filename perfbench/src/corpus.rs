//! Workload corpora. Every request list is a pure function of the workload,
//! the seed and the run length, so two commits given the same arguments do
//! identical work. The program under test only ever sees the generated
//! `.loop` source text.

use std::collections::HashSet;
use std::path::Path;

/// One input program: a stable name and its DSL source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// splitmix64: a tiny, well-mixed generator owned by the benchmark, so a
/// change to the library's own RNG never changes a corpus.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// The fixed kernel set of `kernel-verify`: the seven Figure-2 kernels,
/// the five extended kernels, and every `kernels/*.loop` file under
/// `root`, in that order (files sorted by name).
pub fn kernel_set(root: &Path) -> Result<Vec<Source>, String> {
    let mut out: Vec<Source> = loopmem_bench::all_kernels()
        .into_iter()
        .chain(loopmem_bench::extended_kernels())
        .map(|k| Source {
            name: k.name.to_string(),
            text: k.source.to_string(),
        })
        .collect();
    let dir = root.join("kernels");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .loop files", dir.display()));
    }
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("kernel");
        out.push(Source {
            name: format!("kernels/{stem}.loop"),
            text,
        });
    }
    Ok(out)
}

/// `passes` back-to-back passes over `distinct` programs, each pass in its
/// own seeded order: every program recurs once per pass.
pub fn kernel_order(distinct: usize, passes: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(distinct * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..distinct).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order
}

/// Every `OVER_CAP_EVERY`-th `large-sweep` program is built to exceed the
/// request's iteration cap, so the degrade path runs at a fixed share.
pub const OVER_CAP_EVERY: usize = 4;

/// `large-sweep` iteration totals step through this many classes, so every
/// seed draws the same mix of sizes.
const SIZE_CLASSES: u64 = 8;

/// Iteration cap of every Session in the benchmark (the CLI's default).
pub const ITERATION_CAP: u64 = 2_000_000;

/// Stencil read offsets `(di, dj)`, all within one cell of the centre.
const OFFSETS: [(i64, i64); 7] = [(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0), (-1, -1), (1, 1)];

fn subscript(var: &str, off: i64) -> String {
    match off {
        0 => var.to_string(),
        o if o > 0 => format!("{var}+{o}"),
        o => format!("{var}-{}", -o),
    }
}

/// A stencil statement body `dst[i][j] = src[i+di][j+dj] + ...` over 2–5
/// distinct offsets.
fn stencil_rhs(rng: &mut Rng, src: &str) -> String {
    let mut offs = OFFSETS.to_vec();
    rng.shuffle(&mut offs);
    let taps = rng.range(2, 5) as usize;
    offs[..taps]
        .iter()
        .map(|&(di, dj)| format!("{src}[{}][{}]", subscript("i", di), subscript("j", dj)))
        .collect::<Vec<_>>()
        .join(" + ")
}

fn stencil_nest(dst: &str, rhs: &str, n: u64, m: u64) -> String {
    format!(
        "for i = 2 to {} {{\n  for j = 2 to {} {{\n    {dst}[i][j] = {rhs};\n  }}\n}}\n",
        n - 1,
        m - 1
    )
}

/// A time-stepped stencil: `steps` sweeps of a 2-D stencil over the grid.
fn time_stepped_nest(dst: &str, rhs: &str, steps: u64, n: u64, m: u64) -> String {
    format!(
        "for t = 1 to {steps} {{\n  for i = 2 to {} {{\n    for j = 2 to {} {{\n      {dst}[i][j] = {rhs};\n    }}\n  }}\n}}\n",
        n - 1,
        m - 1
    )
}

/// One `large-sweep` program, the `k`-th of its list: one or two
/// time-stepped stencil nests over one `n × m` grid of at most 130×130
/// words per array. Slot `k % 4` fixes the shape — one nest, two nests,
/// two nests, or one nest past [`ITERATION_CAP`] — and `k / 4` steps the
/// iteration total through [`SIZE_CLASSES`] classes up to 1.8·10⁶ (2.4·10⁶
/// to 3.45·10⁶ past the cap), each jittered by up to ±5 %. Every nest runs
/// more than 2.3·10⁵ iterations, past the checker's replay cap, so the
/// dense engine, not the checker's replay, does the work.
///
/// Programs past the cap are single nests. When two nests of one program
/// run concurrently and their sum trips the shared cap, which nest absorbs
/// the trip depends on the schedule (DESIGN.md §13), so per-nest outcomes
/// would not repeat from run to run; a single nest's trip point and
/// salvaged prefix do.
fn large_sweep_program(rng: &mut Rng, k: usize) -> String {
    let class = (k / OVER_CAP_EVERY) as u64 % SIZE_CLASSES;
    let (nests, base) = match k % OVER_CAP_EVERY {
        0 => (1, 250_000 + class * 1_550_000 / (SIZE_CLASSES - 1)),
        3 => (1, 2_400_000 + class * 150_000),
        _ => (2, 500_000 + class * 1_300_000 / (SIZE_CLASSES - 1)),
    };
    let total = base + rng.range(0, base / 10) - base / 20;
    let (n, m) = (rng.range(18, 130), rng.range(18, 130));
    let steps = (total / nests).div_ceil((n - 2) * (m - 2)).max(2);
    let mut text = format!("array A[{n}][{m}]\narray B[{n}][{m}]\n");
    if nests == 2 {
        text.push_str(&format!("array C[{n}][{m}]\n"));
    }
    // In place or out of place, chosen per nest.
    let first_dst = if rng.chance(1, 3) { "A" } else { "B" };
    let rhs = stencil_rhs(rng, "A");
    text.push_str(&time_stepped_nest(first_dst, &rhs, steps, n, m));
    if nests == 2 {
        let rhs = stencil_rhs(rng, first_dst);
        text.push_str(&time_stepped_nest("C", &rhs, steps, n, m));
    }
    text
}

/// `count` all-distinct `large-sweep` programs.
pub fn large_sweep(seed: u64, count: usize) -> Vec<Source> {
    distinct_programs(seed, count, "sweep", large_sweep_program)
}

/// One `multi-nest` program: a producer/consumer chain of 3–8 small 2-deep
/// nests. Nest `k` writes `Ak` from `A(k-1)` (a stencil, so adjacent nests
/// may or may not fuse legally) and sometimes also reads an older array,
/// which keeps it live through the nests in between.
fn multi_nest_program(rng: &mut Rng) -> String {
    let nests = rng.range(3, 8) as usize;
    let n = rng.range(10, 24);
    let m = if rng.chance(1, 2) {
        n
    } else {
        rng.range(10, 24)
    };
    let mut text = String::new();
    for a in 0..=nests {
        text.push_str(&format!("array A{a}[{n}][{m}]\n"));
    }
    for k in 1..=nests {
        let mut rhs = stencil_rhs(rng, &format!("A{}", k - 1));
        if k >= 2 && rng.chance(1, 3) {
            let older = rng.range(0, k as u64 - 2);
            rhs.push_str(&format!(" + A{older}[i][j]"));
        }
        text.push_str(&stencil_nest(&format!("A{k}"), &rhs, n, m));
    }
    text
}

/// `count` all-distinct `multi-nest` programs.
pub fn multi_nest(seed: u64, count: usize) -> Vec<Source> {
    distinct_programs(seed, count, "chain", |rng, _| multi_nest_program(rng))
}

/// Draws programs until `count` distinct sources exist; a repeat is
/// redrawn from the same stream, so the list stays a function of `seed`.
fn distinct_programs(
    seed: u64,
    count: usize,
    prefix: &str,
    mut draw: impl FnMut(&mut Rng, usize) -> String,
) -> Vec<Source> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = out.len();
        let text = draw(&mut rng, k);
        if seen.insert(text.clone()) {
            out.push(Source {
                name: format!("{prefix}-{k}"),
                text,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iterations(src: &Source) -> Vec<u64> {
        let program = loopmem_ir::parse_program(&src.text).expect("generated programs parse");
        program
            .nests()
            .iter()
            .map(|n| n.iteration_count().expect("rectangular nest") as u64)
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_corpora() {
        assert_eq!(large_sweep(7, 40), large_sweep(7, 40));
        assert_eq!(multi_nest(7, 40), multi_nest(7, 40));
        assert_eq!(kernel_order(18, 5, 7), kernel_order(18, 5, 7));
        assert_ne!(large_sweep(7, 40), large_sweep(8, 40));
        assert_ne!(multi_nest(7, 40), multi_nest(8, 40));
    }

    #[test]
    fn a_shorter_run_is_a_prefix_of_a_longer_one() {
        assert_eq!(large_sweep(3, 10)[..], large_sweep(3, 30)[..10]);
        assert_eq!(multi_nest(3, 10)[..], multi_nest(3, 30)[..10]);
    }

    #[test]
    fn programs_never_repeat_within_a_synthetic_workload() {
        for corpus in [large_sweep(11, 200), multi_nest(11, 200)] {
            let distinct: HashSet<&str> = corpus.iter().map(|s| s.text.as_str()).collect();
            assert_eq!(distinct.len(), corpus.len());
        }
    }

    #[test]
    fn large_sweep_sizes_and_over_cap_share() {
        let corpus = large_sweep(5, 80);
        let mut over = 0;
        for (k, src) in corpus.iter().enumerate() {
            let iters = iterations(src);
            let total: u64 = iters.iter().sum();
            if total > ITERATION_CAP {
                over += 1;
                assert_eq!(k % OVER_CAP_EVERY, OVER_CAP_EVERY - 1, "{}", src.name);
                assert_eq!(
                    iters.len(),
                    1,
                    "{}: over-cap programs are one nest",
                    src.name
                );
            } else {
                assert!((1..=2).contains(&iters.len()));
                assert!(total <= 1_950_000, "{}: {total}", src.name);
                assert!(
                    iters.iter().all(|&it| it > loopmem_verify::REPLAY_CAP),
                    "{}",
                    src.name
                );
            }
        }
        assert_eq!(over, corpus.len() / OVER_CAP_EVERY);
    }

    #[test]
    fn multi_nest_programs_are_small_chains() {
        for src in multi_nest(9, 50) {
            let iters = iterations(&src);
            assert!((3..=8).contains(&iters.len()), "{}", src.name);
            assert!(iters.iter().all(|&it| it <= 22 * 22));
        }
    }

    #[test]
    fn kernel_order_visits_every_program_once_per_pass() {
        let order = kernel_order(18, 4, 1);
        for pass in order.chunks(18) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        }
    }
}
