//! The seven benchmark codes of §5, as `loopmem-ir` DSL sources.
//!
//! The paper's Figure 2 names the codes but the surviving scan garbles most
//! of the *default*/*MWS_unopt* numerals, so the kernels below reconstruct
//! each code from its algorithmic structure and size it to the legible
//! digits (see EXPERIMENTS.md for the cell-by-cell comparison):
//!
//! * `matmult` is pinned exactly by the table: `MWS_opt = 273 = 16²+16+1`
//!   and identical 64.4 % figures in both columns force `N = 16`
//!   (default `3·16² = 768`);
//! * `rasta_flt`'s default column survives as 5 152, which the
//!   band × frame signal layout `X[23][200] + Y[23][24]` matches exactly
//!   (23 critical-band channels is the RASTA-PLP constant);
//! * the stencils use the classic in-place forms whose windows are a row
//!   (`N+1`) or two rows (`2N+3`) wide before optimization.

use loopmem_ir::{parse, LoopNest};

/// One benchmark kernel: a stable name and its DSL source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel {
    /// Name as it appears in Figure 2.
    pub name: &'static str,
    /// DSL source text.
    pub source: &'static str,
    /// One-line description of what the code does.
    pub description: &'static str,
}

impl Kernel {
    /// Parses the kernel into a nest.
    ///
    /// # Panics
    ///
    /// Panics on parse errors — kernel sources are compile-time constants
    /// covered by tests.
    pub fn nest(&self) -> LoopNest {
        parse(self.source).unwrap_or_else(|e| panic!("kernel {}: {e}", self.name))
    }
}

/// `2_point`: in-place two-point vertical stencil on a 64×64 image
/// (default 4 096 words). The dependence `(1,0)` is carried by the outer
/// loop, keeping a whole row live; interchange collapses the window.
pub const TWO_POINT: Kernel = Kernel {
    name: "2_point",
    description: "two-point stencil, 64x64 image",
    source: "array A[64][64]\n\
             for i = 2 to 64 {\n\
               for j = 1 to 64 {\n\
                 A[i][j] = A[i-1][j] + A[i][j];\n\
               }\n\
             }",
};

/// `3_point`: in-place vertical three-point stencil over a 32×32 grid
/// (default 1 024 words). Reading the *next* row keeps two rows live
/// (window `≈ 2N+1`, the paper's 6x cell); interchange walks columns and
/// collapses the window to a few elements.
pub const THREE_POINT: Kernel = Kernel {
    name: "3_point",
    description: "three-point stencil, 32x32 grid",
    source: "array A[32][32]\n\
             for i = 2 to 31 {\n\
               for j = 1 to 32 {\n\
                 A[i][j] = A[i-1][j] + A[i][j] + A[i+1][j];\n\
               }\n\
             }",
};

/// `sor`: successive over-relaxation, five-point in-place sweep over a
/// 32×32 grid (default 1 024 words). Reads of the *next* row make the
/// window two rows wide.
pub const SOR: Kernel = Kernel {
    name: "sor",
    description: "successive over-relaxation, 32x32 grid",
    source: "array A[32][32]\n\
             for i = 2 to 31 {\n\
               for j = 2 to 31 {\n\
                 A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);\n\
               }\n\
             }",
};

/// `matmult`: 16×16 matrix multiply (default 3·256 = 768 words). All of
/// `B` stays live across the `i` loop: `MWS = 256 + 16 + 1 = 273`, and no
/// unimodular reordering beats it — exactly the paper's identical
/// 64.4 % / 64.4 % row.
pub const MATMULT: Kernel = Kernel {
    name: "matmult",
    description: "matrix multiply, N = 16",
    source: "array C[16][16]\narray A[16][16]\narray B[16][16]\n\
             for i = 1 to 16 {\n\
               for j = 1 to 16 {\n\
                 for k = 1 to 16 {\n\
                   C[i][j] = C[i][j] + A[i][k] * B[k][j];\n\
                 }\n\
               }\n\
             }",
};

/// `3step_log`: first (widest) step of three-step logarithmic motion
/// estimation — a 3×3 candidate grid at stride 8 matched against a 16×16
/// current block inside a 40×40 reference window
/// (default 1 600 + 256 + 9 = 1 865 words).
pub const THREE_STEP_LOG: Kernel = Kernel {
    name: "3step_log",
    description: "3-step logarithmic motion estimation (widest step)",
    source: "array R[40][40]\narray C[16][16]\narray S[3][3]\n\
             for cy = 1 to 3 {\n\
               for cx = 1 to 3 {\n\
                 for py = 1 to 16 {\n\
                   for px = 1 to 16 {\n\
                     S[cy][cx] = S[cy][cx] + R[8*cy + py][8*cx + px] + C[py][px];\n\
                   }\n\
                 }\n\
               }\n\
             }",
};

/// `full_search`: exhaustive block-matching motion estimation — an 8×8
/// current block against every candidate of a ±16 search area in a 40×40
/// reference window (default 1 600 + 64 + 1 024 = 2 688 words).
pub const FULL_SEARCH: Kernel = Kernel {
    name: "full_search",
    description: "full-search motion estimation, 8x8 block, 32x32 candidates",
    source: "array R[40][40]\narray C[8][8]\narray S[32][32]\n\
             for dy = 1 to 32 {\n\
               for dx = 1 to 32 {\n\
                 for py = 1 to 8 {\n\
                   for px = 1 to 8 {\n\
                     S[dy][dx] = S[dy][dx] + R[dy + py][dx + px] + C[py][px];\n\
                   }\n\
                 }\n\
               }\n\
             }",
};

/// `rasta_flt`: RASTA-style band filtering from MediaBench — 23
/// critical-band channels, a decimating FIR with an overlapping 16-tap
/// window over 200 input frames (default 23·200 + 23·24 = 5 152 words,
/// matching the paper's legible cell). Written in the real-time
/// (time-outer) order, which keeps every band's history live at once; the
/// optimizer restores the band-outer order.
pub const RASTA_FLT: Kernel = Kernel {
    name: "rasta_flt",
    description: "RASTA band filtering, 23 bands, decimating 16-tap FIR",
    source: "array X[23][200]\narray Y[23][24]\n\
             for t = 1 to 24 {\n\
               for b = 1 to 23 {\n\
                 for k = 1 to 16 {\n\
                   Y[b][t] = Y[b][t] + X[b][8*t - k + 9];\n\
                 }\n\
               }\n\
             }",
};

/// The seven kernels, in Figure 2's row order.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        TWO_POINT,
        THREE_POINT,
        SOR,
        MATMULT,
        THREE_STEP_LOG,
        FULL_SEARCH,
        RASTA_FLT,
    ]
}

/// Kernel lookup by Figure 2 name.
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    all_kernels().into_iter().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_parse() {
        for k in all_kernels() {
            let nest = k.nest();
            assert!(nest.depth() >= 2, "{}", k.name);
            assert!(!nest.statements().is_empty(), "{}", k.name);
        }
    }

    #[test]
    fn default_memory_sizes() {
        let expect = [
            ("2_point", 4096),
            ("3_point", 1024),
            ("sor", 1024),
            ("matmult", 768),
            ("3step_log", 1865),
            ("full_search", 2688),
            ("rasta_flt", 5152),
        ];
        for (name, words) in expect {
            let k = kernel_by_name(name).unwrap();
            assert_eq!(k.nest().default_memory(), words, "{name}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name("sor").is_some());
        assert!(kernel_by_name("nope").is_none());
    }

    #[test]
    fn matmult_mws_is_273() {
        // The one cell of Figure 2 that is fully pinned by the scan.
        let s = loopmem_core::Session::new()
            .simulate(&MATMULT.nest())
            .unwrap();
        assert_eq!(s.mws_total, 273);
    }

    #[test]
    fn rasta_reads_stay_in_bounds() {
        let nest = RASTA_FLT.nest();
        let x = nest.array_by_name("X").unwrap();
        loopmem_sim::for_each_iteration(&nest, |it| {
            for r in nest.refs().filter(|r| r.array == x) {
                let idx = r.index_at(it);
                assert!(idx[0] >= 1 && idx[0] <= 23, "band {idx:?}");
                assert!(idx[1] >= 1 && idx[1] <= 200, "frame {idx:?}");
            }
        });
    }
}
