//! Engine-equivalence suite for the lane-split pass-1 kernels.
//!
//! Seeded random nests per kernel class — stride-0, stride-±1,
//! general-stride, and the sparse hashmap fallback — each pinned
//! bit-identical across worker-thread counts t ∈ {1, 2, 4} and against
//! the legacy per-element hashmap engine. Every generated source is
//! reproducible from the fixed per-class seed, so a failure names the
//! exact nest.

use loopmem_ir::parse;
use loopmem_linalg::rng::Lcg;
use loopmem_sim::{bench_pass1_interleaved, simulate_hashmap_with_profile};

mod common;
use common::exact;

/// Asserts the dense lane-split engine matches the hashmap reference
/// bit-for-bit (iterations, per-array stats, MWS, full profile) for
/// every pinned thread count, and that the legacy interleaved pass-1
/// comparator agrees on the iteration count.
fn assert_engines_agree(src: &str) {
    let nest = parse(src).unwrap_or_else(|e| panic!("parse failed for:\n{src}\n{e:?}"));
    let reference = simulate_hashmap_with_profile(&nest);
    for threads in [1usize, 2, 4] {
        let got = exact(&nest, true, threads);
        assert_eq!(
            got.iterations, reference.iterations,
            "iterations diverge at t={threads} for:\n{src}"
        );
        assert_eq!(
            got.mws_total, reference.mws_total,
            "mws_total diverges at t={threads} for:\n{src}"
        );
        assert_eq!(
            got.per_array, reference.per_array,
            "per-array stats diverge at t={threads} for:\n{src}"
        );
        assert_eq!(
            got.profile, reference.profile,
            "window profile diverges at t={threads} for:\n{src}"
        );
    }
    assert_eq!(bench_pass1_interleaved(&nest), reference.iterations);
}

#[test]
fn stride0_references_agree() {
    // Innermost-invariant subscripts: the run kernel collapses a whole
    // run into one min/max pair.
    let mut rng = Lcg::new(0x51D0_0001);
    for case in 0..24u64 {
        let c = rng.range_i64(1, 4);
        let k = rng.range_i64(1, 9);
        let ihi = rng.range_i64(4, 16);
        let jhi = rng.range_i64(4, 16);
        let n = c * ihi + k + c * ihi + 20;
        let src = match case % 3 {
            // Sole stride-0 reference.
            0 => format!(
                "array A[{n}]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ A[{c}i + {k}]; }} }}"
            ),
            // Two stride-0 references of one array (max-lane fold).
            1 => format!(
                "array A[{n}]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ A[{c}i + {k}] = A[{c}i + {}]; }} }}",
                k + 1
            ),
            // Depth-3: stride 0 in the innermost variable only.
            _ => format!(
                "array A[{n}]\nfor i = 1 to {ihi} {{ for j = 1 to 5 {{ for k = 1 to {jhi} {{ A[{c}i + j]; }} }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
}

#[test]
fn stride_plus_one_references_agree() {
    // Contiguous ascending runs: slice-fill `last` lanes (sole refs) and
    // min/max lanes (stencil pairs).
    let mut rng = Lcg::new(0x51D0_0002);
    for case in 0..24u64 {
        let ihi = rng.range_i64(4, 20);
        let jhi = rng.range_i64(4, 20);
        let k = rng.range_i64(1, 6);
        let src = match case % 3 {
            // Sole reference, 1-D, offset j + c·i.
            0 => format!(
                "array X[600]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{k}i + j]; }} }}"
            ),
            // 2-D stencil: two refs, same column stride +1.
            1 => format!(
                "array A[24][24]\nfor i = 2 to {} {{ for j = 1 to {jhi} {{ A[i][j] = A[i-1][j]; }} }}",
                ihi.min(20) + 2
            ),
            // Triangular inner bounds.
            _ => format!(
                "array X[600]\nfor i = 1 to {ihi} {{ for j = i to {} {{ X[{k}i + j] = X[{k}i + j + 2]; }} }}",
                jhi + 4
            ),
        };
        assert_engines_agree(&src);
    }
}

#[test]
fn stride_minus_one_references_agree() {
    // Contiguous descending runs: the kernels write the lanes back to
    // front with decreasing stamps.
    let mut rng = Lcg::new(0x51D0_0003);
    for case in 0..24u64 {
        let ihi = rng.range_i64(4, 18);
        let jhi = rng.range_i64(4, 18);
        let c = rng.range_i64(1, 4);
        let base = 40 + jhi;
        let src = match case % 3 {
            // Sole descending reference.
            0 => format!(
                "array X[200]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{base} - j + {c}i]; }} }}"
            ),
            // Ascending against descending: runs cross mid-way.
            1 => format!(
                "array X[200]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{c}i + j] = X[{base} - j]; }} }}"
            ),
            // Depth-3 with a descending innermost subscript.
            _ => format!(
                "array X[200]\nfor i = 1 to {ihi} {{ for j = 1 to 4 {{ for k = 1 to {jhi} {{ X[{base} - k + j]; }} }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
}

#[test]
fn general_stride_references_agree() {
    // Example-8 style interleavings: |stride| ≥ 2 walks the lanes with
    // gaps, exercising the strided branch-free kernel.
    let mut rng = Lcg::new(0x51D0_0004);
    for case in 0..24u64 {
        let ihi = rng.range_i64(4, 18);
        let jhi = rng.range_i64(4, 14);
        let s = [2i64, 3, 5, 7][(rng.next_u64() % 4) as usize];
        let c = rng.range_i64(1, 4);
        let base = s * jhi + 20;
        let src = match case % 3 {
            // Sole strided reference.
            0 => format!(
                "array X[800]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{c}i + {s}j]; }} }}"
            ),
            // The paper's Example 8 shape: two refs, shifted constants.
            1 => format!(
                "array X[800]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{c}i + {s}j + 1] = X[{c}i + {s}j + 5]; }} }}"
            ),
            // Negative stride with positive offset to stay in range.
            _ => format!(
                "array X[800]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{base} - {s}j + {c}i]; }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
}

#[test]
fn sparse_fallback_references_agree() {
    // Subscript strides so large the planner demotes the array to the
    // hashmap path — including mixed nests where one array stays dense,
    // exercising the split dense-kernel / per-iteration sparse loop.
    let mut rng = Lcg::new(0x51D0_0005);
    for case in 0..12u64 {
        let ihi = rng.range_i64(3, 12);
        let jhi = rng.range_i64(3, 8);
        let src = match case % 2 {
            0 => format!(
                "array X[2000000000]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[100000000i + j]; }} }}"
            ),
            // One sparse array interleaved with one dense stride-1 array.
            _ => format!(
                "array X[2000000000]\narray B[60]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[100000000i + j] = B[j + i]; }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
}
