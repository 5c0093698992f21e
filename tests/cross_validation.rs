//! Cross-validation of the three independent measurement paths:
//! closed-form estimators (`loopmem-core`), polyhedral enumeration
//! (`loopmem-poly`), and trace simulation (`loopmem-sim`). Deterministic
//! (seeded `Lcg`), no external dependencies.

use loopmem::core::estimate_distinct;
use loopmem::ir::{parse, ArrayId};
use loopmem::linalg::Lcg;
use loopmem::poly::count::distinct_accesses_for;
use loopmem::Session;

/// Random single-reference 1-D access `A[p*i + q*j + c]` over a random box.
fn nullspace_case(rng: &mut Lcg) -> String {
    let p = rng.range_i64(1, 6);
    let q = rng.range_i64(-6, 6);
    let c = rng.range_i64(0, 9);
    let n1 = rng.range_i64(4, 14);
    let n2 = rng.range_i64(4, 14);
    // Ensure the subscript stays within a generous declaration.
    let max_idx = p.abs() * n1 + q.abs() * n2 + c + 50;
    let qterm = if q >= 0 {
        format!("+ {q}*j")
    } else {
        format!("- {}*j", -q)
    };
    format!(
        "array A[{max_idx}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ A[{p}*i {qterm} + {cc}]; }} }}",
        cc = c + 49,
    )
}

/// Random two-reference full-rank case `A[i+o1][j+o2] = A[i+o3][j+o4]`.
fn full_rank_case(rng: &mut Lcg) -> String {
    let n1 = rng.range_i64(4, 12);
    let n2 = rng.range_i64(4, 12);
    let o: Vec<i64> = (0..4).map(|_| rng.range_i64(-3, 3)).collect();
    format!(
        "array A[{}][{}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ \
         A[i + {a}][j + {b}] = A[i + {c}][j + {d}]; }} }}",
        n1 + 8,
        n2 + 8,
        a = o[0] + 4,
        b = o[1] + 4,
        c = o[2] + 4,
        d = o[3] + 4,
    )
}

#[test]
fn nullspace_formula_matches_enumeration() {
    let mut rng = Lcg::new(0x71);
    for _ in 0..64 {
        let src = nullspace_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let est = estimate_distinct(&nest)[&ArrayId(0)];
        let exact = distinct_accesses_for(&nest, ArrayId(0)) as i64;
        assert!(est.is_exact(), "single uniformly generated ref is exact");
        assert_eq!(est.value().unwrap(), exact, "{src}");
    }
}

#[test]
fn nullspace_formula_matches_simulator() {
    let mut rng = Lcg::new(0x72);
    for _ in 0..64 {
        let src = nullspace_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let est = estimate_distinct(&nest)[&ArrayId(0)];
        let sim = Session::new().simulate(&nest).unwrap();
        assert_eq!(est.value().unwrap() as u64, sim.distinct_total(), "{src}");
    }
}

#[test]
fn two_ref_full_rank_formula_is_exact() {
    let mut rng = Lcg::new(0x73);
    for _ in 0..64 {
        let src = full_rank_case(&mut rng);
        // §3.1 with r = 2 has no higher-order overlap, so the formula is
        // genuinely exact; all three paths must agree.
        let nest = parse(&src).expect("generated source parses");
        let est = estimate_distinct(&nest)[&ArrayId(0)];
        let exact = distinct_accesses_for(&nest, ArrayId(0)) as i64;
        assert_eq!(est.value().unwrap(), exact, "{src}");
        assert_eq!(
            exact as u64,
            Session::new().simulate(&nest).unwrap().distinct_total(),
            "{src}"
        );
    }
}

#[test]
fn window_never_exceeds_distinct() {
    let mut rng = Lcg::new(0x74);
    for _ in 0..64 {
        let src = full_rank_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let sim = Session::new().simulate(&nest).unwrap();
        assert!(sim.mws_total <= sim.distinct_total(), "{src}");
        for stats in sim.per_array.values() {
            assert!(stats.mws <= stats.distinct, "{src}");
            assert!(stats.distinct <= stats.accesses, "{src}");
        }
    }
}

#[test]
fn enumeration_and_simulation_always_agree() {
    let mut rng = Lcg::new(0x75);
    for _ in 0..64 {
        let src = full_rank_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let by_poly = distinct_accesses_for(&nest, ArrayId(0));
        let by_sim = Session::new()
            .simulate(&nest)
            .unwrap()
            .array(ArrayId(0))
            .distinct;
        assert_eq!(by_poly, by_sim, "{src}");
    }
}
