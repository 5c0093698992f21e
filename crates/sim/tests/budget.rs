//! Budget semantics of the governed simulation entry points.
//!
//! The contracts under test:
//!
//! * a tripped budget returns [`AnalysisError::Exhausted`] whose payload
//!   is purely *analytical* — bit-identical across worker-thread counts
//!   and valid (`lower ≤ exact ≤ upper`) against the true answer;
//! * cancellation is observed within one polling chunk;
//! * an unlimited budget reproduces the reference hashmap engine exactly;
//! * overflow and panics inside a nest surface as typed errors, and in a
//!   multi-nest program they poison only their own nest.

use loopmem_ir::{parse, parse_program, AnalysisError, TripReason};
use loopmem_sim::{AnalysisBudget, CancelToken};

mod common;
use common::{exact, governed, governed_program};
use std::time::Duration;

fn huge_nest() -> loopmem_ir::LoopNest {
    // ~10¹² iterations: unsimulatable, so any governed run must trip.
    parse(
        "array X[2000001]\n\
         for i = 1 to 1000000 { for j = 1 to 1000000 { X[i + j] = X[i + j - 1]; } }",
    )
    .unwrap()
}

#[test]
fn deadline_trip_payload_is_identical_across_thread_counts() {
    let nest = huge_nest();
    // A zero timeout trips at the first poll no matter how fast the host
    // is; the payload must come from closed forms, not from progress, so
    // every thread count returns the same error value.
    let budget = AnalysisBudget::unlimited().with_timeout(Duration::ZERO);
    let errors: Vec<AnalysisError> = [1usize, 2, 4]
        .iter()
        .map(|&t| governed(&nest, false, t, &budget).unwrap_err())
        .collect();
    for e in &errors {
        let AnalysisError::Exhausted { reason, partial } = e else {
            panic!("expected Exhausted, got {e:?}");
        };
        assert_eq!(*reason, TripReason::Deadline);
        assert!(partial.lower <= partial.upper);
    }
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], errors[2]);
}

#[test]
fn max_iterations_trip_payload_is_identical_across_thread_counts() {
    let nest = huge_nest();
    let budget = AnalysisBudget::unlimited().with_max_iterations(10_000);
    let errors: Vec<AnalysisError> = [1usize, 2, 4]
        .iter()
        .map(|&t| governed(&nest, false, t, &budget).unwrap_err())
        .collect();
    assert!(matches!(
        &errors[0],
        AnalysisError::Exhausted {
            reason: TripReason::MaxIterations,
            ..
        }
    ));
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], errors[2]);
}

#[test]
fn pre_cancelled_token_trips_before_sweeping() {
    let token = CancelToken::new();
    token.cancel();
    let budget = AnalysisBudget::unlimited().with_cancel_token(token);
    let err = governed(&huge_nest(), false, 1, &budget).unwrap_err();
    assert!(matches!(
        err,
        AnalysisError::Exhausted {
            reason: TripReason::Cancelled,
            ..
        }
    ));
}

#[test]
fn cancellation_is_observed_within_one_chunk() {
    // Cancel from another thread shortly after the sweep starts; the
    // governed run must return (cancelled) rather than sweep all 10¹²
    // iterations. The generous join window only guards against a hung
    // sweep — typical return is milliseconds after the cancel.
    let token = CancelToken::new();
    let budget = AnalysisBudget::unlimited().with_cancel_token(token.clone());
    let nest = huge_nest();
    let worker = std::thread::spawn(move || governed(&nest, false, 1, &budget));
    std::thread::sleep(Duration::from_millis(50));
    token.cancel();
    let start = std::time::Instant::now();
    let result = worker.join().expect("governed sweep must not panic");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "cancellation not observed promptly"
    );
    assert!(matches!(
        result,
        Err(AnalysisError::Exhausted {
            reason: TripReason::Cancelled,
            ..
        })
    ));
}

#[test]
fn exhausted_bounds_sandwich_the_exact_answer() {
    // Force a trip on nests small enough to also run exactly: the
    // analytical payload must bracket the true MWS.
    let sources = [
        "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        "array A[52][52]\nfor i = 2 to 50 { for j = 1 to 50 { A[i][j] = A[i-1][j]; } }",
        "array B[64]\nfor i = 1 to 8 { for j = i to 8 { B[i + j]; } }",
        "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }",
    ];
    for src in sources {
        let nest = parse(src).unwrap();
        let exact = exact(&nest, false, 1).mws_total;
        let budget = AnalysisBudget::unlimited().with_max_iterations(3);
        let err = governed(&nest, false, 1, &budget).unwrap_err();
        let AnalysisError::Exhausted { partial, .. } = err else {
            panic!("expected Exhausted on {src}");
        };
        assert!(
            partial.lower <= exact && exact <= partial.upper,
            "bounds {partial} do not contain exact MWS {exact} for {src}"
        );
    }
}

#[test]
fn unlimited_budget_matches_reference_engine() {
    for src in [
        "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        "array A[34][34]\nfor i = 1 to 32 { for j = i to 32 { A[i][j] = A[j][i]; } }",
    ] {
        let nest = parse(src).unwrap();
        let reference = loopmem_sim::simulate_hashmap(&nest);
        let governed = governed(&nest, false, 1, &AnalysisBudget::unlimited()).unwrap();
        assert_eq!(governed.iterations, reference.iterations);
        assert_eq!(governed.mws_total, reference.mws_total);
        assert_eq!(governed.per_array, reference.per_array);
    }
}

#[test]
fn subscript_overflow_is_a_typed_error() {
    let nest = parse("array X[10]\nfor i = 1 to 5 { X[4000000000000000000i]; }").unwrap();
    let err = governed(&nest, false, 1, &AnalysisBudget::unlimited()).unwrap_err();
    assert!(
        matches!(err, AnalysisError::Overflow { .. }),
        "expected Overflow, got {err:?}"
    );
}

#[test]
fn panicking_nest_poisons_only_itself_in_a_program() {
    // Nest 1's inner bound overflows `Affine::eval` (a contained panic);
    // nests 0 and 2 must still analyze exactly and the program answer
    // degrades to bounds.
    let program = parse_program(
        "array A[10]\narray B[10]\n\
         for i = 1 to 3 { A[i]; }\n\
         for i = 800 to 900 { for j = i + 9223372036854775000 to 9223372036854775807 { B[1]; } }\n\
         for i = 1 to 3 { B[i]; }",
    )
    .unwrap();
    let gov = governed_program(&program, 1, &AnalysisBudget::unlimited()).unwrap();
    assert_eq!(gov.per_nest.len(), 3);
    assert_eq!(gov.per_nest[0], Ok(3));
    assert_eq!(gov.per_nest[2], Ok(3));
    match &gov.per_nest[1] {
        Err(AnalysisError::NestPanicked { nest, message }) => {
            assert_eq!(*nest, 1);
            assert!(
                message.contains("overflow"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("expected NestPanicked for nest 1, got {other:?}"),
    }
    assert!(!gov.all_exact());
    assert!(gov.mws_bounds.lower <= gov.mws_bounds.upper);
    assert!(!gov.mws_bounds.is_exact());
}

#[test]
fn near_max_loop_bounds_trip_instead_of_hanging() {
    // The outer span alone exceeds any feasible sweep; with an iteration
    // cap the governed run must return immediately with bounds.
    let nest = parse(
        "array X[10]\n\
         for i = 1 to 9223372036854775000 { X[1]; }",
    )
    .unwrap();
    let budget = AnalysisBudget::unlimited().with_max_iterations(1_000);
    let err = governed(&nest, false, 1, &budget).unwrap_err();
    let AnalysisError::Exhausted { reason, partial } = err else {
        panic!("expected Exhausted");
    };
    assert_eq!(reason, TripReason::MaxIterations);
    assert!(partial.lower <= partial.upper);
}
