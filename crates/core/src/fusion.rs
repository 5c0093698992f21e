//! Loop fusion across adjacent nests (multi-nest extension).
//!
//! The program analysis shows that producer/consumer pairs keep whole
//! arrays live across nest boundaries, which no unimodular reordering can
//! fix. Fusion can: executing both bodies in one traversal lets each
//! element die iterations — not nests — after its production. This module
//! fuses *conformable* adjacent nests (identical loop ranges) when no
//! fusion-preventing dependence exists.
//!
//! Legality is checked exactly, on the trace: fusing is illegal iff some
//! element is touched at iteration `I` of the first nest and at a
//! lexicographically *earlier* iteration `J ≺ I` of the second with at
//! least one write among the two touches — in the fused order that
//! access pair would flip.

use loopmem_ir::{AccessKind, LoopNest, Program, ProgramError, Statement};
use loopmem_sim::for_each_iteration;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Why two nests could not be fused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FusionError {
    /// Index out of range (needs `k + 1 < program.len()`).
    NoSuchPair(usize),
    /// The nests' loop ranges differ (only conformable nests fuse).
    NotConformable,
    /// A dependence would be violated: element of array `array_name`
    /// touched at `first` (nest `k`) and earlier iteration `second`
    /// (nest `k+1`).
    FusionPreventingDependence {
        /// Array involved.
        array_name: String,
        /// Iteration in the first nest.
        first: Vec<i64>,
        /// (Earlier) iteration in the second nest.
        second: Vec<i64>,
    },
    /// Rebuilding the program failed.
    Program(ProgramError),
}

impl fmt::Display for FusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionError::NoSuchPair(k) => write!(f, "no nest pair at index {k}"),
            FusionError::NotConformable => write!(f, "nests have different loop ranges"),
            FusionError::FusionPreventingDependence {
                array_name,
                first,
                second,
            } => write!(
                f,
                "fusion-preventing dependence on {array_name}: \
                 nest-1 iteration {first:?} vs earlier nest-2 iteration {second:?}"
            ),
            FusionError::Program(e) => write!(f, "program rebuild failed: {e}"),
        }
    }
}

impl Error for FusionError {}

impl From<ProgramError> for FusionError {
    fn from(e: ProgramError) -> Self {
        FusionError::Program(e)
    }
}

/// Fuses nests `k` and `k+1` of the program, validating conformability
/// and (exactly) dependence preservation.
///
/// # Errors
///
/// See [`FusionError`].
pub fn fuse(program: &Program, k: usize) -> Result<Program, FusionError> {
    if k + 1 >= program.len() {
        return Err(FusionError::NoSuchPair(k));
    }
    let first = &program.nests()[k];
    let second = &program.nests()[k + 1];
    if first.rectangular_ranges().is_none()
        || first.rectangular_ranges() != second.rectangular_ranges()
    {
        return Err(FusionError::NotConformable);
    }
    check_legality(first, second, program)?;

    // Fused body: statements of the first nest then of the second; the
    // second nest's variables are positionally identified with the
    // first's.
    let mut statements: Vec<Statement> = first.statements().to_vec();
    statements.extend(second.statements().iter().cloned());
    let fused = LoopNest::new(
        first.loops().to_vec(),
        program.arrays().to_vec(),
        statements,
    )
    .expect("conformable fusion yields a valid nest");

    let mut nests: Vec<LoopNest> = program.nests().to_vec();
    nests.splice(k..=k + 1, [fused]);
    Program::new(nests).map_err(FusionError::from)
}

/// Exact legality. Fusing swaps exactly the access pairs
/// `(nest-1 touch at iteration I, nest-2 touch at iteration J)` with
/// `I ≻ J` (within one iteration the first nest's statements still run
/// first). A swapped pair breaks semantics iff it involves a write:
///
/// * a nest-2 *write* at `J` conflicts with any nest-1 touch after `J`;
/// * a nest-2 *read* at `J` conflicts only with a nest-1 *write* after
///   `J` — later nest-1 reads of the same element reorder harmlessly.
fn check_legality(
    first: &LoopNest,
    second: &LoopNest,
    program: &Program,
) -> Result<(), FusionError> {
    #[derive(Clone)]
    struct Touch {
        last_touch: Vec<i64>,
        last_write: Option<Vec<i64>>,
    }
    let mut in_first: HashMap<(usize, Vec<i64>), Touch> = HashMap::new();
    for_each_iteration(first, |it| {
        for r in first.refs() {
            let e = in_first
                .entry((r.array.0, r.index_at(it)))
                .or_insert(Touch {
                    last_touch: it.to_vec(),
                    last_write: None,
                });
            e.last_touch = it.to_vec();
            if r.kind == AccessKind::Write {
                e.last_write = Some(it.to_vec());
            }
        }
    });
    let mut violation: Option<FusionError> = None;
    for_each_iteration(second, |it| {
        if violation.is_some() {
            return;
        }
        for r in second.refs() {
            let key = (r.array.0, r.index_at(it));
            let Some(t) = in_first.get(&key) else {
                continue;
            };
            let conflicting = match r.kind {
                AccessKind::Write => (it.to_vec() < t.last_touch).then(|| t.last_touch.clone()),
                AccessKind::Read => t.last_write.as_ref().filter(|w| it.to_vec() < **w).cloned(),
            };
            if let Some(first_iter) = conflicting {
                violation = Some(FusionError::FusionPreventingDependence {
                    array_name: program.arrays()[key.0].name.clone(),
                    first: first_iter,
                    second: it.to_vec(),
                });
                return;
            }
        }
    });
    match violation {
        Some(v) => Err(v),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::exact_program as simulate_program;
    use loopmem_ir::parse_program;

    fn producer_consumer() -> Program {
        parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap()
    }

    #[test]
    fn fusion_collapses_the_boundary_set() {
        let p = producer_consumer();
        let before = simulate_program(&p);
        assert_eq!(before.boundary_live, vec![64]);
        let fused = fuse(&p, 0).unwrap();
        assert_eq!(fused.len(), 1);
        let after = simulate_program(&fused);
        assert!(after.boundary_live.is_empty());
        // Each A element now dies within its own iteration.
        assert!(
            after.mws_total <= 2,
            "window should collapse, got {}",
            after.mws_total
        );
        // Same work, same footprint.
        assert_eq!(after.distinct_total(), before.distinct_total());
    }

    #[test]
    fn forward_shift_dependences_are_legal() {
        // Second nest reads A[i-1][j]: produced strictly earlier — legal.
        let p = parse_program(
            "array A[9][8]\narray C[9][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i][j] + 1; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i - 1][j]; } }",
        )
        .unwrap();
        // Ranges conform (both 8x8); A[i-1] needs iteration (i-1, j) < (i, j).
        let fused = fuse(&p, 0).unwrap();
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn backward_dependence_prevents_fusion() {
        // Second nest reads A[i+1][j]: in fused order the read at (i, j)
        // would run before the write at (i+1, j).
        let p = parse_program(
            "array A[9][8]\narray C[9][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i][j] + 1; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i + 1][j]; } }",
        )
        .unwrap();
        let err = fuse(&p, 0).unwrap_err();
        assert!(
            matches!(err, FusionError::FusionPreventingDependence { .. }),
            "{err}"
        );
    }

    #[test]
    fn read_read_overlap_is_always_legal() {
        let p = parse_program(
            "array A[8]\narray B[8]\narray C[8]\n\
             for i = 1 to 8 { B[i] = A[i]; }\n\
             for i = 1 to 8 { C[i] = A[9 - i]; }",
        )
        .unwrap();
        // A is only read in both nests; reversed order is harmless.
        assert!(fuse(&p, 0).is_ok());
    }

    #[test]
    fn non_conformable_rejected() {
        let p = parse_program(
            "array A[8]\narray B[4]\n\
             for i = 1 to 8 { A[i] = A[i] + 1; }\n\
             for i = 1 to 4 { B[i] = A[2i]; }",
        )
        .unwrap();
        assert_eq!(fuse(&p, 0).unwrap_err(), FusionError::NotConformable);
    }

    #[test]
    fn bad_index_rejected() {
        let p = producer_consumer();
        assert_eq!(fuse(&p, 1).unwrap_err(), FusionError::NoSuchPair(1));
    }
}
