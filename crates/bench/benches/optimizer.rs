//! Cost of the §4 transformation search, per kernel and per mode.
//!
//! The paper argues the search is cheap because "the number of variables
//! is linear in the number of nested loops which is usually very small in
//! practice (≤ 4)". This bench measures the full search — candidate
//! generation, legality filtering, ranking, and exact re-simulation — for
//! the compound mode and the interchange+reversal baseline.
//! Dependency-free harness (std `Instant`).

mod util;

use loopmem_bench::all_kernels;
use loopmem_core::{SearchMode, Session};
use util::bench;

fn main() {
    println!("== Session::optimize: compound vs interchange+reversal ==");
    let compound = Session::new();
    let baseline = Session::new().search_mode(SearchMode::InterchangeReversal);
    for k in all_kernels() {
        let nest = k.nest();
        bench(&format!("compound/{}", k.name), || compound.optimize(&nest));
        bench(&format!("interchange_reversal/{}", k.name), || {
            baseline.optimize(&nest)
        });
    }
}
