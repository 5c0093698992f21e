//! Throughput of the exact-window simulator (the reproduction's ground
//! truth), per kernel and against nest size.
//!
//! Dependency-free harness: `harness = false` + `std::time::Instant`
//! (criterion is unavailable offline). For the cross-PR tracked numbers,
//! run the `perfsuite` binary instead.

mod util;

use loopmem_bench::all_kernels;
use loopmem_core::Session;
use loopmem_ir::parse;
use loopmem_sim::count_iterations;
use util::bench;

fn main() {
    let session = Session::new();
    println!("== Session::simulate: paper kernels ==");
    for k in all_kernels() {
        let nest = k.nest();
        let iters = count_iterations(&nest);
        bench(&format!("simulate/{} ({iters} its)", k.name), || {
            session.simulate(&nest)
        });
    }

    println!("== simulate: size scaling ==");
    for n in [32i64, 64, 128, 256] {
        let src = format!(
            "array A[{n}][{n}]\nfor i = 2 to {n} {{ for j = 1 to {n} {{ A[i][j] = A[i-1][j] + A[i][j]; }} }}"
        );
        let nest = parse(&src).expect("scaling kernel parses");
        bench(&format!("simulate_scaling/{n}"), || session.simulate(&nest));
    }
}
