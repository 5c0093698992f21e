//! Sizing the on-chip buffer of a motion-estimation accelerator.
//!
//! Full-search block matching is the workload the paper's introduction
//! motivates: large frames, heavy reuse, and an embedded memory that
//! should be sized to the *working set*, not the declared arrays. This
//! example analyzes the full-search kernel, optimizes it, and prices the
//! resulting scratchpad with the synthetic memory model.
//!
//! Run with `cargo run --example motion_estimation`.

use loopmem::core::{analyze_memory, estimate_distinct};
use loopmem::ir::parse;
use loopmem::sim::ScratchpadModel;
use loopmem::Session;

fn main() {
    let session = Session::new();
    // An 8x8 current block matched against every candidate of a +/-16
    // search area inside a 40x40 reference window.
    let nest = parse(
        "array R[40][40]\narray C[8][8]\narray S[32][32]\n\
         for dy = 1 to 32 {\n\
           for dx = 1 to 32 {\n\
             for py = 1 to 8 {\n\
               for px = 1 to 8 {\n\
                 S[dy][dx] = S[dy][dx] + R[dy + py][dx + px] + C[py][px];\n\
               }\n\
             }\n\
           }\n\
         }",
    )
    .expect("kernel parses");

    let m = analyze_memory(&session, &nest).expect("kernel simulates");
    println!("== full-search motion estimation ==");
    println!("declared arrays : {} words (R + C + S)", m.default_words);
    println!("distinct touched: {} words", m.distinct_exact_total);
    println!("exact MWS       : {} words", m.mws_exact);
    for (id, est) in estimate_distinct(&nest) {
        let decl = nest.array(id);
        println!(
            "  {:<2} declared {:>5}, distinct in [{}, {}] ({:?})",
            decl.name,
            decl.size(),
            est.lower,
            est.upper,
            est.method
        );
    }

    let opt = session.optimize(&nest).expect("search succeeds");
    println!(
        "\noptimizer: MWS {} -> {} over {} candidates",
        opt.mws_before, opt.mws_after, opt.candidates_considered
    );

    // Price three sizing policies with the synthetic scratchpad model.
    let model = ScratchpadModel::new();
    println!("\n== scratchpad sizing (synthetic CACTI-shaped model) ==");
    for (label, words) in [
        ("declared arrays", m.default_words as u64),
        ("distinct accesses", m.distinct_exact_total),
        ("optimized MWS", opt.mws_after),
    ] {
        println!("  {:<18} {}", label, model.report(words));
    }
    println!(
        "\nenergy saving of MWS-sized vs. declared-sized memory: {:.2}x per access",
        model.energy_saving_factor(m.default_words as u64, opt.mws_after)
    );
}
