//! Whole-program analysis of a small image pipeline (multi-nest
//! extension): blur, then downsample, then histogram-like accumulate.
//!
//! Shows what single-nest analysis cannot: the values that stay live
//! *between* loop nests, and how the peak window moves across phases.
//!
//! Run with `cargo run --release --example image_pipeline`.

use loopmem::core::analyze_program;
use loopmem::ir::parse_program;
use loopmem::Session;

fn main() {
    let session = Session::new();
    let program = parse_program(
        "array IN[34][34]\narray BLUR[32][32]\narray SMALL[16][16]\narray HIST[16]\n\
         # phase 1: 3x3 blur\n\
         for i = 1 to 32 {\n\
           for j = 1 to 32 {\n\
             for ki = 1 to 3 {\n\
               for kj = 1 to 3 {\n\
                 BLUR[i][j] = BLUR[i][j] + IN[i + ki - 1][j + kj - 1];\n\
               }\n\
             }\n\
           }\n\
         }\n\
         # phase 2: 2x downsample\n\
         for i = 1 to 16 {\n\
           for j = 1 to 16 {\n\
             SMALL[i][j] = BLUR[2i - 1][2j - 1] + BLUR[2i][2j];\n\
           }\n\
         }\n\
         # phase 3: row accumulation\n\
         for i = 1 to 16 {\n\
           for j = 1 to 16 {\n\
             HIST[i] = HIST[i] + SMALL[i][j];\n\
           }\n\
         }",
    )
    .expect("pipeline parses");

    let a = analyze_program(&session, &program).expect("pipeline simulates");
    println!("== image pipeline: blur -> downsample -> accumulate ==");
    println!("declared arrays     : {} words", a.default_words);
    println!(
        "distinct touched    : {} words",
        a.distinct.values().sum::<u64>()
    );
    println!(
        "whole-program MWS   : {} words (peak inside phase {})",
        a.mws_exact,
        a.peak_nest + 1
    );
    for (k, live) in a.boundary_live.iter().enumerate() {
        println!("live across boundary {}->{}: {} words", k + 1, k + 2, live);
    }

    let opt = session
        .optimize_program(&program)
        .expect("optimization succeeds");
    println!("\nper-nest windows (before -> after the §4 search):");
    for (k, r) in opt.per_nest.iter().enumerate() {
        match r {
            Ok((b, aa)) => println!("  phase {}: {} -> {}", k + 1, b, aa),
            Err(e) => println!("  phase {}: kept original ({e})", k + 1),
        }
    }
    println!("whole-program MWS: {} -> {}", opt.mws_before, opt.mws_after);
    println!(
        "\nnote: the {}-word boundary sets are untouchable by loop reordering —\n\
         shrinking them needs loop *fusion* (our extension; the paper's future work).",
        a.boundary_live.iter().max().copied().unwrap_or(0)
    );

    // Phases 2 and 3 are conformable (both 16x16): fuse them.
    let fused = loopmem::core::fuse(&program, 1).expect("phases 2+3 fuse legally");
    let fa = analyze_program(&session, &fused).expect("pipeline simulates");
    println!("\n== after fusing downsample + accumulate ==");
    println!("whole-program MWS   : {} words", fa.mws_exact);
    for (k, live) in fa.boundary_live.iter().enumerate() {
        println!("live across boundary {}->{}: {} words", k + 1, k + 2, live);
    }
    println!(
        "the SMALL boundary ({} words) is gone: each downsampled pixel is\n\
         consumed in the very iteration that produces it.",
        a.boundary_live[1]
    );
}
