//! Figure-style output: the live-set (reference window) profile of each
//! kernel over execution, before and after optimization — the dynamic view
//! behind Figure 2's static MWS numbers.

use loopmem_core::Session;

fn sparkline(profile: &[u64], width: usize) -> String {
    if profile.is_empty() {
        return String::new();
    }
    let max = *profile.iter().max().unwrap_or(&1) as f64;
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let step = (profile.len() as f64 / width as f64).max(1.0);
    let mut out = String::new();
    let mut idx = 0.0;
    while (idx as usize) < profile.len() && out.len() < width {
        let w = profile[idx as usize] as f64;
        let level = if max == 0.0 {
            0
        } else {
            ((w / max) * 9.0).round() as usize
        };
        out.push(glyphs[level.min(9)]);
        idx += step;
    }
    out
}

fn main() {
    println!("Reference-window profiles (peak = the MWS; 64-char sparklines)\n");
    for k in loopmem_bench::all_kernels() {
        let nest = k.nest();
        let session = Session::new().profile(true);
        let before = session.simulate(&nest).expect("kernels simulate");
        let opt = session.optimize(&nest).expect("search succeeds");
        let after = session
            .simulate(&opt.transformed)
            .expect("kernels simulate");
        let pb = before.profile.expect("profile");
        let pa = after.profile.expect("profile");
        println!(
            "{:<12} unopt |{}| peak {}",
            k.name,
            sparkline(&pb, 64),
            before.mws_total
        );
        println!(
            "{:<12}   opt |{}| peak {}\n",
            "",
            sparkline(&pa, 64),
            after.mws_total
        );
    }
}
