//! Extension experiment: full LRU miss curves per kernel from a single
//! reuse-distance histogram pass — misses at every capacity, with the MWS
//! marked. The knee of each curve sits at (or just past) the window size.

use loopmem_core::Session;
use loopmem_sim::{ReuseHistogram, Trace};

fn main() {
    for k in loopmem_bench::all_kernels() {
        let nest = k.nest();
        let mws = Session::new()
            .simulate(&nest)
            .expect("kernels simulate")
            .mws_total as usize;
        let t = Trace::from_nest(&nest);
        let h = ReuseHistogram::from_trace(&t);
        println!("{} (cold {}, MWS {mws}):", k.name, h.cold());
        let mut caps: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        caps.push(mws.saturating_sub(1).max(1));
        caps.push(mws);
        caps.push(mws + 1);
        caps.sort_unstable();
        caps.dedup();
        for c in caps {
            let m = h.lru_misses(c);
            let marker = if c == mws { "  <- MWS" } else { "" };
            println!("  C={c:>5}  misses={m:>7}{marker}");
        }
        println!();
    }
}
