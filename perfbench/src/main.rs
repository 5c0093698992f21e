//! Closed-loop, single-process benchmark of the certified loopmem pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernel-verify --seed 1 --seconds 16 --trace 0
//! ```
//!
//! One client sends one request at a time, the next only after the
//! previous one completed. A run is a fixed list of requests whose length
//! follows from `--seconds` (see [`Workload::programs`]), so two commits
//! given the same arguments do identical work. Run from the repository
//! root: the kernel workloads read `kernels/*.loop` and the answer tables
//! in `results/`. The last line of stdout is one JSON object; with
//! `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
//! per-layer ones. See `perfbench/README.md`.

mod corpus;
mod heap;
mod request;
mod speed;

use corpus::Source;
use request::{Client, Counts, Kind, Layer, Outcome, Recorder};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Fewest requests in a run: a p90 over 100 samples leaves 10 above it.
const MIN_PROGRAMS: usize = 100;

struct Workload {
    name: &'static str,
    kind: Kind,
    /// Worker threads; `None` means the host's available parallelism.
    threads: Option<usize>,
    /// The Session carries a collecting sink and certificate events, and
    /// each request drains and renders its trace.
    traced_session: bool,
    /// Requests per second of `--seconds` (calibrated on a 2-vCPU host);
    /// fixes the run's length independently of the machine it runs on.
    rate: f64,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kernel-verify",
        kind: Kind::Verify,
        threads: Some(1),
        traced_session: false,
        rate: 8.0,
    },
    Workload {
        name: "large-sweep",
        kind: Kind::Sweep,
        threads: None,
        traced_session: false,
        rate: 30.0,
    },
    Workload {
        name: "multi-nest",
        kind: Kind::Chain,
        threads: Some(1),
        traced_session: false,
        rate: 70.0,
    },
    Workload {
        name: "kernel-verify-traced",
        kind: Kind::Verify,
        threads: Some(1),
        traced_session: true,
        rate: 8.0,
    },
];

impl Workload {
    /// Length of the request list for a run of `seconds`.
    fn programs(&self, seconds: u64) -> usize {
        ((seconds as f64 * self.rate).round() as usize).max(MIN_PROGRAMS)
    }

    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        })
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Everything set-up produces: the request list and the client.
struct Prepared {
    threads: usize,
    sources: Vec<Source>,
    /// Request list as indices into `sources`.
    order: Vec<usize>,
    client: Client,
}

/// Builds the corpus from the seed, parses every distinct source once,
/// constructs the Session and warms it with one request on a fixed,
/// seed-independent program.
fn set_up(w: &Workload, seed: u64, seconds: u64, root: &Path) -> Result<Prepared, String> {
    let n = w.programs(seconds);
    let (sources, order, warm) = match w.kind {
        Kind::Verify => {
            let kernels = corpus::kernel_set(root)?;
            let passes = n.div_ceil(kernels.len());
            let order = corpus::kernel_order(kernels.len(), passes, seed);
            let warm = kernels[0].clone();
            (kernels, order, warm)
        }
        Kind::Sweep => {
            let sources = corpus::large_sweep(seed, n);
            (
                sources,
                (0..n).collect(),
                corpus::large_sweep(0, 1).remove(0),
            )
        }
        Kind::Chain => {
            let sources = corpus::multi_nest(seed, n);
            (
                sources,
                (0..n).collect(),
                corpus::multi_nest(0, 1).remove(0),
            )
        }
    };
    for s in &sources {
        loopmem_ir::parse_program(&s.text).map_err(|e| format!("{}: {e}", s.name))?;
    }
    let client = Client::new(w.kind, w.threads(), w.traced_session);
    std::hint::black_box(client.run(&warm.text, &mut Recorder::new(false)));
    Ok(Prepared {
        threads: w.threads(),
        sources,
        order,
        client,
    })
}

/// One timed pass over the request list.
struct Pass {
    outcomes: Vec<Outcome>,
    /// Wall time of each request.
    latencies_ms: Vec<f64>,
    /// Machine-speed scale factor of each request (see [`speed`]).
    factors: Vec<f64>,
    spans: Vec<request::Span>,
}

impl Pass {
    /// Request latencies at the probe's nominal machine speed.
    fn scaled_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.factors)
            .map(|(l, f)| l * f)
            .collect()
    }
}

/// Programs per second of time spent in requests.
fn throughput(latencies_ms: &[f64]) -> f64 {
    latencies_ms.len() as f64 / (latencies_ms.iter().sum::<f64>() / 1e3)
}

/// Sends the request list one request at a time, running the speed probe
/// after each request, outside its timing.
fn timed_pass(p: &Prepared, traced: bool) -> Pass {
    let mut rec = Recorder::new(traced);
    let mut meter = speed::Meter::new(p.threads);
    let mut outcomes = Vec::with_capacity(p.order.len());
    let mut latencies_ms = Vec::with_capacity(p.order.len());
    let mut intervals = Vec::with_capacity(p.order.len());
    for &i in &p.order {
        let start_s = meter.now_s();
        let out = p.client.run(&p.sources[i].text, &mut rec);
        let end_s = meter.now_s();
        let latency_ms = (end_s - start_s) * 1e3;
        intervals.push((start_s, end_s));
        latencies_ms.push(latency_ms);
        outcomes.push(std::hint::black_box(out));
        meter.after_request(latency_ms);
    }
    Pass {
        outcomes,
        latencies_ms,
        factors: intervals.iter().map(|&(a, b)| meter.factor(a, b)).collect(),
        spans: rec.spans,
    }
}

/// Answer-table rows: name → (declared words, MWS before, MWS after).
fn answer_table(root: &Path) -> Result<HashMap<String, (u64, u64, u64)>, String> {
    let mut rows = HashMap::new();
    for file in ["results/fig2_table.txt", "results/fig2_extended.txt"] {
        let path = root.join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines() {
            let cols: Vec<&str> = line.split_whitespace().collect();
            // `name default before (red.) after (red.)`
            if cols.len() == 6 && cols[2].parse::<u64>().is_ok() {
                let num = |c: &str| c.parse::<u64>().map_err(|e| format!("{file}: {line}: {e}"));
                rows.insert(
                    cols[0].to_string(),
                    (num(cols[1])?, num(cols[2])?, num(cols[4])?),
                );
            }
        }
    }
    // The paper's one fully legible Figure-2 row.
    if rows.get("matmult") != Some(&(768, 273, 273)) {
        return Err("results/fig2_table.txt: matmult row is not the paper's 768/273/273".into());
    }
    Ok(rows)
}

/// Strips the trace-only counts, which exist on the traced Session only.
fn untraced_view(o: &Outcome) -> Outcome {
    let mut o = o.clone();
    o.counts.obs_events = 0;
    o.counts.obs_ndjson_bytes = 0;
    o
}

/// Kernel workloads: every answer must match its row of the committed
/// Figure-2 tables, and every table row must be answered.
fn check_kernel_answers(root: &Path, p: &Prepared, pass: &Pass) -> Result<(), String> {
    let table = answer_table(root)?;
    let mut matched = std::collections::HashSet::new();
    for (&i, out) in p.order.iter().zip(&pass.outcomes) {
        let name = &p.sources[i].name;
        if let Some(&(declared, before, after)) = table.get(name) {
            if out.declared_words != declared || out.mws != [Some((before, after))] {
                return Err(format!(
                    "{name}: answered declared {} / MWS {:?}, table says {declared} / {before} -> {after}",
                    out.declared_words, out.mws
                ));
            }
            matched.insert(name);
        }
    }
    if matched.len() != table.len() {
        return Err(format!(
            "only {} of {} table rows were answered",
            matched.len(),
            table.len()
        ));
    }
    Ok(())
}

/// The answer of every distinct program through an untraced Session: the
/// reference a workload with a traced Session must reproduce.
fn untraced_reference(p: &Prepared, w: &Workload) -> Vec<Outcome> {
    let client = Client::new(w.kind, w.threads(), false);
    let mut rec = Recorder::new(false);
    p.sources
        .iter()
        .map(|s| client.run(&s.text, &mut rec))
        .collect()
}

/// Checks that every request repeated the answer it gave before: against
/// the untraced reference, against the first occurrence of the same program
/// in this run, and against a re-run of the first programs after timing.
fn check_determinism(
    p: &Prepared,
    pass: &Pass,
    reference: Option<&[Outcome]>,
) -> Result<(), String> {
    let mut first: HashMap<usize, &Outcome> = HashMap::new();
    for (&i, out) in p.order.iter().zip(&pass.outcomes) {
        if let Some(reference) = reference {
            if untraced_view(out) != reference[i] {
                return Err(format!(
                    "{}: answer differs from the untraced reference:\n  {:?}\n  {:?}",
                    p.sources[i].name, out, reference[i]
                ));
            }
        }
        let seen = first.entry(i).or_insert(out);
        if *seen != out {
            return Err(format!(
                "{}: answer changed between passes",
                p.sources[i].name
            ));
        }
    }
    let mut rec = Recorder::new(false);
    for (&i, out) in p.order.iter().zip(&pass.outcomes).take(2) {
        if p.client.run(&p.sources[i].text, &mut rec) != *out {
            return Err(format!("{}: answer changed on re-run", p.sources[i].name));
        }
    }
    Ok(())
}

/// Where runs leave their state: the build directory, never a tracked
/// path.
fn state_dir(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    root.join(target).join("perfbench-state")
}

/// Identifies the program build, so outcomes are only compared between
/// runs of one binary.
fn build_id() -> Result<u64, String> {
    use std::hash::{Hash, Hasher};
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    Ok(h.finish())
}

/// Cross-run determinism guard: the outcomes of this run must agree, on
/// their common prefix, with those an earlier run of the same binary,
/// workload and seed recorded; the longer record is kept.
fn check_against_earlier_runs(
    root: &Path,
    w: &Workload,
    seed: u64,
    outcomes: &[Outcome],
) -> Result<(), String> {
    let dir = state_dir(root);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{seed}-{:016x}.txt", w.name, build_id()?));
    let lines: Vec<String> = outcomes.iter().map(|o| format!("{o:?}")).collect();
    let earlier = std::fs::read_to_string(&path).unwrap_or_default();
    let earlier: Vec<&str> = earlier.lines().collect();
    for (k, (now, before)) in lines.iter().zip(&earlier).enumerate() {
        if now != before {
            return Err(format!(
                "request {k} differs from an earlier run of this seed:\n  now    {now}\n  before {before}"
            ));
        }
    }
    if lines.len() > earlier.len() {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, lines.join("\n") + "\n")
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of the `q` quantile: a Beta(q(n+1), (1-q)(n+1))
/// weighted mean of the order statistics. Latencies here form clusters, one
/// per recurring program, and the sample median of 18 equally frequent
/// kernels falls exactly between two clusters, where a single order
/// statistic jumps with either cluster's extreme; the weighted mean does
/// not. The weights are concentrated within a few percent of rank `q·n`,
/// so a p90 over `n >= 100` samples still has ten samples above it.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // Beta density up to a constant, normalized below by the weights' sum.
    let log_mode =
        (a - 1.0) * ((a - 1.0) / (a + b - 2.0)).ln() + (b - 1.0) * ((b - 1.0) / (a + b - 2.0)).ln();
    let pdf = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            ((a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - log_mode).exp()
        }
    };
    // Simpson's rule over each order statistic's interval [i/n, (i+1)/n].
    const STEPS: usize = 8;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let h = 1.0 / (n * STEPS) as f64;
            let x0 = i as f64 / n as f64;
            (0..=STEPS)
                .map(|k| {
                    let c = if k == 0 || k == STEPS {
                        1.0
                    } else if k % 2 == 1 {
                        4.0
                    } else {
                        2.0
                    };
                    c * pdf(x0 + k as f64 * h)
                })
                .sum::<f64>()
                * h
                / 3.0
        })
        .collect();
    let total: f64 = weights.iter().sum();
    s.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (k, (name, value, unit)) in self.0.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn end_to_end(m: &mut Metrics, setup_s: f64, pass: &Pass) {
    let n = pass.outcomes.len() as f64;
    let nests: u64 = pass.outcomes.iter().map(|o| o.nests).sum();
    let exact: u64 = pass.outcomes.iter().map(|o| o.exact_nests).sum();
    let share = |count: usize| count as f64 / n;
    let scaled = pass.scaled_ms();
    m.push("setup_s", setup_s, "s");
    m.push("programs_per_s", throughput(&scaled), "1/s");
    m.push("latency_p50_ms", quantile(&scaled, 0.5), "ms");
    m.push("latency_p90_ms", quantile(&scaled, 0.9), "ms");
    m.push(
        "ok_share",
        share(pass.outcomes.iter().filter(|o| o.errors.is_empty()).count()),
        "ratio",
    );
    m.push("exact_share", exact as f64 / nests.max(1) as f64, "ratio");
    m.push(
        "verified_share",
        share(pass.outcomes.iter().filter(|o| o.verified()).count()),
        "ratio",
    );
    m.push(
        "memory_ratio",
        pass.outcomes.iter().map(Outcome::memory_ratio).sum::<f64>() / n,
        "ratio",
    );
    m.push("peak_heap_mb", heap::peak_mb(), "MB");
}

fn per_layer(m: &mut Metrics, untraced: &Pass, traced: &Pass, peak_rss_mb: f64) {
    let n = traced.outcomes.len() as f64;
    // Each span is scaled by the factor of the request it belongs to.
    let mut busy_ms: HashMap<&'static str, f64> = HashMap::new();
    for s in &traced.spans {
        if let Some(layer) = s.layer {
            let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
            *busy_ms.entry(layer.name()).or_default() += ms * traced.factors[s.request as usize];
        }
    }
    let busy = |layer: Layer| busy_ms.get(layer.name()).copied().unwrap_or(0.0) / n;
    let mut c = Counts::default();
    for o in &traced.outcomes {
        c.add(&o.counts);
    }
    let count = |v: u64| v as f64;
    m.push("ir.busy_ms", busy(Layer::Ir), "ms");
    m.push("ir.source_bytes", count(c.source_bytes), "B");
    m.push("analyze.busy_ms", busy(Layer::Analyze), "ms");
    m.push("analyze.diagnostics", count(c.diagnostics), "count");
    m.push("dep.busy_ms", busy(Layer::Dep), "ms");
    m.push("dep.distances", count(c.distances), "count");
    m.push("sim.busy_ms", busy(Layer::Sim), "ms");
    m.push("sim.iterations", count(c.sim_iterations), "count");
    m.push("sim.degraded_nests", count(c.degraded_nests), "count");
    m.push("core.optimize.busy_ms", busy(Layer::Optimize), "ms");
    m.push("core.optimize.candidates", count(c.candidates), "count");
    m.push("core.optimize.evaluated", count(c.evaluated), "count");
    m.push(
        "core.optimize.improved_share",
        c.improved_nests as f64 / c.optimized_nests.max(1) as f64,
        "ratio",
    );
    m.push("core.scratchpad.busy_ms", busy(Layer::Scratchpad), "ms");
    m.push(
        "core.scratchpad.fusion_steps",
        count(c.fusion_steps),
        "count",
    );
    m.push("core.scratchpad.words_saved", count(c.words_saved), "count");
    m.push("core.bnb.busy_ms", busy(Layer::Bnb), "ms");
    m.push("core.bnb.pruned_boxes", count(c.pruned_boxes), "count");
    m.push("core.cert.busy_ms", busy(Layer::Cert), "ms");
    m.push("core.cert.certificates", count(c.certificates), "count");
    m.push("core.cert.ndjson_bytes", count(c.cert_ndjson_bytes), "B");
    m.push("verify.busy_ms", busy(Layer::Verify), "ms");
    m.push("verify.certificates", count(c.checked), "count");
    m.push("verify.violations", count(c.violations), "count");
    m.push("obs.busy_ms", busy(Layer::Obs), "ms");
    m.push("obs.events", count(c.obs_events), "count");
    m.push("obs.ndjson_bytes", count(c.obs_ndjson_bytes), "B");
    m.push(
        "bench.trace_overhead",
        throughput(&untraced.scaled_ms()) / throughput(&traced.scaled_ms()),
        "ratio",
    );
    m.push(
        "bench.unscaled_programs_per_s",
        throughput(&untraced.latencies_ms),
        "1/s",
    );
    m.push(
        "bench.probe_ms",
        speed::NOMINAL_PROBE_MS / median(&untraced.factors),
        "ms",
    );
    m.push("bench.peak_rss_mb", peak_rss_mb, "MB");
}

/// Writes the traced pass's spans, one JSON object a line, each with the
/// speed factor of its request (multiply a duration by it to scale it).
fn write_spans(root: &Path, args: &Args, p: &Prepared, pass: &Pass) -> Result<(), String> {
    let dir = state_dir(root);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.ndjson", args.workload.name, args.seed));
    let mut out = String::with_capacity(pass.spans.len() * 100);
    for s in &pass.spans {
        let r = s.request as usize;
        let layer = s.layer.map_or("request", Layer::name);
        let program = &p.sources[p.order[r]].name;
        let _ = writeln!(
            out,
            "{{\"request\": {r}, \"program\": \"{program}\", \"layer\": \"{layer}\", \"start_ns\": {}, \"end_ns\": {}, \"speed_factor\": {}}}",
            s.start_ns, s.end_ns, pass.factors[r]
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<(Metrics, bool, usize, usize), String> {
    let root = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    let w = args.workload;
    // Each set-up is scaled by the single-thread probes right after it:
    // set-up is mostly generating and parsing, on one thread.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut scaled_setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let p = set_up(w, args.seed, args.seconds, &root)?;
        let setup = t0.elapsed().as_secs_f64();
        prepared = Some(p);
        let probes: Vec<f64> = (0..5).map(|_| speed::probe_ms(1)).collect();
        setup_times.push(setup);
        scaled_setups.push(setup * speed::factor(&probes));
    }
    let setup_s = median(&scaled_setups);
    let mut p = prepared.expect("SETUP_REPEATS > 0");
    if args.trace {
        // A traced run times the list twice, untraced then traced, so each
        // pass takes the first half: the run stays as long as an untraced
        // one.
        p.order.truncate((p.order.len() / 2).max(1));
    }
    let reference = w.traced_session.then(|| untraced_reference(&p, w));

    let mut m = Metrics(Vec::new());
    let mut correct = true;
    let mut report = |what: Result<(), String>| {
        if let Err(e) = what {
            eprintln!("perfbench: {e}");
            correct = false;
        }
    };
    let untraced = timed_pass(&p, false);
    report(check_determinism(&p, &untraced, reference.as_deref()));
    if w.kind == Kind::Verify {
        report(check_kernel_answers(&root, &p, &untraced));
    }
    eprintln!(
        "perfbench: unscaled: {:.3} programs/s, p50 {:.3} ms, p90 {:.3} ms, setup {:.4} s; median probe {:.3} ms",
        throughput(&untraced.latencies_ms),
        quantile(&untraced.latencies_ms, 0.5),
        quantile(&untraced.latencies_ms, 0.9),
        median(&setup_times),
        speed::NOMINAL_PROBE_MS / median(&untraced.factors),
    );
    let final_pass = if args.trace {
        let traced = timed_pass(&p, true);
        report(if traced.outcomes == untraced.outcomes {
            Ok(())
        } else {
            Err("traced and untraced passes answered differently".into())
        });
        report(write_spans(&root, args, &p, &traced));
        per_layer(&mut m, &untraced, &traced, peak_rss_mb()?);
        traced
    } else {
        end_to_end(&mut m, setup_s, &untraced);
        untraced
    };
    report(check_against_earlier_runs(
        &root,
        w,
        args.seed,
        &final_pass.outcomes,
    ));
    for (&i, o) in p.order.iter().zip(&final_pass.outcomes) {
        for e in &o.errors {
            eprintln!("perfbench: defect: {}: {e}", p.sources[i].name);
        }
    }
    let failed = final_pass
        .outcomes
        .iter()
        .filter(|o| !o.errors.is_empty())
        .count();
    Ok((m, correct, final_pass.outcomes.len(), failed))
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, correct, attempted, failed)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                metrics.json()
            );
            if correct {
                std::process::ExitCode::SUCCESS
            } else {
                std::process::ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn harrell_davis_quantiles() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 51.0).abs() < 1e-6);
        let p90 = quantile(&v, 0.9);
        assert!((p90 - 91.0).abs() < 0.5, "{p90}");
        // Two equal clusters: the estimate sits between them, not on an
        // extreme of either.
        let mut two: Vec<f64> = vec![10.0; 50];
        two.extend(vec![20.0; 50]);
        assert!((quantile(&two, 0.5) - 15.0).abs() < 1e-6);
    }
}
