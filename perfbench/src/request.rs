//! The requests each workload sends, built only from the library's public
//! calls, with every call into a layer wrapped in a benchmark-side span.
//!
//! A request returns an [`Outcome`]: the answers and the per-layer work
//! counts. Every field of an `Outcome` is deterministic, so two runs of one
//! seed — traced or not — must produce identical outcomes.

use loopmem_analyze::CheckOptions;
use loopmem_core::{certify_bnb, certify_bounds, certify_degraded, Session};
use loopmem_ir::{AnalysisError, Bounds, LoopNest, Program};
use loopmem_obs::{CollectingSink, TraceSink};
use loopmem_sim::AnalysisBudget;
use loopmem_verify::Certificate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Coefficient box half-width of the cone branch and bound (as `loopmem
/// verify` uses).
const BNB_BOUND: i64 = 6;

/// The layers, named after the modules whose public calls they time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Ir,
    Analyze,
    Dep,
    Sim,
    Optimize,
    Scratchpad,
    Bnb,
    Cert,
    Verify,
    Obs,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ir => "ir",
            Layer::Analyze => "analyze",
            Layer::Dep => "dep",
            Layer::Sim => "sim",
            Layer::Optimize => "core.optimize",
            Layer::Scratchpad => "core.scratchpad",
            Layer::Bnb => "core.bnb",
            Layer::Cert => "core.cert",
            Layer::Verify => "verify",
            Layer::Obs => "obs",
        }
    }
}

/// One closed span: the request itself (`layer == None`) or one layer call
/// inside it. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub request: u32,
    pub layer: Option<Layer>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. When off, [`Recorder::time`] calls straight
/// through and reads no clock.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    request: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one call into `layer` of the current request.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            layer: Some(layer),
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs one whole request as the parent span of its layer calls.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            layer: None,
            start_ns,
            end_ns,
        });
        self.request += 1;
        out
    }
}

/// Per-layer work counts of one request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub source_bytes: u64,
    pub diagnostics: u64,
    pub distances: u64,
    pub sim_iterations: u64,
    pub degraded_nests: u64,
    pub candidates: u64,
    pub evaluated: u64,
    pub optimized_nests: u64,
    pub improved_nests: u64,
    pub fusion_steps: u64,
    pub words_saved: u64,
    pub pruned_boxes: u64,
    pub certificates: u64,
    pub cert_ndjson_bytes: u64,
    pub checked: u64,
    pub violations: u64,
    pub obs_events: u64,
    pub obs_ndjson_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.source_bytes += o.source_bytes;
        self.diagnostics += o.diagnostics;
        self.distances += o.distances;
        self.sim_iterations += o.sim_iterations;
        self.degraded_nests += o.degraded_nests;
        self.candidates += o.candidates;
        self.evaluated += o.evaluated;
        self.optimized_nests += o.optimized_nests;
        self.improved_nests += o.improved_nests;
        self.fusion_steps += o.fusion_steps;
        self.words_saved += o.words_saved;
        self.pruned_boxes += o.pruned_boxes;
        self.certificates += o.certificates;
        self.cert_ndjson_bytes += o.cert_ndjson_bytes;
        self.checked += o.checked;
        self.violations += o.violations;
        self.obs_events += o.obs_events;
        self.obs_ndjson_bytes += o.obs_ndjson_bytes;
    }
}

/// Everything a request answered, plus its work counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub nests: u64,
    pub exact_nests: u64,
    /// Non-budget errors and contained panics, one line each.
    pub errors: Vec<String>,
    /// Per nest `(mws_before, mws_after)` of the §4 search, when it ran
    /// and answered exactly.
    pub mws: Vec<Option<(u64, u64)>>,
    /// Words the answer asks for (see `answer_words` in each request).
    pub answer_words: u64,
    pub declared_words: u64,
    pub counts: Counts,
}

impl Outcome {
    pub fn verified(&self) -> bool {
        self.counts.violations == 0 && self.counts.checked > 0
    }

    pub fn memory_ratio(&self) -> f64 {
        self.answer_words as f64 / self.declared_words.max(1) as f64
    }

    fn error(&mut self, stage: &str, e: impl std::fmt::Display) {
        self.errors.push(format!("{stage}: {e}"));
    }

    /// Folds one stage's per-nest error: a budget trip degrades the nest,
    /// anything else is an error.
    fn nest_error(&mut self, stage: &str, k: usize, e: &AnalysisError) {
        if !matches!(e, AnalysisError::Exhausted { .. }) {
            self.error(stage, format!("nest {k}: {e}"));
        }
    }
}

/// Which request a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `loopmem verify`: optimize per nest, cone branch and bound on
    /// 2-deep nests, scratchpad + fusion, certify, check.
    Verify,
    /// `simulate_program` + `scratchpad_sizing`, certify, check.
    Sweep,
    /// `optimize_program` + `scratchpad` (sizing + fusion), certify, check.
    Chain,
}

/// The benchmark's one closed-loop client: the request kind, the Session it
/// drives, the budget its free functions take, and the sink the traced
/// variant drains.
pub struct Client {
    kind: Kind,
    session: Session,
    budget: AnalysisBudget,
    sink: Option<Arc<CollectingSink>>,
}

impl Client {
    /// Every Session carries the fixed iteration cap and no wall-clock
    /// limit, so which nests degrade never depends on the machine.
    /// `traced` attaches a collecting sink with certificate events on.
    pub fn new(kind: Kind, threads: usize, traced: bool) -> Self {
        let mut budget =
            AnalysisBudget::unlimited().with_max_iterations(crate::corpus::ITERATION_CAP);
        let sink = traced.then(|| Arc::new(CollectingSink::new()));
        if let Some(sink) = &sink {
            budget = budget.with_trace(sink.clone() as Arc<dyn TraceSink>);
        }
        let session = Session::new()
            .threads(threads)
            .budget(budget.clone())
            .certify(traced);
        Client {
            kind,
            session,
            budget,
            sink,
        }
    }

    /// Sends one request for `src`. Never panics: stage panics are
    /// contained and counted as errors.
    pub fn run(&self, src: &str, rec: &mut Recorder) -> Outcome {
        rec.request(|rec| {
            let mut out = Outcome::default();
            out.counts.source_bytes = src.len() as u64;
            let parsed = rec.time(Layer::Ir, || loopmem_ir::parse_program_spanned(src));
            let program = match parsed {
                Ok((program, _spans)) => program,
                Err(e) => {
                    out.error("parse", e);
                    return out;
                }
            };
            out.nests = program.len() as u64;
            out.declared_words = program.default_memory().max(0) as u64;
            match rec.time(Layer::Analyze, || {
                loopmem_analyze::check_source(src, &CheckOptions::default())
            }) {
                Ok(report) => out.counts.diagnostics = report.diagnostics.len() as u64,
                Err(e) => out.error("check", e),
            }
            let mut certs = match self.kind {
                Kind::Verify => self.verify_request(&program, rec, &mut out),
                Kind::Sweep => self.sweep_request(&program, rec, &mut out),
                Kind::Chain => self.chain_request(&program, rec, &mut out),
            };
            self.check(&program, &mut certs, rec, &mut out);
            if let Some(sink) = &self.sink {
                let (events, bytes) = rec.time(Layer::Obs, || {
                    let report = sink.drain();
                    (report.events.len(), report.render_ndjson().len())
                });
                out.counts.obs_events = events as u64;
                out.counts.obs_ndjson_bytes = bytes as u64;
            }
            out
        })
    }

    /// Renders the certificate stream to its wire format, then replays it
    /// through the independent checker.
    fn check(
        &self,
        program: &Program,
        certs: &mut [Certificate],
        rec: &mut Recorder,
        out: &mut Outcome,
    ) {
        out.counts.certificates = certs.len() as u64;
        out.counts.cert_ndjson_bytes = rec.time(Layer::Cert, || {
            certs
                .iter()
                .map(|c| c.to_json_line().len() as u64 + 1)
                .sum()
        });
        let checked = rec.time(Layer::Verify, || {
            catch_unwind(AssertUnwindSafe(|| {
                loopmem_verify::check_certificates(program, certs)
            }))
        });
        match checked {
            Ok(violations) => {
                out.counts.checked = certs.len() as u64;
                out.counts.violations = violations.len() as u64;
                for v in violations {
                    out.error("verify", format!("{} {}", v.code, v.message));
                }
            }
            Err(_) => out.error("verify", "checker panicked"),
        }
    }

    /// `loopmem verify`: per nest the §4 search and its certificates, the
    /// cone branch and bound on 2-deep nests, then the shared scratchpad
    /// with fusion. The answer is the optimized MWS (the largest over the
    /// program's nests), Figure 2's MWS_opt.
    fn verify_request(
        &self,
        program: &Program,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> Vec<Certificate> {
        let mut certs = Vec::new();
        for (k, nest) in program.nests().iter().enumerate() {
            let deps = rec.time(Layer::Dep, || {
                catch_unwind(AssertUnwindSafe(|| loopmem_dep::analyze(nest)))
            });
            let deps = match deps {
                Ok(d) => {
                    out.counts.distances += d.len() as u64;
                    Some(d)
                }
                Err(_) => {
                    out.error("dep", format!("nest {k}: panicked"));
                    None
                }
            };
            let searched = rec.time(Layer::Optimize, || {
                catch_unwind(AssertUnwindSafe(|| self.session.optimize(nest)))
            });
            let nest_certs = match &searched {
                Ok(Ok(opt)) => {
                    out.exact_nests += 1;
                    out.mws.push(Some((opt.mws_before, opt.mws_after)));
                    out.answer_words = out.answer_words.max(opt.mws_after);
                    out.counts.optimized_nests += 1;
                    out.counts.candidates += opt.candidates_considered as u64;
                    out.counts.evaluated += opt.evaluated.len() as u64;
                    out.counts.improved_nests += u64::from(opt.mws_after < opt.mws_before);
                    rec.time(Layer::Cert, || {
                        loopmem_core::certify_optimization(k, nest, opt)
                    })
                }
                Ok(Err(e)) => {
                    out.nest_error("optimize", k, e);
                    out.mws.push(None);
                    out.counts.degraded_nests += 1;
                    let cert = rec.time(Layer::Cert, || certify_degraded(k, nest, e));
                    out.answer_words = out.answer_words.max(cert_upper(&cert));
                    vec![cert]
                }
                Err(_) => {
                    out.error("optimize", format!("nest {k}: panicked"));
                    out.mws.push(None);
                    out.counts.degraded_nests += 1;
                    let b = loopmem_sim::analytic_nest_bounds(nest);
                    out.answer_words = out.answer_words.max(b.upper);
                    vec![certify_bounds(
                        Some(k),
                        "nest-mws",
                        &b,
                        "analysis panicked; analytic enclosure",
                    )]
                }
            };
            certs.extend(nest_certs);
            if let (Some(deps), Some(extents)) = (deps, bnb_extents(nest)) {
                let alpha = leading_alpha(nest);
                let bnb = rec.time(Layer::Bnb, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        loopmem_core::try_branch_and_bound(
                            alpha,
                            &deps,
                            extents,
                            BNB_BOUND,
                            &self.budget,
                        )
                    }))
                });
                match bnb {
                    Ok(Ok(Some(r))) => {
                        out.counts.pruned_boxes += r.pruned_boxes.len() as u64;
                        certs.extend(rec.time(Layer::Cert, || certify_bnb(k, BNB_BOUND, &r)));
                    }
                    Ok(Ok(None)) => {}
                    Ok(Err(e)) => out.nest_error("bnb", k, &e),
                    Err(_) => out.error("bnb", format!("nest {k}: panicked")),
                }
            }
        }
        certs.extend(self.scratchpad(program, true, rec, out).1);
        certs
    }

    /// `large-sweep`: governed whole-program simulation, each nest's MWS
    /// certified exactly or as bounds, then the shared scratchpad sized
    /// without fusion. The answer is the scratchpad's `words.upper`.
    fn sweep_request(
        &self,
        program: &Program,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> Vec<Certificate> {
        let mut certs = Vec::new();
        let simulated = rec.time(Layer::Sim, || {
            catch_unwind(AssertUnwindSafe(|| self.session.simulate_program(program)))
        });
        let mut exact = vec![false; program.len()];
        match simulated {
            Ok(Ok(gov)) => {
                for (k, r) in gov.per_nest.iter().enumerate() {
                    let nest = &program.nests()[k];
                    match r {
                        Ok(iters) => {
                            exact[k] = true;
                            out.counts.sim_iterations += iters;
                            let b = Bounds::exact(gov.sim.per_nest_mws[k]);
                            certs.push(rec.time(Layer::Cert, || {
                                certify_bounds(Some(k), "nest-mws", &b, "exact simulation")
                            }));
                        }
                        Err(e) => {
                            out.nest_error("simulate", k, e);
                            out.counts.degraded_nests += 1;
                            certs.push(rec.time(Layer::Cert, || certify_degraded(k, nest, e)));
                        }
                    }
                }
            }
            Ok(Err(e)) => out.error("simulate", e),
            Err(_) => out.error("simulate", "panicked"),
        }
        let (sized, sizing_certs) = self.scratchpad(program, false, rec, out);
        certs.extend(sizing_certs);
        out.exact_nests = exact
            .iter()
            .zip(&sized)
            .filter(|(&sim, &size)| sim && size)
            .count() as u64;
        certs
    }

    /// `multi-nest`: program-wide §4 search (each searched nest's original
    /// MWS certified), dependence analysis of every nest, then the shared
    /// scratchpad with fusion. The answer is the fused scratchpad size.
    fn chain_request(
        &self,
        program: &Program,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> Vec<Certificate> {
        let mut certs = Vec::new();
        for (k, nest) in program.nests().iter().enumerate() {
            match rec.time(Layer::Dep, || {
                catch_unwind(AssertUnwindSafe(|| loopmem_dep::analyze(nest)))
            }) {
                Ok(d) => out.counts.distances += d.len() as u64,
                Err(_) => out.error("dep", format!("nest {k}: panicked")),
            }
        }
        let optimized = rec.time(Layer::Optimize, || {
            catch_unwind(AssertUnwindSafe(|| self.session.optimize_program(program)))
        });
        let mut exact = vec![false; program.len()];
        match optimized {
            Ok(Ok(gov)) => {
                for (k, r) in gov.per_nest.iter().enumerate() {
                    let nest = &program.nests()[k];
                    match r {
                        Ok((before, after)) => {
                            exact[k] = true;
                            out.mws.push(Some((*before, *after)));
                            out.counts.optimized_nests += 1;
                            out.counts.improved_nests += u64::from(after < before);
                            let b = Bounds::exact(*before);
                            certs.push(rec.time(Layer::Cert, || {
                                certify_bounds(Some(k), "nest-mws", &b, "exact §4 search baseline")
                            }));
                        }
                        Err(e) => {
                            out.nest_error("optimize", k, e);
                            out.mws.push(None);
                            out.counts.degraded_nests += 1;
                            certs.push(rec.time(Layer::Cert, || certify_degraded(k, nest, e)));
                        }
                    }
                }
            }
            Ok(Err(e)) => out.error("optimize", e),
            Err(_) => out.error("optimize", "panicked"),
        }
        let (sized, sizing_certs) = self.scratchpad(program, true, rec, out);
        certs.extend(sizing_certs);
        out.exact_nests = exact
            .iter()
            .zip(&sized)
            .filter(|(&opt, &size)| opt && size)
            .count() as u64;
        certs
    }

    /// Shared-scratchpad sizing, with the greedy fusion search when `fuse`.
    /// Returns which nests sized exactly and the sizing certificates; sets
    /// the answer to the scratchpad words unless the request already has
    /// one.
    fn scratchpad(
        &self,
        program: &Program,
        fuse: bool,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> (Vec<bool>, Vec<Certificate>) {
        let sized = rec.time(Layer::Scratchpad, || {
            catch_unwind(AssertUnwindSafe(|| {
                if fuse {
                    self.session.scratchpad(program)
                } else {
                    self.session.scratchpad_sizing(program).map(|g| (g, None))
                }
            }))
        });
        let (gov, plan) = match sized {
            Ok(Ok(x)) => x,
            Ok(Err(e)) => {
                out.error("scratchpad", e);
                return (vec![false; program.len()], Vec::new());
            }
            Err(_) => {
                out.error("scratchpad", "panicked");
                return (vec![false; program.len()], Vec::new());
            }
        };
        for (k, r) in gov.per_nest.iter().enumerate() {
            if let Err(e) = r {
                out.nest_error("scratchpad", k, e);
            }
        }
        let words = match &plan {
            Some(p) => {
                out.counts.fusion_steps += p.steps.len() as u64;
                out.counts.words_saved += p.unfused.words.saturating_sub(p.fused.words);
                p.fused.words
            }
            None => gov.words.upper,
        };
        if self.kind != Kind::Verify {
            out.answer_words = words;
        }
        let certs = rec.time(Layer::Cert, || {
            let mut certs = loopmem_core::certify_governed_scratchpad(&gov);
            certs.extend(plan.as_ref().map(loopmem_core::certify_fusion));
            certs
        });
        (gov.per_nest.iter().map(Result::is_ok).collect(), certs)
    }
}

fn cert_upper(cert: &Certificate) -> u64 {
    match cert {
        Certificate::Bounds(b) => b.upper,
        _ => 0,
    }
}

/// Extents of a 2-deep nest the cone branch and bound applies to (as
/// `loopmem verify` selects them).
fn bnb_extents(nest: &LoopNest) -> Option<(i64, i64)> {
    if nest.depth() != 2 {
        return None;
    }
    let vr = nest.var_ranges()?;
    let extents = (
        vr[0].1.checked_sub(vr[0].0)?.checked_add(1)?,
        vr[1].1.checked_sub(vr[1].0)?.checked_add(1)?,
    );
    (extents.0 > 1 && extents.1 > 1).then_some(extents)
}

/// The §4.2 leading access row weighting the branch-and-bound objective:
/// the first nonzero 2-wide access-matrix row, else `(1, 0)`.
fn leading_alpha(nest: &LoopNest) -> (i64, i64) {
    nest.refs()
        .find_map(|r| {
            let row = r.matrix.rows_iter().next()?;
            (row.len() == 2 && (row[0] != 0 || row[1] != 0)).then(|| (row[0], row[1]))
        })
        .unwrap_or((1, 0))
}
