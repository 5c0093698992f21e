//! Validates `loopmem trace` NDJSON streams with the workspace's own
//! JSON parser, the way `benchcheck` validates perfsuite reports: a
//! truncated, hand-mangled, or internally inconsistent trace must never
//! silently pass the CI trace gate.
//!
//! Usage:
//!
//! ```text
//! tracecheck <trace.ndjson>...
//! ```
//!
//! Per file: the header line carries the right suite/version and an
//! `events` count matching the number of event lines; every line parses
//! as JSON (the in-tree parser rejects `NaN`/`Infinity` outright); every
//! event line names a known event kind and a well-formed `(epoch, seq)`
//! ord; and the trailing counters line agrees with an independent
//! recount of the event lines — e.g. `certificates` must equal the
//! number of certificate events, and `charged_iterations` must equal the
//! sum of the poll deltas.

use loopmem_analyze::json::{parse_json, Json};
use std::process::ExitCode;

/// Every canonical event name an NDJSON line may carry.
const EVENTS: &[&str] = &[
    "span-begin",
    "span-end",
    "poll",
    "chunk-commit",
    "cone-prune",
    "fault-trip",
    "salvage",
    "sizing-term",
    "fusion-step",
    "certificate",
];

/// Counters recounted from the event lines, mirroring
/// `TraceCounters::from_events` but derived from the serialized stream
/// alone — so the check is independent of the emitting process.
#[derive(Default, PartialEq, Debug)]
struct Recount {
    spans: u64,
    polls: u64,
    charged_iterations: u64,
    chunks_committed: u64,
    chunk_iterations: u64,
    cone_boxes: u64,
    fault_trips: u64,
    salvages: u64,
    sizing_terms: u64,
    fusion_steps: u64,
    certificates: u64,
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: tracecheck <trace.ndjson>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &files {
        match check_file(path) {
            Ok(summary) => println!("ok   {path}: {summary}"),
            Err(problems) => {
                failed = true;
                for p in &problems {
                    println!("FAIL {path}: {p}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn u64_field(line: &Json, key: &str) -> Option<u64> {
    line.get(key)
        .and_then(Json::as_i64)
        .map(|v| v.max(0) as u64)
}

/// Validates one NDJSON stream; `Ok` carries a one-line summary, `Err`
/// every problem found.
fn check_file(path: &str) -> Result<String, Vec<String>> {
    let src = std::fs::read_to_string(path).map_err(|e| vec![format!("unreadable: {e}")])?;
    let lines: Vec<&str> = src.lines().collect();
    if lines.len() < 2 {
        return Err(vec![format!(
            "stream has {} lines (need at least a header and a counters line)",
            lines.len()
        )]);
    }
    let mut problems = Vec::new();

    let header =
        parse_json(lines[0]).ok_or_else(|| vec!["header line is not valid JSON".to_string()])?;
    if header.get("suite").and_then(Json::as_str) != Some("loopmem-trace") {
        problems.push("missing or wrong \"suite\" header".to_string());
    }
    if header.get("version").and_then(Json::as_i64) != Some(1) {
        problems.push("missing or wrong \"version\" header".to_string());
    }
    let declared = header.get("events").and_then(Json::as_i64).unwrap_or(-1);
    let event_lines = &lines[1..lines.len() - 1];
    if declared != event_lines.len() as i64 {
        problems.push(format!(
            "header declares {declared} events, stream carries {}",
            event_lines.len()
        ));
    }

    let mut recount = Recount::default();
    for (k, line) in event_lines.iter().enumerate() {
        let Some(e) = parse_json(line) else {
            problems.push(format!("event line {}: not valid JSON", k + 1));
            continue;
        };
        match e.get("event").and_then(Json::as_str) {
            Some(name) if EVENTS.contains(&name) => tally(&mut recount, name, &e),
            other => problems.push(format!("event line {}: bad event {other:?}", k + 1)),
        }
        if e.get("phase").and_then(Json::as_str).is_none() {
            problems.push(format!("event line {}: 'phase' missing", k + 1));
        }
        // `span-end` ords carry u64::MAX (sorts last in the group), which
        // the parser holds as a float — accept any finite number.
        match e.get("ord") {
            Some(Json::Arr(ord)) if ord.len() == 2 && ord.iter().all(|v| v.as_f64().is_some()) => {}
            _ => problems.push(format!("event line {}: 'ord' is not [epoch, seq]", k + 1)),
        }
    }

    let counters_line = parse_json(lines[lines.len() - 1])
        .ok_or_else(|| vec!["counters line is not valid JSON".to_string()])?;
    let Some(counters) = counters_line.get("counters") else {
        problems.push("trailing line carries no \"counters\" object".to_string());
        return Err(problems);
    };
    let declared = Recount {
        spans: u64_field(counters, "spans").unwrap_or(u64::MAX),
        polls: u64_field(counters, "polls").unwrap_or(u64::MAX),
        charged_iterations: u64_field(counters, "charged_iterations").unwrap_or(u64::MAX),
        chunks_committed: u64_field(counters, "chunks_committed").unwrap_or(u64::MAX),
        chunk_iterations: u64_field(counters, "chunk_iterations").unwrap_or(u64::MAX),
        cone_boxes: u64_field(counters, "cone_boxes").unwrap_or(u64::MAX),
        fault_trips: u64_field(counters, "fault_trips").unwrap_or(u64::MAX),
        salvages: u64_field(counters, "salvages").unwrap_or(u64::MAX),
        sizing_terms: u64_field(counters, "sizing_terms").unwrap_or(u64::MAX),
        fusion_steps: u64_field(counters, "fusion_steps").unwrap_or(u64::MAX),
        certificates: u64_field(counters, "certificates").unwrap_or(u64::MAX),
    };
    if declared != recount {
        problems.push(format!(
            "counters line disagrees with the event stream:\n  declared {declared:?}\n  recount  {recount:?}"
        ));
    }

    if problems.is_empty() {
        Ok(format!(
            "{} events, counters consistent ({} polls, {} charged iterations)",
            event_lines.len(),
            recount.polls,
            recount.charged_iterations
        ))
    } else {
        Err(problems)
    }
}

/// Accumulates one event line into the recount.
fn tally(c: &mut Recount, name: &str, e: &Json) {
    match name {
        "span-begin" => c.spans += 1,
        "poll" => {
            c.polls += 1;
            c.charged_iterations += u64_field(e, "delta").unwrap_or(0);
        }
        "chunk-commit" => {
            c.chunks_committed += 1;
            c.chunk_iterations += u64_field(e, "iters").unwrap_or(0);
        }
        "cone-prune" => c.cone_boxes += u64_field(e, "boxes").unwrap_or(0),
        "fault-trip" => c.fault_trips += 1,
        "salvage" => c.salvages += 1,
        "sizing-term" => c.sizing_terms += 1,
        "fusion-step" => c.fusion_steps += 1,
        "certificate" => c.certificates += 1,
        _ => {}
    }
}
