//! `oraclebench`: the end-to-end and per-layer benchmark of the POWER
//! litmus oracle. See `README.md` next to this crate for the workloads,
//! metrics and how to run it.
//!
//! ```text
//! oraclebench --workload sweep|sweep-spill|service|isa-seq
//!             [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is a `report` object with the run's context.

mod isaseq;
mod litgen;
mod report;
mod service;
mod sweep;
mod trace;

use report::{json_str, report_line, result_line, Outcome};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

/// What every workload function gets.
pub struct RunCtx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// A fresh directory for this run's files (the service's store,
    /// spill segments); deleted when the run ends.
    pub work: PathBuf,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Sweep,
    SweepSpill,
    Service,
    IsaSeq,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("sweep", Workload::Sweep),
    ("sweep-spill", Workload::SweepSpill),
    ("service", Workload::Service),
    ("isa-seq", Workload::IsaSeq),
];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("litmus.parse_s", "s"),
    ("litmus.build_s", "s"),
    ("model.enumerate_calls", "count"),
    ("model.enumerate_s", "s"),
    ("model.apply_calls", "count"),
    ("model.apply_s", "s"),
    ("model.digest_s", "s"),
    ("store.visited_probes", "count"),
    ("store.visited_fresh", "count"),
    ("store.visited_fresh_ratio", "ratio"),
    ("store.visited_s", "s"),
    ("store.spill_frames", "count"),
    ("store.spill_s", "s"),
    ("store.unspill_s", "s"),
    ("model.final_hits", "count"),
    ("oracle.search_s", "s"),
    ("oracle.residual_s", "s"),
    ("service.key_s", "s"),
    ("service.query_hit_s", "s"),
    ("service.query_miss_s", "s"),
    ("service.transport_s", "s"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p99_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.miss_p99_ms", "ms"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("service.explorations", "count"),
    ("service.coalesced", "count"),
    ("service.corrupt_dropped", "count"),
    ("seqref.step_s", "s"),
    ("model.seq_init_s", "s"),
    ("model.run_sequential_s", "s"),
    ("seq.compare_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

const USAGE: &str = "usage: oraclebench --workload sweep|sweep-spill|service|isa-seq \
                     [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The revision of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Run one workload; traced runs return their tracer.
fn dispatch(args: &Args, ctx: &RunCtx, out: &mut Outcome) -> Result<Option<trace::Tracer>, String> {
    use sweep::Mode;
    Ok(match (args.workload, args.trace) {
        (Workload::Sweep, false) => sweep::run(ctx, Mode::InMemory, out).map(|()| None)?,
        (Workload::SweepSpill, false) => sweep::run(ctx, Mode::Spill, out).map(|()| None)?,
        (Workload::Service, false) => service::run(ctx, out).map(|()| None)?,
        (Workload::IsaSeq, false) => isaseq::run(ctx, out).map(|()| None)?,
        (Workload::Sweep, true) => Some(sweep::run_traced(Mode::InMemory, out)?),
        (Workload::SweepSpill, true) => Some(sweep::run_traced(Mode::Spill, out)?),
        (Workload::Service, true) => Some(service::run_traced(ctx, out)?),
        (Workload::IsaSeq, true) => Some(isaseq::run_traced(ctx, out)?),
    })
}

/// Put the metrics in the listed order and refuse one outside the list.
/// With `fill`, a metric the workload did not produce (a layer it does
/// not reach) reads 0; without, it is an error.
fn complete(
    out: &mut Outcome,
    expected: &[(&'static str, &'static str)],
    fill: bool,
) -> Result<(), String> {
    if let Some(m) = out
        .metrics
        .iter()
        .find(|m| !expected.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not in the benchmark's list", m.name));
    }
    let mut ordered = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => ordered.push(m.clone()),
            Some(m) => return Err(format!("metric {name} has unit {} not {unit}", m.unit)),
            None if fill => ordered.push(report::Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    out.metrics = ordered;
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("oraclebench: {e}\n{USAGE}");
        exit(2);
    });
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = root
        .join("work")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("oraclebench: create {}: {e}", work.display());
        exit(2);
    }
    // Spill segments go to the system temp dir: keep them in this run's
    // directory. No other thread exists yet.
    std::env::set_var("TMPDIR", &work);
    let ctx = RunCtx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        work: work.clone(),
    };
    let workload = WORKLOADS
        .iter()
        .find(|(_, w)| *w == args.workload)
        .map_or("?", |(n, _)| *n);

    let mut out = Outcome::default();
    let result = dispatch(&args, &ctx, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join("work"));
    let tracer = result.unwrap_or_else(|e| {
        eprintln!("oraclebench: {workload}: {e}");
        exit(2);
    });

    let mut notes = vec![
        ("workload".to_owned(), json_str(workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        (
            "nproc".to_owned(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_rev".to_owned(), json_str(&git_rev(&root.join("..")))),
    ];
    notes.append(&mut out.notes);
    if let Some(tr) = &tracer {
        let dir = root.join("out");
        let path = dir.join(format!("trace-{workload}-seed{}.jsonl", args.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
        if let Err(e) = written {
            eprintln!("oraclebench: write {}: {e}", path.display());
            exit(2);
        }
        notes.push(("spans".to_owned(), tr.span_count().to_string()));
        notes.push((
            "trace_file".to_owned(),
            json_str(&path.display().to_string()),
        ));
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = complete(&mut out, expected, args.trace) {
        eprintln!("oraclebench: {e}");
        exit(2);
    }
    for m in &out.messages {
        eprintln!("oraclebench: {workload}: {m}");
    }
    let line = result_line(&out).unwrap_or_else(|e| {
        eprintln!("oraclebench: {e}");
        exit(2);
    });
    println!("{}", report_line(&notes));
    println!("{line}");
    exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn args_parse_the_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "isa-seq",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::IsaSeq,
                seed: 42,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn bad_args_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "sweep", "--trace", "2"],
            &["--workload", "sweep", "--seconds", "0"],
            &["--workload", "sweep", "--seconds"],
            &["--workload", "sweep", "--fast", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).unwrap();
            let body = &json[start..json[start..].find(']').unwrap() + start];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let i = obj.find(&format!("\"{f}\": \"")).unwrap() + f.len() + 5;
                        obj[i..i + obj[i..].find('"').unwrap()].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
        let workloads = section_names(&json, "workloads");
        let ours: Vec<String> = WORKLOADS.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    fn section_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).unwrap();
        let body = &json[start..json[start..].find(']').unwrap() + start];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_owned())
            .collect()
    }

    #[test]
    fn complete_orders_and_fills() {
        let mut out = Outcome::default();
        out.metric("ops_per_s", 1.5, "1/s");
        out.metric("setup_s", 0.25, "s");
        assert!(complete(&mut out, &END_TO_END, false).is_err(), "missing");
        complete(&mut out, &END_TO_END, true).unwrap();
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(out.metrics[0].value, 0.25);
        assert_eq!(out.metrics[1].value, 0.0);
        assert_eq!(out.metrics[2].value, 1.5);

        let mut out = Outcome::default();
        out.metric("bogus", 1.0, "s");
        assert!(complete(&mut out, &END_TO_END, true).is_err());
        let mut out = Outcome::default();
        out.metric("setup_s", 1.0, "ms");
        assert!(complete(&mut out, &END_TO_END, true).is_err());
    }
}
