//! The repo's standing conformance oracle: run the *entire* built-in
//! litmus library plus the generated systematic families through the
//! exhaustive-oracle harness, in parallel, and emit both a human table
//! and a machine-readable JSONL report.
//!
//! Usage:
//!
//! ```text
//! conformance [--jobs N] [--model-threads N] [--steal-batch N]
//!             [--max-states N] [--max-resident N] [--timeout-secs S]
//!             [--context-bound N] [--reduced]
//!             [--cache DIR] [--expect-cached]
//!             [--json PATH] [--library-only] [--paper-only] [--quiet]
//! ```
//!
//! `--cache DIR` routes the sweep through the oracle service's
//! content-addressed result store (`crates/service`): each test's
//! canonical query key is probed first and only misses explore, so a
//! warm sweep performs *zero* explorations and its `--json` report is
//! byte-identical to the cold run's (hits re-serve the stored record
//! line verbatim). `--expect-cached` asserts the warm case — the run
//! fails if any exploration happened. Cache keys include every
//! envelope-affecting model parameter plus the codec/model versions,
//! so changing e.g. `--context-bound` never serves a stale record.
//!
//! `--max-resident N` bounds each exploration's in-memory frontier to N
//! decoded states (overflow spills to temp files through the canonical
//! state codec; `0` = unlimited), so total frontier memory is bounded by
//! `jobs × N × sizeof(state)` however big the state spaces get.
//!
//! `--reduced` turns on sleep-set partial-order reduction: the same
//! final-state verdicts (the POR differential pins this), fewer explored
//! states. `--context-bound N` caps each execution at N context
//! switches — an explicitly approximate fast tier: tests whose witness
//! needs more switches come back *inconclusive* (reported as `bounded`
//! in the JSONL), never as a conclusive "Forbidden".
//!
//! Exit status is non-zero if any conclusive verdict mismatches its
//! paper/hardware expectation, or any test was budget-truncated without
//! a witness (inconclusive results are listed, never silently passed).
//! Under `--context-bound`, bound-induced inconclusives are expected and
//! do not fail the run; only definitive mismatches (and actual budget
//! truncations) do.

use bench::args::{arg_value, check_flags, parse_arg, parse_nonzero_arg};
use ppc_litmus::harness::{run_suite, HarnessConfig, Job};
use ppc_litmus::{generated_suite, library, paper_section2_suite};
use ppc_model::ModelParams;
use ppc_service::Oracle;
use std::io::Write as _;
use std::time::Duration;

/// Flags taking a value (the next argument is consumed).
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--model-threads",
    "--steal-batch",
    "--max-states",
    "--max-resident",
    "--timeout-secs",
    "--context-bound",
    "--cache",
    "--json",
];
/// Boolean flags.
const BOOL_FLAGS: &[&str] = &[
    "--reduced",
    "--library-only",
    "--paper-only",
    "--quiet",
    "--expect-cached",
];

const USAGE: &str = "conformance [--jobs N] [--model-threads N] [--steal-batch N] \
     [--max-states N] [--max-resident N] [--timeout-secs S] [--context-bound N] \
     [--reduced] [--cache DIR] [--expect-cached] \
     [--json PATH] [--library-only] [--paper-only] [--quiet]";

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags("conformance", &args, VALUE_FLAGS, BOOL_FLAGS, USAGE);
    let jobs: usize = parse_arg("conformance", &args, "--jobs", 0);
    let model_threads: usize = parse_arg("conformance", &args, "--model-threads", 1);
    let steal_batch: usize = parse_nonzero_arg("conformance", &args, "--steal-batch", 0);
    let max_states: usize = parse_arg(
        "conformance",
        &args,
        "--max-states",
        ModelParams::DEFAULT_MAX_STATES,
    );
    let max_resident: usize = parse_arg("conformance", &args, "--max-resident", 0);
    let timeout_secs: u64 = parse_arg("conformance", &args, "--timeout-secs", 0);
    let context_bound: usize = parse_nonzero_arg("conformance", &args, "--context-bound", 0);
    let reduced = args.iter().any(|a| a == "--reduced");
    let cache = arg_value(&args, "--cache");
    let expect_cached = args.iter().any(|a| a == "--expect-cached");
    let json_path = arg_value(&args, "--json");
    let quiet = args.iter().any(|a| a == "--quiet");
    if expect_cached && cache.is_none() {
        eprintln!("conformance: --expect-cached requires --cache DIR");
        std::process::exit(2);
    }

    let entries = if args.iter().any(|a| a == "--paper-only") {
        paper_section2_suite()
    } else if args.iter().any(|a| a == "--library-only") {
        library()
    } else {
        let mut v = library();
        v.extend(generated_suite());
        v
    };

    let cfg = HarnessConfig {
        params: ModelParams {
            threads: model_threads,
            steal_batch,
            max_states,
            max_resident_states: max_resident,
            sleep_sets: reduced,
            max_context_switches: context_bound,
            ..ModelParams::default()
        },
        jobs,
        timeout_per_test: if timeout_secs == 0 {
            None
        } else {
            Some(Duration::from_secs(timeout_secs))
        },
    };

    eprintln!(
        "conformance: {} tests, {} jobs × {} model threads (budgeted from {} requested), \
         {} state budget{}{}{}{}",
        entries.len(),
        cfg.pool_size(entries.len()),
        cfg.inner_threads_for(cfg.pool_size(entries.len())),
        cfg.params.effective_threads(),
        max_states,
        if max_resident == 0 {
            String::new()
        } else {
            format!(", {max_resident} resident states (spill-to-disk)")
        },
        if reduced { ", sleep-set reduction" } else { "" },
        if context_bound == 0 {
            String::new()
        } else {
            format!(", context bound {context_bound} (approximate tier)")
        },
        cfg.timeout_per_test
            .map(|t| format!(", {}s timeout", t.as_secs()))
            .unwrap_or_default(),
    );
    // With --cache the sweep becomes a facade over the oracle service:
    // probe the content-addressed store per test, explore only misses.
    // Without it the harness runs directly, exactly as before.
    let (report, cached_jsonl, cache_stats) = if let Some(dir) = &cache {
        let oracle =
            Oracle::with_cache(cfg.clone(), std::path::Path::new(dir)).unwrap_or_else(|e| {
                eprintln!("conformance: cannot open cache {dir}: {e}");
                std::process::exit(1);
            });
        let jobs: Vec<Job> = entries.iter().map(Job::from_entry).collect();
        let cached = oracle.run_suite_cached(&jobs);
        let stats = oracle.stats();
        eprintln!(
            "conformance: cache {dir}: {} hits, {} misses, {} explorations, {} corrupt dropped",
            stats.hits, stats.misses, stats.explorations, stats.corrupt_dropped
        );
        let jsonl = cached.to_jsonl();
        (cached.report, Some(jsonl), Some(stats))
    } else {
        (run_suite(&entries, &cfg), None, None)
    };

    if !quiet {
        println!(
            "{:<22} {:>10} {:>10} {:>8} {:>10} {:>12} {:>8} {:>9}  pinned by",
            "test", "model", "expected", "match", "states", "transitions", "finals", "time(s)"
        );
        println!("{}", "-".repeat(120));
        for r in &report.reports {
            let status = if !r.conclusive() {
                if r.bounded && !r.truncated {
                    "BOUNDED"
                } else {
                    "TRUNC"
                }
            } else if r.matches {
                "ok"
            } else {
                "MISMATCH"
            };
            println!(
                "{:<22} {:>10} {:>10} {:>8} {:>10} {:>12} {:>8} {:>9.2}  {}",
                r.name,
                r.verdict(),
                r.expected.to_string(),
                status,
                r.states,
                r.transitions,
                r.finals,
                r.wall.as_secs_f64(),
                r.pinned_by
            );
        }
        println!("{}", "-".repeat(120));
    }
    println!("{}", report.summary());

    let mismatches = report.mismatches();
    let inconclusive = report.inconclusive();
    for r in &mismatches {
        println!(
            "MISMATCH: {} — model says {}, paper says {}",
            r.name,
            r.verdict(),
            r.expected
        );
    }
    for r in &inconclusive {
        if r.bounded && !r.truncated {
            println!(
                "INCONCLUSIVE: {} — context bound hit after {} states without a witness",
                r.name, r.states
            );
        } else {
            println!(
                "INCONCLUSIVE: {} — budget exhausted after {} states without a witness",
                r.name, r.states
            );
        }
    }

    if let Some(path) = json_path {
        // Cached runs write the record lines verbatim (byte-identical
        // between cold and warm sweeps); uncached runs serialize fresh.
        let jsonl = cached_jsonl.unwrap_or_else(|| report.to_jsonl());
        let mut f = std::fs::File::create(&path).expect("create JSON report file");
        f.write_all(jsonl.as_bytes()).expect("write JSON report");
        eprintln!("wrote {path}");
    }

    if expect_cached {
        let explorations = cache_stats.map_or(0, |s| s.explorations);
        if explorations != 0 {
            eprintln!(
                "conformance: --expect-cached violated: {explorations} explorations on a run \
                 that should have been fully served from the cache"
            );
            std::process::exit(1);
        }
        eprintln!("conformance: fully cached (0 explorations)");
    }

    // A context-bounded run is an explicitly approximate tier:
    // bound-induced inconclusives are the expected cost of the
    // approximation, so only definitive mismatches (and real budget
    // truncations) fail the run. An exhaustive run keeps the strict
    // policy — any inconclusive is a failure.
    let failing_inconclusive = inconclusive
        .iter()
        .filter(|r| context_bound == 0 || r.truncated)
        .count();
    if !mismatches.is_empty() || failing_inconclusive > 0 {
        std::process::exit(1);
    }
}
