//! E5 — state-space growth and timing (paper §8: sequential checking
//! takes "minutes", exhaustive concurrent checking "hours"; the
//! combinatorial challenge is intrinsic).
//!
//! Prints, for a ladder of tests of growing size, the number of distinct
//! states, transitions, final states and wall-clock time of exhaustive
//! exploration — sequentially and with the parallel work-stealing
//! engine (`--threads N`, default 4; `--steal-batch N` sets the number
//! of states a thief moves per steal; `--max-resident N` bounds the
//! in-memory frontier, spilling overflow to disk through the canonical
//! state codec) — cross-checking that both engines produce identical
//! verdicts. `--reduced` turns on sleep-set partial-order reduction
//! (identical finals, fewer states — the cross-check then compares
//! finals only, since explored-state counts are the point of the
//! reduction); `--context-bound N` caps context switches per execution
//! (an approximation: the engines may legitimately disagree, so the
//! cross-check is skipped and rows are labelled). For contrast it also
//! shows the per-test cost of a sequential run.
//!
//! `--cache DIR` serves the *sequential* (t1) column through the oracle
//! service's content-addressed result store (`crates/service`): a warm
//! run re-serves the stored record instead of re-exploring, and cached
//! rows are marked `*` (their t1 time is the cache-probe time, so the
//! speedup column is not meaningful for them). The cross-check still
//! holds — a cached record was produced under identical model
//! parameters, so its counts must agree with the freshly-run parallel
//! engine.

use bench::args::{arg_value, check_flags, parse_arg, parse_nonzero_arg};
use ppc_litmus::harness::{HarnessConfig, Job};
use ppc_litmus::{library, parse, run_limited};
use ppc_model::{resolve_threads, run_sequential, ExploreLimits, ModelParams};
use ppc_service::{Budget, Oracle};
use std::time::Instant;

/// Flags taking a value (the next argument is consumed).
const VALUE_FLAGS: &[&str] = &[
    "--threads",
    "--steal-batch",
    "--max-resident",
    "--context-bound",
    "--cache",
];
/// Boolean flags.
const BOOL_FLAGS: &[&str] = &["--reduced"];

const USAGE: &str = "statespace [--threads N] [--steal-batch N] [--max-resident N] \
     [--context-bound N] [--reduced] [--cache DIR]";

/// The ladder of representative tests, roughly by state-space size.
pub const LADDER: &[&str] = &[
    "CoRR",
    "CoWW",
    "SB",
    "MP",
    "LB",
    "MP+syncs",
    "SB+syncs",
    "MP+sync+addr",
    "MP+sync+ctrl",
    "2+2W",
    "WRC+pos",
    "WRC+sync+addr",
    "PPOCA",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags("statespace", &args, VALUE_FLAGS, BOOL_FLAGS, USAGE);
    // The default worker count is clamped to the machine (matching
    // `HarnessConfig::inner_threads_for`): 4 time-sliced workers on a
    // 1-CPU host only measure scheduler churn. An explicit --threads is
    // honoured as requested.
    let threads: usize = parse_arg("statespace", &args, "--threads", 4.min(resolve_threads(0)));
    let steal_batch: usize = parse_nonzero_arg("statespace", &args, "--steal-batch", 0);
    let max_resident: usize = parse_arg("statespace", &args, "--max-resident", 0);
    let context_bound: usize = parse_nonzero_arg("statespace", &args, "--context-bound", 0);
    let cache = arg_value(&args, "--cache");
    let reduced = args.iter().any(|a| a == "--reduced");

    let params = ModelParams {
        steal_batch,
        max_resident_states: max_resident,
        sleep_sets: reduced,
        max_context_switches: context_bound,
        ..ModelParams::default()
    };
    // With --cache the t1 column is served through the oracle service
    // (threads pinned to 1 so the record matches the sequential run).
    let oracle = cache.as_deref().map(|dir| {
        let cfg = HarnessConfig {
            params: ModelParams {
                threads: 1,
                ..params.clone()
            },
            ..HarnessConfig::default()
        };
        let oracle = Oracle::with_cache(cfg, std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("statespace: cannot open cache {dir}: {e}");
            std::process::exit(1);
        });
        println!("t1 column served via oracle cache at {dir} (cached rows marked *)");
        oracle
    });
    println!(
        "parallel engine: work-stealing, {threads} workers, steal batch {}{}{}{}",
        params.effective_steal_batch(),
        if max_resident == 0 {
            String::new()
        } else {
            format!(", {max_resident} resident states (spill-to-disk)")
        },
        if reduced { ", sleep-set reduction" } else { "" },
        if context_bound == 0 {
            String::new()
        } else {
            format!(", context bound {context_bound} (approximate)")
        }
    );
    println!(
        "{:<22} {:>9} {:>12} {:>8} {:>9} {:>9} {:>8}",
        "test",
        "states",
        "transitions",
        "finals",
        "t1(s)",
        format!("t{threads}(s)"),
        "speedup"
    );
    println!("{}", "-".repeat(84));
    for name in LADDER {
        let Some(e) = library().into_iter().find(|e| e.name == *name) else {
            continue;
        };
        let test = parse(e.source).expect("library parses");
        let seq = ExploreLimits {
            threads: 1,
            ..ExploreLimits::default()
        };
        let par = ExploreLimits {
            threads,
            ..ExploreLimits::default()
        };
        let t0 = Instant::now();
        // (finals, witnessed, states, transitions) for the t1 column —
        // from the oracle service when --cache is set, else a direct
        // sequential run.
        let (s1, was_cached) = if let Some(oracle) = &oracle {
            let out = oracle.query(&Job::from_entry(&e), &Budget::default());
            let r = &out.report;
            (
                (r.finals, r.model_allows, r.states, r.transitions),
                out.cached,
            )
        } else {
            let r1 = run_limited(&test, &params, &seq);
            (
                (
                    r1.finals,
                    r1.witnessed,
                    r1.stats.states,
                    r1.stats.transitions,
                ),
                false,
            )
        };
        let dt1 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let rn = run_limited(&test, &params, &par);
        let dtn = t0.elapsed().as_secs_f64();
        if context_bound != 0 {
            // Bounded exploration is order-dependent (which path first
            // reaches a state fixes its switch budget), so the engines
            // may legitimately disagree — no cross-check.
        } else if rn.stats.truncated {
            // A truncated run (budget or deadline hit) legitimately
            // saw a prefix; the row is still printed but cannot be
            // cross-checked.
            eprintln!("{name}: truncated — cross-check skipped");
        } else if reduced {
            // The reduction guarantees identical *finals*; explored
            // state counts are exactly what it shrinks (and the
            // parallel count varies run to run with steal order).
            assert_eq!(
                (s1.0, s1.1),
                (rn.finals, rn.witnessed),
                "{name}: reduced parallel exploration diverged from sequential"
            );
        } else {
            assert_eq!(
                (s1.0, s1.1, s1.2),
                (rn.finals, rn.witnessed, rn.stats.states),
                "{name}: parallel exploration diverged from sequential"
            );
        }
        println!(
            "{:<22} {:>9} {:>12} {:>8} {:>9.2} {:>9.2} {:>7.2}x",
            format!("{name}{}", if was_cached { "*" } else { "" }),
            s1.2,
            s1.3,
            s1.0,
            dt1,
            dtn,
            dt1 / dtn
        );
    }
    println!("{}", "-".repeat(84));

    // Sequential contrast: a straight-line program, per-instruction cost.
    let test = parse(
        r"POWER SEQ
{
0:r1=x;
x=0;
}
 P0           ;
 li r5,1      ;
 stw r5,0(r1) ;
 lwz r6,0(r1) ;
 addi r6,r6,1 ;
 stw r6,0(r1) ;
exists (0:r6=2)
",
    )
    .expect("parses");
    let sys = ppc_litmus::build_system(&test, &params);
    let t0 = Instant::now();
    let (_fin, steps) = run_sequential(&sys, 10_000);
    let dt = t0.elapsed().as_secs_f64();
    println!("sequential mode: {steps} transitions in {dt:.4}s");
    println!();
    println!(
        "shape check (paper §8): sequential runs are orders of magnitude \
         cheaper than exhaustive concurrent exploration of the same-size programs"
    );
}
