//! The persistent oracle benchmark runner: replays pinned litmus suites
//! and a pinned slice of the generated systematic families through both
//! exploration engines and emits a machine-readable `BENCH_oracle.json`
//! (states/sec, transitions/sec, peak resident, wall per suite), so
//! every PR records a perf trajectory for the hot path the whole system
//! is built around — successor generation.
//!
//! Usage:
//!
//! ```text
//! oracle_bench [--out PATH] [--smoke] [--threads N] [--repeat N]
//!              [--baseline PATH]
//! ```
//!
//! - `--out PATH`: where to write the JSON report (default
//!   `BENCH_oracle.json` in the current directory).
//! - `--smoke`: run only the small suite plus a few generated tests
//!   (CI's per-push artifact; seconds, not minutes).
//! - `--threads N`: worker count for the work-stealing engine entry
//!   (default 2; the sequential engine is always measured too).
//! - `--repeat N`: repeat each suite N times and keep the best wall
//!   clock per engine (default 1).
//! - `--baseline PATH`: read a previously committed report (the repo's
//!   `BENCH_oracle.json`) and print a states/sec comparison per
//!   suite × engine. **Report-only**: CI hardware is shared and noisy,
//!   so the comparison makes perf regressions visible per push without
//!   ever failing the build.
//!
//! Besides the two exhaustive engines a `sequential-reduced` entry runs
//! the sleep-set partial-order reduction; its rows carry a
//! `states_ratio_vs_sequential` field (reduced ÷ unreduced explored
//! states — the reduction's measured payoff, < 1.0 is a win).
//!
//! The runner is dependency-free: JSON is emitted by hand, timing is
//! `std::time::Instant`, and peak RSS comes from `/proc/self/status`
//! (`null` on platforms without it). The exhaustive engines are
//! cross-checked per test (finals, witness, state count); the reduced
//! engine is cross-checked on finals only — identical verdicts over a
//! smaller explored set is precisely its contract. A benchmark run that
//! diverges is a bug, not a slow day.

use bench::args::{arg_value, check_flags, parse_nonzero_arg};
use ppc_litmus::{generated_suite, library, parse, run_limited, LitmusEntry};
use ppc_model::{ExploreLimits, ModelParams};
use std::fmt::Write as _;
use std::time::Instant;

/// Flags taking a value (the next argument is consumed).
const VALUE_FLAGS: &[&str] = &["--out", "--threads", "--repeat", "--baseline"];
/// Boolean flags.
const BOOL_FLAGS: &[&str] = &["--smoke"];

const USAGE: &str = "oracle_bench [--out PATH] [--smoke] [--threads N] [--repeat N] \
     [--baseline PATH]";

/// The pinned small suite: quick tests, dominated by per-test setup.
const SMALL: &[&str] = &[
    "CoRR",
    "CoWW",
    "SB",
    "MP",
    "LB",
    "MP+sync+addr",
    "MP+sync+ctrl",
];

/// The pinned large suite: the biggest library state spaces; the
/// headline states/sec number comes from here.
const LARGE: &[&str] = &[
    "MP+syncs",
    "SB+syncs",
    "2+2W",
    "WRC+pos",
    "WRC+sync+addr",
    "PPOCA",
];

/// How many generated-family tests the pinned slice takes (in the
/// deterministic `generated_suite()` order).
const GENERATED_FULL: usize = 12;
const GENERATED_SMOKE: usize = 4;

struct TestRow {
    name: String,
    states: usize,
    transitions: usize,
    finals: usize,
    wall_s: f64,
    resident_peak: usize,
}

struct SuiteRow {
    suite: &'static str,
    engine: String,
    tests: Vec<TestRow>,
    wall_s: f64,
    /// Explored states of this engine ÷ the exhaustive sequential
    /// engine's, for reduced entries (`None` on exhaustive rows).
    states_ratio: Option<f64>,
}

impl SuiteRow {
    fn states(&self) -> usize {
        self.tests.iter().map(|t| t.states).sum()
    }
    fn transitions(&self) -> usize {
        self.tests.iter().map(|t| t.transitions).sum()
    }
    fn resident_peak(&self) -> usize {
        self.tests
            .iter()
            .map(|t| t.resident_peak)
            .max()
            .unwrap_or(0)
    }
}

/// One suite × engine entry of a committed baseline report.
struct BaselineRow {
    suite: String,
    engine: String,
    states_per_sec: f64,
}

/// Extract the `(suite, engine, states_per_sec)` triples from a report
/// this binary previously wrote. Dependency-free: the emitter two
/// screens down fixes the field order (`"suite"`, then `"engine"`, then
/// counters), so a field-order scan is exact for our own files — and a
/// malformed or foreign file just yields no rows (the comparison is
/// report-only, never load-bearing).
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    fn str_field(chunk: &str, key: &str) -> Option<String> {
        let tail = chunk.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(tail.split('"').next()?.to_owned())
    }
    fn num_field(chunk: &str, key: &str) -> Option<f64> {
        let tail = chunk.split(&format!("\"{key}\": ")).nth(1)?;
        tail.split([',', '\n', '}'])
            .next()?
            .trim()
            .parse()
            .ok()
            // `f64::from_str` accepts "inf"/"NaN" spellings, which are
            // not JSON and would propagate through every ratio printed;
            // a baseline carrying them (from a run whose wall clock
            // rounded to zero) is rejected field-by-field.
            .filter(|v: &f64| v.is_finite())
    }
    text.split("\"suite\": ")
        .skip(1)
        .filter_map(|chunk| {
            Some(BaselineRow {
                // The chunk starts right at the suite's string literal.
                suite: chunk.split('"').nth(1)?.to_owned(),
                engine: str_field(chunk, "engine")?,
                states_per_sec: num_field(chunk, "states_per_sec")?,
            })
        })
        .collect()
}

/// A per-second rate over a measured wall clock, or `None` when the
/// interval is too short to carry a meaningful rate. Dividing by a wall
/// clock that rounds to (near) zero used to print absurd rates and
/// could emit `inf`/`NaN` — which is not JSON — into the report; an
/// unmeasurable rate is now `null` in the report and `n/a` on stderr.
fn rate(count: usize, wall_s: f64) -> Option<f64> {
    if wall_s < 1e-6 {
        return None;
    }
    let r = count as f64 / wall_s;
    r.is_finite().then_some(r)
}

/// `rate` formatted for stderr (`{:.0}` or `n/a`).
fn rate_str(count: usize, wall_s: f64) -> String {
    rate(count, wall_s).map_or_else(|| "n/a".to_owned(), |r| format!("{r:.0}"))
}

/// `rate` formatted as a JSON value (`{:.1}` or `null`).
fn rate_json(count: usize, wall_s: f64) -> String {
    rate(count, wall_s).map_or_else(|| "null".to_owned(), |r| format!("{r:.1}"))
}

/// Print the report-only states/sec comparison of this run against a
/// committed baseline report.
fn print_baseline_comparison(rows: &[SuiteRow], baseline_path: &str) {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("oracle_bench: baseline {baseline_path} unreadable; skipping comparison");
        return;
    };
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("oracle_bench: baseline {baseline_path} has no rows; skipping comparison");
        return;
    }
    eprintln!("states/sec vs baseline {baseline_path} (report-only, shared hardware is noisy):");
    for row in rows {
        let now = rate(row.states(), row.wall_s);
        let entry = baseline
            .iter()
            .find(|b| b.suite == row.suite && b.engine == row.engine);
        match (now, entry) {
            // `parse_baseline` only yields finite fields, so the ratio
            // below is finite whenever the baseline rate is positive.
            (Some(now), Some(b)) if b.states_per_sec > 0.0 => {
                let ratio = now / b.states_per_sec;
                eprintln!(
                    "  {:<20} {:<18} {:>9.0} now vs {:>9.0} baseline  ({:+.1}%)",
                    row.suite,
                    row.engine,
                    now,
                    b.states_per_sec,
                    (ratio - 1.0) * 100.0
                );
            }
            _ => eprintln!(
                "  {:<20} {:<18} {:>9} now ({})",
                row.suite,
                row.engine,
                rate_str(row.states(), row.wall_s),
                if entry.is_some() {
                    "unmeasurable or degenerate baseline"
                } else {
                    "no baseline entry"
                }
            ),
        }
    }
}

/// Peak resident set size of this process in KiB, if the platform
/// exposes it (`VmHWM` in `/proc/self/status`).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minimal JSON string escaping (suite/test names are ASCII, but stay
/// correct regardless).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run one suite once through one engine configuration, cross-checking
/// nothing (the caller compares engines).
fn run_suite_once(
    suite: &'static str,
    engine: String,
    entries: &[&LitmusEntry],
    params: &ModelParams,
    limits: &ExploreLimits,
) -> SuiteRow {
    let mut tests = Vec::with_capacity(entries.len());
    let t0 = Instant::now();
    for e in entries {
        let test = parse(e.source).expect("pinned suite parses");
        let t1 = Instant::now();
        let r = run_limited(&test, params, limits);
        let wall = t1.elapsed().as_secs_f64();
        assert!(
            !r.stats.truncated,
            "{}: pinned bench test exhausted its budget — not a valid measurement",
            e.name
        );
        tests.push(TestRow {
            name: e.name.to_owned(),
            states: r.stats.states,
            transitions: r.stats.transitions,
            finals: r.finals,
            wall_s: wall,
            resident_peak: r.stats.resident_peak,
        });
    }
    SuiteRow {
        suite,
        engine,
        tests,
        wall_s: t0.elapsed().as_secs_f64(),
        states_ratio: None,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags("oracle_bench", &args, VALUE_FLAGS, BOOL_FLAGS, USAGE);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_oracle.json".to_owned());
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads: usize = parse_nonzero_arg("oracle_bench", &args, "--threads", 2);
    let repeat: usize = parse_nonzero_arg("oracle_bench", &args, "--repeat", 1);
    let baseline = arg_value(&args, "--baseline");

    let lib = library();
    let gen = generated_suite();
    let pick = |names: &[&str]| -> Vec<&LitmusEntry> {
        names
            .iter()
            .map(|n| {
                lib.iter()
                    .find(|e| e.name == *n)
                    .unwrap_or_else(|| panic!("pinned test {n} missing from library"))
            })
            .collect()
    };
    let gen_take = if smoke {
        GENERATED_SMOKE
    } else {
        GENERATED_FULL
    };
    let mut suites: Vec<(&'static str, Vec<&LitmusEntry>)> = vec![("litmus-small", pick(SMALL))];
    if !smoke {
        suites.push(("litmus-large", pick(LARGE)));
    }
    suites.push(("generated-families", gen.iter().take(gen_take).collect()));

    let params = ModelParams::default();
    let reduced_params = ModelParams {
        sleep_sets: true,
        ..ModelParams::default()
    };
    // (name, params, limits, finals_only): `finals_only` marks engines
    // whose contract is identical verdicts over a *different* explored
    // set (the sleep-set reduction), excluded from the state/transition
    // equality check.
    let engines: Vec<(String, ModelParams, ExploreLimits, bool)> = vec![
        (
            "sequential".to_owned(),
            params.clone(),
            ExploreLimits {
                threads: 1,
                ..ExploreLimits::default()
            },
            false,
        ),
        (
            format!("work-stealing-{threads}"),
            params.clone(),
            ExploreLimits {
                threads,
                ..ExploreLimits::default()
            },
            false,
        ),
        (
            "sequential-reduced".to_owned(),
            reduced_params,
            ExploreLimits {
                threads: 1,
                ..ExploreLimits::default()
            },
            true,
        ),
    ];

    eprintln!(
        "oracle_bench: {} suites × {} engines, repeat {}{}",
        suites.len(),
        engines.len(),
        repeat,
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<SuiteRow> = Vec::new();
    for (suite, entries) in &suites {
        let mut per_engine: Vec<(SuiteRow, bool)> = Vec::new();
        for (engine, engine_params, limits, finals_only) in &engines {
            let mut best: Option<SuiteRow> = None;
            for _ in 0..repeat {
                let row = run_suite_once(suite, engine.clone(), entries, engine_params, limits);
                if best.as_ref().is_none_or(|b| row.wall_s < b.wall_s) {
                    best = Some(row);
                }
            }
            per_engine.push((best.expect("repeat >= 1"), *finals_only));
        }
        // Engine equivalence: identical states / transitions / finals
        // per test for the exhaustive engines (the exhaustive-
        // equivalence contract the whole PR hangs off — a fast engine
        // that explores a different envelope measures nothing); the
        // reduced engine must reproduce the finals exactly while
        // exploring fewer states, so it is checked on finals only and
        // its state-count ratio is recorded instead.
        let base_states = per_engine[0].0.states();
        {
            let (base, _) = &per_engine[0];
            for (other, finals_only) in &per_engine[1..] {
                for (a, b) in base.tests.iter().zip(&other.tests) {
                    if *finals_only {
                        assert_eq!(
                            (&a.name, a.finals),
                            (&b.name, b.finals),
                            "reduced-engine finals divergence in suite {suite}"
                        );
                    } else {
                        assert_eq!(
                            (&a.name, a.states, a.transitions, a.finals),
                            (&b.name, b.states, b.transitions, b.finals),
                            "engine divergence in suite {suite}"
                        );
                    }
                }
            }
        }
        for (mut row, finals_only) in per_engine {
            if finals_only && base_states > 0 {
                row.states_ratio = Some(row.states() as f64 / base_states as f64);
            }
            eprintln!(
                "  {:<20} {:<18} {:>9} states {:>12} transitions {:>9.2}s  {:>9} states/s{}",
                row.suite,
                row.engine,
                row.states(),
                row.transitions(),
                row.wall_s,
                rate_str(row.states(), row.wall_s),
                row.states_ratio
                    .map(|r| format!("  ({:.2}x states vs sequential)", r))
                    .unwrap_or_default(),
            );
            rows.push(row);
        }
    }

    // ---- JSON report ---------------------------------------------------
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"bench-oracle-v1\",");
    let _ = writeln!(j, "  \"created_unix\": {created},");
    let _ = writeln!(j, "  \"nproc\": {nproc},");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"repeat\": {repeat},");
    match peak_rss_kb() {
        Some(kb) => {
            let _ = writeln!(j, "  \"peak_rss_kb\": {kb},");
        }
        None => {
            let _ = writeln!(j, "  \"peak_rss_kb\": null,");
        }
    }
    j.push_str("  \"suites\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let states = row.states();
        let transitions = row.transitions();
        j.push_str("    {\n");
        let _ = writeln!(j, "      \"suite\": {},", json_str(row.suite));
        let _ = writeln!(j, "      \"engine\": {},", json_str(&row.engine));
        let _ = writeln!(j, "      \"tests\": {},", row.tests.len());
        let _ = writeln!(j, "      \"states\": {states},");
        let _ = writeln!(j, "      \"transitions\": {transitions},");
        let _ = writeln!(j, "      \"wall_s\": {:.6},", row.wall_s);
        let _ = writeln!(
            j,
            "      \"states_per_sec\": {},",
            rate_json(states, row.wall_s)
        );
        let _ = writeln!(
            j,
            "      \"transitions_per_sec\": {},",
            rate_json(transitions, row.wall_s)
        );
        let _ = writeln!(
            j,
            "      \"resident_peak_states\": {},",
            row.resident_peak()
        );
        if let Some(r) = row.states_ratio {
            let _ = writeln!(j, "      \"states_ratio_vs_sequential\": {r:.4},");
        }
        j.push_str("      \"per_test\": [\n");
        for (k, t) in row.tests.iter().enumerate() {
            let _ = write!(
                j,
                "        {{\"name\": {}, \"states\": {}, \"transitions\": {}, \
                 \"finals\": {}, \"wall_s\": {:.6}}}",
                json_str(&t.name),
                t.states,
                t.transitions,
                t.finals,
                t.wall_s
            );
            j.push_str(if k + 1 == row.tests.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        j.push_str("      ]\n");
        j.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&out_path, &j).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    if let Some(baseline_path) = baseline {
        print_baseline_comparison(&rows, &baseline_path);
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_baseline, rate, rate_json, rate_str};

    #[test]
    fn rate_is_none_for_unmeasurable_walls() {
        assert_eq!(rate(1000, 0.0), None);
        assert_eq!(rate(1000, 1e-9), None);
        assert_eq!(rate(0, 0.0), None);
        let r = rate(1000, 0.5).expect("measurable");
        assert!((r - 2000.0).abs() < 1e-9);
        assert_eq!(rate_str(1000, 0.0), "n/a");
        assert_eq!(rate_json(1000, 0.0), "null");
        assert_eq!(rate_json(1000, 0.5), "2000.0");
    }

    #[test]
    fn baseline_parser_rejects_non_finite_rates() {
        let report = r#"{
  "suites": [
    {
      "suite": "litmus-large",
      "engine": "sequential",
      "states_per_sec": 150000.0,
      "transitions_per_sec": 600000.0
    },
    {
      "suite": "litmus-small",
      "engine": "sequential",
      "states_per_sec": inf,
      "transitions_per_sec": NaN
    },
    {
      "suite": "generated-families",
      "engine": "sequential",
      "states_per_sec": null,
      "transitions_per_sec": null
    }
  ]
}
"#;
        let rows = parse_baseline(report);
        // Only the finite row survives; inf/NaN (parseable by
        // `f64::from_str` but not JSON) and null are rejected.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].suite, "litmus-large");
        assert_eq!(rows[0].engine, "sequential");
        assert!((rows[0].states_per_sec - 150_000.0).abs() < 1e-9);
    }
}
