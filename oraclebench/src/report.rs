//! Sample statistics and the result format.
//!
//! Every run ends with one JSON object on the last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}`, where each
//! metric is `{"value", "unit"}`. The line before it is a `report`
//! object with the run's context (host CPUs, git revision, seed, run
//! length) and the sample count behind every timing.

use std::fmt::Write as _;
use std::time::Duration;

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const TAIL_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of a set of durations, in seconds.
#[must_use]
pub fn median_secs(ds: &[Duration]) -> f64 {
    median(&ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Samples lying strictly beyond the nearest-rank `p`-th percentile of
/// `n` samples (`0 < p < 1`).
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Nearest rank: the smallest rank whose cumulative share reaches p.
    // The epsilon keeps e.g. 0.99 * 1000 from rounding up to 991.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples needed before the `p`-th percentile has [`TAIL_BEYOND`]
/// samples beyond it.
#[must_use]
pub fn samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= TAIL_BEYOND)
        .expect("finite")
}

/// The nearest-rank `p`-th percentile of `xs`, or `None` when fewer
/// than [`TAIL_BEYOND`] samples lie beyond it (a tail read off fewer
/// samples is not reported).
#[must_use]
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), p) < TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    Some(v[rank(v.len(), p) - 1])
}

/// The peak resident set size of this process so far, in MiB
/// (`VmHWM` from `/proc/self/status`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tests run, queries sent).
    pub attempted: u64,
    /// Operations whose answer failed its check.
    pub failed: u64,
    /// Run-level checks that failed: checks not tied to one operation
    /// (a counter that disagrees, layers that do not add up).
    pub checks_failed: u64,
    /// The first few failure messages (printed to standard error).
    pub messages: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context for the `report` line: `(key, JSON value)` pairs.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    fn log(&mut self, msg: String) {
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Record a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.log(msg);
    }

    /// Record a run-level check: the run is not correct if it fails,
    /// even when every operation passed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed += 1;
            let msg = format!("check failed: {}", msg());
            self.log(msg);
        }
    }

    /// Whether every operation and every run-level check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_failed == 0
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
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

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives (never exponent notation).
fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

/// The result line: the last line the benchmark prints.
///
/// # Errors
///
/// A metric whose value is not finite (it would not be valid JSON).
pub fn result_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for m in &out.metrics {
        let v = json_num(m.value).map_err(|e| format!("metric {}: {e}", m.name))?;
        metrics.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// The `report` line printed just before the result line.
#[must_use]
pub fn report_line(notes: &[(String, String)]) -> String {
    let fields: Vec<String> = notes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"report\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.5), 20);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), None, "9 samples beyond p99");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&xs, 0.99), Some(990.0));
        assert_eq!(tail(&xs, 0.5), Some(500.0));
    }

    #[test]
    fn tail_is_a_sample_at_the_nearest_rank() {
        let xs: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some(1979.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.012_345_678_9, "s");
        out.metric("ops_per_s", 1400.5, "1/s");
        let line = result_line(&out).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.0123456789, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1400.5, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn tiny_values_keep_all_digits_without_exponents() {
        let mut out = Outcome::default();
        out.metric("x", 1.25e-7, "s");
        assert!(result_line(&out).unwrap().contains("0.000000125"));
    }

    #[test]
    fn failures_and_checks_make_a_run_incorrect() {
        let mut out = Outcome::default();
        out.check(true, || unreachable!());
        assert!(out.correct());
        out.check(false, || "explorations 3 != misses 4".to_owned());
        assert!(!out.correct());
        let mut out = Outcome::default();
        out.fail("MP: mismatch".to_owned());
        assert!(!out.correct());
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut out = Outcome::default();
        out.metric("x", f64::NAN, "s");
        assert!(result_line(&out).is_err());
    }

    #[test]
    fn report_line_escapes_strings() {
        let line = report_line(&[
            ("seed".to_owned(), "7".to_owned()),
            ("git_rev".to_owned(), json_str("a\"b")),
        ]);
        assert_eq!(line, "{\"report\": {\"seed\": 7, \"git_rev\": \"a\\\"b\"}}");
    }
}
