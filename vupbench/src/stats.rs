//! Sample statistics, metric naming and op/failure accounting shared by
//! every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A percentile is only reported when at least this many samples lie
/// beyond it, so one slow op never decides a tail figure.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank quantile `q` of `samples` (any order). `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Most windows [`windowed_percentile`] splits a run into.
pub const MAX_WINDOWS: usize = 10;

/// Quantile `q` of a run's samples (in op order), taken as the median
/// over up to [`MAX_WINDOWS`] consecutive windows of each window's
/// quantile, every window holding enough samples for ten beyond it. A
/// burst of noise then moves one window's figure instead of the run's.
/// Returns the value and the number of windows; `None` when the run
/// cannot fill one window.
pub fn windowed_percentile(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    let min = (1..=samples.len()).find(|&n| samples_beyond(n, q) >= MIN_BEYOND)?;
    let windows = (samples.len() / min).clamp(1, MAX_WINDOWS);
    let size = samples.len() / windows;
    let values: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            percentile(&samples[w * size..end], q).expect("window holds enough samples")
        })
        .collect();
    Some((median(&values), windows))
}

/// Median of `samples`, however few (set-up repeats, per-op medians).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// One line describing a run's op times: sample count, median and the
/// highest percentile with ten samples beyond it.
pub fn timing_note(label: &str, samples_ms: &[f64]) -> String {
    let n = samples_ms.len();
    let mut line = format!("{label}: n={n} p50 {:.4} ms", median(samples_ms));
    if let Some(q) = highest_supported(n) {
        let value = percentile(samples_ms, q).expect("supported percentile");
        line.push_str(&format!(
            "; highest percentile with >=10 beyond: p{} = {value:.4} ms",
            q * 100.0
        ));
    }
    line
}

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Ops attempted and failed in one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that did not produce a correct, complete answer.
    pub failed: u64,
}

impl Tally {
    /// Records one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks every attempted op failed (a run whose premise broke).
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Unit as printed.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value rests on.
    pub samples: usize,
}

/// A run's outcome: correctness, accounting and metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate that failed, in the order checked.
    pub gate_failures: Vec<String>,
    /// Op accounting.
    pub tally: Tally,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Free-form lines printed before the result (context, not metrics).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric; panics on a malformed name or a non-finite
    /// value, both of which are bugs in the benchmark.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.metrics.insert(
            name.to_string(),
            Metric {
                unit,
                value,
                samples,
            },
        );
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.metric(name, "count", value as f64, 1);
    }

    /// Records a gate: `ok == false` fails the run with `what`.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.gate_failures.push(what.into());
        }
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// The result line: one JSON object holding `correct`, `attempted`,
    /// `failed` and the metrics.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the value has.
            write!(
                out,
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        // 100 samples: p90 is the 90th, leaving exactly 10 beyond it.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        // p99 leaves one sample beyond: not reportable.
        assert_eq!(percentile(&samples, 0.99), None);
        // 99 samples cannot support p90 either.
        assert_eq!(percentile(&samples[..99], 0.9), None);
    }

    #[test]
    fn highest_supported_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Fewer than 100 samples cannot support p90.
        assert_eq!(windowed_percentile(&[1.0; 99], 0.9), None);
        // 150 samples make one window: the plain percentile.
        let ramp: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed_percentile(&ramp, 0.9), Some((135.0, 1)));
        // 1000 samples make ten windows; a burst inside one window
        // leaves the median window's p90 unchanged.
        let mut steady: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_percentile(&steady, 0.9), Some((89.0, 10)));
        for v in &mut steady[200..350] {
            *v += 1000.0;
        }
        assert_eq!(windowed_percentile(&steady, 0.9), Some((89.0, 10)));
        assert!(percentile(&steady, 0.9).unwrap() > 1000.0);
        // Never more than MAX_WINDOWS windows.
        assert_eq!(
            windowed_percentile(&[1.0; 5000], 0.9).map(|(_, w)| w),
            Some(MAX_WINDOWS)
        );
    }

    #[test]
    fn timing_note_names_the_highest_supported_percentile() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let note = timing_note("op", &samples);
        assert!(note.contains("n=1000"), "{note}");
        assert!(note.contains("p99 = 990.0000"), "{note}");
        assert!(!timing_note("op", &[1.0; 5]).contains("highest"));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.9), Some(180.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["op_p50_ms", "net.parse_us", "share.other_pct", "9a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut tally = Tally::default();
        tally.record(true);
        tally.record(false);
        tally.record(true);
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        tally.fail_all();
        assert_eq!(tally.failed, 3);
    }

    #[test]
    fn result_line_carries_accounting_and_every_metric() {
        let mut report = Report::default();
        report.tally.record(true);
        report.tally.record(false);
        report.metric("op_p50_ms", "ms", 1.25, 2);
        report.count("core.fits", 7);
        let line = report.result_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"core.fits\": {\"value\": 7.0, \"unit\": \"count\"}, \
             \"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        report.gate(false, "perturbed");
        assert!(!report.correct());
        assert!(report.result_json().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn malformed_metric_names_are_rejected() {
        Report::default().metric("bad name", "ms", 1.0, 1);
    }
}
