//! In-benchmark tracing: spans around the calls into each layer, kept
//! in memory and folded into per-layer self times.
//!
//! A span's self time is its duration minus the time of the spans it
//! encloses. A layer that the program reaches only from inside another
//! layer's function is measured by a *replica*: the benchmark calls the
//! inner layer's public function again on the same inputs (and checks
//! the answer matches). The replica's time counts as that layer's self
//! time and is taken off the self time of the layer it stands in for.
//! Replicas run after the op they stand in for, so op times exclude them
//! and they neither warm nor evict caches for the op's real work.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time and calls of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Self time in nanoseconds (may dip below zero transiently while
    /// replicas are attributed).
    pub self_ns: i64,
    /// Times the span (or replica) ran.
    pub calls: u64,
}

struct Frame {
    child_ns: u64,
}

/// Span recorder of one traced run.
#[derive(Default)]
pub struct Trace {
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, Totals>,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl Trace {
    /// A recorder with nothing recorded.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Runs `f` inside a span named `name` (`layer.what`).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        self.stack.push(Frame { child_ns: 0 });
        let start = Instant::now();
        let out = f(self);
        let total = elapsed_ns(start);
        let frame = self.stack.pop().expect("span stack balanced");
        let entry = self.totals.entry(name).or_default();
        entry.self_ns += total as i64 - frame.child_ns as i64;
        entry.calls += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        out
    }

    /// Runs `f` as a replica of work that span `within` already did:
    /// its duration becomes `name`'s self time and leaves `within`'s.
    /// Replicas may nest (a replica inside a replica stands in for part
    /// of the outer one).
    pub fn replica<T>(
        &mut self,
        name: &'static str,
        within: &'static str,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> T {
        self.stack.push(Frame { child_ns: 0 });
        let start = Instant::now();
        let out = f(self);
        let total = elapsed_ns(start);
        let frame = self.stack.pop().expect("span stack balanced");
        // A nested replica's wall time is an extra, not part of the work
        // this replica re-does.
        let own = total as i64 - frame.child_ns as i64;
        let entry = self.totals.entry(name).or_default();
        entry.self_ns += own;
        entry.calls += 1;
        self.totals.entry(within).or_default().self_ns -= own;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        out
    }

    /// Totals of span `name` (zero if it never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time of every span whose name starts with `layer.`.
    pub fn layer_ns(&self, layer: &str) -> i64 {
        self.totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    }
}

/// Runs `f` inside span `name` when a trace is given, else just runs it.
pub fn maybe<T>(t: Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Percent of `whole_ns` that each layer's self time takes, plus
/// `other` for whatever no layer accounts for.
pub fn shares(trace: &Trace, layers: &[&'static str], whole_ns: f64) -> Vec<(String, f64)> {
    shares_of(|layer| trace.layer_ns(layer) as f64, layers, whole_ns)
}

/// Percent of `whole` that `layer_time(layer)` takes for each layer,
/// plus `other` for the remainder.
pub fn shares_of(
    layer_time: impl Fn(&str) -> f64,
    layers: &[&'static str],
    whole: f64,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut named = 0.0;
    for &layer in layers {
        let pct = 100.0 * layer_time(layer) / whole;
        named += pct;
        out.push((format!("share.{layer}_pct"), pct));
    }
    out.push(("share.other_pct".to_string(), 100.0 - named));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(ms: u64) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(ms) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_excludes_children_and_replicas() {
        let mut t = Trace::new();
        t.span("bench.op", |t| t.span("core.fit", |_| busy(30)));
        // The re-done select (15 ms) contains an acf of its own, which
        // the nested acf replica (10 ms) stands in for.
        t.replica("core.select", "core.fit", |t| {
            t.replica("tseries.acf", "core.select", |_| busy(10));
            busy(15);
        });
        let ms = |name: &str| t.totals(name).self_ns as f64 / 1e6;
        // fit keeps 30 - 15 = 15 ms, select 15 - 10 = 5 ms, acf 10 ms.
        assert!((ms("core.fit") - 15.0).abs() < 4.0, "{}", ms("core.fit"));
        assert!(
            (ms("core.select") - 5.0).abs() < 3.0,
            "{}",
            ms("core.select")
        );
        assert!(
            (ms("tseries.acf") - 10.0).abs() < 3.0,
            "{}",
            ms("tseries.acf")
        );
        // The op's own time excludes the fit span.
        assert!(ms("bench.op") < 3.0, "{}", ms("bench.op"));
        assert_eq!(t.totals("tseries.acf").calls, 1);
        assert!((t.layer_ns("core") as f64 / 1e6 - 20.0).abs() < 5.0);
        let layers = t.layer_ns("core") + t.layer_ns("tseries") + t.layer_ns("bench");
        assert!((layers as f64 / 1e6 - 30.0).abs() < 5.0);
    }

    #[test]
    fn shares_sum_to_one_hundred() {
        let mut t = Trace::new();
        t.span("bench.op", |t| {
            t.span("core.fit", |_| busy(6));
            t.span("ml.fit", |_| busy(4));
        });
        let whole = t.totals("bench.op").self_ns as f64
            + t.totals("core.fit").self_ns as f64
            + t.totals("ml.fit").self_ns as f64;
        let shares = shares(&t, &["core", "ml"], whole);
        let sum: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(shares[0].1 > shares[2].1, "{shares:?}");
    }
}
