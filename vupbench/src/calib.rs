//! Machine-speed calibration: a fixed kernel that calls no program
//! code, timed between rounds of ops, so that every end-to-end time is
//! reported at one reference machine speed.
//!
//! The benchmark's host is a share of a virtual machine whose speed
//! drifts by a third over minutes: the same `paper_eval` op on the same
//! inputs took 51 ms in one run and 83 ms in another a few minutes
//! later, and the spread of ten runs reached a quarter of their median.
//! A slowdown of the host stretches the kernel and the ops alike, so an
//! op's time scaled by `reference / kernel time` stays put, while a
//! change to the program moves it in full: the kernel does not touch
//! the program. The raw times are reported beside the calibrated ones
//! in the traced run (`raw.*`, `calib.kernel_ms`).
//!
//! The kernel is processor work; for `serve_hot` it also makes socket
//! system calls ([`Kernel::with_sockets`]). Over two sets of nine and
//! eight `serve_hot` runs, the spread of the calibrated request time was
//! 0.067 and 0.082 with processor work alone, 0.088 and 0.039 with
//! socket calls alone, and 0.056 and 0.061 with both. A file-system
//! kernel (appends that reopen a file, files written and renamed into
//! place) was tried for `ingest_stream` and tracked its ops worse than
//! processor work alone: the file system's speed moved from run to run
//! by twice as much as the ops did.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{self, Read, Write as _};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use crate::stats::{self, Report};
use crate::sys;

/// Median time of the processor work of one kernel run on the machine
/// the bounds were set on (2 vCPUs of a KVM guest on an Intel Xeon,
/// otherwise idle). Calibrated times are "milliseconds at that
/// machine's speed".
pub const REFERENCE_MS: f64 = 0.75;
/// Median time of the socket calls of one kernel run on the same
/// machine.
pub const SOCKET_REFERENCE_MS: f64 = 0.75;
/// Kernel runs per measurement; the measurement is their median.
const RUNS: usize = 5;

/// One kernel measurement: how long a run took now, and how long it
/// takes at the reference speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Milliseconds a run took.
    pub ms: f64,
    /// Milliseconds a run takes at the reference speed.
    pub reference_ms: f64,
}

impl Measurement {
    /// The machine speed over a stretch of work timed between the
    /// measurements `before` and `after`: their mean.
    pub fn between(before: Measurement, after: Measurement) -> Measurement {
        Measurement {
            ms: (before.ms + after.ms) / 2.0,
            reference_ms: before.reference_ms,
        }
    }

    /// The factor that turns a time measured beside this measurement
    /// into a time at the reference speed.
    pub fn scale(&self) -> f64 {
        self.reference_ms / self.ms
    }
}

/// Points of the Gram-matrix part.
const POINTS: usize = 64;
/// Dimension of each point.
const DIM: usize = 24;
/// Words of the walked table (256 KiB).
const TABLE_LEN: usize = 1 << 15;
/// Slots of the open-addressing hash table.
const SLOTS: usize = 1 << 13;
/// Numbers formatted and parsed back per run.
const NUMBERS: usize = 1500;

/// Exchanges over the socket pair per kernel run.
const EXCHANGES: usize = 400;
/// Bytes of each request (a 4-vehicle predict-batch POST is about 300).
const REQUEST_BYTES: usize = 300;
/// Bytes of each answer (a predict-batch response is about 3600).
const ANSWER_BYTES: usize = 3600;

/// The kernel's state, allocated once so that a run allocates nothing
/// and shares no allocator state with the program.
pub struct Kernel {
    points: Vec<f64>,
    table: Vec<u64>,
    slots: Vec<u64>,
    text: String,
    wire: Vec<u8>,
    sockets: Option<(UnixStream, UnixStream)>,
}

impl Kernel {
    /// A kernel of processor work only.
    pub fn new() -> Kernel {
        Kernel {
            points: (0..POINTS * DIM)
                .map(|i| ((i * 37) % 101) as f64 * 0.01)
                .collect(),
            table: (0..TABLE_LEN as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            slots: vec![0; SLOTS],
            text: String::with_capacity(NUMBERS * 32),
            wire: vec![b'x'; ANSWER_BYTES],
            sockets: None,
        }
    }

    /// A kernel that also makes socket system calls: request-sized and
    /// answer-sized writes into a connected Unix socket pair, each read
    /// back at once on the same thread. Like the daemon's socket calls
    /// they cross into the operating system and copy buffers; unlike a
    /// round trip to another thread they never wait for a wake-up, whose
    /// time on this host varied tenfold between runs.
    pub fn with_sockets() -> io::Result<Kernel> {
        Ok(Kernel {
            sockets: Some(UnixStream::pair()?),
            ..Kernel::new()
        })
    }

    /// One run of fixed work of the kinds the workloads' ops do: an RBF
    /// Gram matrix (floating point and `exp`), numbers formatted to text
    /// and parsed back (what JSON encoding and decoding do), a
    /// data-dependent walk with branches over a 256 KiB table,
    /// open-addressing hash inserts and probes, and the socket calls if
    /// the kernel has them. Returns a checksum that depends on all of
    /// the processor work.
    pub fn run(&mut self) -> io::Result<u64> {
        let mut gram = 0.0f64;
        for i in 0..POINTS {
            for j in 0..POINTS {
                let (a, b) = (
                    &self.points[i * DIM..][..DIM],
                    &self.points[j * DIM..][..DIM],
                );
                let d: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                gram += (-0.05 * d).exp();
            }
        }

        self.text.clear();
        for i in 0..NUMBERS {
            write!(self.text, "{:.6},", i as f64 * 0.37 + gram * 1e-9).expect("String write");
        }
        let parsed: f64 = self
            .text
            .split_terminator(',')
            .map(|s| s.parse::<f64>().unwrap_or(0.0))
            .sum();

        let mut h = 0x2545_F491_4F6C_DD1Du64 ^ parsed.to_bits();
        let mut j = (h as usize) % TABLE_LEN;
        for _ in 0..TABLE_LEN {
            let v = self.table[j];
            h = (h ^ v).wrapping_mul(0x1000_0000_01B3);
            if h & 8 == 0 {
                self.table[j] = v.rotate_left(5) ^ h;
            } else {
                h = h.wrapping_add(v >> 3);
            }
            j = (h >> 17) as usize % TABLE_LEN;
        }

        self.slots.fill(0);
        let mut found = 0u64;
        for i in 1..=(SLOTS as u64 / 2) {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut s = (key >> 40) as usize % SLOTS;
            while self.slots[s] != 0 {
                s = (s + 1) % SLOTS;
            }
            self.slots[s] = key;
        }
        for i in 1..=(SLOTS as u64) {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut s = (key >> 40) as usize % SLOTS;
            while self.slots[s] != 0 {
                if self.slots[s] == key {
                    found += 1;
                    break;
                }
                s = (s + 1) % SLOTS;
            }
        }
        if let Some((near, far)) = &mut self.sockets {
            for _ in 0..EXCHANGES {
                near.write_all(&self.wire[..REQUEST_BYTES])?;
                far.read_exact(&mut self.wire[..REQUEST_BYTES])?;
                far.write_all(&self.wire)?;
                near.read_exact(&mut self.wire)?;
            }
        }
        Ok(black_box(h ^ found ^ gram.to_bits()))
    }

    /// How long a run takes now: the median of a few runs.
    pub fn measure(&mut self) -> Result<Measurement, String> {
        let mut times = [0.0; RUNS];
        for time in &mut times {
            let start = Instant::now();
            black_box(self.run().map_err(|e| format!("calibration kernel: {e}"))?);
            *time = sys::ms(start.elapsed());
        }
        let socket_ms = if self.sockets.is_some() {
            SOCKET_REFERENCE_MS
        } else {
            0.0
        };
        Ok(Measurement {
            ms: stats::median(&times),
            reference_ms: REFERENCE_MS + socket_ms,
        })
    }
}

/// Which figure of a run's op times is its typical op time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Typical {
    /// The median op: for ops of one kind, alike in size.
    MedianOp,
    /// The median over rounds of each round's mean op: for ops that mix
    /// kinds of unlike cost (a fleet-day with or without a retrain),
    /// whose median would jump between the kinds from seed to seed.
    MedianRoundMean,
}

/// Op times and CPU time gathered in rounds, each round timed beside a
/// kernel measurement.
#[derive(Debug)]
pub struct Rounds {
    typical: Typical,
    /// Every op's time, in op order (ms).
    pub raw_ms: Vec<f64>,
    /// Every op's time at the reference speed (ms).
    pub reference_ms: Vec<f64>,
    /// Each round's mean op time at the reference speed (ms).
    round_mean_ms: Vec<f64>,
    /// Each round's CPU time per op at the reference speed (ms).
    cpu_reference_ms: Vec<f64>,
    /// Each round's kernel time (ms).
    kernel_ms: Vec<f64>,
    /// CPU time of all rounds (s).
    cpu_s: f64,
}

impl Rounds {
    /// No rounds yet; `typical` picks the reported op time.
    pub fn new(typical: Typical) -> Rounds {
        Rounds {
            typical,
            raw_ms: Vec::new(),
            reference_ms: Vec::new(),
            round_mean_ms: Vec::new(),
            cpu_reference_ms: Vec::new(),
            kernel_ms: Vec::new(),
            cpu_s: 0.0,
        }
    }

    /// Records one round: the kernel measurements taken right before
    /// and right after it, its ops' times and the CPU time the process
    /// spent on them.
    pub fn record(&mut self, before: Measurement, after: Measurement, op_ms: &[f64], cpu_s: f64) {
        if op_ms.is_empty() {
            return;
        }
        let kernel = Measurement::between(before, after);
        let scale = kernel.scale();
        self.raw_ms.extend_from_slice(op_ms);
        self.reference_ms.extend(op_ms.iter().map(|ms| ms * scale));
        self.round_mean_ms.push(stats::mean(op_ms) * scale);
        self.cpu_reference_ms
            .push(1e3 * cpu_s / op_ms.len() as f64 * scale);
        self.kernel_ms.push(kernel.ms);
        self.cpu_s += cpu_s;
    }

    /// Ops recorded.
    pub fn ops(&self) -> usize {
        self.raw_ms.len()
    }

    /// The end-to-end `op_p50_ms` and `op_cpu_ms` at the reference
    /// speed: the typical op time, and the median over rounds of CPU
    /// time per op.
    pub fn report_end_to_end(&self, report: &mut Report) {
        let typical = match self.typical {
            Typical::MedianOp => &self.reference_ms,
            Typical::MedianRoundMean => &self.round_mean_ms,
        };
        report.metric("op_p50_ms", "ms", stats::median(typical), self.ops());
        report.metric(
            "op_cpu_ms",
            "ms",
            stats::median(&self.cpu_reference_ms),
            self.ops(),
        );
    }

    /// The per-layer `raw.op_p50_ms`, `raw.op_cpu_ms` and
    /// `calib.kernel_ms`: the median op and the mean CPU time per op as
    /// measured, and the median kernel time they were scaled by.
    pub fn report_raw(&self, report: &mut Report) {
        report.metric(
            "raw.op_p50_ms",
            "ms",
            stats::median(&self.raw_ms),
            self.ops(),
        );
        report.metric(
            "raw.op_cpu_ms",
            "ms",
            1e3 * self.cpu_s / self.ops().max(1) as f64,
            self.ops(),
        );
        report.metric(
            "calib.kernel_ms",
            "ms",
            stats::median(&self.kernel_ms),
            self.kernel_ms.len(),
        );
    }
}

/// Set-up times, each scaled by kernel measurements taken right before
/// and right after it.
#[derive(Debug, Default)]
pub struct Setups {
    raw_s: Vec<f64>,
    reference_s: Vec<f64>,
}

impl Setups {
    /// Records one set-up of `seconds`, timed between the kernel
    /// measurements `before` and `after`.
    pub fn record(&mut self, before: Measurement, after: Measurement, seconds: f64) {
        self.raw_s.push(seconds);
        self.reference_s
            .push(seconds * Measurement::between(before, after).scale());
    }

    /// The end-to-end `setup_s`: the median set-up time at the
    /// reference speed.
    pub fn report_end_to_end(&self, report: &mut Report) {
        report.metric(
            "setup_s",
            "s",
            stats::median(&self.reference_s),
            self.reference_s.len(),
        );
    }

    /// The per-layer `raw.setup_s`: the median set-up time as measured.
    pub fn report_raw(&self, report: &mut Report) {
        report.metric(
            "raw.setup_s",
            "s",
            stats::median(&self.raw_s),
            self.raw_s.len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement of a machine `slower` times slower than the
    /// reference.
    fn at(slower: f64) -> Measurement {
        Measurement {
            ms: slower * REFERENCE_MS,
            reference_ms: REFERENCE_MS,
        }
    }

    #[test]
    fn the_kernels_are_deterministic_and_measurable() {
        let checksum = Kernel::new().run().unwrap();
        assert_eq!(Kernel::with_sockets().unwrap().run().unwrap(), checksum);
        let m = Kernel::new().measure().unwrap();
        assert!(m.ms > 0.0 && m.reference_ms == REFERENCE_MS);
        let m = Kernel::with_sockets().unwrap().measure().unwrap();
        assert!(m.ms > 0.0 && m.reference_ms == REFERENCE_MS + SOCKET_REFERENCE_MS);
    }

    #[test]
    fn rounds_scale_each_op_by_its_own_kernel_measurement() {
        let mut rounds = Rounds::new(Typical::MedianOp);
        // A round on a machine at half the reference speed, then one at
        // the reference speed: the same op reads the same once scaled.
        rounds.record(at(2.0), at(2.0), &[20.0, 20.0], 0.040);
        rounds.record(at(1.0), at(1.0), &[10.0], 0.010);
        assert_eq!(rounds.reference_ms, vec![10.0, 10.0, 10.0]);
        let mut report = Report::default();
        rounds.report_end_to_end(&mut report);
        rounds.report_raw(&mut report);
        assert_eq!(report.metrics["op_p50_ms"].value, 10.0);
        assert_eq!(report.metrics["op_cpu_ms"].value, 10.0);
        assert_eq!(report.metrics["raw.op_p50_ms"].value, 20.0);
        assert_eq!(report.metrics["raw.op_cpu_ms"].value, 50.0 / 3.0);
        assert_eq!(report.metrics["op_p50_ms"].samples, 3);
    }

    #[test]
    fn round_means_smooth_ops_of_two_kinds() {
        // Cheap (1 ms) and dear (3 ms) ops, a few more cheap ones than
        // dear ones in one run and the other way round in the next: the
        // median op jumps from 1 to 3, the median round mean stays near 2.
        let run = |cheap: usize, dear: usize, typical: Typical| {
            let mut rounds = Rounds::new(typical);
            for _ in 0..5 {
                let mut ops = vec![1.0; cheap];
                ops.extend(vec![3.0; dear]);
                rounds.record(at(1.0), at(1.0), &ops, 0.0);
            }
            let mut report = Report::default();
            rounds.report_end_to_end(&mut report);
            report.metrics["op_p50_ms"].value
        };
        assert_eq!(run(11, 9, Typical::MedianOp), 1.0);
        assert_eq!(run(9, 11, Typical::MedianOp), 3.0);
        assert_eq!(run(11, 9, Typical::MedianRoundMean), 1.9);
        assert_eq!(run(9, 11, Typical::MedianRoundMean), 2.1);
    }

    #[test]
    fn setups_scale_by_the_kernel_measurements_around_them() {
        let mut setups = Setups::default();
        for slower in [1.0, 2.0, 4.0] {
            setups.record(at(slower), at(slower), slower * 0.5);
        }
        // A machine that slowed down during the set-up counts at the
        // mean of the two measurements.
        setups.record(at(1.0), at(3.0), 1.0);
        let mut report = Report::default();
        setups.report_end_to_end(&mut report);
        setups.report_raw(&mut report);
        assert_eq!(report.metrics["setup_s"].value, 0.5);
        assert_eq!(report.metrics["raw.setup_s"].value, 1.0);
    }
}
