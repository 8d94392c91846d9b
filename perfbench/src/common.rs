//! Pieces every workload shares: the result record, order statistics,
//! span storage and process probes.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Operations attempted (observations offered, or cells run).
    pub attempted: u64,
    /// Operations dropped or disagreeing with the reference.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in report order.
    pub metrics: Vec<Metric>,
    /// Threads the workload keeps busy.
    pub threads: usize,
    /// Protocol conditions printed beside the result.
    pub conditions: Vec<(String, String)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            threads: 1,
            metrics: Vec::new(),
            conditions: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn condition(&mut self, key: impl Into<String>, value: impl ToString) {
        self.conditions.push((key.into(), value.to_string()));
    }

    /// Adds an end-to-end timing or rate (unit `1/s`) scaled by the
    /// run's `Yardstick::slowdown`, with its raw value as a condition.
    pub fn scaled(&mut self, name: &'static str, raw: f64, unit: &'static str, slowdown: f64) {
        let value = if unit == "1/s" {
            raw * slowdown
        } else {
            raw / slowdown
        };
        self.metric(name, value, unit);
        self.condition(format!("raw.{name}"), raw);
    }
}

/// Command-line settings shared by every workload.
#[derive(Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Where the run's files (event log, checkpoints, spans) live.
    pub work_dir: PathBuf,
}

impl Settings {
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work_dir.join(name)
    }

    /// The untraced halves that bracket a traced run's traced segment,
    /// so that slow drift of the machine's speed cancels out of the
    /// tracing overhead.
    pub fn half(&self) -> Settings {
        Settings {
            seconds: self.seconds / 2.0,
            ..self.clone()
        }
    }
}

/// Worker threads the machine offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Type-7 quantile `q` in `[0, 1]` of unsorted data.
pub fn quantile(values: &[f64], q: f64) -> Result<f64, String> {
    rejuv_stats::summary::quantile(values, q).map_err(|e| format!("quantile {q}: {e}"))
}

pub fn median(values: &[f64]) -> Result<f64, String> {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median: the spread the
/// protocol reports for repeated passes.
pub fn spread(values: &[f64]) -> Result<f64, String> {
    let m = median(values)?;
    if m == 0.0 {
        return Ok(0.0);
    }
    Ok((quantile(values, 0.75)? - quantile(values, 0.25)?) / m)
}

/// A latency distribution in fixed memory (about 9 KiB), so recording
/// every call does not make the process grow with its throughput.
/// Values below 128 ns are exact; above, buckets are 1/64 of their
/// power of two wide (at most 1.6 % of the value).
#[derive(Clone)]
pub struct Latencies {
    counts: Vec<u32>,
    len: u64,
}

impl Latencies {
    const SUB: u64 = 64;
    const BUCKETS: usize = 128 + 58 * 64;

    pub fn new() -> Self {
        Latencies {
            counts: vec![0; Self::BUCKETS],
            len: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 2 * Self::SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() as u64 - 6;
        (2 * Self::SUB + (shift - 1) * Self::SUB + ((ns >> shift) - Self::SUB)) as usize
    }

    /// Lower edge and width of a bucket, in nanoseconds.
    fn edges(bucket: usize) -> (f64, f64) {
        let b = bucket as u64;
        if b < 2 * Self::SUB {
            return (b as f64, 1.0);
        }
        let shift = (b - 2 * Self::SUB) / Self::SUB + 1;
        let mantissa = (b - 2 * Self::SUB) % Self::SUB + Self::SUB;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns).min(Self::BUCKETS - 1)] += 1;
        self.len += 1;
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.len += other.len;
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    /// The value of rank `q * (len - 1)`; the values sharing a bucket
    /// are taken as evenly spread across it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mut rank = (q * (self.len - 1) as f64) as u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if rank < count {
                let (lower, width) = Self::edges(bucket);
                return lower + width * (rank as f64 + 0.5) / count as f64;
            }
            rank -= count;
        }
        unreachable!("rank is below len")
    }
}

/// Latencies recorded window by window. `ingest` reports the median over
/// windows of each window's quantile, so a slow stretch of the machine
/// moves one window's figure, not the run's; `live` pools its windows,
/// because its rigs differ in their share of slow calls.
pub struct WindowedLatencies {
    pub current: Latencies,
    done: Vec<Latencies>,
}

impl WindowedLatencies {
    pub fn new() -> Self {
        WindowedLatencies {
            current: Latencies::new(),
            done: Vec::new(),
        }
    }

    /// Closes the current window.
    pub fn next_window(&mut self) {
        self.done
            .push(std::mem::replace(&mut self.current, Latencies::new()));
    }

    /// Closes windows until `windows` are done; used by recorders that
    /// learn of window ends from a shared counter.
    pub fn roll_to(&mut self, windows: usize) {
        while self.done.len() < windows {
            self.next_window();
        }
    }

    /// Adds `other`'s windows to these, window by window.
    pub fn merge(&mut self, other: &WindowedLatencies) {
        self.roll_to(other.done.len());
        for (mine, theirs) in self.done.iter_mut().zip(&other.done) {
            mine.merge(theirs);
        }
    }

    /// Adds `other`'s windows after these.
    pub fn append(&mut self, other: &WindowedLatencies) {
        self.done.extend(other.done.iter().cloned());
    }

    pub fn samples(&self) -> u64 {
        self.done.iter().map(Latencies::len).sum()
    }

    /// Quantile `q` of every call in every window together.
    pub fn pooled_quantile(&self, q: f64) -> f64 {
        let mut all = Latencies::new();
        for window in &self.done {
            all.merge(window);
        }
        all.quantile(q)
    }

    /// Median over the non-empty windows of each window's quantile `q`.
    pub fn median_quantile(&self, q: f64) -> Result<f64, String> {
        let per_window: Vec<f64> = self
            .done
            .iter()
            .filter(|w| w.len() > 0)
            .map(|w| w.quantile(q))
            .collect();
        median(&per_window)
    }
}

/// A fixed piece of work the benchmark owns, timed between the measured
/// stretches of a run: ten copies of a 4 MiB buffer, then a
/// floating-point and branch loop over a xorshift stream.
///
/// The shared host slows in stretches of seconds to minutes: its vCPUs
/// are time-sliced with other tenants', and those tenants contend for
/// the caches and memory bandwidth. The program's timings move with
/// this work's time (see the README). An untraced run scales its
/// timings by the mean time it saw against `REFERENCE_MS`, so that they
/// read as on a machine where the work takes that long. No program code
/// runs inside it, so a change to the program moves the scaled figures
/// as it moves the raw ones.
pub struct Yardstick {
    src: Vec<u64>,
    dst: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl Yardstick {
    const WORDS: usize = 1 << 19;
    const COPIES: usize = 10;
    const STEPS: u64 = 600_000;
    /// The mean time at which scaled figures equal raw ones: about the
    /// work's time in a calm stretch of the README's machine.
    pub const REFERENCE_MS: f64 = 10.0;

    pub fn new() -> Self {
        Yardstick {
            src: (0..Self::WORDS as u64).collect(),
            dst: vec![1; Self::WORDS],
            samples_ms: Vec::new(),
        }
    }

    /// Resident memory the two buffers hold, which `peak_rss_mb`
    /// leaves out.
    pub fn mib() -> f64 {
        (2 * Self::WORDS * std::mem::size_of::<u64>()) as f64 / (1 << 20) as f64
    }

    /// Times the work `n` times. Call it only while the program is idle.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let start = Instant::now();
            for _ in 0..Self::COPIES {
                self.dst.copy_from_slice(black_box(&self.src));
                black_box(&mut self.dst);
            }
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let mut acc = 0.0f64;
            for i in 0..Self::STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                if x & 3 == 0 {
                    acc += (1.0 - u).ln();
                } else {
                    acc -= u * i as f64;
                }
            }
            black_box(acc);
            self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Mean time ÷ `REFERENCE_MS`: above 1 when the machine ran slow.
    /// Timings are divided by it, rates multiplied. Also writes the
    /// work's times into the conditions.
    pub fn report(&self, out: &mut Outcome) -> Result<f64, String> {
        let ms = self.samples_ms.iter().sum::<f64>() / self.samples_ms.len().max(1) as f64;
        out.condition("yardstick_samples", self.samples_ms.len());
        out.condition("yardstick_ms_mean", format!("{ms:.4}"));
        out.condition(
            "yardstick_ms_median",
            format!("{:.4}", median(&self.samples_ms)?),
        );
        Ok(ms / Self::REFERENCE_MS)
    }
}

/// Yardstick samples taken before a run's first set-up burst and after
/// its last.
pub const YARD_SAMPLES: usize = 5;

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Build times, in seconds, of `build` repeated until `SETUP_BURST`
/// has passed (at least `SETUP_MIN_REPS` times, and at most
/// `SETUP_MAX_REPS`, so the kept times stay small beside the program's
/// own memory), each result torn down untimed by `teardown`. A run makes
/// one burst before its timed region and one after its checks and
/// reports the median of both: the machine's speed drifts over seconds,
/// and two bursts half a minute apart sample two stretches of it rather
/// than one.
pub fn setup_times<T>(
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_BURST && times.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let rig = build()?;
        times.push(start.elapsed().as_secs_f64());
        teardown(rig)?;
    }
    Ok(times)
}

/// Wall time of one burst of builds for `setup_s`, and its fewest builds.
pub const SETUP_BURST: Duration = Duration::from_millis(500);
pub const SETUP_MIN_REPS: usize = 25;
pub const SETUP_MAX_REPS: usize = 20_000;

/// Repeats `pass` until at least `min` has elapsed (at most
/// `max_passes` times). Each pass returns how many items it processed
/// and how long its measured part took; the result is the median
/// nanoseconds per item over the passes.
pub fn probe(
    min: Duration,
    max_passes: usize,
    mut pass: impl FnMut() -> (u64, Duration),
) -> Result<f64, String> {
    let started = Instant::now();
    let mut per_item = Vec::new();
    while per_item.is_empty() || (started.elapsed() < min && per_item.len() < max_passes) {
        let (items, busy) = pass();
        per_item.push(busy.as_nanos() as f64 / items.max(1) as f64);
    }
    median(&per_item)
}

/// Runs `f` and returns how long it took.
pub fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// A recorded interval: nanoseconds since the run's trace origin, its
/// duration, and the part of it covered by child spans (folded into the
/// parent so hot per-call children cost no extra record).
#[derive(Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub child_ns: u32,
}

impl Span {
    pub fn between(origin: Instant, start: Instant, end: Instant, child_ns: u64) -> Span {
        Span {
            start_ns: start.duration_since(origin).as_nanos() as u64,
            dur_ns: saturating_u32(end.duration_since(start).as_nanos()),
            child_ns: saturating_u32(child_ns as u128),
        }
    }

    pub fn self_ns(&self) -> u64 {
        u64::from(self.dur_ns.saturating_sub(self.child_ns))
    }
}

pub fn saturating_u32(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Sum of span durations, in nanoseconds.
pub fn total_ns(spans: &[Span]) -> u64 {
    spans.iter().map(|s| u64::from(s.dur_ns)).sum()
}

/// Span durations as floats.
pub fn durations(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|s| f64::from(s.dur_ns)).collect()
}

/// Writes every recorded span of a traced run as tab-separated lines
/// `layer  index  start_ns  dur_ns  child_ns` — the in-memory trace,
/// persisted once the measurement is over.
pub fn write_spans(path: &Path, layers: &[(&str, &[Span])]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    let result = (|| -> std::io::Result<()> {
        writeln!(out, "layer\tindex\tstart_ns\tdur_ns\tchild_ns")?;
        for (layer, spans) in layers {
            for (i, s) in spans.iter().enumerate() {
                writeln!(
                    out,
                    "{layer}\t{i}\t{}\t{}\t{}",
                    s.start_ns, s.dur_ns, s.child_ns
                )?;
            }
        }
        out.flush()
    })();
    result.map_err(|e| format!("cannot write {}: {e}", path.display()))
}
