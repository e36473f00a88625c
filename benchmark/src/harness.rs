//! The closed measurement loop shared by every workload, its traced
//! variant, and the metrics both reduce to.

use crate::results::RunResult;
use crate::spec::{Kind, Metric, END_TO_END, PER_LAYER, UNATTRIBUTED};
use crate::stats;
use perfport_telemetry::Snapshot;
use perfport_trace::{Collector, Event};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace events kept for the written trace file; later traced blocks
/// still run traced, only their events are not kept.
const KEPT_EVENTS: usize = 100_000;

/// A traced run alternates untraced and traced blocks of this length,
/// so both halves see the same drift. Telemetry is read only at block
/// edges: reading it between operations would leave each traced
/// operation starting with cold caches and a parked pool worker.
const BLOCK: Duration = Duration::from_millis(250);

/// Raw per-layer numbers of traced operations, keyed by per-layer
/// metric name: nanoseconds for share metrics, plain counts for count
/// metrics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to the layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        *self.0.entry(name).or_default() += value;
    }

    /// The accumulated value of `name` (0 when never added).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every value of `other`.
    pub fn absorb(&mut self, other: &Layers) {
        for (name, value) in &other.0 {
            *self.0.entry(name).or_default() += value;
        }
    }
}

/// Times the calls of one operation; in a traced block it also records
/// the benchmark-side span `bench/<name>` around them.
#[derive(Debug, Default)]
pub struct Meter {
    traced: bool,
}

impl Meter {
    /// Whether the current operation runs in a traced block.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs `f` and returns its result with its wall time.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = if self.traced {
            let _span = perfport_trace::span("bench", name);
            f()
        } else {
            f()
        };
        (out, t0.elapsed())
    }
}

/// What one operation of a workload did.
pub struct Step {
    /// Wall time of the timed part of the operation.
    pub wall: Duration,
    /// Whether a check of the operation's output failed.
    pub failed: bool,
}

/// A workload set up and ready for its closed loop: one client issues
/// an operation, waits for its result, then issues the next.
pub trait Workload {
    /// Runs operation `i` (numbered from 0), timing it through `meter`
    /// and checking its output when due. Checks are never timed; in a
    /// traced block, checks that would record telemetry wait for
    /// [`Workload::end_block`].
    fn step(&mut self, i: u64, meter: &Meter) -> Step;

    /// A traced block starts: clear what the workload counts per block.
    fn begin_block(&mut self) {}

    /// A traced block ended: its per-layer numbers, from the telemetry
    /// `delta` it recorded and its operations' summed `wall` time, and
    /// the number of deferred checks that failed.
    fn end_block(&mut self, delta: &Snapshot, wall: Duration) -> (Layers, u64);

    /// Checks still due once the loop has ended; returns how many
    /// failed.
    fn finish(&mut self) -> u64 {
        0
    }
}

/// Everything one measured run produced.
pub struct Measured {
    /// Operations issued.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Wall times of untraced operations, in nanoseconds. Four bytes a
    /// sample keep the benchmark's own share of `peak_rss_mb` small
    /// (about 4 MB for a million operations).
    pub untraced_ns: Vec<u32>,
    /// Wall times of traced operations, in nanoseconds.
    pub traced_ns: Vec<u32>,
    /// Per-layer numbers summed over traced blocks.
    pub layers: Layers,
    /// Trace events of the first traced blocks, on one timeline.
    pub events: Vec<Event>,
}

/// Runs `workload` in a closed loop for `seconds` (at least one
/// operation; with `trace`, at least one untraced and one traced
/// block).
pub fn measure(workload: &mut dyn Workload, seconds: f64, trace: bool) -> Measured {
    let mut out = Measured {
        attempted: 0,
        failed: 0,
        untraced_ns: Vec::new(),
        traced_ns: Vec::new(),
        layers: Layers::default(),
        events: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let block = if trace { BLOCK } else { budget };
    let start = Instant::now();
    let mut meter = Meter::default();
    for b in 0u64.. {
        let blocks_due = if trace { 2 } else { 1 };
        if b >= blocks_due && start.elapsed() >= budget {
            break;
        }
        meter.traced = trace && b % 2 == 1;
        let traced_block = meter.traced.then(|| {
            workload.begin_block();
            let collector = Arc::new(Collector::new());
            perfport_trace::install(Arc::clone(&collector));
            (
                collector,
                start.elapsed().as_nanos(),
                perfport_telemetry::snapshot(),
            )
        });
        let block_start = Instant::now();
        let mut block_wall = Duration::ZERO;
        loop {
            let step = workload.step(out.attempted, &meter);
            block_wall += step.wall;
            out.attempted += 1;
            out.failed += u64::from(step.failed);
            let ns = u32::try_from(step.wall.as_nanos()).unwrap_or(u32::MAX);
            if meter.traced {
                out.traced_ns.push(ns);
            } else {
                out.untraced_ns.push(ns);
            }
            if block_start.elapsed() >= block || start.elapsed() >= budget {
                break;
            }
        }
        if let Some((collector, offset, before)) = traced_block {
            perfport_trace::uninstall();
            let delta = perfport_telemetry::snapshot().delta_since(&before);
            let (layers, failed) = workload.end_block(&delta, block_wall);
            out.layers.absorb(&layers);
            out.failed += failed;
            let room = KEPT_EVENTS.saturating_sub(out.events.len());
            out.events
                .extend(collector.snapshot().into_iter().take(room).map(|mut e| {
                    e.ts_ns += offset;
                    e
                }));
        }
    }
    out.failed += workload.finish();
    out
}

/// One reported metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The metric.
    pub metric: Metric,
    /// Its value.
    pub value: f64,
    /// Samples it summarises.
    pub samples: usize,
}

/// Length of the windows whose fastest one sets `best_1s_ms`, in
/// nanoseconds of operation time.
const WINDOW_NS: f64 = 1e9;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured, setup_s: &[f64], peak_rss_mb: f64) -> Vec<Value> {
    let (best_ns, in_window) = stats::best_window(&ns(&m.untraced_ns), WINDOW_NS);
    let values = [
        (stats::median(setup_s), setup_s.len()),
        (best_ns / 1e6, in_window),
        (peak_rss_mb, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&metric, (value, samples))| Value {
            metric,
            value,
            samples,
        })
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(m: &Measured) -> Vec<Value> {
    let (traced_ns, untraced_ns) = (ns(&m.traced_ns), ns(&m.untraced_ns));
    let traced = traced_ns.len();
    let wall_ns: f64 = traced_ns.iter().sum();
    let share = |name: &str| 100.0 * m.layers.get(name) / wall_ns;
    let partition: f64 = PER_LAYER
        .iter()
        .filter(|x| x.kind == Kind::Partition)
        .map(|x| share(x.name))
        .sum();
    let untraced = stats::sorted(&untraced_ns);
    // With too few samples for any tail percentile, the slowest one.
    let tail_ns = stats::tail(&untraced).map_or(untraced[untraced.len() - 1], |(_, v)| v);
    let overhead = 100.0
        * (stats::interquartile_mean(&traced_ns) / stats::interquartile_mean(&untraced_ns) - 1.0);
    let n = untraced.len();
    PER_LAYER
        .iter()
        .map(|&metric| {
            let (value, samples) = match (metric.kind, metric.name) {
                (Kind::Partition | Kind::Share, name) => (share(name), traced),
                (Kind::Count, name) => (m.layers.get(name) / traced as f64, traced),
                (Kind::Direct, UNATTRIBUTED) => (100.0 - partition, traced),
                (Kind::Direct, "op.p50_ms") => (stats::median(&untraced) / 1e6, n),
                (Kind::Direct, "op.tail_ms") => (tail_ns / 1e6, n),
                (Kind::Direct, "trace.overhead_pct") => (overhead, traced + n),
                (Kind::Direct, other) => unreachable!("no rule for per-layer metric {other}"),
            };
            Value {
                metric,
                value,
                samples,
            }
        })
        .collect()
}

fn ns(samples: &[u32]) -> Vec<f64> {
    samples.iter().map(|&v| f64::from(v)).collect()
}

/// The run's result: correctness, counts and every metric value.
pub fn run_result(m: &Measured, values: &[Value]) -> RunResult {
    RunResult {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: values
            .iter()
            .map(|v| {
                (
                    v.metric.name.to_string(),
                    (v.value, v.metric.unit.to_string()),
                )
            })
            .collect(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Sum of the telemetry histogram `name` in a delta, in its unit.
pub(crate) fn hist_sum(delta: &Snapshot, name: &str) -> f64 {
    delta.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

/// Sum of every telemetry histogram whose name starts with `prefix`.
pub(crate) fn hist_prefix_sum(delta: &Snapshot, prefix: &str) -> f64 {
    delta
        .histograms
        .range(prefix.to_string()..)
        .take_while(|(name, _)| name.starts_with(prefix))
        .map(|(_, h)| h.sum as f64)
        .sum()
}

/// A telemetry counter in a delta.
fn counter(delta: &Snapshot, name: &str) -> f64 {
    delta.counters.get(name).copied().unwrap_or(0) as f64
}

/// The layer numbers every workload reads from the program's own
/// telemetry: graph-executor self time and the pool, kernel and lease
/// counters. Layers a workload does not run stay 0.
pub(crate) fn telemetry_layers(delta: &Snapshot) -> Layers {
    let mut l = Layers::default();
    let graph_run = hist_sum(delta, "graph/run_ns");
    l.add(
        "pool.self_pct",
        graph_run - hist_sum(delta, "graph/task_run_ns"),
    );
    l.add(
        "gemm.microkernel_calls",
        counter(delta, "gemm/microkernel_calls"),
    );
    l.add(
        "gemm.pack_bytes",
        counter(delta, "gemm/pack_a_bytes") + counter(delta, "gemm/pack_b_bytes"),
    );
    l.add("pool.regions", counter(delta, "pool/regions"));
    l.add("graph.tasks", counter(delta, "graph/tasks_executed"));
    l.add(
        "serve.leases_granted",
        counter(delta, "serve/leases_granted"),
    );
    l.add("serve.heartbeats", counter(delta, "serve/heartbeats"));
    l
}
