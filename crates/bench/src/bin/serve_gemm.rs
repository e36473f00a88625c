//! Open-loop batched-GEMM serving benchmark: the latency story the
//! single-kernel sweeps cannot tell.
//!
//! The figure binaries measure one large GEMM at a time; a production
//! system serves a *stream* of many small problems, where tail latency
//! under load — not peak throughput — is the headline metric. This
//! harness drives the `perfport_gemm::batch` API with a seeded synthetic
//! open-loop arrival process: inter-arrival gaps, problem shapes, and
//! precisions are drawn from independent per-purpose streams
//! (`perfport_core::noise::stream`, the same per-entity idiom the study
//! runner's repetition noise uses), so the request stream for a given
//! `--seed` is bit-reproducible. Requests are served in arrival-order
//! batches through `gemm_batch`, and per-request latency is measured on
//! a virtual timeline: a batch starts at `max(last arrival in batch,
//! server free)`, completes after its measured service time, and every
//! request in it experiences `completion − arrival`.
//!
//! The run reports p50/p95/p99/mean/max latency and sustained GFLOPS,
//! and writes `BENCH_serve.json` (schema `perfport-bench-serve/2`,
//! provenance-stamped with the `perfport-manifest/1` manifest) that
//! `bench_diff` parses and gates alongside the kernel snapshots. The
//! snapshot's `telemetry` block carries the always-on runtime metrics
//! recorded during the measured phase: the end-to-end `serve/latency_ns`
//! streaming histogram plus the per-shape-bucket `batch/service_ns/*`
//! histograms, so tail percentiles stream in O(1) memory alongside the
//! exact nearest-rank reference printed above (a unit test pins the two
//! within one log₂ bucket of each other).
//!
//! Two correctness modes:
//!
//! * `--verify` re-runs every batch's problems through the per-problem
//!   serial reference and byte-compares the outputs — the batch ≡ serial
//!   bitwise contract, end to end.
//! * `--dry-run` skips matrix materialisation and execution entirely,
//!   modelling service time deterministically (integer-nanosecond
//!   timeline, seeded noise), and prints a byte-stable request stream
//!   and latency summary: identical across repeated runs and any
//!   `--jobs`/`--threads`, which the golden CLI test enforces.
//!
//! One failure mode: `--inject-panic <req_id>` follows the batch
//! containing that request with a two-item pool region whose second item
//! panics on a worker. The panic poisons the region, the flight recorder
//! dumps `flight-<pid>.json`, and the process dies non-zero — the
//! post-mortem path CI exercises end to end.

use perfport_bench::{HarnessArgs, Manifest};
use perfport_core::noise;
use perfport_gemm::{batch, Layout, Matrix};
use perfport_pool::{Schedule, ThreadPool};
use rand::Rng;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str =
    "usage: serve_gemm [--quick] [--csv] [--threads <n>] [--trace <path>] [--profile] \
     [--seed <u64>] [--requests <n>] [--rate <req/s>] [--batch <max>] \
     [--jobs <n>] [--dry-run] [--verify] [--inject-panic <req_id>] [--out <path>]";

/// Modelled server throughput for `--dry-run` service times (GFLOP/s).
/// Deliberately round and machine-independent: dry-run output must be
/// byte-stable everywhere.
const DRY_RUN_GFLOPS: f64 = 4.0;

/// Shape menu for the synthetic stream: small problems, the regime where
/// batching (not single-kernel throughput) decides efficiency.
const SIZES: [usize; 8] = [4, 8, 12, 16, 24, 32, 48, 64];

/// Extra options on top of the shared harness set.
struct ServeArgs {
    seed: u64,
    requests: Option<usize>,
    rate: f64,
    batch_max: usize,
    jobs: Option<usize>,
    dry_run: bool,
    verify: bool,
    /// Request id whose batch is followed by a deliberately panicking
    /// pool item — the flight-recorder post-mortem drill.
    inject_panic: Option<usize>,
    out: String,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            seed: 42,
            requests: None,
            rate: 2000.0,
            batch_max: 32,
            jobs: None,
            dry_run: false,
            verify: false,
            inject_panic: None,
            out: "BENCH_serve.json".to_string(),
        }
    }
}

impl ServeArgs {
    fn consume(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        let mut take =
            |name: &str| next().ok_or_else(|| format!("{name} requires a value argument"));
        match flag {
            "--dry-run" => self.dry_run = true,
            "--verify" => self.verify = true,
            "--seed" => self.seed = parse_u64("--seed", &take("--seed")?)?,
            "--requests" => self.requests = Some(parse_count("--requests", &take("--requests")?)?),
            "--rate" => self.rate = parse_rate(&take("--rate")?)?,
            "--batch" => self.batch_max = parse_count("--batch", &take("--batch")?)?,
            "--jobs" => self.jobs = Some(parse_count("--jobs", &take("--jobs")?)?),
            "--inject-panic" => {
                self.inject_panic =
                    Some(parse_u64("--inject-panic", &take("--inject-panic")?)? as usize)
            }
            "--out" => self.out = take("--out")?,
            other => {
                if let Some(v) = other.strip_prefix("--seed=") {
                    self.seed = parse_u64("--seed", v)?;
                } else if let Some(v) = other.strip_prefix("--requests=") {
                    self.requests = Some(parse_count("--requests", v)?);
                } else if let Some(v) = other.strip_prefix("--rate=") {
                    self.rate = parse_rate(v)?;
                } else if let Some(v) = other.strip_prefix("--batch=") {
                    self.batch_max = parse_count("--batch", v)?;
                } else if let Some(v) = other.strip_prefix("--jobs=") {
                    self.jobs = Some(parse_count("--jobs", v)?);
                } else if let Some(v) = other.strip_prefix("--inject-panic=") {
                    self.inject_panic = Some(parse_u64("--inject-panic", v)? as usize);
                } else if let Some(v) = other.strip_prefix("--out=") {
                    self.out = v.to_string();
                } else {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

fn parse_u64(flag: &str, s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("invalid {flag} value '{s}'"))
}

fn parse_count(flag: &str, s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid {flag} value '{s}'")),
    }
}

fn parse_rate(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(r) if r.is_finite() && r > 0.0 => Ok(r),
        _ => Err(format!("invalid --rate value '{s}'")),
    }
}

/// One synthetic request: arrival timestamp plus the problem identity
/// (the operands themselves are materialised lazily, and never in
/// dry-run mode).
#[derive(Debug, Clone)]
struct Request {
    id: usize,
    arrival_ns: u64,
    precision: batch::Precision,
    m: usize,
    n: usize,
    k: usize,
}

impl Request {
    fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// Generates the deterministic open-loop request stream: arrivals from
/// an exponential (Poisson-process) gap stream, shapes and precisions
/// from an independent stream, each labelled per purpose so the draws
/// never interleave.
fn generate_stream(seed: u64, requests: usize, rate: f64) -> Vec<Request> {
    let mut arrivals = noise::stream(seed, "serve/arrival");
    let mut shapes = noise::stream(seed, "serve/shape");
    let mean_gap_ns = 1e9 / rate;
    let mut t_ns: u64 = 0;
    (0..requests)
        .map(|id| {
            let u: f64 = arrivals.gen();
            let gap = (-(1.0 - u).ln() * mean_gap_ns).round() as u64;
            t_ns += gap;
            let m = SIZES[shapes.gen_range(0..SIZES.len())];
            let n = SIZES[shapes.gen_range(0..SIZES.len())];
            let k = SIZES[shapes.gen_range(0..SIZES.len())];
            let p: f64 = shapes.gen();
            let precision = if p < 0.25 {
                batch::Precision::F64
            } else if p < 0.75 {
                batch::Precision::F32
            } else {
                batch::Precision::F16
            };
            Request {
                id,
                arrival_ns: t_ns,
                precision,
                m,
                n,
                k,
            }
        })
        .collect()
}

/// Materialises a request's operands from per-request seeds, so `--verify`
/// (or anyone else) can regenerate the exact same problem independently.
fn materialize(seed: u64, req: &Request) -> batch::Problem {
    let golden = 0x9E37_79B9_7F4A_7C15u64;
    let sa = seed ^ (2 * req.id as u64 + 1).wrapping_mul(golden);
    let sb = seed ^ (2 * req.id as u64 + 2).wrapping_mul(golden);
    let l = Layout::RowMajor;
    match req.precision {
        batch::Precision::F64 => batch::Problem::new_f64(
            Matrix::random(req.m, req.k, l, sa),
            Matrix::random(req.k, req.n, l, sb),
        ),
        batch::Precision::F32 => batch::Problem::new_f32(
            Matrix::random(req.m, req.k, l, sa),
            Matrix::random(req.k, req.n, l, sb),
        ),
        batch::Precision::F16 => batch::Problem::new_f16(
            Matrix::random(req.m, req.k, l, sa),
            Matrix::random(req.k, req.n, l, sb),
        ),
    }
}

/// Nearest-rank quantile over sorted latencies.
fn quantile(sorted_ns: &[u64], q: f64) -> u64 {
    assert!(!sorted_ns.is_empty());
    let rank = (q * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-request CSV block shared by the dry-run and measured paths.
fn print_csv(stream: &[Request], summary: &ServeSummary) {
    println!("-- csv --");
    println!("id,arrival_ns,latency_ns");
    for (r, lat) in stream.iter().zip(&summary.latencies_ns) {
        println!("{},{},{lat}", r.id, r.arrival_ns);
    }
}

struct ServeSummary {
    latencies_ns: Vec<u64>,
    batches: usize,
    total_flops: u64,
    /// `last completion − first arrival` on the (virtual) timeline.
    makespan_ns: u64,
}

impl ServeSummary {
    fn percentiles_ns(&self) -> (u64, u64, u64, u64, u64) {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let mean =
            (self.latencies_ns.iter().sum::<u64>() as f64 / sorted.len() as f64).round() as u64;
        (
            quantile(&sorted, 0.50),
            quantile(&sorted, 0.95),
            quantile(&sorted, 0.99),
            mean,
            *sorted.last().expect("at least one request"),
        )
    }

    fn sustained_gflops(&self) -> f64 {
        // flops per nanosecond is numerically GFLOP/s.
        self.total_flops as f64 / self.makespan_ns.max(1) as f64
    }

    fn req_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 * 1e9 / self.makespan_ns.max(1) as f64
    }

    fn print(&self, label: &str) {
        let (p50, p95, p99, mean, max) = self.percentiles_ns();
        println!(
            "batches {}, {label} makespan {:.3} ms",
            self.batches,
            ms(self.makespan_ns)
        );
        println!(
            "latency ms: p50 {:.6} p95 {:.6} p99 {:.6} mean {:.6} max {:.6}",
            ms(p50),
            ms(p95),
            ms(p99),
            ms(mean),
            ms(max)
        );
        println!(
            "sustained {:.3} GFLOPS, {:.1} req/s ({label} timeline)",
            self.sustained_gflops(),
            self.req_per_s()
        );
    }
}

/// The virtual-timeline bookkeeping shared by the dry-run (modelled
/// service times) and measured serving paths — one accumulator so the
/// two latency summaries cannot drift apart. Each completed batch
/// starts when the server is free and its last request has arrived,
/// takes `service_ns`, and every request in it experiences
/// `completion − arrival`; per-request latencies also stream into the
/// `serve/latency_ns` telemetry histogram.
struct Timeline {
    latencies_ns: Vec<u64>,
    server_free_ns: u64,
    last_completion_ns: u64,
    batches: usize,
}

impl Timeline {
    fn new(capacity: usize) -> Timeline {
        Timeline {
            latencies_ns: Vec::with_capacity(capacity),
            server_free_ns: 0,
            last_completion_ns: 0,
            batches: 0,
        }
    }

    fn complete_batch(&mut self, reqs: &[Request], service_ns: u64) {
        let last_arrival = reqs.last().expect("non-empty batch").arrival_ns;
        let start = last_arrival.max(self.server_free_ns);
        let completion = start + service_ns;
        self.server_free_ns = completion;
        self.last_completion_ns = completion;
        self.batches += 1;
        for r in reqs {
            let latency = completion - r.arrival_ns;
            perfport_telemetry::observe("serve/latency_ns", latency);
            self.latencies_ns.push(latency);
        }
    }

    fn into_summary(self, stream: &[Request]) -> ServeSummary {
        ServeSummary {
            makespan_ns: self.last_completion_ns - stream[0].arrival_ns,
            latencies_ns: self.latencies_ns,
            batches: self.batches,
            total_flops: stream.iter().map(Request::flops).sum(),
        }
    }
}

fn dry_run(stream: &[Request], seed: u64, batch_max: usize) -> ServeSummary {
    let mut service = noise::stream(seed, "serve/service");
    let mut timeline = Timeline::new(stream.len());
    for reqs in stream.chunks(batch_max) {
        let flops: u64 = reqs.iter().map(Request::flops).sum();
        // Modelled service: batch flops at the nominal rate, perturbed by
        // the seeded noise stream — deterministic integer nanoseconds.
        let u: f64 = service.gen();
        let factor = 0.9 + 0.2 * u;
        let service_ns = (flops as f64 / DRY_RUN_GFLOPS * factor).round() as u64;
        timeline.complete_batch(reqs, service_ns);
    }
    timeline.into_summary(stream)
}

fn serve(
    stream: &[Request],
    seed: u64,
    batch_max: usize,
    pool: &ThreadPool,
    verify: bool,
    inject_panic: Option<usize>,
) -> ServeSummary {
    let mut timeline = Timeline::new(stream.len());
    let mut verified = 0usize;
    for reqs in stream.chunks(batch_max) {
        let problems: Vec<batch::Problem> = reqs.iter().map(|r| materialize(seed, r)).collect();
        let t0 = Instant::now();
        let outputs = batch::gemm_batch(pool, &problems);
        if let Some(target) = inject_panic.filter(|t| reqs.iter().any(|r| r.id == *t)) {
            // Two items, so the region forks and a worker (not the
            // inline caller path) runs the panicking one.
            pool.parallel_for_each(2, Schedule::Dynamic { chunk: 1 }, |i| {
                if i == 1 {
                    panic!("injected panic at request {target}");
                }
            });
        }
        let service_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if verify {
            let serial = batch::gemm_batch_serial(&problems);
            for (i, (b, s)) in outputs.iter().zip(&serial).enumerate() {
                assert_eq!(
                    b.to_le_bytes(),
                    s.to_le_bytes(),
                    "batch≡serial contract violated at request {}",
                    reqs[i].id
                );
            }
            verified += outputs.len();
        } else {
            std::hint::black_box(&outputs);
        }
        timeline.complete_batch(reqs, service_ns);
    }
    if verify {
        println!("batch≡serial contract: OK ({verified} requests)");
    }
    timeline.into_summary(stream)
}

fn json_snapshot(
    summary: &ServeSummary,
    manifest: &Manifest,
    serve: &ServeArgs,
    stream: &[Request],
    epoch: &perfport_bench::TelemetryEpoch,
    quick: bool,
) -> String {
    let (p50, p95, p99, mean, max) = summary.percentiles_ns();
    let count = |p: batch::Precision| stream.iter().filter(|r| r.precision == p).count();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"perfport-bench-serve/2\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"seed\": {},", serve.seed);
    let _ = writeln!(out, "  \"manifest\":");
    let _ = writeln!(out, "{},", manifest.to_json(2));
    let _ = writeln!(
        out,
        "  \"workload\": {{\"requests\": {}, \"batches\": {}, \"batch_max\": {}, \"rate_req_per_s\": {}, \"precisions\": {{\"f64\": {}, \"f32\": {}, \"f16\": {}}}}},",
        stream.len(),
        summary.batches,
        serve.batch_max,
        serve.rate,
        count(batch::Precision::F64),
        count(batch::Precision::F32),
        count(batch::Precision::F16),
    );
    let _ = writeln!(
        out,
        "  \"latency_ms\": {{\"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"mean\": {:.6}, \"max\": {:.6}}},",
        ms(p50),
        ms(p95),
        ms(p99),
        ms(mean),
        ms(max)
    );
    let _ = writeln!(
        out,
        "  \"sustained_gflops\": {:.4},",
        summary.sustained_gflops()
    );
    let _ = writeln!(out, "  \"telemetry\":");
    let _ = writeln!(
        out,
        "{},",
        perfport_bench::telemetry_json_since(epoch, "  ")
    );
    let _ = writeln!(out, "  \"req_per_s\": {:.2}", summary.req_per_s());
    out.push_str("}\n");
    out
}

fn main() {
    let mut serve_args = ServeArgs::default();
    let args = match HarnessArgs::try_parse_with_values(std::env::args().skip(1), |flag, next| {
        serve_args.consume(flag, next)
    }) {
        Ok(out) if out.help => {
            println!("{USAGE}");
            return;
        }
        Ok(out) => out,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if serve_args.dry_run && serve_args.verify {
        eprintln!("error: --verify needs real execution; it cannot be combined with --dry-run");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if serve_args.dry_run && serve_args.inject_panic.is_some() {
        eprintln!(
            "error: --inject-panic needs real execution; it cannot be combined with --dry-run"
        );
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let requests = serve_args
        .requests
        .unwrap_or(if args.quick { 64 } else { 512 });
    let stream = generate_stream(serve_args.seed, requests, serve_args.rate);

    if serve_args.dry_run {
        // Byte-stable output contract: nothing below depends on the
        // machine, thread count, or wall clock.
        println!("== serve_gemm dry-run (seed {}) ==", serve_args.seed);
        println!(
            "requests {}, batch max {}, rate {} req/s",
            stream.len(),
            serve_args.batch_max,
            serve_args.rate
        );
        for r in &stream {
            println!(
                "req {:04} arrival_ns={} {} {}x{}x{} flops={}",
                r.id,
                r.arrival_ns,
                r.precision,
                r.m,
                r.n,
                r.k,
                r.flops()
            );
        }
        let summary = dry_run(&stream, serve_args.seed, serve_args.batch_max);
        summary.print("virtual");
        if args.csv {
            print_csv(&stream, &summary);
        }
        return;
    }

    if let Some(target) = serve_args.inject_panic {
        if target >= stream.len() {
            eprintln!(
                "error: --inject-panic {target} is out of range (stream has {} requests)",
                stream.len()
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    args.start_profiling();
    let jobs = serve_args.jobs.unwrap_or_else(|| args.thread_count());
    let trace = args.start_trace_with(|m| m.jobs = Some(jobs));
    let pool = ThreadPool::new(jobs);
    let mut manifest = Manifest::collect(jobs);
    manifest.jobs = Some(jobs);
    println!(
        "== serve_gemm (seed {}, {} requests, rate {} req/s, batch max {}, {jobs} jobs) ==",
        serve_args.seed,
        stream.len(),
        serve_args.rate,
        serve_args.batch_max
    );
    // Telemetry epoch: the snapshot's `telemetry` block is a delta from
    // here, so pool construction stays out of the evidence.
    let epoch = perfport_bench::telemetry_epoch();
    let summary = serve(
        &stream,
        serve_args.seed,
        serve_args.batch_max,
        &pool,
        serve_args.verify,
        serve_args.inject_panic,
    );
    summary.print("measured");
    if args.csv {
        print_csv(&stream, &summary);
    }
    let json = json_snapshot(
        &summary,
        &manifest,
        &serve_args,
        &stream,
        &epoch,
        args.quick,
    );
    match std::fs::write(&serve_args.out, &json) {
        Ok(()) => println!("wrote {}", serve_args.out),
        Err(e) => {
            eprintln!("failed to write {}: {e}", serve_args.out);
            std::process::exit(1);
        }
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfport_telemetry::histogram::Histogram;

    /// Satellite contract behind the snapshot's `telemetry` block: the
    /// streaming log₂ histogram must agree with the exact nearest-rank
    /// reference within one bucket — for every headline quantile,
    /// `exact ≤ estimate < 2·exact` (the estimate is the containing
    /// bucket's upper bound, so tails are never understated).
    #[test]
    fn histogram_quantiles_bracket_the_exact_summary() {
        let stream = generate_stream(42, 512, 2000.0);
        let summary = dry_run(&stream, 42, 32);
        let hist = Histogram::new();
        for &lat in &summary.latencies_ns {
            hist.observe(lat);
        }
        let snap = hist.snapshot();
        let mut sorted = summary.latencies_ns.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let exact = quantile(&sorted, q);
            let est = snap.quantile(q);
            assert!(
                exact <= est,
                "q={q}: histogram estimate {est} understates exact {exact}"
            );
            assert!(
                est < exact.saturating_mul(2),
                "q={q}: histogram estimate {est} is more than one log2 bucket above exact {exact}"
            );
        }
    }

    /// Both serving paths share [`Timeline`]; pin its queueing algebra
    /// on a hand-checked two-batch schedule.
    #[test]
    fn timeline_queueing_algebra_by_hand() {
        let req = |id: usize, arrival_ns: u64| Request {
            id,
            arrival_ns,
            precision: batch::Precision::F64,
            m: 4,
            n: 4,
            k: 4,
        };
        let stream = [req(0, 100), req(1, 200), req(2, 250)];
        let mut t = Timeline::new(stream.len());
        // Batch 1 (reqs 0, 1): starts at its last arrival (200), runs
        // 1000 ns, completes at 1200.
        t.complete_batch(&stream[..2], 1000);
        // Batch 2 (req 2): arrived at 250 but the server is busy until
        // 1200; completes at 1700.
        t.complete_batch(&stream[2..], 500);
        let s = t.into_summary(&stream);
        assert_eq!(s.latencies_ns, vec![1100, 1000, 1450]);
        assert_eq!(s.batches, 2);
        assert_eq!(s.makespan_ns, 1600);
    }
}
