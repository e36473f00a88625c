//! `perfport-benchmark`: see `README.md`.

use perfport_benchmark::cli::{self, Args, USAGE};
use perfport_benchmark::harness;
use perfport_benchmark::results::{Report, RunResult, WorkloadReport};
use perfport_benchmark::spec::WORKLOADS;
use perfport_benchmark::workloads;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Child processes that each set the workload up once; `setup_s` is the
/// median of their set-up times.
const SETUP_PROBES: usize = 5;

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_deref() {
        Some(name) if args.setup_probe => probe(name, args.seed),
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// Sets the workload up, reports readiness on stdout and exits.
fn probe(name: &str, seed: u64) -> i32 {
    match workloads::setup(name, seed) {
        Ok(workload) => {
            println!("ready");
            let _ = std::io::stdout().flush();
            drop(workload);
            0
        }
        Err(e) => {
            eprintln!("error: {name} set-up failed: {e}");
            1
        }
    }
}

/// Times `SETUP_PROBES` fresh processes from spawn to ready: each one
/// generates the inputs, starts the pool or service and warms up with
/// nothing cached from an earlier set-up.
fn setup_times(name: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let t0 = Instant::now();
            let mut child = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    &seed.to_string(),
                    "--setup-probe",
                ])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn set-up probe: {e}"))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            let ready = BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
                .any(|line| line == "ready")
                .then(|| t0.elapsed().as_secs_f64());
            let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
            match ready {
                Some(s) if status.success() => Ok(s),
                _ => Err(format!("set-up probe exited with {status}")),
            }
        })
        .collect()
}

/// One run of one workload, as `BENCHMARK.json`'s command makes it.
/// Prints one line per metric, then the result line last.
fn run_one(name: &str, args: &Args) -> i32 {
    let setup_s = if args.trace {
        Vec::new()
    } else {
        match setup_times(name, args.seed) {
            Ok(times) => times,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    };
    let mut workload = match workloads::setup(name, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {name} set-up failed: {e}");
            return 1;
        }
    };
    let measured = harness::measure(workload.as_mut(), args.seconds as f64, args.trace);
    drop(workload);
    let values = if args.trace {
        let path = format!("bench-trace-{name}.json");
        if let Err(e) = std::fs::write(&path, perfport_trace::export::chrome(&measured.events)) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
        harness::per_layer(&measured)
    } else {
        let Some(rss) = harness::peak_rss_mb() else {
            eprintln!("error: cannot read VmHWM from /proc/self/status");
            return 1;
        };
        harness::end_to_end(&measured, &setup_s, rss)
    };
    for v in &values {
        println!(
            "{name} {} {} {} n={}",
            v.metric.name, v.value, v.metric.unit, v.samples
        );
    }
    let result = harness::run_result(&measured, &values);
    println!("{}", result.to_line());
    if result.correct {
        0
    } else {
        eprintln!(
            "error: {name}: {} of {} operations failed their output check",
            result.failed, result.attempted
        );
        1
    }
}

/// Runs `name` once in a child process, forwarding its metric lines and
/// returning its result line.
fn child_run(name: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = RunResult::parse(last).map_err(|e| format!("{name}: {e}"))?;
    if out.status.success() {
        Ok(result)
    } else {
        Err(format!("{name} exited with {}", out.status))
    }
}

/// Every workload, each run in its own process so caches, telemetry and
/// peak memory stay apart.
fn run_all(args: &Args) -> i32 {
    let mut ok = true;
    let mut report = Report {
        seed: args.seed,
        seconds: args.seconds,
        manifest: perfport_trace::json::parse(&perfport_bench::Manifest::collect(1).to_json(0))
            .unwrap_or(perfport_trace::json::Json::Null),
        workloads: Vec::new(),
    };
    for name in WORKLOADS {
        let mut w = WorkloadReport {
            name: name.to_string(),
            runs: Vec::new(),
            traced: None,
        };
        let mut record = |trace: bool| match child_run(name, args, trace) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
                None
            }
        };
        w.runs = (0..args.runs).filter_map(|_| record(false)).collect();
        if args.trace {
            w.traced = record(true);
        }
        for (metric, unit, median, iqr) in w.summary() {
            println!(
                "{name} {metric} median {median} {unit} runs={} relative_iqr={iqr:.4}",
                w.runs.len()
            );
        }
        report.workloads.push(w);
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: writing {path}: {e}");
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}
