//! Coordinator of the distributed study service.
//!
//! Enumerates the study grid behind `--figures`, leases contiguous
//! point ranges to workers (TCP via `--listen`, or `--local N`
//! in-process workers as a self-test), re-leases dead ranges, and
//! writes the joined artifact — canonical study CSV plus a
//! `#`-prefixed per-worker manifest trailer — to `--out` or stdout.
//!
//! Verification: `grep -v '^#' joined.csv` must be byte-identical to
//! the corresponding figure binary's `--shard 0/1` stdout (see
//! `EXPERIMENTS.md` § "Distributed study").

use perfport_serve::comm::{tcp_v1::TcpCommunicator, Communicator};
use perfport_serve::coordinator::{self, CoordinatorConfig};
use perfport_serve::local::{run_local, KillPlan};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

const USAGE: &str = "usage: serve_coordinator [--figures <id,id,...>] [--quick] \
[--listen <addr>] [--local <n>] [--kill-worker <i>] [--kill-after <points>] \
[--lease <points>] [--ttl-ms <ms>] [--backoff-ms <ms>] [--retries <n>] \
[--deadline-ms <ms>] [--out <path>]";

struct Args {
    cfg: CoordinatorConfig,
    listen: Option<String>,
    local: Option<usize>,
    kill_worker: Option<usize>,
    kill_after: usize,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: CoordinatorConfig {
            verbose: true,
            ..CoordinatorConfig::default()
        },
        listen: None,
        local: None,
        kill_worker: None,
        kill_after: 1,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, v: Option<String>, it: &mut dyn Iterator<Item = String>| {
        v.or_else(|| it.next())
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--quick" => args.cfg.quick = true,
            "--figures" => {
                let v = value("--figures", inline, &mut it)?;
                args.cfg.ids = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if args.cfg.ids.is_empty() {
                    return Err("--figures names no panels".to_string());
                }
            }
            "--listen" => args.listen = Some(value("--listen", inline, &mut it)?),
            "--local" => {
                args.local = Some(parse_count("--local", &value("--local", inline, &mut it)?)?)
            }
            "--kill-worker" => {
                args.kill_worker = Some(parse_index(
                    "--kill-worker",
                    &value("--kill-worker", inline, &mut it)?,
                )?)
            }
            "--kill-after" => {
                args.kill_after =
                    parse_count("--kill-after", &value("--kill-after", inline, &mut it)?)?
            }
            "--lease" => {
                args.cfg.lease_points = parse_count("--lease", &value("--lease", inline, &mut it)?)?
            }
            "--ttl-ms" => {
                args.cfg.ttl = Duration::from_millis(parse_count(
                    "--ttl-ms",
                    &value("--ttl-ms", inline, &mut it)?,
                )? as u64)
            }
            "--backoff-ms" => {
                args.cfg.backoff = Duration::from_millis(parse_index(
                    "--backoff-ms",
                    &value("--backoff-ms", inline, &mut it)?,
                )? as u64)
            }
            "--retries" => {
                args.cfg.max_retries =
                    parse_index("--retries", &value("--retries", inline, &mut it)?)?
            }
            "--deadline-ms" => {
                args.cfg.deadline = Some(Duration::from_millis(parse_count(
                    "--deadline-ms",
                    &value("--deadline-ms", inline, &mut it)?,
                )? as u64))
            }
            "--out" => args.out = Some(std::path::PathBuf::from(value("--out", inline, &mut it)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.listen.is_some() && args.local.is_some() {
        return Err("--listen and --local are mutually exclusive".to_string());
    }
    if args.kill_worker.is_some() && args.local.is_none() {
        return Err(
            "--kill-worker needs --local (use serve_worker --fail-after over TCP)".to_string(),
        );
    }
    Ok(args)
}

fn parse_count(flag: &str, s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid {flag} value '{s}'")),
    }
}

fn parse_index(flag: &str, s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("invalid {flag} value '{s}'"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let joined = if let Some(workers) = args.local {
        let kill = args.kill_worker.map(|worker| KillPlan {
            worker,
            after_points: args.kill_after,
        });
        eprintln!(
            "coordinator: local self-test with {workers} in-process worker(s){}",
            kill.map(|k| format!(", killing w{} after {} point(s)", k.worker, k.after_points))
                .unwrap_or_default()
        );
        run_local(&args.cfg, workers, kill)
    } else {
        let addr = args.listen.as_deref().unwrap_or("127.0.0.1:4957");
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        };
        match listener.local_addr() {
            Ok(bound) => eprintln!("coordinator: listening on {bound}"),
            Err(_) => eprintln!("coordinator: listening on {addr}"),
        }
        let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
        // The accept thread feeds the coordinator's connection source;
        // it dies with the process once the run completes.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                if tx.send(Box::new(TcpCommunicator::new(stream))).is_err() {
                    break;
                }
            }
        });
        coordinator::run(rx, &args.cfg)
    };

    let joined = match joined {
        Ok(joined) => joined,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let rendered = joined.render();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "coordinator: wrote joined artifact ({} workers) to {}",
                joined.manifests.len(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
}
