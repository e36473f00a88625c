//! Run provenance manifests: the machine/toolchain evidence behind a
//! bench artifact.
//!
//! The paper goes out of its way (Tables I/II) to disclose the exact
//! compiler stack, flags, and hardware behind every number, because a
//! GFLOPS figure without that context is not reproducible evidence. This
//! module captures the same disclosure for *our* measured artifacts:
//! every `BENCH_gemm.json` snapshot, roofline report, and trace carries
//! the git revision, rustc, CPU model, detected cache hierarchy (and
//! whether it was detected or defaulted), worker count, and telemetry
//! build mode of the run that produced it.

use perfport_pool::CacheInfo;
use std::fmt::Write as _;
use std::process::Command;

/// Schema identifier stamped on every manifest object.
pub const MANIFEST_SCHEMA: &str = "perfport-manifest/1";

/// Provenance of one bench run. Field order is fixed so emitted JSON is
/// diff-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Short git revision of the working tree, `+dirty` when it differs
    /// from HEAD; `"unknown"` outside a repository.
    pub git_sha: String,
    /// `rustc --version` one-liner, `"unknown"` if rustc is not on PATH.
    pub rustc: String,
    /// CPU model string from `/proc/cpuinfo`, `"unknown"` elsewhere.
    pub cpu_model: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// ISA (`std::env::consts::ARCH`).
    pub arch: String,
    /// SIMD instruction set the tuned GEMM microkernel dispatched to for
    /// this process (`perfport_gemm::simd::active`): `"avx512"`,
    /// `"avx2"`, `"neon"`, or `"portable"`. Reflects any `PERFPORT_SIMD`
    /// override in effect.
    pub simd_isa: String,
    /// A valid `PERFPORT_SIMD` override the dispatcher had to decline
    /// because the host cannot execute it (unknown values abort the
    /// process instead). `None` when the override was honoured or absent.
    pub simd_rejected: Option<String>,
    /// Team size of the run, the calling thread included.
    pub threads: usize,
    /// Study-grid shard this run executed (`"i/n"`), `None` for
    /// unsharded runs.
    pub shard: Option<String>,
    /// Job count of the sharded study runner, `None` for unsharded runs.
    pub jobs: Option<usize>,
    /// Vendor-baseline framing of a figure run's efficiency rows
    /// (`"measured"` or `"modelled"`), `None` for runs that render no
    /// efficiencies (snapshot and report binaries).
    pub baseline: Option<String>,
    /// Detected cache hierarchy (carries its own provenance in
    /// [`CacheInfo::source`]).
    pub cache: CacheInfo,
    /// Telemetry build mode of the binary that produced the run:
    /// `"on"` (always-on sharded metrics + flight recorder) or `"stub"`
    /// (compile-time no-op build used by the overhead gate).
    pub telemetry: String,
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn git_sha() -> String {
    let Some(sha) = command_line("git", &["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = Command::new("git")
        .args(["diff", "--quiet", "HEAD"])
        .status()
        .map(|s| !s.success())
        .unwrap_or(false);
    if dirty {
        format!("{sha}+dirty")
    } else {
        sha
    }
}

fn cpu_model() -> String {
    // x86 writes "model name", many arm64 kernels only "CPU part"; take
    // whichever human-readable field appears first.
    let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") else {
        return "unknown".to_string();
    };
    for key in ["model name", "Model", "cpu model", "Hardware"] {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(key) {
                if let Some((_, v)) = rest.split_once(':') {
                    let v = v.trim();
                    if !v.is_empty() {
                        return v.to_string();
                    }
                }
            }
        }
    }
    "unknown".to_string()
}

impl Manifest {
    /// Collects the build host's provenance for a run with `threads`
    /// workers. Never fails: anything undiscoverable reads `"unknown"`.
    pub fn collect(threads: usize) -> Manifest {
        Manifest {
            git_sha: git_sha(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            cpu_model: cpu_model(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            simd_isa: perfport_gemm::simd::active().name().to_string(),
            simd_rejected: perfport_gemm::simd::rejected_override().map(|i| i.name().to_string()),
            threads,
            shard: None,
            jobs: None,
            baseline: None,
            cache: CacheInfo::host(),
            telemetry: perfport_telemetry::build_mode().to_string(),
        }
    }

    /// Stamps the sharded study runner's identity onto the manifest.
    pub fn with_shard(mut self, shard: &str, jobs: usize) -> Manifest {
        self.shard = Some(shard.to_string());
        self.jobs = Some(jobs);
        self
    }

    /// Renders the manifest as one JSON object, indented by `indent`
    /// spaces per line (no trailing newline).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let esc = perfport_trace::json::escape;
        let mut out = String::new();
        let _ = writeln!(out, "{pad}{{");
        let _ = writeln!(out, "{pad}  \"schema\": \"{MANIFEST_SCHEMA}\",");
        let _ = writeln!(out, "{pad}  \"git_sha\": \"{}\",", esc(&self.git_sha));
        let _ = writeln!(out, "{pad}  \"rustc\": \"{}\",", esc(&self.rustc));
        let _ = writeln!(out, "{pad}  \"cpu_model\": \"{}\",", esc(&self.cpu_model));
        let _ = writeln!(
            out,
            "{pad}  \"os\": \"{}\", \"arch\": \"{}\", \"threads\": {},",
            esc(&self.os),
            esc(&self.arch),
            self.threads
        );
        let _ = writeln!(out, "{pad}  \"simd_isa\": \"{}\",", esc(&self.simd_isa));
        let rejected = match &self.simd_rejected {
            Some(isa) => format!("\"{}\"", esc(isa)),
            None => "null".to_string(),
        };
        let _ = writeln!(out, "{pad}  \"simd_rejected\": {rejected},");
        let shard = match &self.shard {
            Some(s) => format!("\"{}\"", esc(s)),
            None => "null".to_string(),
        };
        let jobs = match self.jobs {
            Some(j) => j.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(out, "{pad}  \"shard\": {shard}, \"jobs\": {jobs},");
        let baseline = match &self.baseline {
            Some(b) => format!("\"{}\"", esc(b)),
            None => "null".to_string(),
        };
        let _ = writeln!(out, "{pad}  \"baseline\": {baseline},");
        let _ = writeln!(
            out,
            "{pad}  \"cache\": {{\"l1d_bytes\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \"source\": \"{}\"}},",
            self.cache.l1d_bytes, self.cache.l2_bytes, self.cache.l3_bytes, self.cache.source
        );
        let _ = writeln!(out, "{pad}  \"telemetry\": \"{}\"", esc(&self.telemetry));
        let _ = write!(out, "{pad}}}");
        out
    }

    /// The manifest as trace-event arguments, so `--trace` artifacts
    /// carry the same provenance (emitted as one instant event).
    pub fn trace_args(&self) -> Vec<(String, perfport_trace::Value)> {
        use perfport_trace::Value;
        let mut args = vec![
            ("schema".to_string(), Value::from(MANIFEST_SCHEMA)),
            ("git_sha".to_string(), Value::from(self.git_sha.clone())),
            ("rustc".to_string(), Value::from(self.rustc.clone())),
            ("cpu_model".to_string(), Value::from(self.cpu_model.clone())),
            ("os".to_string(), Value::from(self.os.clone())),
            ("arch".to_string(), Value::from(self.arch.clone())),
            ("simd_isa".to_string(), Value::from(self.simd_isa.clone())),
            ("threads".to_string(), Value::from(self.threads)),
            ("l1d_bytes".to_string(), Value::from(self.cache.l1d_bytes)),
            ("l2_bytes".to_string(), Value::from(self.cache.l2_bytes)),
            ("l3_bytes".to_string(), Value::from(self.cache.l3_bytes)),
            (
                "cache_source".to_string(),
                Value::from(self.cache.source.to_string()),
            ),
            ("telemetry".to_string(), Value::from(self.telemetry.clone())),
        ];
        if let Some(isa) = &self.simd_rejected {
            args.push(("simd_rejected".to_string(), Value::from(isa.clone())));
        }
        if let Some(shard) = &self.shard {
            args.push(("shard".to_string(), Value::from(shard.clone())));
        }
        if let Some(jobs) = self.jobs {
            args.push(("jobs".to_string(), Value::from(jobs)));
        }
        if let Some(baseline) = &self.baseline {
            args.push(("baseline".to_string(), Value::from(baseline.clone())));
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_never_fails_and_fields_are_nonempty() {
        let m = Manifest::collect(7);
        assert_eq!(m.threads, 7);
        assert!(!m.git_sha.is_empty());
        assert!(!m.rustc.is_empty());
        assert!(!m.cpu_model.is_empty());
        assert!(!m.os.is_empty() && !m.arch.is_empty());
    }

    #[test]
    fn json_is_parseable_and_carries_every_field() {
        let m = Manifest {
            git_sha: "abc123".to_string(),
            rustc: "rustc 1.75.0".to_string(),
            cpu_model: "Imaginary CPU \"X\"".to_string(),
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            simd_isa: "avx2".to_string(),
            simd_rejected: None,
            threads: 16,
            shard: None,
            jobs: None,
            baseline: None,
            cache: CacheInfo::DEFAULT,
            telemetry: "on".to_string(),
        };
        let text = m.to_json(2);
        let doc = perfport_trace::json::parse(&text).expect("manifest must be valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(MANIFEST_SCHEMA));
        assert_eq!(doc.get("git_sha").unwrap().as_str(), Some("abc123"));
        assert_eq!(doc.get("simd_isa").unwrap().as_str(), Some("avx2"));
        // Unsharded runs stamp explicit nulls, keeping the schema stable.
        use perfport_trace::json::Json;
        assert!(matches!(doc.get("shard"), Some(Json::Null)));
        assert!(matches!(doc.get("jobs"), Some(Json::Null)));
        assert!(matches!(doc.get("baseline"), Some(Json::Null)));
        assert!(matches!(doc.get("simd_rejected"), Some(Json::Null)));
        assert_eq!(
            doc.get("cpu_model").unwrap().as_str(),
            Some("Imaginary CPU \"X\"")
        );
        assert_eq!(doc.get("threads").unwrap().as_f64(), Some(16.0));
        assert_eq!(
            doc.get("cache").unwrap().get("source").unwrap().as_str(),
            Some("defaults")
        );
        assert_eq!(doc.get("telemetry").unwrap().as_str(), Some("on"));
    }

    #[test]
    fn sharded_runs_stamp_their_identity() {
        let m = Manifest::collect(2).with_shard("1/4", 3);
        assert_eq!(m.shard.as_deref(), Some("1/4"));
        assert_eq!(m.jobs, Some(3));
        let doc = perfport_trace::json::parse(&m.to_json(0)).expect("valid JSON");
        assert_eq!(doc.get("shard").unwrap().as_str(), Some("1/4"));
        assert_eq!(doc.get("jobs").unwrap().as_f64(), Some(3.0));
        let args = m.trace_args();
        let keys: Vec<&str> = args.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"shard") && keys.contains(&"jobs"));
        // Unsharded manifests keep the trace event lean: no shard keys.
        let plain = Manifest::collect(2);
        let keys: Vec<String> = plain.trace_args().into_iter().map(|(k, _)| k).collect();
        assert!(!keys.contains(&"shard".to_string()));
    }

    #[test]
    fn figure_runs_stamp_their_baseline() {
        let mut m = Manifest::collect(2);
        m.baseline = Some("measured".to_string());
        let doc = perfport_trace::json::parse(&m.to_json(0)).expect("valid JSON");
        assert_eq!(doc.get("baseline").unwrap().as_str(), Some("measured"));
        let keys: Vec<String> = m.trace_args().into_iter().map(|(k, _)| k).collect();
        assert!(keys.contains(&"baseline".to_string()));
        // Snapshot binaries render no efficiencies: no baseline key in
        // their trace events.
        let plain = Manifest::collect(2);
        let keys: Vec<String> = plain.trace_args().into_iter().map(|(k, _)| k).collect();
        assert!(!keys.contains(&"baseline".to_string()));
    }

    #[test]
    fn trace_args_mirror_the_json_fields() {
        let m = Manifest::collect(2);
        let args = m.trace_args();
        let keys: Vec<&str> = args.iter().map(|(k, _)| k.as_str()).collect();
        for key in [
            "git_sha",
            "rustc",
            "cpu_model",
            "telemetry",
            "threads",
            "simd_isa",
        ] {
            assert!(keys.contains(&key), "missing {key}");
        }
    }

    #[test]
    fn simd_isa_round_trips_through_json_and_names_a_real_isa() {
        // The collected value must be a name the dispatcher itself
        // understands, and must survive the JSON round trip verbatim.
        let m = Manifest::collect(1);
        let named = perfport_gemm::Isa::from_name(&m.simd_isa);
        assert!(named.is_some(), "unknown simd_isa {:?}", m.simd_isa);
        let doc = perfport_trace::json::parse(&m.to_json(0)).expect("valid JSON");
        assert_eq!(
            doc.get("simd_isa").unwrap().as_str(),
            Some(m.simd_isa.as_str())
        );
        assert_eq!(named, Some(perfport_gemm::simd::active()));
    }
}
