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
use perfport_trace::json::Json;
use perfport_trace::Value;
use std::process::Command;

/// Schema identifier stamped on every manifest object.
pub const MANIFEST_SCHEMA: &str = "perfport-manifest/1";

/// Provenance of one bench run. Its JSON keys come out sorted, so
/// emitted JSON is diff-stable.
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

    /// The manifest as one `perfport-manifest/1` JSON object: the one
    /// list of its fields, which [`Manifest::to_json`] and
    /// [`Manifest::trace_args`] both derive from. Absent optional fields
    /// are explicit `null`s, keeping the schema stable.
    pub fn json(&self) -> Json {
        let cache = Json::object([
            ("l1d_bytes", self.cache.l1d_bytes.into()),
            ("l2_bytes", self.cache.l2_bytes.into()),
            ("l3_bytes", self.cache.l3_bytes.into()),
            ("source", self.cache.source.to_string().into()),
        ]);
        Json::object([
            ("schema", MANIFEST_SCHEMA.into()),
            ("git_sha", self.git_sha.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("os", self.os.as_str().into()),
            ("arch", self.arch.as_str().into()),
            ("threads", self.threads.into()),
            ("simd_isa", self.simd_isa.as_str().into()),
            ("simd_rejected", self.simd_rejected.as_deref().into()),
            ("shard", self.shard.as_deref().into()),
            ("jobs", self.jobs.into()),
            ("baseline", self.baseline.as_deref().into()),
            ("cache", cache),
            ("telemetry", self.telemetry.as_str().into()),
        ])
    }

    /// Renders [`Manifest::json`] one member per line, every line
    /// indented by a further `indent` spaces (no trailing newline).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        format!(
            "{pad}{}",
            self.json().pretty().replace('\n', &format!("\n{pad}"))
        )
    }

    /// The manifest as trace-event arguments, so `--trace` artifacts
    /// carry the same provenance (emitted as one instant event): the
    /// fields of [`Manifest::json`] with `cache` flattened to
    /// `cache_<field>`, and its `null`s left out.
    pub fn trace_args(&self) -> Vec<(String, Value)> {
        fn value(j: Json) -> Option<Value> {
            match j {
                Json::String(s) => Some(Value::from(s)),
                Json::Number(n) => Some(Value::U64(n as u64)),
                _ => None,
            }
        }
        let Json::Object(fields) = self.json() else {
            unreachable!("a manifest is an object")
        };
        let mut args = Vec::new();
        for (key, field) in fields {
            match field {
                Json::Object(cache) => args.extend(
                    cache
                        .into_iter()
                        .filter_map(|(k, v)| Some((format!("{key}_{k}"), value(v)?))),
                ),
                field => args.extend(value(field).map(|v| (key, v))),
            }
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
            "cache_l1d_bytes",
            "cache_source",
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
