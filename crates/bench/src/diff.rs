//! The bench snapshot format, written by [`snapshot_json`] and read by
//! [`parse_snapshot`], and the point-by-point comparison of two
//! snapshots with noise-aware thresholds — the regression sentinel
//! behind the `bench_diff` binary.
//!
//! A bench point is only as trustworthy as its repetition spread, so the
//! tolerance for each `(n, precision, variant)` cell is derived from the
//! *committed* spreads rather than a blanket percentage: a cell whose
//! reps scattered ±8% must not fail CI on a 6% dip, while a rock-steady
//! cell should. Cells with no spread evidence at all (single-rep runs,
//! hand-edited zeros) fall back to the blanket [`SPREADLESS_FLOOR`].

use crate::Manifest;
use perfport_trace::json::{self, Json};
use std::collections::BTreeMap;

/// What kind of workload a snapshot records. Snapshots of different
/// kinds measure incommensurable things (host GFLOP/s vs. simulator
/// throughput), so `bench_diff` refuses to compare across kinds instead
/// of silently finding zero shared cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// `perfport-bench-gemm/*` — host GEMM rates (`BENCH_gemm.json`).
    Gemm,
    /// `perfport-bench-gpu/*` — simulated GPU kernels (`BENCH_gpu.json`).
    Gpu,
}

impl SnapshotKind {
    /// Human label used in refusal messages.
    pub fn describe(self) -> &'static str {
        match self {
            SnapshotKind::Gemm => "host GEMM",
            SnapshotKind::Gpu => "GPU simulator",
        }
    }
}

/// One `(n, precision)` bench point: GFLOP/s per variant plus the
/// relative rep spread (half-range over mean) per variant when the
/// snapshot recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPoint {
    /// Matrix dimension.
    pub n: u64,
    /// `"FP64"` / `"FP32"`.
    pub precision: String,
    /// Variant name → measured GFLOP/s.
    pub gflops: BTreeMap<String, f64>,
    /// Variant name → relative rep spread (0.04 = ±4%); empty when the
    /// snapshot recorded none.
    pub spread: BTreeMap<String, f64>,
}

impl SnapshotPoint {
    /// The `(n, precision)` identity used to match points across files.
    pub fn key(&self) -> (u64, String) {
        (self.n, self.precision.clone())
    }
}

/// A parsed bench snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The `schema` string, e.g. `perfport-bench-gemm/2`.
    pub schema: String,
    /// Workload family, derived from the schema prefix.
    pub kind: SnapshotKind,
    /// Whether the producing run was `--quick`.
    pub quick: bool,
    /// SIMD ISA the producing run's tuned kernel dispatched to, from the
    /// embedded manifest's `simd_isa` field (`/2` snapshots produced
    /// since the dispatcher landed); `None` for older files.
    pub simd_isa: Option<String>,
    /// The run's always-on runtime telemetry (schema `gemm/3` and
    /// `gpu/1` snapshots), parsed leniently: telemetry is supporting
    /// evidence, never a gated metric, so a missing or malformed block
    /// reads as `None` rather than failing the diff.
    pub telemetry: Option<perfport_telemetry::Snapshot>,
    /// All recorded points, in file order.
    pub points: Vec<SnapshotPoint>,
}

fn parse_point(obj: &Json) -> Result<SnapshotPoint, String> {
    let n = obj
        .get("n")
        .and_then(Json::as_f64)
        .ok_or("point missing numeric 'n'")? as u64;
    let precision = obj
        .get("precision")
        .and_then(Json::as_str)
        .ok_or("point missing 'precision'")?
        .to_string();
    let cells = |key: &str| -> Result<BTreeMap<String, f64>, String> {
        let Some(Json::Object(map)) = obj.get(key) else {
            return Ok(BTreeMap::new());
        };
        map.iter()
            .map(|(k, v)| {
                Ok((
                    k.clone(),
                    v.as_f64().ok_or(format!("{key}.{k} not a number"))?,
                ))
            })
            .collect()
    };
    let gflops = cells("gflops")?;
    if gflops.is_empty() {
        return Err(format!("point n={n} {precision} has no measurements"));
    }
    Ok(SnapshotPoint {
        n,
        precision,
        gflops,
        spread: cells("spread")?,
    })
}

/// `x` rounded to `places` decimals, as the bench binaries write their
/// cells.
pub fn rounded(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// Builds a bench snapshot, the document [`parse_snapshot`] reads: the
/// envelope every kind shares (`schema`, `quick`, `manifest`, the
/// measurement `protocol` of `reps` after one warm-up run, `telemetry`,
/// `points`) and each point's `n`, `precision`, `gflops` and `spread`.
/// Each point comes with its binary's own fields; the binary adds its
/// own top-level fields to the returned map.
pub fn snapshot_json(
    schema: &str,
    quick: bool,
    manifest: &Manifest,
    reps: usize,
    metric: &str,
    telemetry: &perfport_telemetry::Snapshot,
    points: Vec<(SnapshotPoint, Vec<(&str, Json)>)>,
) -> BTreeMap<String, Json> {
    let cells =
        |map: BTreeMap<String, f64>| Json::object(map.into_iter().map(|(k, v)| (k, v.into())));
    let points = points.into_iter().map(|(p, own)| {
        let core = [
            ("n", p.n.into()),
            ("precision", p.precision.into()),
            ("gflops", cells(p.gflops)),
            ("spread", cells(p.spread)),
        ];
        Json::object(own.into_iter().chain(core))
    });
    let protocol = Json::object([
        ("reps", reps.into()),
        ("warmup_runs", 1u64.into()),
        ("metric", metric.into()),
        ("spread", "rel_half_range".into()),
    ]);
    [
        ("schema", schema.into()),
        ("quick", Json::Bool(quick)),
        ("manifest", manifest.json()),
        ("protocol", protocol),
        ("telemetry", telemetry.to_json()),
        ("points", Json::Array(points.collect())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Parses a snapshot written by [`snapshot_json`]: a
/// `perfport-bench-gemm/*` host run (from `/2` on, whose points nest
/// their cells) or a `perfport-bench-gpu/*` simulator run. Any other
/// schema, including the retired `perfport-bench-serve/*`, is an error.
/// The `telemetry` block carried by `gemm/3` / `gpu/1` snapshots is
/// parsed warn-only into [`Snapshot::telemetry`].
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?
        .to_string();
    let quick = doc.get("quick").and_then(Json::as_bool).unwrap_or(false);
    let simd_isa = doc
        .get("manifest")
        .and_then(|m| m.get("simd_isa"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let telemetry = doc
        .get("telemetry")
        .and_then(perfport_telemetry::Snapshot::from_json);
    let kind = if schema.starts_with("perfport-bench-gemm/") {
        SnapshotKind::Gemm
    } else if schema.starts_with("perfport-bench-gpu/") {
        SnapshotKind::Gpu
    } else {
        return Err(format!("not a bench snapshot: schema '{schema}'"));
    };
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or("missing 'points' array")?
        .iter()
        .map(parse_point)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Snapshot {
        schema,
        kind,
        quick,
        simd_isa,
        telemetry,
        points,
    })
}

/// Blanket relative tolerance for cells with **no** spread evidence in
/// either snapshot (single-rep runs, hand-edited zeros). Without it,
/// `--floor 0` plus an evidence-free cell makes the noise-aware gate
/// infinitely strict — any dip fails. The documented 5%
/// blanket applies instead; an explicitly configured floor above it
/// still wins.
pub const SPREADLESS_FLOOR: f64 = 0.05;

/// Threshold policy for [`diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Minimum relative tolerance applied to every cell (default 5%),
    /// covering run-to-run noise the committed spread cannot see
    /// (different machine load, frequency scaling).
    pub floor: f64,
    /// Multiplier on the summed rep spreads of the two snapshots; the
    /// effective threshold is `max(floor, factor × (spread_a + spread_b))`.
    pub spread_factor: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            floor: 0.05,
            spread_factor: 2.0,
        }
    }
}

/// The verdict for one compared cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise threshold either way.
    Ok,
    /// Faster than the baseline by more than the threshold.
    Improved,
    /// Slower than the baseline by more than the threshold.
    Regressed,
}

/// One compared `(n, precision, variant)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Matrix dimension.
    pub n: u64,
    /// Precision label.
    pub precision: String,
    /// Variant name.
    pub variant: String,
    /// Baseline GFLOP/s.
    pub base: f64,
    /// Candidate GFLOP/s.
    pub cand: f64,
    /// `cand / base - 1`.
    pub rel_change: f64,
    /// The noise-aware tolerance applied to this cell.
    pub threshold: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Compares every `(n, precision, variant)` present in **both**
/// snapshots (a `--quick` candidate naturally compares only its subset).
/// Entries come back in baseline file order.
pub fn diff(base: &Snapshot, cand: &Snapshot, cfg: &DiffConfig) -> Vec<DiffEntry> {
    let cand_by_key: BTreeMap<(u64, String), &SnapshotPoint> =
        cand.points.iter().map(|p| (p.key(), p)).collect();
    let mut out = Vec::new();
    for bp in &base.points {
        let Some(cp) = cand_by_key.get(&bp.key()) else {
            continue;
        };
        for (variant, &b) in &bp.gflops {
            let Some(&c) = cp.gflops.get(variant) else {
                continue;
            };
            if b <= 0.0 {
                continue;
            }
            let spread_sum = bp.spread.get(variant).copied().unwrap_or(0.0)
                + cp.spread.get(variant).copied().unwrap_or(0.0);
            let mut threshold = (cfg.spread_factor * spread_sum).max(cfg.floor);
            if spread_sum <= 0.0 {
                // No noise evidence on either side: the documented
                // blanket percentage, not an infinitely strict gate.
                threshold = threshold.max(SPREADLESS_FLOOR);
            }
            let rel_change = c / b - 1.0;
            let verdict = if rel_change < -threshold {
                Verdict::Regressed
            } else if rel_change > threshold {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            out.push(DiffEntry {
                n: bp.n,
                precision: bp.precision.clone(),
                variant: variant.clone(),
                base: b,
                cand: c,
                rel_change,
                threshold,
                verdict,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A point with no `spread` map: no cell has noise evidence.
    const SPREADLESS: &str = r#"{
      "schema": "perfport-bench-gemm/2",
      "quick": false,
      "points": [
        {"n": 1024, "precision": "FP64",
         "gflops": {"c-openmp": 5.0, "julia": 4.0, "vendor": 9.0}}
      ]
    }"#;

    const V2: &str = r#"{
      "schema": "perfport-bench-gemm/2",
      "quick": true,
      "points": [
        {"n": 1024, "precision": "FP64",
         "gflops": {"c-openmp": 5.0, "julia": 4.0, "vendor": 9.0},
         "spread": {"c-openmp": 0.01, "julia": 0.08, "vendor": 0.01}}
      ]
    }"#;

    #[test]
    fn parses_nested_points() {
        let v2 = parse_snapshot(V2).unwrap();
        assert!(v2.quick);
        assert_eq!(v2.points[0].gflops["julia"], 4.0);
        assert_eq!(v2.points[0].spread["julia"], 0.08);
    }

    #[test]
    fn simd_isa_is_read_from_the_manifest_when_present() {
        assert_eq!(parse_snapshot(V2).unwrap().simd_isa, None);
        let with_manifest = V2.replacen(
            "\"quick\": true,",
            "\"quick\": true,\n      \"manifest\": {\"schema\": \"perfport-manifest/1\", \"simd_isa\": \"avx512\"},",
            1,
        );
        let snap = parse_snapshot(&with_manifest).unwrap();
        assert_eq!(snap.simd_isa.as_deref(), Some("avx512"));
    }

    #[test]
    fn snapshots_with_retired_scheduler_fields_still_parse() {
        // Snapshots written before the task-graph scheduler was removed
        // carry a manifest `sched` field and a top-level `sched` block;
        // both are ignored.
        let old_gemm = V2.replacen(
            "\"quick\": true,",
            "\"quick\": true,\n      \"manifest\": {\"schema\": \"perfport-manifest/1\", \"simd_isa\": \"avx2\", \"sched\": \"graph\"},\n      \"sched\": {\"mode\": \"graph\", \"barrier_wait_ns\": 0, \"idle_ns\": 12, \"pack_overlap_ns\": 3},",
            1,
        );
        let snap = parse_snapshot(&old_gemm).unwrap();
        assert_eq!(snap.simd_isa.as_deref(), Some("avx2"));
        assert_eq!(snap.points, parse_snapshot(V2).unwrap().points);
    }

    const TELEMETRY: &str = r#""telemetry": {
        "counters": {"pool/regions": 12},
        "gauges": {"queue/depth": 3},
        "histograms": {"gemm/pack_ns": {"count": 2, "sum": 3000, "p50": 2047, "p95": 2047, "p99": 2047, "buckets": [[10, 2]]}}
      },"#;

    fn with_block(block: &str) -> String {
        V2.replacen(
            "\"quick\": true,",
            &format!("\"quick\": true,\n      {block}"),
            1,
        )
    }

    #[test]
    fn telemetry_blocks_parse_into_snapshots() {
        // Snapshots without the block (schema /2 files) read None.
        assert!(parse_snapshot(V2).unwrap().telemetry.is_none());
        let snap = parse_snapshot(&with_block(TELEMETRY)).unwrap();
        let t = snap.telemetry.expect("well-formed telemetry must parse");
        assert_eq!(t.counters["pool/regions"], 12);
        assert_eq!(t.gauges["queue/depth"], 3);
        let h = &t.histograms["gemm/pack_ns"];
        assert_eq!((h.count, h.sum, h.buckets[10]), (2, 3000, 2));
    }

    #[test]
    fn malformed_telemetry_is_warn_only_never_an_error() {
        for bad in [
            // counters is not an object
            r#""telemetry": {"counters": 5, "gauges": {}, "histograms": {}},"#,
            // non-numeric histogram count
            r#""telemetry": {"counters": {}, "gauges": {}, "histograms": {"h": {"count": "x", "sum": 0, "buckets": []}}},"#,
            // bucket index past the 64-bucket range
            r#""telemetry": {"counters": {}, "gauges": {}, "histograms": {"h": {"count": 1, "sum": 2, "buckets": [[99, 1]]}}},"#,
        ] {
            let snap = parse_snapshot(&with_block(bad)).expect("points must still parse");
            assert!(snap.telemetry.is_none(), "must read as None: {bad}");
            assert_eq!(snap.points.len(), 1);
        }
    }

    #[test]
    fn rejects_non_snapshots() {
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot("{\"schema\": \"perfport-trace/1\"}").is_err());
        assert!(parse_snapshot("{\"schema\": \"perfport-bench-gemm/2\"}").is_err());
        assert!(parse_snapshot("{\"schema\": \"perfport-bench-serve/2\"}").is_err());
        assert!(parse_snapshot("not json").is_err());
    }

    fn with_vendor(text: &str, vendor: f64) -> Snapshot {
        let mut snap = parse_snapshot(text).unwrap();
        snap.points[0].gflops.insert("vendor".to_string(), vendor);
        snap
    }

    #[test]
    fn ten_percent_regression_is_detected() {
        let base = parse_snapshot(V2).unwrap();
        // vendor: 9.0 -> 8.1 is -10%; spreads are ±1%, threshold
        // max(0.05, 2·0.02) = 5% -> regression.
        let cand = with_vendor(V2, 8.1);
        let entries = diff(&base, &cand, &DiffConfig::default());
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert_eq!(vendor.verdict, Verdict::Regressed);
        assert!((vendor.rel_change + 0.10).abs() < 1e-9);
    }

    #[test]
    fn noisy_cells_get_wider_thresholds() {
        let base = parse_snapshot(V2).unwrap();
        // julia scattered ±8% in both runs: threshold 2·0.16 = 32%, so a
        // 10% dip is noise, not a regression.
        let mut cand = parse_snapshot(V2).unwrap();
        cand.points[0].gflops.insert("julia".to_string(), 3.6);
        let entries = diff(&base, &cand, &DiffConfig::default());
        let julia = entries.iter().find(|e| e.variant == "julia").unwrap();
        assert_eq!(julia.verdict, Verdict::Ok);
        assert!(julia.threshold > 0.3);
    }

    #[test]
    fn improvements_are_reported_not_failed() {
        let base = parse_snapshot(V2).unwrap();
        let cand = with_vendor(V2, 12.0);
        let entries = diff(&base, &cand, &DiffConfig::default());
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert_eq!(vendor.verdict, Verdict::Improved);
    }

    #[test]
    fn quick_candidates_compare_only_shared_points() {
        let mut base = parse_snapshot(V2).unwrap();
        base.points.push(SnapshotPoint {
            n: 2048,
            precision: "FP64".to_string(),
            gflops: [("vendor".to_string(), 8.0)].into_iter().collect(),
            spread: BTreeMap::new(),
        });
        let cand = parse_snapshot(V2).unwrap();
        let entries = diff(&base, &cand, &DiffConfig::default());
        assert!(entries.iter().all(|e| e.n == 1024));
    }

    #[test]
    fn spreadless_baselines_use_the_floor() {
        let base = parse_snapshot(SPREADLESS).unwrap();
        assert!(base.points[0].spread.is_empty());
        let cand = with_vendor(SPREADLESS, 8.1); // -10% with no recorded spread
        let entries = diff(&base, &cand, &DiffConfig::default());
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert!((vendor.threshold - 0.05).abs() < 1e-12);
        assert_eq!(vendor.verdict, Verdict::Regressed);
    }

    #[test]
    fn spreadless_cells_get_the_blanket_floor_even_at_floor_zero() {
        // A spreadless baseline has no noise evidence; with `--floor 0` the
        // old threshold was exactly 0, so *any* dip failed. The blanket
        // percentage must apply instead.
        let zero_floor = DiffConfig {
            floor: 0.0,
            spread_factor: 2.0,
        };
        let base = parse_snapshot(SPREADLESS).unwrap();
        let cand = with_vendor(SPREADLESS, 8.73); // -3%: within the 5% blanket
        let entries = diff(&base, &cand, &zero_floor);
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert!((vendor.threshold - SPREADLESS_FLOOR).abs() < 1e-12);
        assert_eq!(vendor.verdict, Verdict::Ok);
        // Past the blanket it still regresses.
        let cand = with_vendor(SPREADLESS, 8.1); // -10%
        let entries = diff(&base, &cand, &zero_floor);
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert_eq!(vendor.verdict, Verdict::Regressed);
        // An explicitly recorded zero spread counts as absent evidence.
        let mut base = parse_snapshot(V2).unwrap();
        let mut cand = parse_snapshot(V2).unwrap();
        base.points[0].spread.insert("vendor".to_string(), 0.0);
        cand.points[0].spread.insert("vendor".to_string(), 0.0);
        cand.points[0].gflops.insert("vendor".to_string(), 8.73);
        let entries = diff(&base, &cand, &zero_floor);
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert!((vendor.threshold - SPREADLESS_FLOOR).abs() < 1e-12);
        // A configured floor above the blanket still wins.
        let wide = DiffConfig {
            floor: 0.20,
            spread_factor: 2.0,
        };
        let base = parse_snapshot(SPREADLESS).unwrap();
        let cand = with_vendor(SPREADLESS, 8.1);
        let entries = diff(&base, &cand, &wide);
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert!((vendor.threshold - 0.20).abs() < 1e-12);
    }

    #[test]
    fn genuine_spreads_are_unaffected_by_the_blanket() {
        // With real spread evidence the threshold is spread-derived even
        // under a zero floor: 2 × (0.01 + 0.01) = 4%, below the blanket.
        let zero_floor = DiffConfig {
            floor: 0.0,
            spread_factor: 2.0,
        };
        let base = parse_snapshot(V2).unwrap();
        let cand = parse_snapshot(V2).unwrap();
        let entries = diff(&base, &cand, &zero_floor);
        let vendor = entries.iter().find(|e| e.variant == "vendor").unwrap();
        assert!((vendor.threshold - 0.04).abs() < 1e-12);
    }

    #[test]
    fn written_snapshots_read_back_unchanged() {
        let point = parse_snapshot(V2).unwrap().points.remove(0);
        let mut telemetry = perfport_telemetry::Snapshot::default();
        telemetry.counters.insert("pool/regions".to_string(), 12);
        let mut manifest = Manifest::collect(2);
        manifest.simd_isa = "avx512".to_string();
        let own = vec![("best_naive", Json::from("vendor"))];
        let doc = snapshot_json(
            "perfport-bench-gemm/3",
            true,
            &manifest,
            3,
            "gflops",
            &telemetry,
            vec![(point.clone(), own)],
        );
        let snap = parse_snapshot(&Json::Object(doc).pretty()).unwrap();
        assert_eq!(snap.schema, "perfport-bench-gemm/3");
        assert!(snap.quick);
        assert_eq!(snap.simd_isa.as_deref(), Some("avx512"));
        assert_eq!(snap.telemetry, Some(telemetry));
        assert_eq!(snap.points, vec![point]);
    }

    const GPU: &str = r#"{
      "schema": "perfport-bench-gpu/1",
      "quick": false,
      "manifest": {"schema": "perfport-manifest/1", "simd_isa": "avx2", "sched": "graph"},
      "headroom": {"a100": {"FP64": 4.0}, "mi250x": {"FP64": 15.1}},
      "points": [
        {"n": 64, "precision": "FP64",
         "gflops": {"cuda": 0.08, "tiled-nvidia": 0.05},
         "spread": {"cuda": 0.10, "tiled-nvidia": 0.03},
         "device_gflops": {"cuda": 2417.6, "tiled-nvidia": 9700.0},
         "occupancy": {"cuda": 1.0, "tiled-nvidia": 1.0},
         "headroom": {"a100": 4.01},
         "best_naive": "cuda"}
      ]
    }"#;

    #[test]
    fn gpu_snapshots_parse_with_their_own_kind() {
        let snap = parse_snapshot(GPU).unwrap();
        assert_eq!(snap.schema, "perfport-bench-gpu/1");
        assert_eq!(snap.kind, SnapshotKind::Gpu);
        assert_eq!(snap.points.len(), 1);
        let p = &snap.points[0];
        assert_eq!(p.gflops["cuda"], 0.08);
        assert_eq!(p.spread["tiled-nvidia"], 0.03);
        // The estimate/occupancy blocks are snapshot metadata, not cells.
        assert!(!p.gflops.contains_key("device_gflops"));

        assert_eq!(parse_snapshot(V2).unwrap().kind, SnapshotKind::Gemm);
    }

    #[test]
    fn gpu_snapshots_diff_like_any_other() {
        let base = parse_snapshot(GPU).unwrap();
        // tiled-nvidia dips 50%: spreads 0.03+0.03, threshold
        // max(0.05, 2·0.06) = 12% -> regression.
        let cand =
            parse_snapshot(&GPU.replacen("\"tiled-nvidia\": 0.05", "\"tiled-nvidia\": 0.025", 1))
                .unwrap();
        let entries = diff(&base, &cand, &DiffConfig::default());
        let tiled = entries
            .iter()
            .find(|e| e.variant == "tiled-nvidia")
            .unwrap();
        assert_eq!(tiled.verdict, Verdict::Regressed);
        let cuda = entries.iter().find(|e| e.variant == "cuda").unwrap();
        assert_eq!(cuda.verdict, Verdict::Ok);
    }
}
