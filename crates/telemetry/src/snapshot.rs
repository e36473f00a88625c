//! The canonical merged view of every metric shard.
//!
//! [`Snapshot`] is plain data: three sorted maps (counters, gauges,
//! histograms) keyed by metric name. It is what the bench snapshots
//! embed as their `telemetry` block ([`Snapshot::to_json`] writes it,
//! [`Snapshot::from_json`] reads it back), what `telemetry_report` renders
//! as Prometheus text, and — because counters and histograms are
//! monotonic — what [`Snapshot::delta_since`] subtracts to isolate one
//! run from everything else the process has done.

use std::collections::BTreeMap;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};
use perfport_trace::json::Json;

/// A merged, immutable view of all shards at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, summed across shards.
    pub counters: BTreeMap<String, u64>,
    /// Gauges: last value set per shard, merged by maximum (the
    /// useful aggregate for depth-style gauges such as queue depth).
    pub gauges: BTreeMap<String, u64>,
    /// Streaming histograms, bucket-wise summed across shards.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// `true` when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Everything recorded between `earlier` and this snapshot.
    /// Counters and histograms subtract (saturating); gauges keep this
    /// snapshot's value, since a gauge is a point-in-time reading, not
    /// an accumulation. Metrics absent from `earlier` pass through
    /// whole.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &now)| {
                let then = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), now.saturating_sub(then))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, now)| {
                let delta = match earlier.histograms.get(name) {
                    Some(then) => now.delta_since(then),
                    None => now.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// The snapshot as the bench snapshots' `telemetry` block: the
    /// three maps by name. Histograms carry their exact count/sum,
    /// three headline quantile estimates, and a sparse `[bucket, count]`
    /// list, so empty buckets cost nothing on disk.
    pub fn to_json(&self) -> Json {
        let values = |map: &BTreeMap<String, u64>| {
            Json::object(map.iter().map(|(name, &v)| (name.clone(), v.into())))
        };
        let histograms = self.histograms.iter().map(|(name, hist)| {
            let buckets = hist.buckets.iter().enumerate().filter(|(_, &c)| c != 0);
            let buckets = buckets.map(|(i, &c)| Json::Array(vec![i.into(), c.into()]));
            let fields = [
                ("count", hist.count.into()),
                ("sum", hist.sum.into()),
                ("p50", hist.quantile(0.50).into()),
                ("p95", hist.quantile(0.95).into()),
                ("p99", hist.quantile(0.99).into()),
                ("buckets", Json::Array(buckets.collect())),
            ];
            (name.clone(), Json::object(fields))
        });
        Json::object([
            ("counters", values(&self.counters)),
            ("gauges", values(&self.gauges)),
            ("histograms", Json::object(histograms)),
        ])
    }

    /// Reads a block written by [`Snapshot::to_json`]; the quantiles
    /// are derived, so they are not read. Any structural surprise (a
    /// missing map, a non-numeric value, a bucket index past the range)
    /// yields `None` for the whole block: telemetry is supporting
    /// evidence, and older or hand-edited files must still be usable.
    pub fn from_json(block: &Json) -> Option<Snapshot> {
        let values = |key: &str| -> Option<BTreeMap<String, u64>> {
            let Json::Object(map) = block.get(key)? else {
                return None;
            };
            map.iter()
                .map(|(name, v)| Some((name.clone(), v.as_f64()? as u64)))
                .collect()
        };
        let Some(Json::Object(histograms)) = block.get("histograms") else {
            return None;
        };
        let histograms = histograms
            .iter()
            .map(|(name, h)| {
                let mut hist = HistogramSnapshot::empty();
                hist.count = h.get("count")?.as_f64()? as u64;
                hist.sum = h.get("sum")?.as_f64()? as u64;
                for entry in h.get("buckets")?.as_array()? {
                    let pair = entry.as_array()?;
                    let index = pair.first()?.as_f64()? as usize;
                    *hist.buckets.get_mut(index)? = pair.get(1)?.as_f64()? as u64;
                }
                Some((name.clone(), hist))
            })
            .collect::<Option<_>>()?;
        Some(Snapshot {
            counters: values("counters")?,
            gauges: values("gauges")?,
            histograms,
        })
    }

    /// Renders the snapshot as Prometheus text exposition (the
    /// `telemetry_report` bin's output). Metric names are sanitized to
    /// the Prometheus alphabet and prefixed `perfport_`; histograms
    /// expand into cumulative `_bucket{le="…"}` series plus exact
    /// `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in hist.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{name}_sum {}", hist.sum);
            let _ = writeln!(out, "{name}_count {}", hist.count);
        }
        out
    }
}

/// Maps a metric name onto the Prometheus alphabet
/// (`[a-zA-Z0-9_:]`): every other byte becomes `_`, and the result is
/// prefixed with `perfport_` so exported series are namespaced.
pub fn prometheus_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("perfport_{sanitized}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("pool/regions".into(), 3);
        snap.gauges.insert("queue/depth".into(), 7);
        let mut h = HistogramSnapshot::empty();
        h.buckets[10] = 2;
        h.buckets[12] = 1;
        h.count = 3;
        h.sum = 9000;
        snap.histograms.insert("serve/latency_ns".into(), h);
        snap
    }

    #[test]
    fn json_round_trips_braces_and_fields() {
        let json = sample().to_json();
        assert_eq!(Snapshot::from_json(&json), Some(sample()));
        let text = json.pretty();
        assert!(text.contains("\"pool/regions\": 3"), "{text}");
        let read = perfport_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(Snapshot::from_json(&read), Some(sample()));
    }

    #[test]
    fn empty_snapshot_serializes_to_empty_maps() {
        let json = Snapshot::default().to_json();
        assert_eq!(
            json.to_string(),
            r#"{"counters": {}, "gauges": {}, "histograms": {}}"#
        );
        assert_eq!(Snapshot::from_json(&json), Some(Snapshot::default()));
    }

    #[test]
    fn prometheus_exposition_has_types_and_cumulative_buckets() {
        let text = sample().prometheus();
        assert!(text.contains("# TYPE perfport_pool_regions counter"));
        assert!(text.contains("perfport_pool_regions 3"));
        assert!(text.contains("# TYPE perfport_queue_depth gauge"));
        assert!(text.contains("# TYPE perfport_serve_latency_ns histogram"));
        // Bucket 10 holds 2, bucket 12 cumulative 3, then +Inf.
        assert!(text.contains("perfport_serve_latency_ns_bucket{le=\"2047\"} 2"));
        assert!(text.contains("perfport_serve_latency_ns_bucket{le=\"8191\"} 3"));
        assert!(text.contains("perfport_serve_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("perfport_serve_latency_ns_sum 9000"));
        assert!(text.contains("perfport_serve_latency_ns_count 3"));
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let earlier = sample();
        let mut later = sample();
        *later.counters.get_mut("pool/regions").unwrap() = 10;
        later.counters.insert("queue/submitted".into(), 4);
        *later.gauges.get_mut("queue/depth").unwrap() = 2;
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.counters["pool/regions"], 7);
        assert_eq!(delta.counters["queue/submitted"], 4);
        assert_eq!(delta.gauges["queue/depth"], 2);
        assert!(delta.histograms["serve/latency_ns"].is_empty());
    }
}
