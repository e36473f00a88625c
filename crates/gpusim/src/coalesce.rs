//! Warp-level memory coalescing analysis.
//!
//! Real GPUs service a warp's memory instruction with one transaction per
//! distinct cache line the lanes touch: 32 adjacent `f32` loads coalesce
//! into a single 128-byte transaction, while a column-strided pattern
//! needs one transaction per lane. The simulator reconstructs this from
//! the per-thread access logs: accesses are grouped by *ordinal* (the
//! n-th access of each lane corresponds to the same static instruction,
//! valid because SIMT lanes execute the kernel in lockstep), and each
//! group is billed `distinct cache lines` transactions.

use crate::ctx::Access;

/// Coalescing summary of one warp's execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpSummary {
    /// Element loads performed by all lanes.
    pub loads: u64,
    /// Element stores performed by all lanes.
    pub stores: u64,
    /// Memory transactions needed to service the loads.
    pub load_transactions: u64,
    /// Memory transactions needed to service the stores.
    pub store_transactions: u64,
    /// Bytes requested by loads (element bytes, not line bytes).
    pub load_bytes: u64,
    /// Bytes requested by stores.
    pub store_bytes: u64,
    /// `true` when the lanes' access streams differ in shape — the
    /// footprint of branch divergence (e.g. a bounds guard disabling some
    /// lanes).
    pub divergent: bool,
    /// `true` when at least one lane made an access.
    pub active: bool,
}

/// Analyses the access streams of one warp's lanes (empty streams are
/// inactive lanes).
pub fn analyze_warp(lanes: &[Vec<Access>], line_bytes: u64) -> WarpSummary {
    Coalescer::default().analyze(lanes, line_bytes)
}

/// [`analyze_warp`] with its per-ordinal line buffers kept between warps,
/// so the engines analyse every warp without allocating.
#[derive(Debug, Default)]
pub(crate) struct Coalescer {
    loads: Lines,
    stores: Lines,
}

impl Coalescer {
    /// One pass per ordinal sorts each lane's access into the load or the
    /// store lines; each kind is billed its distinct lines.
    pub(crate) fn analyze(&mut self, lanes: &[Vec<Access>], line_bytes: u64) -> WarpSummary {
        assert!(line_bytes > 0, "cache line size must be positive");
        let mut summary = WarpSummary::default();
        let (min_len, max_len) = lanes.iter().fold((usize::MAX, 0), |(lo, hi), l| {
            (lo.min(l.len()), hi.max(l.len()))
        });
        if max_len == 0 {
            return summary;
        }
        summary.active = true;
        // Divergence: a lane whose stream is shorter than the longest
        // (masked off by a guard), or an ordinal where some lanes load
        // and others store.
        summary.divergent = min_len != max_len;

        let shift = line_bytes.trailing_zeros();
        let pow2 = line_bytes.is_power_of_two();
        for ordinal in 0..max_len {
            self.loads.clear();
            self.stores.clear();
            for a in lanes.iter().filter_map(|lane| lane.get(ordinal)) {
                let line = if pow2 {
                    a.addr >> shift
                } else {
                    a.addr / line_bytes
                };
                if a.store {
                    self.stores.push(line);
                    summary.stores += 1;
                    summary.store_bytes += a.bytes as u64;
                } else {
                    self.loads.push(line);
                    summary.loads += 1;
                    summary.load_bytes += a.bytes as u64;
                }
            }
            if !self.loads.is_empty() && !self.stores.is_empty() {
                summary.divergent = true;
            }
            summary.load_transactions += self.loads.distinct();
            summary.store_transactions += self.stores.distinct();
        }
        summary
    }
}

/// The cache lines one access kind touched at one ordinal, with repeats
/// of the previous line dropped. Coalesced and broadcast groups arrive in
/// ascending runs, so they are counted without sorting.
#[derive(Debug, Default)]
struct Lines {
    runs: Vec<u64>,
    ascending: bool,
}

impl Lines {
    fn clear(&mut self) {
        self.runs.clear();
        self.ascending = true;
    }

    #[inline]
    fn push(&mut self, line: u64) {
        match self.runs.last() {
            Some(&last) if last == line => return,
            Some(&last) if last > line => self.ascending = false,
            _ => {}
        }
        self.runs.push(line);
    }

    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of distinct lines.
    fn distinct(&mut self) -> u64 {
        if !self.ascending {
            self.runs.sort_unstable();
            self.runs.dedup();
        }
        self.runs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(addr: u64) -> Access {
        Access {
            addr,
            bytes: 4,
            store: false,
            atomic: false,
        }
    }

    fn store(addr: u64) -> Access {
        Access {
            addr,
            bytes: 4,
            store: true,
            atomic: false,
        }
    }

    #[test]
    fn fully_coalesced_loads_are_one_transaction() {
        // 32 lanes loading 32 consecutive f32 = 128 bytes = 1 line.
        let lanes: Vec<Vec<Access>> = (0..32).map(|l| vec![load(l * 4)]).collect();
        let s = analyze_warp(&lanes, 128);
        assert_eq!(s.loads, 32);
        assert_eq!(s.load_transactions, 1);
        assert_eq!(s.load_bytes, 128);
        assert!(!s.divergent);
        assert!(s.active);
    }

    #[test]
    fn strided_loads_need_one_transaction_per_lane() {
        // Stride of one line per lane: worst case.
        let lanes: Vec<Vec<Access>> = (0..32).map(|l| vec![load(l * 128)]).collect();
        let s = analyze_warp(&lanes, 128);
        assert_eq!(s.load_transactions, 32);
    }

    #[test]
    fn broadcast_load_is_one_transaction() {
        // All lanes read the same address (e.g. A[row*k+l] within a GEMM
        // row of threads).
        let lanes: Vec<Vec<Access>> = (0..32).map(|_| vec![load(0x1000)]).collect();
        let s = analyze_warp(&lanes, 128);
        assert_eq!(s.loads, 32);
        assert_eq!(s.load_transactions, 1);
    }

    #[test]
    fn f64_full_warp_spans_two_lines() {
        // 32 lanes × 8 bytes = 256 bytes = 2 × 128-byte lines.
        let lanes: Vec<Vec<Access>> = (0..32)
            .map(|l| {
                vec![Access {
                    addr: l * 8,
                    bytes: 8,
                    store: false,
                    atomic: false,
                }]
            })
            .collect();
        let s = analyze_warp(&lanes, 128);
        assert_eq!(s.load_transactions, 2);
        assert_eq!(s.load_bytes, 256);
    }

    #[test]
    fn amd_64_byte_lines_double_transactions() {
        let lanes: Vec<Vec<Access>> = (0..32).map(|l| vec![load(l * 4)]).collect();
        assert_eq!(analyze_warp(&lanes, 64).load_transactions, 2);
        assert_eq!(analyze_warp(&lanes, 128).load_transactions, 1);
    }

    #[test]
    fn multiple_ordinals_counted_independently() {
        // Each lane: coalesced load, then strided load, then coalesced
        // store.
        let lanes: Vec<Vec<Access>> = (0..4)
            .map(|l| vec![load(l * 4), load(l * 256), store(0x4000 + l * 4)])
            .collect();
        let s = analyze_warp(&lanes, 128);
        assert_eq!(s.loads, 8);
        assert_eq!(s.stores, 4);
        assert_eq!(s.load_transactions, 1 + 4);
        assert_eq!(s.store_transactions, 1);
        assert!(!s.divergent);
    }

    #[test]
    fn shorter_stream_marks_divergence() {
        // Lane 3 is masked out by a bounds guard.
        let mut lanes: Vec<Vec<Access>> = (0..4).map(|l| vec![load(l * 4)]).collect();
        lanes[3].clear();
        let s = analyze_warp(&lanes, 128);
        assert!(s.divergent);
        assert_eq!(s.loads, 3);
    }

    #[test]
    fn mixed_kinds_at_same_ordinal_mark_divergence() {
        let lanes = vec![vec![load(0)], vec![store(4)]];
        let s = analyze_warp(&lanes, 128);
        assert!(s.divergent);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn inactive_warp() {
        let lanes: Vec<Vec<Access>> = vec![vec![]; 32];
        let s = analyze_warp(&lanes, 128);
        assert!(!s.active);
        assert!(!s.divergent);
        assert_eq!(s.loads + s.stores, 0);
    }

    #[test]
    fn accesses_straddling_lines_split() {
        // Two lanes in different lines, two in the same line.
        let lanes = vec![
            vec![load(0)],
            vec![load(4)],
            vec![load(128)],
            vec![load(132)],
        ];
        let s = analyze_warp(&lanes, 128);
        assert_eq!(s.load_transactions, 2);
    }
}

/// The analysis before its single-pass rewrite, kept verbatim as the
/// oracle the rewrite must match on arbitrary lane streams.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;

    fn reference_analyze_warp(lanes: &[Vec<Access>], line_bytes: u64) -> WarpSummary {
        assert!(line_bytes > 0, "cache line size must be positive");
        let mut summary = WarpSummary::default();
        let max_len = lanes.iter().map(Vec::len).max().unwrap_or(0);
        if max_len == 0 {
            return summary;
        }
        summary.active = true;

        // Divergence: any lane with a stream shorter than the longest, or
        // whose access kinds differ at any ordinal from another lane's.
        let min_len = lanes.iter().map(Vec::len).min().unwrap_or(0);
        if min_len != max_len {
            summary.divergent = true;
        }

        let mut lines: Vec<u64> = Vec::with_capacity(lanes.len());
        for ordinal in 0..max_len {
            // Split the ordinal group by kind; mixed kinds at one ordinal also
            // indicate divergence.
            for store in [false, true] {
                lines.clear();
                let mut elems = 0u64;
                let mut bytes = 0u64;
                for lane in lanes {
                    if let Some(a) = lane.get(ordinal) {
                        if a.store == store {
                            lines.push(a.addr / line_bytes);
                            elems += 1;
                            bytes += a.bytes as u64;
                        }
                    }
                }
                if elems == 0 {
                    continue;
                }
                lines.sort_unstable();
                lines.dedup();
                let transactions = lines.len() as u64;
                if store {
                    summary.stores += elems;
                    summary.store_bytes += bytes;
                    summary.store_transactions += transactions;
                } else {
                    summary.loads += elems;
                    summary.load_bytes += bytes;
                    summary.load_transactions += transactions;
                }
            }
            // If both kinds appeared at this ordinal the lanes took different
            // paths.
            let kinds: (bool, bool) =
                lanes
                    .iter()
                    .fold((false, false), |acc, lane| match lane.get(ordinal) {
                        Some(a) if a.store => (acc.0, true),
                        Some(_) => (true, acc.1),
                        None => acc,
                    });
            if kinds.0 && kinds.1 {
                summary.divergent = true;
            }
        }
        summary
    }

    fn access() -> impl Strategy<Value = Access> {
        (
            0u64..2048,
            0u32..4,
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(|(addr, log2_bytes, store, atomic)| Access {
                addr,
                bytes: 1 << log2_bytes,
                store,
                atomic,
            })
    }

    /// Up to 32 or 64 lanes of ragged length, empty lanes and loads mixed
    /// with stores at one ordinal included. `shape` keeps the random
    /// addresses or rewrites them into coalesced, broadcast or descending
    /// groups, so both the ascending and the sorting path run.
    fn warp() -> impl Strategy<Value = Vec<Vec<Access>>> {
        (
            proptest::bool::ANY,
            0usize..=64,
            proptest::collection::vec(proptest::collection::vec(access(), 0..6), 64usize),
            0u8..4,
        )
            .prop_map(|(wide, count, mut lanes, shape)| {
                let width = if wide { 64 } else { 32 };
                lanes.truncate(count.min(width));
                for (l, lane) in lanes.iter_mut().enumerate() {
                    for (o, a) in lane.iter_mut().enumerate() {
                        let base = o as u64 * 8192;
                        let bytes = a.bytes as u64;
                        match shape {
                            1 => a.addr = base + l as u64 * bytes,
                            2 => a.addr = base,
                            3 => a.addr = base + (width - l) as u64 * bytes,
                            _ => {}
                        }
                    }
                }
                lanes
            })
    }

    /// The two line sizes of the device classes, and one that is not a
    /// power of two.
    fn line_bytes() -> impl Strategy<Value = u64> {
        (0usize..3).prop_map(|i| [64, 128, 96][i])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn single_pass_matches_the_reference(
            lanes in warp(),
            line_bytes in line_bytes(),
        ) {
            let expected = reference_analyze_warp(&lanes, line_bytes);
            prop_assert_eq!(analyze_warp(&lanes, line_bytes), expected);
            // A reused coalescer carries nothing over between warps.
            let mut reused = Coalescer::default();
            reused.analyze(&lanes, line_bytes);
            prop_assert_eq!(reused.analyze(&lanes, line_bytes), expected);
        }
    }
}
