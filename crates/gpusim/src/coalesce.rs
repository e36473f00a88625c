//! Warp-level memory coalescing analysis.
//!
//! Real GPUs service a warp's memory instruction with one transaction per
//! distinct cache line the lanes touch: 32 adjacent `f32` loads coalesce
//! into a single 128-byte transaction, while a column-strided pattern
//! needs one transaction per lane. The simulator counts this as each
//! access happens: the n-th access of every lane belongs to the same
//! static instruction (valid because SIMT lanes execute the kernel in
//! lockstep), so each access adds its cache line to its *ordinal*'s load
//! or store lines, and each ordinal is billed its distinct lines when the
//! warp ends.

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
/// inactive lanes), fed into a [`WarpTally`] in lane order.
pub fn analyze_warp(lanes: &[Vec<Access>], line_bytes: u64) -> WarpSummary {
    let mut tally = WarpTally::new(line_bytes, false);
    for lane in lanes {
        for a in lane {
            tally.record(a.addr, a.bytes, a.store, a.atomic);
        }
        tally.end_lane();
    }
    tally.finish()
}

/// One warp's global accesses, counted as its lanes make them. The
/// engines keep one tally per host thread and reuse it for every warp.
#[derive(Debug)]
pub(crate) struct WarpTally {
    line_bytes: u64,
    /// `log2(line_bytes)` when that is a power of two.
    line_shift: Option<u32>,
    /// Per ordinal, the lines its loads and its stores touched.
    ordinals: Ordinals<[Lines; 2]>,
    /// Accesses of the shortest finished lane.
    min_len: usize,
    summary: WarpSummary,
    atomics: u64,
    /// Every access of the running thread, kept for the race detector.
    log: Option<Vec<Access>>,
}

impl WarpTally {
    /// A tally for `line_bytes`-byte transactions that keeps each
    /// thread's accesses when `keep_log` is set.
    pub(crate) fn new(line_bytes: u64, keep_log: bool) -> Self {
        assert!(line_bytes > 0, "cache line size must be positive");
        WarpTally {
            line_bytes,
            line_shift: line_bytes
                .is_power_of_two()
                .then(|| line_bytes.trailing_zeros()),
            ordinals: Ordinals::default(),
            min_len: usize::MAX,
            summary: WarpSummary::default(),
            atomics: 0,
            log: keep_log.then(Vec::new),
        }
    }

    /// Empties the tally, forgetting a warp left unfinished (one whose
    /// lane failed partway).
    pub(crate) fn clear(&mut self) {
        self.ordinals.clear(|[loads, stores]| {
            loads.clear();
            stores.clear();
        });
        self.min_len = usize::MAX;
        self.summary = WarpSummary::default();
        self.atomics = 0;
        if let Some(log) = &mut self.log {
            log.clear();
        }
    }

    /// Counts the running lane's next access. This runs inside every
    /// kernel load and store, so only the common case stays inline: an
    /// ordinal some lane has opened, a line the previous lane touched.
    #[inline(always)]
    pub(crate) fn record(&mut self, addr: u64, bytes: u8, store: bool, atomic: bool) {
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.line_bytes,
        };
        let [loads, stores] = self.ordinals.next();
        let s = &mut self.summary;
        if store {
            stores.push(line);
            s.stores += 1;
            s.store_bytes += bytes as u64;
        } else {
            loads.push(line);
            s.loads += 1;
            s.load_bytes += bytes as u64;
        }
        self.atomics += atomic as u64;
        if let Some(log) = &mut self.log {
            push_cold(
                log,
                Access {
                    addr,
                    bytes,
                    store,
                    atomic,
                },
            );
        }
    }

    /// Closes the running lane.
    #[inline]
    pub(crate) fn end_lane(&mut self) {
        self.min_len = self.min_len.min(self.ordinals.next_lane());
    }

    /// Takes the running thread's access log (empty unless kept).
    pub(crate) fn take_log(&mut self) -> Vec<Access> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Atomic operations counted since the last [`WarpTally::finish`].
    pub(crate) fn atomics(&self) -> u64 {
        self.atomics
    }

    /// Bills each ordinal its distinct lines, returns the warp's summary
    /// and leaves the tally empty for the next warp.
    pub(crate) fn finish(&mut self) -> WarpSummary {
        let mut summary = self.summary;
        let in_use = self.ordinals.in_use();
        if !in_use.is_empty() {
            summary.active = true;
            // A lane shorter than the longest was masked off by a guard.
            summary.divergent |= self.min_len != in_use.len();
            for [loads, stores] in in_use {
                // Some lanes loading and others storing at one ordinal
                // took different paths.
                summary.divergent |= !loads.is_empty() && !stores.is_empty();
                summary.load_transactions += loads.distinct();
                summary.store_transactions += stores.distinct();
            }
        }
        self.clear();
        summary
    }
}

/// Per-instruction state of one warp. SIMT lanes run a kernel in
/// lockstep, so the n-th access of every lane is the warp's n-th
/// instruction, its *ordinal*. Lanes run one after another; the slots
/// are kept between warps, so a warp allocates only when it is longer
/// than any before it.
#[derive(Debug, Default)]
pub(crate) struct Ordinals<T> {
    slots: Vec<T>,
    /// Slots in use: the longest lane so far.
    used: usize,
    /// Accesses of the running lane.
    lane_len: usize,
}

impl<T: Default> Ordinals<T> {
    /// The slot of the running lane's next access.
    #[inline(always)]
    pub(crate) fn next(&mut self) -> &mut T {
        let ordinal = self.lane_len;
        self.lane_len += 1;
        if ordinal == self.used {
            self.open();
        }
        &mut self.slots[ordinal]
    }

    /// Puts the next slot in use, for the first lane to reach it.
    #[cold]
    #[inline(never)]
    fn open(&mut self) {
        if self.used == self.slots.len() {
            self.slots.push(T::default());
        }
        self.used += 1;
    }

    /// Closes the running lane and returns its number of accesses; the
    /// next access starts a lane at ordinal 0.
    #[inline]
    pub(crate) fn next_lane(&mut self) -> usize {
        std::mem::take(&mut self.lane_len)
    }

    /// The slots the warp has used so far.
    pub(crate) fn in_use(&mut self) -> &mut [T] {
        &mut self.slots[..self.used]
    }

    /// Applies `reset` to every slot in use and starts a new warp.
    pub(crate) fn clear(&mut self, reset: impl FnMut(&mut T)) {
        self.in_use().iter_mut().for_each(reset);
        self.used = 0;
        self.lane_len = 0;
    }
}

/// Appends an access to a race-detection log, out of the kernel's line.
#[cold]
#[inline(never)]
fn push_cold(log: &mut Vec<Access>, access: Access) {
    log.push(access);
}

/// The cache lines one access kind touched at one ordinal, with repeats
/// of the previous line dropped. Coalesced and broadcast groups arrive in
/// ascending runs, so they are counted without sorting.
#[derive(Debug, Default)]
struct Lines {
    runs: Vec<u64>,
    unsorted: bool,
}

impl Lines {
    fn clear(&mut self) {
        self.runs.clear();
        self.unsorted = false;
    }

    #[inline(always)]
    fn push(&mut self, line: u64) {
        if self.runs.last() != Some(&line) {
            self.push_new(line);
        }
    }

    /// A line other than the previous one: rarer, and kept out of line.
    #[inline(never)]
    fn push_new(&mut self, line: u64) {
        if self.runs.last().is_some_and(|&last| last > line) {
            self.unsorted = true;
        }
        self.runs.push(line);
    }

    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of distinct lines.
    fn distinct(&mut self) -> u64 {
        if self.unsorted {
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
/// oracle the per-access tally must match on arbitrary lane streams.
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

    /// Feeds `lanes` into `tally` one lane at a time, as the engines do.
    fn feed(tally: &mut WarpTally, lanes: &[Vec<Access>]) {
        for lane in lanes {
            for a in lane {
                tally.record(a.addr, a.bytes, a.store, a.atomic);
            }
            tally.end_lane();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn single_pass_matches_the_reference(
            first in warp(),
            second in warp(),
            line_bytes in line_bytes(),
        ) {
            prop_assert_eq!(
                analyze_warp(&first, line_bytes),
                reference_analyze_warp(&first, line_bytes)
            );
            // One tally serves both warps, as it serves every warp of a
            // host thread.
            let mut tally = WarpTally::new(line_bytes, false);
            for lanes in [&first, &second] {
                feed(&mut tally, lanes);
                prop_assert_eq!(tally.finish(), reference_analyze_warp(lanes, line_bytes));
            }
        }

        #[test]
        fn an_abandoned_warp_leaves_nothing_behind(
            first in warp(),
            cut in 0usize..64,
            second in warp(),
            line_bytes in line_bytes(),
        ) {
            // The first warp stops partway through lane `cut`, as when a
            // lane fails; the engine clears the tally before its next warp.
            let mut tally = WarpTally::new(line_bytes, true);
            let cut = cut.min(first.len());
            feed(&mut tally, &first[..cut]);
            if let Some(lane) = first.get(cut) {
                for a in &lane[..lane.len() / 2] {
                    tally.record(a.addr, a.bytes, a.store, a.atomic);
                }
            }
            tally.clear();
            prop_assert!(tally.take_log().is_empty());
            prop_assert_eq!(tally.atomics(), 0);
            feed(&mut tally, &second);
            prop_assert_eq!(tally.finish(), reference_analyze_warp(&second, line_bytes));
        }
    }
}
