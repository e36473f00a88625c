//! Phase-stepped cooperative kernels: `__syncthreads` and shared memory.
//!
//! Barrier semantics are realised by *phase stepping*: a cooperative
//! kernel is a sequence of phases, and the engine runs phase `p` for every
//! thread of a block before any thread enters phase `p + 1` — precisely
//! the guarantee `__syncthreads()` provides, realised deterministically
//! without one OS thread per GPU thread. Per-thread locals that must
//! survive a barrier live in the kernel's `State` type.
//!
//! Real GPUs make barrier divergence (some lanes skipping the barrier)
//! undefined behaviour; the engine turns it into
//! [`LaunchError::BarrierDivergence`].

use crate::buffer::DeviceCopy;
use crate::coalesce::Ordinals;
use crate::ctx::ThreadCtx;
use crate::driver::{drive_blocks, host_threads, WarpLanes};
use crate::launch::{Gpu, LaunchConfig, LaunchError, LaunchOptions};
use crate::stats::LaunchStats;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Block-local shared memory (`__shared__` / LDS).
///
/// A block's threads run serially within one host worker, so interior
/// mutability with `Cell` and `RefCell` is sound; accesses are counted
/// for the statistics. Each host worker keeps one `SharedMem` and resets
/// it for every block it runs.
pub struct SharedMem<T> {
    data: Vec<Cell<T>>,
    loads: Cell<u64>,
    stores: Cell<u64>,
    banks: RefCell<BankTally>,
}

/// Number of shared-memory banks (NVIDIA and CDNA both use 32).
pub const SMEM_BANKS: usize = 32;

impl<T: DeviceCopy> SharedMem<T> {
    fn new(len: usize, init: T) -> Self {
        SharedMem {
            data: vec![Cell::new(init); len],
            loads: Cell::new(0),
            stores: Cell::new(0),
            banks: RefCell::new(BankTally::default()),
        }
    }

    /// Returns the memory to its state at the start of a block, and
    /// forgets a warp left unfinished.
    fn reset(&mut self, init: T) {
        self.data.iter_mut().for_each(|x| *x.get_mut() = init);
        self.loads.set(0);
        self.stores.set(0);
        self.banks.get_mut().drain();
    }

    /// Starts the next lane's accesses at ordinal 0.
    fn begin_lane(&self) {
        self.banks.borrow_mut().ordinals.next_lane();
    }

    #[inline(always)]
    fn record(&self, idx: usize) {
        self.banks.borrow_mut().record(idx as u32);
    }

    /// Returns the warp's bank-conflict count and clears the tally: the
    /// number of *extra* serialised passes (degree − 1 summed over warp
    /// instructions), 0 when conflict-free.
    fn drain_conflicts(&mut self) -> u64 {
        self.banks.get_mut().drain()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no shared memory was requested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `idx`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[inline(always)]
    pub fn read(&self, idx: usize) -> T {
        self.loads.set(self.loads.get() + 1);
        self.record(idx);
        self.data[idx].get()
    }

    /// Writes element `idx`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[inline(always)]
    pub fn write(&self, idx: usize, value: T) {
        self.stores.set(self.stores.get() + 1);
        self.record(idx);
        self.data[idx].set(value);
    }
}

/// One warp's bank-conflict cost, counted as its lanes access shared
/// memory, the n-th access of every lane forming one instruction. A bank
/// replays once per *distinct address* it must serve; lanes reading the
/// same address are a free broadcast. An instruction's cost is its worst
/// bank's replay count minus one, which is the worst bank's count of
/// distinct indices beyond its first.
#[derive(Debug, Default)]
struct BankTally {
    ordinals: Ordinals<BankOrdinal>,
    /// Sum of every ordinal's cost so far.
    conflicts: u64,
}

/// The banks one shared-memory instruction of a warp has touched.
#[derive(Debug, Clone, Default)]
struct BankOrdinal {
    /// Banks in use.
    mask: u32,
    /// The first index each bank in use served.
    first: [u32; SMEM_BANKS],
    /// Further distinct indices, any bank.
    extras: Vec<u32>,
    /// The most extras any one bank holds: the instruction's cost.
    worst: u32,
}

impl BankTally {
    /// Counts the running lane's next access, of index `idx`.
    #[inline(always)]
    fn record(&mut self, idx: u32) {
        let o = self.ordinals.next();
        let bank = idx as usize % SMEM_BANKS;
        if o.mask & (1 << bank) == 0 {
            o.mask |= 1 << bank;
            o.first[bank] = idx;
        } else if o.first[bank] != idx {
            self.conflicts += o.add_extra(idx);
        }
    }

    /// Takes the cost counted so far and empties the tally.
    fn drain(&mut self) -> u64 {
        self.ordinals.clear(|o| {
            o.mask = 0;
            o.extras.clear();
            o.worst = 0;
        });
        std::mem::take(&mut self.conflicts)
    }
}

impl BankOrdinal {
    /// Adds `idx`, a second or later index in its bank, unless already
    /// seen; returns how much the instruction's cost grew (0 or 1).
    #[inline(never)]
    fn add_extra(&mut self, idx: u32) -> u64 {
        let bank = idx % SMEM_BANKS as u32;
        let mut in_bank = 1;
        for &e in &self.extras {
            if e == idx {
                return 0;
            }
            in_bank += (e % SMEM_BANKS as u32 == bank) as u32;
        }
        self.extras.push(idx);
        if in_bank > self.worst {
            self.worst = in_bank;
            1
        } else {
            0
        }
    }
}

/// A kernel whose execution is split into barrier-separated phases.
pub trait CooperativeKernel<T: DeviceCopy>: Sync {
    /// Per-thread state that survives barriers (registers/locals).
    type State: Default + Send;

    /// Runs one phase for one thread. Returning `true` requests another
    /// phase after the implicit barrier; all threads of a block must
    /// agree.
    fn phase(
        &self,
        phase: usize,
        ctx: &ThreadCtx,
        state: &mut Self::State,
        shared: &SharedMem<T>,
    ) -> bool;
}

impl Gpu {
    /// Launches a cooperative kernel with `smem_len` elements of
    /// shared memory per block, initialised to `smem_init` (real shared
    /// memory is uninitialised; deterministic initialisation is a
    /// simulator nicety).
    ///
    /// # Errors
    ///
    /// [`LaunchError::InvalidConfig`] for illegal shapes, shared-memory
    /// requests over the device limit, or `opts.detect_races` (plain
    /// launches only); [`LaunchError::BarrierDivergence`] when a block's
    /// threads disagree about continuing.
    ///
    /// # Panics
    ///
    /// Propagates the first kernel panic with its original message (e.g.
    /// the illegal-address fault), as [`Gpu::launch`] does.
    pub fn launch_cooperative<T, K>(
        &self,
        cfg: LaunchConfig,
        opts: LaunchOptions,
        smem_len: usize,
        smem_init: T,
        kernel: &K,
    ) -> Result<LaunchStats, LaunchError>
    where
        T: DeviceCopy,
        K: CooperativeKernel<T>,
    {
        cfg.validate(self.class())?;
        let smem_bytes = (smem_len * std::mem::size_of::<T>()) as u64;
        if smem_bytes > self.class().max_shared_mem_per_block() {
            return Err(LaunchError::InvalidConfig(format!(
                "{smem_bytes} bytes of shared memory exceed the {} byte limit",
                self.class().max_shared_mem_per_block()
            )));
        }

        if opts.detect_races {
            return Err(LaunchError::InvalidConfig(
                "race detection covers plain launches only; barriers order a cooperative \
                 kernel's accesses"
                    .into(),
            ));
        }

        let start = Instant::now();
        let class = self.class();
        let mut stats = drive_blocks(
            cfg,
            host_threads(opts.host_threads, cfg.grid.count()),
            class.transaction_bytes(),
            || {
                (
                    WarpLanes::new(class, cfg, false),
                    SharedMem::new(smem_len, smem_init),
                    Vec::new(),
                )
            },
            |(lanes, shared, states): &mut (WarpLanes, _, Vec<K::State>), block_idx, local| {
                shared.reset(smem_init);
                states.clear();
                states.resize_with(cfg.block.count() as usize, K::State::default);
                let mut phase = 0usize;
                loop {
                    let mut want_more = None;
                    for w in 0..lanes.warps_per_block() {
                        lanes.run_warp(w, block_idx, local, |lin, ctx| {
                            shared.begin_lane();
                            let more = kernel.phase(phase, ctx, &mut states[lin as usize], shared);
                            if *want_more.get_or_insert(more) != more {
                                return Err(LaunchError::BarrierDivergence {
                                    block: block_idx,
                                    phase,
                                });
                            }
                            Ok(())
                        })?;
                        local.bank_conflicts += shared.drain_conflicts();
                    }
                    phase += 1;
                    local.phases = local.phases.max(phase as u64);
                    if want_more != Some(true) {
                        break;
                    }
                }
                local.shared_loads += shared.loads.get();
                local.shared_stores += shared.stores.get();
                Ok(())
            },
        )?;
        stats.sim_time = start.elapsed();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;
    use crate::device::DeviceClass;

    /// A block-wide sum via shared memory: phase 0 loads one element per
    /// thread into shared memory; phase 1 has thread 0 reduce and store.
    struct BlockSum<'a> {
        input: &'a DeviceBuffer<f32>,
        output: &'a DeviceBuffer<f32>,
        n: usize,
    }

    impl CooperativeKernel<f32> for BlockSum<'_> {
        type State = ();

        fn phase(
            &self,
            phase: usize,
            ctx: &ThreadCtx,
            _state: &mut (),
            shared: &SharedMem<f32>,
        ) -> bool {
            let tid = ctx.linear_in_block() as usize;
            match phase {
                0 => {
                    let i = ctx.global_x();
                    let v = if i < self.n {
                        self.input.read(ctx, i)
                    } else {
                        0.0
                    };
                    shared.write(tid, v);
                    true
                }
                _ => {
                    if tid == 0 {
                        let mut acc = 0.0;
                        for s in 0..shared.len() {
                            acc += shared.read(s);
                            ctx.tally_flops(1);
                        }
                        self.output.write(ctx, ctx.block_idx.x as usize, acc);
                    }
                    false
                }
            }
        }
    }

    #[test]
    fn block_sum_reduces_correctly() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 1000usize;
        let host: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let expected: f32 = host.iter().sum();
        let input = gpu.alloc_from_slice(&host);
        let cfg = LaunchConfig::cover1d(n as u32, 128);
        let output = gpu.alloc_filled(cfg.grid.count() as usize, 0.0f32);
        let kernel = BlockSum {
            input: &input,
            output: &output,
            n,
        };
        let stats = gpu
            .launch_cooperative(cfg, LaunchOptions::default(), 128, 0.0f32, &kernel)
            .unwrap();
        let total: f32 = output.to_host().iter().sum();
        assert_eq!(total, expected);
        assert_eq!(stats.phases, 2);
        assert_eq!(stats.shared_stores, cfg.total_threads());
        assert_eq!(stats.shared_loads, 128 * cfg.grid.count());
        assert_eq!(stats.threads, cfg.total_threads());
    }

    /// A kernel that keeps per-thread state across barriers.
    struct Accumulate {
        rounds: usize,
    }

    impl CooperativeKernel<f32> for Accumulate {
        type State = f32;

        fn phase(
            &self,
            phase: usize,
            _ctx: &ThreadCtx,
            state: &mut f32,
            _shared: &SharedMem<f32>,
        ) -> bool {
            *state += 1.0;
            assert_eq!(*state, (phase + 1) as f32, "state must persist");
            phase + 1 < self.rounds
        }
    }

    #[test]
    fn state_persists_across_phases() {
        let gpu = Gpu::new(DeviceClass::AmdLike);
        let cfg = LaunchConfig::cover1d(256, 64);
        let stats = gpu
            .launch_cooperative(
                cfg,
                LaunchOptions::default(),
                0,
                0.0f32,
                &Accumulate { rounds: 5 },
            )
            .unwrap();
        assert_eq!(stats.phases, 5);
    }

    /// Threads disagree about continuing: barrier divergence.
    struct Diverge;

    impl CooperativeKernel<f32> for Diverge {
        type State = ();

        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem<f32>) -> bool {
            ctx.linear_in_block() == 0
        }
    }

    #[test]
    fn barrier_divergence_is_reported() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(64, 64);
        let err = gpu
            .launch_cooperative(cfg, LaunchOptions::default(), 0, 0.0f32, &Diverge)
            .unwrap_err();
        assert!(matches!(
            err,
            LaunchError::BarrierDivergence { phase: 0, .. }
        ));
    }

    #[test]
    fn oversized_shared_memory_rejected() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(64, 64);
        let err = gpu
            .launch_cooperative(
                cfg,
                LaunchOptions::default(),
                100_000,
                0.0f32,
                &Accumulate { rounds: 1 },
            )
            .unwrap_err();
        assert!(matches!(err, LaunchError::InvalidConfig(_)));
    }

    /// Reads one element past the end of its input in the second phase.
    struct OutOfBounds<'a> {
        input: &'a DeviceBuffer<f32>,
    }

    impl CooperativeKernel<f32> for OutOfBounds<'_> {
        type State = ();

        fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem<f32>) -> bool {
            if phase == 1 {
                // No bounds guard: the last thread of the grid faults.
                self.input.read(ctx, ctx.global_x() + 1);
            }
            phase == 0
        }
    }

    #[test]
    #[should_panic(expected = "illegal device address")]
    fn out_of_bounds_access_faults_cooperatively() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let input = gpu.alloc_filled(256, 0.0f32);
        let cfg = LaunchConfig::cover1d(256, 64);
        let opts = LaunchOptions {
            host_threads: 3,
            ..Default::default()
        };
        let _ = gpu.launch_cooperative(cfg, opts, 0, 0.0f32, &OutOfBounds { input: &input });
    }

    /// Every thread writes slot 0 of the output: racy in any launch.
    struct RacyWrite<'a> {
        output: &'a DeviceBuffer<u32>,
    }

    impl CooperativeKernel<u32> for RacyWrite<'_> {
        type State = ();

        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem<u32>) -> bool {
            self.output.write(ctx, 0, ctx.global_x() as u32);
            false
        }
    }

    #[test]
    fn race_detection_is_refused_not_ignored() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let output = gpu.alloc_filled(1, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let kernel = RacyWrite { output: &output };
        let opts = LaunchOptions {
            detect_races: true,
            ..Default::default()
        };
        let err = gpu
            .launch_cooperative(cfg, opts, 0, 0u32, &kernel)
            .unwrap_err();
        match err {
            LaunchError::InvalidConfig(msg) => {
                assert!(
                    msg.starts_with("race detection covers plain launches only"),
                    "{msg}"
                )
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Without the detector the same launch runs.
        gpu.launch_cooperative(cfg, LaunchOptions::default(), 0, 0u32, &kernel)
            .unwrap();
    }
}

#[cfg(test)]
mod bank_conflict_tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::launch::{Gpu, LaunchConfig, LaunchOptions};

    /// Each lane touches shared slot `lane * stride`.
    struct StridedSmem {
        stride: usize,
    }

    impl CooperativeKernel<f32> for StridedSmem {
        type State = ();

        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), shared: &SharedMem<f32>) -> bool {
            let lane = (ctx.linear_in_block() as usize % 32) * self.stride;
            shared.write(lane % shared.len(), 1.0);
            false
        }
    }

    fn conflicts_for(stride: usize) -> u64 {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(32, 32);
        let stats = gpu
            .launch_cooperative(
                cfg,
                LaunchOptions::default(),
                1024,
                0.0f32,
                &StridedSmem { stride },
            )
            .unwrap();
        stats.bank_conflicts
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(conflicts_for(1), 0);
    }

    #[test]
    fn stride_two_halves_the_banks() {
        // 32 lanes over 16 banks: every bank double-booked -> one extra
        // pass charged for the worst bank.
        assert!(conflicts_for(2) >= 1);
    }

    #[test]
    fn stride_32_serialises_the_warp() {
        // All lanes hit bank 0 with distinct addresses: worst case,
        // 31 extra passes.
        assert_eq!(conflicts_for(32), 31);
    }

    #[test]
    fn odd_strides_stay_conflict_free() {
        // Classic padding trick: odd strides permute the banks.
        assert_eq!(conflicts_for(33), 0);
        assert_eq!(conflicts_for(17), 0);
    }

    #[test]
    fn tiled_gemm_pattern_reports_no_conflicts_in_stats_merge() {
        // The tiled GEMM's row-major shared tiles use unit-stride lane
        // access; merged stats must carry the (zero) counter through.
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(64, 64);
        let stats = gpu
            .launch_cooperative(
                cfg,
                LaunchOptions::default(),
                64,
                0.0f32,
                &StridedSmem { stride: 1 },
            )
            .unwrap();
        assert_eq!(stats.bank_conflicts, 0);
        assert!(stats.shared_stores > 0);
    }
}

/// The bank-conflict count before its allocation-free rewrite, kept as
/// the oracle the per-access tally must match. The body is the old
/// `SharedMem::drain_conflicts` verbatim, taking the lane streams as an
/// argument instead of borrowing them from `self`.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;

    fn reference_drain_conflicts(streams: &mut [Vec<u32>]) -> u64 {
        let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut conflicts = 0u64;
        let mut per_bank: [Vec<u32>; SMEM_BANKS] = std::array::from_fn(|_| Vec::new());
        for ordinal in 0..max_len {
            for bank in per_bank.iter_mut() {
                bank.clear();
            }
            for stream in streams.iter() {
                if let Some(&idx) = stream.get(ordinal) {
                    per_bank[idx as usize % SMEM_BANKS].push(idx);
                }
            }
            // A bank replays once per *distinct address* it must serve;
            // lanes reading the same address are a free broadcast. The
            // instruction's cost is the worst bank's replay count.
            let worst = per_bank
                .iter_mut()
                .map(|bank| {
                    bank.sort_unstable();
                    bank.dedup();
                    bank.len() as u64
                })
                .max()
                .unwrap_or(0);
            conflicts += worst.saturating_sub(1);
        }
        for stream in streams.iter_mut() {
            stream.clear();
        }
        conflicts
    }

    /// Shared indices that often collide on a bank: `bank + 32 * row` for
    /// a few banks and rows, or else arbitrary indices.
    fn index() -> impl Strategy<Value = u32> {
        (proptest::bool::ANY, 0u32..4, 0u32..8, 0u32..2048).prop_map(
            |(colliding, bank, row, any)| {
                if colliding {
                    bank + 32 * row
                } else {
                    any
                }
            },
        )
    }

    /// One stream per lane of a 32- or 64-wide warp, ragged, some empty.
    fn streams() -> impl Strategy<Value = Vec<Vec<u32>>> {
        (
            proptest::bool::ANY,
            proptest::collection::vec(proptest::collection::vec(index(), 0..8), 64usize),
        )
            .prop_map(|(wide, mut streams)| {
                streams.truncate(if wide { 64 } else { 32 });
                streams
            })
    }

    /// Runs `streams` through `shared` one lane at a time, as the
    /// cooperative engine does.
    fn feed(shared: &SharedMem<f32>, streams: &[Vec<u32>]) {
        for stream in streams {
            shared.begin_lane();
            for &idx in stream {
                shared.read(idx as usize);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn slot_count_matches_the_reference(first in streams(), second in streams()) {
            // One shared memory serves both warps, as it serves every
            // warp of a host thread.
            let mut shared = SharedMem::new(2048, 0.0f32);
            for mut streams in [first, second] {
                feed(&shared, &streams);
                let got = shared.drain_conflicts();
                prop_assert_eq!(got, reference_drain_conflicts(&mut streams));
            }
        }

        #[test]
        fn an_abandoned_warp_leaves_nothing_behind(
            first in streams(),
            cut in 0usize..64,
            mut second in streams(),
        ) {
            // The first warp stops partway through lane `cut`, as when a
            // lane reports barrier divergence; the next block resets the
            // memory before its first warp.
            let mut shared = SharedMem::new(2048, 0.0f32);
            let cut = cut.min(first.len());
            feed(&shared, &first[..cut]);
            if let Some(stream) = first.get(cut) {
                feed(&shared, &[stream[..stream.len() / 2].to_vec()]);
            }
            shared.reset(0.0);
            feed(&shared, &second);
            let got = shared.drain_conflicts();
            prop_assert_eq!(got, reference_drain_conflicts(&mut second));
        }
    }
}
