//! The measured vendor-BLAS stand-in: a packed, register-tiled,
//! cache-blocked GEMM.
//!
//! The paper's Table III divides each portable model's throughput by a
//! *vendor* library curve. The naive kernels in [`crate::serial`] and
//! [`crate::variants`] deliberately stop at loop ordering, so dividing by
//! them is naive-vs-naive. This module provides the honest denominator:
//! the standard BLAS decomposition (Goto/BLIS; see also "Flexible
//! Performant GEMM Kernels on GPUs", arXiv:2009.12263) of `C += A·B`
//! into
//!
//! 1. **Packing** — `Mc×Kc` blocks of `A` and `Kc×Nc` panels of `B` are
//!    copied once into contiguous, 64-byte-aligned buffers laid out in
//!    micropanel order, so the inner loop streams unit-stride regardless
//!    of the source [`Layout`] and never suffers a TLB/conflict miss;
//! 2. **Register tiling** — an `MR×NR` accumulator tile lives entirely
//!    in registers across the `Kc` contraction ([`TileShape`]); the
//!    microkernel is written so LLVM autovectorizes it (const-generic
//!    tile extents, unit-stride panel reads, no `fma` libcall);
//! 3. **Cache blocking** — `Kc` sizes the `B` micropanel to half of L1d,
//!    `Mc×Kc` sizes the `A` block to half of L2, and `Kc×Nc` sizes the
//!    `B` panel to an L3 share ([`BlockSizes::for_cache`], fed from
//!    [`CacheInfo`]);
//! 4. **One block, no packing** — a row range of `C` whose row-major
//!    operands already fit those budgets (one `Mc` block, one `(jc, p0)`
//!    panel, `A` rows plus `B` plus `C` rows in half of L2, and each
//!    `k × NR` strip of `B` in half of L1d) skips step 1: the verdict's
//!    *direct* microkernel reads `A` and `B` where they lie, clamping rows
//!    and masking columns at the edges (`simd::select_direct`). It runs
//!    the packed kernel's FMA chain per element of `C` and accumulates
//!    through the same path, so the result is bit for bit the packed one
//!    and the choice needs no switch. Small GEMMs, such as a serving
//!    batch's, pay no packing at all; `F16` operands are widened once,
//!    unpadded. Under `portable` and NEON, which have no direct kernel,
//!    every problem packs.
//!
//! Parallelisation follows the paper's CPU strategy: macro-row-blocks of
//! `C` are the work-sharing index space on the existing [`ThreadPool`],
//! and every worker packs into a thread-local [`PackArena`] that is
//! reused across calls, so sweep loops do not reallocate per size point.
//!
//! The microkernel itself is dispatched **once per process** through
//! [`crate::simd`]: explicit AVX2+FMA / AVX-512 / NEON register tiles
//! when the CPU supports them (`PERFPORT_SIMD` overrides for A/B runs),
//! the autovectorized const-generic tile otherwise. See the `simd`
//! module docs for the dispatch contract and the FMA-contraction caveat.
//!
//! The result is generic over [`Scalar`]; `f32`/`f64` get their fast
//! paths through monomorphisation (the accumulator tile and panel loads
//! vectorise per element width), while [`F16`] packs *widened*: the pack
//! routines convert `f16 → f32` once per panel and the contraction runs
//! the native `f32` microkernel, so the O(n³) inner loop never executes a
//! half-precision operation (each `C` element is re-rounded to `f16` once
//! per `Kc` panel). The conversions follow the same ISA verdict as the
//! microkernel ([`simd::select_half`]): AVX-512F or F16C instructions
//! where the CPU has them, `perfport-half`'s software routines otherwise,
//! with identical bits either way. Accumulation order per element of `C`
//! is a fixed function of the `Kc` blocking alone, so serial and parallel
//! execution are bit-identical per dispatched kernel.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use crate::simd::{self, HalfConv, Isa};
use perfport_half::F16;
use perfport_pool::{CacheInfo, DisjointSlice, RegionStats, Schedule, ThreadPool};
use perfport_telemetry::{Counter, Histogram};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Register-tile extents of the microkernel: `MR` rows × `NR` columns of
/// `C` accumulated in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Accumulator rows.
    pub mr: usize,
    /// Accumulator columns.
    pub nr: usize,
}

impl TileShape {
    /// The shapes the ablation sweeps (every combination the dispatch
    /// supports).
    pub const ALL: [TileShape; 5] = [
        TileShape { mr: 4, nr: 4 },
        TileShape { mr: 8, nr: 4 },
        TileShape { mr: 4, nr: 8 },
        TileShape { mr: 8, nr: 8 },
        TileShape { mr: 8, nr: 16 },
    ];

    /// Default tile for an element width: wide elements get the small
    /// square tile (the accumulator must fit the 16 SIMD registers of a
    /// baseline x86-64 target), narrow elements can afford a wider tile.
    pub fn default_for(elem_bytes: usize) -> TileShape {
        if elem_bytes >= 8 {
            TileShape { mr: 4, nr: 4 }
        } else {
            TileShape { mr: 4, nr: 8 }
        }
    }

    /// Default tile for an element width under a dispatched ISA.
    ///
    /// The portable fallback keeps the conservative [`default_for`]
    /// choice (the autovectorized accumulator must fit a baseline
    /// x86-64's 16 xmm registers). Native kernels hold one accumulator
    /// row in `NR·BYTES/width` registers, so they afford taller tiles:
    /// 256-bit ISAs (AVX2, and NEON with four 128-bit accumulators per
    /// row) take `8×4` for 8-byte elements and `8×8` for narrower ones.
    /// AVX-512 takes `8×16` for every width: an `f32` row is one zmm
    /// register and an `f64` row two. An `f64` `p` step then issues ten
    /// loads (two `B` vectors, eight `A` broadcasts) for 16 FMAs, where
    /// `8×8` issued nine for eight and was bound by the load ports.
    ///
    /// [`default_for`]: TileShape::default_for
    pub fn for_isa(isa: Isa, elem_bytes: usize) -> TileShape {
        match isa {
            Isa::Portable => Self::default_for(elem_bytes),
            Isa::Avx2 | Isa::Neon => {
                if elem_bytes >= 8 {
                    TileShape { mr: 8, nr: 4 }
                } else {
                    TileShape { mr: 8, nr: 8 }
                }
            }
            Isa::Avx512 => TileShape { mr: 8, nr: 16 },
        }
    }

    /// `"4x8"`-style identifier used in ablation tables.
    pub fn name(&self) -> String {
        format!("{}x{}", self.mr, self.nr)
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.mr, self.nr)
    }
}

/// Cache-blocking extents: the loop structure is
/// `jc (Nc) → p (Kc) → ic (Mc) → jr (NR) → ir (MR)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Rows of `A` packed per L2-resident block.
    pub mc: usize,
    /// Contraction depth per packed panel (L1-resident `B` micropanel).
    pub kc: usize,
    /// Columns of `B` packed per L3-resident panel.
    pub nc: usize,
}

impl BlockSizes {
    /// Sizes the blocks from cache capacities for `elem_bytes`-wide
    /// elements and `tile`:
    ///
    /// * `kc` so the `Kc×NR` `B` micropanel fills about half of L1d,
    /// * `mc` so the `Mc×Kc` packed `A` block fills about half of L2,
    /// * `nc` so the `Kc×Nc` packed `B` panel fills an eighth of the
    ///   shared L3 (its nominal per-thread share on a server core).
    pub fn for_cache(cache: CacheInfo, tile: TileShape, elem_bytes: usize) -> Self {
        let kc = (cache.l1d_bytes / 2 / (tile.nr * elem_bytes)).clamp(64, 512) & !3;
        let mc_raw = (cache.l2_bytes / 2 / (kc * elem_bytes)).clamp(tile.mr, 1024);
        let mc = mc_raw / tile.mr * tile.mr;
        let nc_raw = (cache.l3_bytes / 8 / (kc * elem_bytes)).clamp(tile.nr, 4096);
        let nc = nc_raw / tile.nr * tile.nr;
        BlockSizes { mc, kc, nc }
    }
}

/// A full tuned-kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedParams {
    /// Microkernel register tile.
    pub tile: TileShape,
    /// Cache-blocking extents derived from the cache description.
    pub blocks: BlockSizes,
}

impl TunedParams {
    /// Parameters for `T` on caches `cache` with the portable default
    /// tile. Blocks are sized by [`Scalar::PACK_BYTES`] — the width of
    /// the elements that actually occupy the packed panels (`f32` for
    /// the widened `F16` path).
    pub fn for_cache<T: Scalar>(cache: CacheInfo) -> Self {
        Self::for_cache_isa::<T>(cache, Isa::Portable)
    }

    /// Parameters for `T` on caches `cache` with the tile the dispatched
    /// `isa`'s microkernel prefers ([`TileShape::for_isa`]).
    pub fn for_cache_isa<T: Scalar>(cache: CacheInfo, isa: Isa) -> Self {
        Self::with_tile(cache, TileShape::for_isa(isa, T::PACK_BYTES), T::PACK_BYTES)
    }

    /// Parameters for an explicit tile shape (ablation entry point).
    pub fn with_tile(cache: CacheInfo, tile: TileShape, elem_bytes: usize) -> Self {
        TunedParams {
            tile,
            blocks: BlockSizes::for_cache(cache, tile, elem_bytes),
        }
    }

    /// Parameters for `T` on the build host's detected caches and the
    /// process-wide dispatched ISA ([`simd::active`]).
    pub fn host<T: Scalar>() -> Self {
        Self::for_cache_isa::<T>(CacheInfo::host(), simd::active())
    }
}

// ------------------------------------------------------------ arena --

/// Alignment of packing buffers: one x86 cache line / typical maximal
/// SIMD register width.
const PACK_ALIGN: usize = 64;

/// A 64-byte-aligned, grow-only buffer of scalars.
///
/// Capacity only ever grows, so a sweep loop reusing one buffer across
/// size points allocates O(log sizes) times, not once per GEMM. Freshly
/// grown memory is zero-initialised (scalars are valid all-zeroes), and
/// the packing routines overwrite every element they later read.
struct AlignedBuf<T> {
    ptr: *mut T,
    cap: usize,
}

// SAFETY: the buffer exclusively owns its allocation; scalars are
// plain-old-data, so moving the handle across threads is fine.
unsafe impl<T: Send> Send for AlignedBuf<T> {}

impl<T: Scalar> AlignedBuf<T> {
    fn new() -> Self {
        AlignedBuf {
            ptr: std::ptr::null_mut(),
            cap: 0,
        }
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(cap * std::mem::size_of::<T>(), PACK_ALIGN)
            .expect("packing buffer layout")
    }

    /// Grows capacity to at least `len` and returns the first `len`
    /// elements as a mutable slice.
    fn slice_for(&mut self, len: usize) -> &mut [T] {
        if len > self.cap {
            let new_cap = len.next_power_of_two();
            // SAFETY: layout has non-zero size (len > cap >= 0 and
            // scalars are non-zero-sized); old pointer/capacity came
            // from the same allocator.
            unsafe {
                if self.cap > 0 {
                    std::alloc::dealloc(self.ptr as *mut u8, Self::layout(self.cap));
                }
                let raw = std::alloc::alloc_zeroed(Self::layout(new_cap));
                if raw.is_null() {
                    std::alloc::handle_alloc_error(Self::layout(new_cap));
                }
                self.ptr = raw as *mut T;
            }
            self.cap = new_cap;
        }
        if len == 0 {
            return &mut [];
        }
        // SAFETY: `ptr` covers `cap >= len` zero-initialised (hence
        // valid) scalars and is exclusively owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, len) }
    }

    /// The first `len` elements, read-only. `len` must not exceed the
    /// capacity a prior [`AlignedBuf::slice_for`] established.
    fn as_slice(&self, len: usize) -> &[T] {
        assert!(len <= self.cap, "reading past the packed region");
        if len == 0 {
            return &[];
        }
        // SAFETY: `ptr` covers `cap >= len` valid scalars.
        unsafe { std::slice::from_raw_parts(self.ptr, len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated in `slice_for` with this exact layout.
            unsafe {
                let layout = std::alloc::Layout::from_size_align_unchecked(
                    self.cap * std::mem::size_of::<T>(),
                    PACK_ALIGN,
                );
                std::alloc::dealloc(self.ptr as *mut u8, layout);
            }
        }
    }
}

/// Reusable packing buffers for one worker thread.
///
/// Holding one of these across a sweep (or using the implicit
/// thread-local arena via [`gemm`]/the `Vendor` variant) means the hot
/// loop never calls the allocator after warm-up.
pub struct PackArena<T> {
    a: AlignedBuf<T>,
    b: AlignedBuf<T>,
    // Widened panels for the F16 path: packs convert f16 → f32 so the
    // contraction runs the native f32 microkernel. Empty for other T.
    aw: AlignedBuf<f32>,
    bw: AlignedBuf<f32>,
}

impl<T: Scalar> PackArena<T> {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        PackArena {
            a: AlignedBuf::new(),
            b: AlignedBuf::new(),
            aw: AlignedBuf::new(),
            bw: AlignedBuf::new(),
        }
    }

    /// Typed access to the widened `f32` packing buffers (`A`, `B`).
    ///
    /// The `F16` path packs into these — they exist on every arena
    /// regardless of `T`, so the dispatcher never has to reinterpret a
    /// `PackArena<T>` as a `PackArena<F16>`; an arena checked out for one
    /// scalar type can therefore never alias buffers of another.
    fn widened(&mut self) -> (&mut AlignedBuf<f32>, &mut AlignedBuf<f32>) {
        (&mut self.aw, &mut self.bw)
    }
}

impl<T: Scalar> Default for PackArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread arenas keyed by scalar type, reused across every tuned
    /// GEMM this thread ever runs (pool workers are persistent, so a
    /// size sweep packs into the same two buffers throughout).
    static THREAD_ARENAS: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Runs `f` with this thread's reusable arena for `T`.
pub fn with_thread_arena<T: Scalar, R>(f: impl FnOnce(&mut PackArena<T>) -> R) -> R {
    THREAD_ARENAS.with(|map| {
        let mut map = map.borrow_mut();
        let entry = map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(PackArena::<T>::new()));
        f(entry
            .downcast_mut::<PackArena<T>>()
            .expect("arena type keyed by TypeId"))
    })
}

// ---------------------------------------------------------- counters --

static INVOCATIONS: Counter = Counter::new("gemm/invocations");
static PACK_A_BYTES: Counter = Counter::new("gemm/pack_a_bytes");
static PACK_B_BYTES: Counter = Counter::new("gemm/pack_b_bytes");
static MICROKERNEL_CALLS: Counter = Counter::new("gemm/microkernel_calls");
static PACK_NS: Histogram = Histogram::new("gemm/pack_ns");
static COMPUTE_NS: Histogram = Histogram::new("gemm/compute_ns");

/// Instrumentation of one tuned-GEMM invocation, recorded into
/// telemetry by the public entry points (and carried on the
/// `gemm:tuned` trace span by [`gemm`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunedStats {
    /// Bytes copied into packed `A` blocks. A direct (unpacked) row
    /// range copies none, except `F16`'s once-widened `A` rows.
    pub pack_a_bytes: u64,
    /// Bytes copied into packed `B` panels; likewise none on the direct
    /// path but `F16`'s once-widened `B`.
    pub pack_b_bytes: u64,
    /// Microkernel invocations (full `MR×NR` tiles, edges included),
    /// packed and direct alike.
    pub microkernel_calls: u64,
}

impl TunedStats {
    fn emit(&self) {
        INVOCATIONS.add(1);
        PACK_A_BYTES.add(self.pack_a_bytes);
        PACK_B_BYTES.add(self.pack_b_bytes);
        MICROKERNEL_CALLS.add(self.microkernel_calls);
    }
}

// ----------------------------------------------------------- packing --

/// Row/column strides of a matrix's storage under its layout.
#[inline]
fn strides<T: Scalar>(m: &Matrix<T>) -> (usize, usize) {
    match m.layout() {
        Layout::RowMajor => (m.cols(), 1),
        Layout::ColMajor => (1, m.rows()),
    }
}

/// Packs the `A` block `rows i0..i0+mb × k p0..p0+kb` into `MR`-row
/// micropanels: micropanel `ir` stores element `(i0 + ir*MR + r, p0 + p)`
/// at `ir*kb*MR + p*MR + r`, zero-padding rows past the block edge so
/// the microkernel never needs a row bound check.
fn pack_a<T: Scalar>(
    a: &Matrix<T>,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    mr: usize,
    buf: &mut AlignedBuf<T>,
) -> u64 {
    let panels = mb.div_ceil(mr);
    let dst = buf.slice_for(panels * kb * mr);
    let (rs, cs) = strides(a);
    let ad = a.as_slice();
    let mut off = 0;
    for ir in 0..panels {
        let base_row = i0 + ir * mr;
        let live = mr.min(i0 + mb - base_row);
        for p in 0..kb {
            let col_off = (p0 + p) * cs;
            for r in 0..live {
                dst[off + r] = ad[(base_row + r) * rs + col_off];
            }
            for r in live..mr {
                dst[off + r] = T::zero();
            }
            off += mr;
        }
    }
    (panels * kb * mr * std::mem::size_of::<T>()) as u64
}

/// Packs the `B` panel `k p0..p0+kb × cols j0..j0+nb` into `NR`-column
/// micropanels: micropanel `jr` stores element `(p0 + p, j0 + jr*NR + c)`
/// at `jr*kb*NR + p*NR + c`, zero-padded past the panel edge.
fn pack_b<T: Scalar>(
    b: &Matrix<T>,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    nr: usize,
    buf: &mut AlignedBuf<T>,
) -> u64 {
    let panels = nb.div_ceil(nr);
    let dst = buf.slice_for(panels * kb * nr);
    let (rs, cs) = strides(b);
    let bd = b.as_slice();
    let mut off = 0;
    for jr in 0..panels {
        let base_col = j0 + jr * nr;
        let live = nr.min(j0 + nb - base_col);
        for p in 0..kb {
            let row_off = (p0 + p) * rs;
            for c in 0..live {
                dst[off + c] = bd[row_off + (base_col + c) * cs];
            }
            for c in live..nr {
                dst[off + c] = T::zero();
            }
            off += nr;
        }
    }
    (panels * kb * nr * std::mem::size_of::<T>()) as u64
}

/// Packs `count` lines of a half-precision matrix, starting at line `l0`,
/// into `w`-wide widened micropanels: line `l0 + ip*w + l` at depth
/// `p0 + p` — source element `line * line_stride + depth * k_stride` —
/// lands at `ip*kb*w + p*w + l` as its exact `f32` value, zero-padded past
/// the last line. Lines are the rows of an `A` block ([`pack_a`]) or the
/// columns of a `B` panel ([`pack_b`]). Every conversion goes through
/// `widen` on a contiguous run: across lines when they are adjacent,
/// otherwise along each line's depth run, interleaved into the panel.
/// Reported bytes are the widened bytes written.
#[allow(clippy::too_many_arguments)]
fn pack_widened(
    src: &[F16],
    (line_stride, k_stride): (usize, usize),
    l0: usize,
    count: usize,
    p0: usize,
    kb: usize,
    w: usize,
    buf: &mut AlignedBuf<f32>,
    widen: fn(&[F16], &mut [f32]),
) -> u64 {
    /// Depth steps widened per call on the interleaving branch.
    const RUN: usize = 64;
    let panels = count.div_ceil(w);
    let dst = buf.slice_for(panels * kb * w);
    for ip in 0..panels {
        let base = l0 + ip * w;
        let live = w.min(l0 + count - base);
        let panel = &mut dst[ip * kb * w..(ip + 1) * kb * w];
        if line_stride == 1 {
            for (p, group) in panel.chunks_exact_mut(w).enumerate() {
                let s = base + (p0 + p) * k_stride;
                widen(&src[s..s + live], &mut group[..live]);
                group[live..].fill(0.0);
            }
        } else {
            debug_assert_eq!(k_stride, 1, "one of the two strides is 1");
            let mut run = [0.0f32; RUN];
            for l in 0..w {
                if l >= live {
                    panel.iter_mut().skip(l).step_by(w).for_each(|x| *x = 0.0);
                    continue;
                }
                let s = (base + l) * line_stride + p0;
                for (q, part) in src[s..s + kb].chunks(RUN).enumerate() {
                    let run = &mut run[..part.len()];
                    widen(part, run);
                    for (x, &v) in panel[q * RUN * w + l..]
                        .iter_mut()
                        .step_by(w)
                        .zip(run.iter())
                    {
                        *x = v;
                    }
                }
            }
        }
    }
    (panels * kb * w * std::mem::size_of::<f32>()) as u64
}

// ------------------------------------------------------------- driver --

/// The scalar-flavour hooks of the blocked loop nest: how `A`/`B` panels
/// are packed (possibly widened), how accumulator values land in `C`,
/// and which arena buffers the packs use. The loop nest itself is
/// written exactly once ([`run_blocked`], [`compute_block`]) and
/// parameterized over an implementation. Every hook receives the
/// half-precision conversions [`run_blocked`] selected for its verdict:
///
/// * [`PlainOps`] — `f64`/`f32` (and any hardware float): packs copy,
///   the accumulator adds in place, and the conversions go unused.
/// * [`WidenedF16Ops`] — the `F16` path: packs convert `f16 → f32`, the
///   contraction runs the native `f32` microkernel, and each `C` element
///   is re-rounded to `f16` once per `Kc` panel. One rounding per panel
///   (instead of one per multiply-accumulate) makes this path *more*
///   accurate than the naive software-half kernels, and the rounding
///   points are a fixed function of the `Kc` blocking, so serial ≡
///   parallel still holds bitwise per dispatched kernel.
trait PackOps {
    /// Element type of `A`, `B`, and `C`.
    type Src: Scalar;
    /// Element type inside packed panels and the microkernel.
    type Pack: Scalar;

    /// Packs one `A` block (see [`pack_a`]); returns bytes copied.
    #[allow(clippy::too_many_arguments)]
    fn pack_a(
        a: &Matrix<Self::Src>,
        i0: usize,
        mb: usize,
        p0: usize,
        kb: usize,
        mr: usize,
        buf: &mut AlignedBuf<Self::Pack>,
        half: HalfConv,
    ) -> u64;

    /// Packs one `B` panel (see [`pack_b`]); returns bytes copied.
    #[allow(clippy::too_many_arguments)]
    fn pack_b(
        b: &Matrix<Self::Src>,
        p0: usize,
        kb: usize,
        j0: usize,
        nb: usize,
        nr: usize,
        buf: &mut AlignedBuf<Self::Pack>,
        half: HalfConv,
    ) -> u64;

    /// The operands a direct tile reads ([`run_direct`]): rows `rows` of
    /// the row-major `A` and all of the row-major `B`, as `Pack` elements
    /// at their source strides (`k` and `n`), with the bytes written to
    /// provide them. Nothing is padded or reordered.
    fn direct_operands<'s>(
        a: &'s Matrix<Self::Src>,
        b: &'s Matrix<Self::Src>,
        rows: Range<usize>,
        a_buf: &'s mut AlignedBuf<Self::Pack>,
        b_buf: &'s mut AlignedBuf<Self::Pack>,
        half: HalfConv,
    ) -> (&'s [Self::Pack], &'s [Self::Pack], TunedStats);

    /// Accumulates microkernel outputs `v` into the equally long run `c`
    /// of `C`.
    fn accumulate(half: HalfConv, c: &mut [Self::Src], v: &[Self::Pack]);

    /// The arena buffers (`A`, `B`) this flavour packs into.
    fn bufs(
        arena: &mut PackArena<Self::Src>,
    ) -> (&mut AlignedBuf<Self::Pack>, &mut AlignedBuf<Self::Pack>);
}

/// [`PackOps`] for scalars whose packed panels hold the scalar itself.
struct PlainOps<T>(std::marker::PhantomData<T>);

impl<T: Scalar> PackOps for PlainOps<T> {
    type Src = T;
    type Pack = T;

    fn pack_a(
        a: &Matrix<T>,
        i0: usize,
        mb: usize,
        p0: usize,
        kb: usize,
        mr: usize,
        buf: &mut AlignedBuf<T>,
        _: HalfConv,
    ) -> u64 {
        pack_a(a, i0, mb, p0, kb, mr, buf)
    }

    fn pack_b(
        b: &Matrix<T>,
        p0: usize,
        kb: usize,
        j0: usize,
        nb: usize,
        nr: usize,
        buf: &mut AlignedBuf<T>,
        _: HalfConv,
    ) -> u64 {
        pack_b(b, p0, kb, j0, nb, nr, buf)
    }

    /// The operands themselves: nothing is copied.
    fn direct_operands<'s>(
        a: &'s Matrix<T>,
        b: &'s Matrix<T>,
        rows: Range<usize>,
        _: &'s mut AlignedBuf<T>,
        _: &'s mut AlignedBuf<T>,
        _: HalfConv,
    ) -> (&'s [T], &'s [T], TunedStats) {
        let k = a.cols();
        let ap = &a.as_slice()[rows.start * k..rows.end * k];
        (ap, b.as_slice(), TunedStats::default())
    }

    #[inline(always)]
    fn accumulate(_: HalfConv, c: &mut [T], v: &[T]) {
        for (c, &v) in c.iter_mut().zip(v) {
            *c += v;
        }
    }

    fn bufs(arena: &mut PackArena<T>) -> (&mut AlignedBuf<T>, &mut AlignedBuf<T>) {
        (&mut arena.a, &mut arena.b)
    }
}

/// [`PackOps`] for the widened half-precision path (`F16` source, `f32`
/// panels and microkernel), converting through the selected [`HalfConv`].
struct WidenedF16Ops;

impl PackOps for WidenedF16Ops {
    type Src = F16;
    type Pack = f32;

    fn pack_a(
        a: &Matrix<F16>,
        i0: usize,
        mb: usize,
        p0: usize,
        kb: usize,
        mr: usize,
        buf: &mut AlignedBuf<f32>,
        half: HalfConv,
    ) -> u64 {
        pack_widened(
            a.as_slice(),
            strides(a),
            i0,
            mb,
            p0,
            kb,
            mr,
            buf,
            half.widen,
        )
    }

    fn pack_b(
        b: &Matrix<F16>,
        p0: usize,
        kb: usize,
        j0: usize,
        nb: usize,
        nr: usize,
        buf: &mut AlignedBuf<f32>,
        half: HalfConv,
    ) -> u64 {
        let (rs, cs) = strides(b);
        pack_widened(b.as_slice(), (cs, rs), j0, nb, p0, kb, nr, buf, half.widen)
    }

    /// `A`'s rows and all of `B`, each widened by one contiguous
    /// conversion into the arena's widened buffers.
    fn direct_operands<'s>(
        a: &'s Matrix<F16>,
        b: &'s Matrix<F16>,
        rows: Range<usize>,
        a_buf: &'s mut AlignedBuf<f32>,
        b_buf: &'s mut AlignedBuf<f32>,
        half: HalfConv,
    ) -> (&'s [f32], &'s [f32], TunedStats) {
        let k = a.cols();
        let src = &a.as_slice()[rows.start * k..rows.end * k];
        let aw = AlignedBuf::slice_for(a_buf, src.len());
        (half.widen)(src, aw);
        let bw = AlignedBuf::slice_for(b_buf, b.as_slice().len());
        (half.widen)(b.as_slice(), bw);
        let stats = TunedStats {
            pack_a_bytes: std::mem::size_of_val(aw) as u64,
            pack_b_bytes: std::mem::size_of_val(bw) as u64,
            ..TunedStats::default()
        };
        (aw, bw, stats)
    }

    #[inline(always)]
    fn accumulate(half: HalfConv, c: &mut [F16], v: &[f32]) {
        (half.accumulate)(c, v);
    }

    fn bufs(arena: &mut PackArena<F16>) -> (&mut AlignedBuf<f32>, &mut AlignedBuf<f32>) {
        arena.widened()
    }
}

/// One `(jc, p0)` cache panel of the blocked loop nest: column offset and
/// width, contraction offset and depth.
#[derive(Debug, Clone, Copy)]
struct Panel {
    jc: usize,
    nb: usize,
    p0: usize,
    kb: usize,
}

/// The `(jc, p0)` panels of an `n×k` iteration space in the serial loop
/// order (`jc` outer, `p0` inner) — the accumulation order per `C`
/// element is a fixed function of this enumeration.
fn panels(n: usize, k: usize, blocks: &BlockSizes) -> Vec<Panel> {
    let mut out = Vec::new();
    for jc in (0..n).step_by(blocks.nc) {
        let nb = blocks.nc.min(n - jc);
        for p0 in (0..k).step_by(blocks.kc) {
            let kb = blocks.kc.min(k - p0);
            out.push(Panel { jc, nb, p0, kb });
        }
    }
    out
}

/// Packs `A` and runs the register-tiled contraction of one `Mc` row
/// block against an already-packed `B` panel, accumulating into `C`.
/// Per `C` element the accumulation order is fixed by the panel
/// enumeration and this function alone, which is what keeps serial and
/// parallel runs bitwise-identical.
///
/// SAFETY requirement: the caller must own rows `i0..i0+mb` of `C`
/// exclusively per the [`DisjointSlice`] contract.
#[allow(clippy::too_many_arguments)]
fn compute_block<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    c: &DisjointSlice<'_, P::Src>,
    c_shape: (usize, usize),
    c_layout: Layout,
    panel: Panel,
    i0: usize,
    mb: usize,
    bp_all: &[P::Pack],
    a_buf: &mut AlignedBuf<P::Pack>,
    microkernel: simd::Microkernel<P::Pack, MR, NR>,
    half: HalfConv,
) -> TunedStats {
    let (m, n) = c_shape;
    let Panel { jc, nb, p0, kb } = panel;
    let mut stats = TunedStats {
        pack_a_bytes: P::pack_a(a, i0, mb, p0, kb, MR, a_buf, half),
        ..TunedStats::default()
    };
    let ap_all = a_buf.as_slice(mb.div_ceil(MR) * kb * MR);
    for jr in 0..nb.div_ceil(NR) {
        let j_base = jc + jr * NR;
        let jlim = NR.min(jc + nb - j_base);
        let bp = &bp_all[jr * kb * NR..(jr + 1) * kb * NR];
        for ir in 0..mb.div_ceil(MR) {
            let i_base = i0 + ir * MR;
            let ilim = MR.min(i0 + mb - i_base);
            let ap = &ap_all[ir * kb * MR..(ir + 1) * kb * MR];
            let acc = microkernel(kb, ap, bp);
            stats.microkernel_calls += 1;
            match c_layout {
                Layout::RowMajor => {
                    for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                        // SAFETY: row ownership (see above).
                        let crow = unsafe { c.row(i_base + r, n) };
                        P::accumulate(half, &mut crow[j_base..j_base + jlim], &acc_row[..jlim]);
                    }
                }
                Layout::ColMajor => {
                    for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                        for (cix, &v) in acc_row.iter().enumerate().take(jlim) {
                            let idx = c_layout.index(m, n, i_base + r, j_base + cix);
                            // SAFETY: row ownership (see above); each
                            // element belongs to exactly one owned row.
                            let cij = unsafe { c.at(idx) };
                            P::accumulate(half, std::slice::from_mut(cij), &[v]);
                        }
                    }
                }
            }
        }
    }
    stats
}

/// Wall time one [`run_blocked`] call spent in its two layers: packing
/// `B` panels, and computing row blocks (packing `A` plus the
/// microkernel). Measured only for the parallel [`gemm`], which reports
/// them as the `gemm/pack_ns` and `gemm/compute_ns` histograms.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseNs {
    pack: u64,
    compute: u64,
}

/// Nanoseconds since the last lap of `clock` (restarting it), or 0 when
/// the clock is off.
fn lap(clock: &mut Option<Instant>) -> u64 {
    let Some(start) = clock else {
        return 0;
    };
    let now = Instant::now();
    let ns = now
        .duration_since(*start)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64;
    *start = now;
    ns
}

/// The blocked loop nest over one contiguous row range of `C`, written
/// once for every scalar flavour (see [`PackOps`]). `timed` switches on
/// the per-layer clock; untimed calls read no clock at all.
#[allow(clippy::too_many_arguments)]
fn run_blocked<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &DisjointSlice<'_, P::Src>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    blocks: &BlockSizes,
    a_buf: &mut AlignedBuf<P::Pack>,
    b_buf: &mut AlignedBuf<P::Pack>,
    isa: Isa,
    timed: bool,
) -> (TunedStats, PhaseNs) {
    let (_, n) = c_shape;
    let k = a.cols();
    let mc = blocks.mc;
    let microkernel = simd::select::<P::Pack, MR, NR>(isa);
    let half = simd::select_half(isa);
    let mut stats = TunedStats::default();
    let mut phases = PhaseNs::default();
    let mut clock = timed.then(Instant::now);

    for panel in panels(n, k, blocks) {
        stats.pack_b_bytes += P::pack_b(b, panel.p0, panel.kb, panel.jc, panel.nb, NR, b_buf, half);
        phases.pack += lap(&mut clock);
        let bp_len = panel.nb.div_ceil(NR) * panel.kb * NR;
        for i0 in (rows.start..rows.end).step_by(mc) {
            let mb = mc.min(rows.end - i0);
            let s = compute_block::<P, MR, NR>(
                a,
                c,
                c_shape,
                c_layout,
                panel,
                i0,
                mb,
                b_buf.as_slice(bp_len),
                a_buf,
                microkernel,
                half,
            );
            stats.pack_a_bytes += s.pack_a_bytes;
            stats.microkernel_calls += s.microkernel_calls;
        }
        phases.compute += lap(&mut clock);
    }
    (stats, phases)
}

/// The direct form of the `MR×NR` kernel for rows `rows` of `C = A·B`,
/// when the verdict has one ([`simd::select_direct`]) and the rows fit
/// one cache block, so that [`run_direct`] can read the operands in
/// place. The rows must be one `Mc` block and `n ≤ Nc`; `A`, `B` and `C`
/// must be row-major; and the operands must fit the two budgets
/// [`BlockSizes::for_cache`] gives the packed path:
///
/// * **L2**, the `Mc×Kc` elements of a packed `A` block (half of L2): the
///   `A` rows, `B` *and* the `C` rows, since the tiles re-read `A` and `B`
///   in place while `C` passes through the same cache;
/// * **L1**, the `Kc×NR` elements of a packed `B` micropanel (half of
///   L1d): the `k × NR` strip of `B` a direct tile re-reads for every row
///   tile, counting the extra cache line each unaligned strip row can
///   touch. This also keeps `k < Kc`, one `(jc, p0)` panel.
///
/// Inside the bare "`A` plus `B` in half of L2" bound, packing measured
/// faster where `C` outgrew L2 and where a `Kc`-deep strip overflowed L1
/// (EXPERIMENTS.md, "Small GEMMs skip packing").
fn direct_kernel<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c_layout: Layout,
    rows: &Range<usize>,
    blocks: &BlockSizes,
    isa: Isa,
) -> Option<simd::DirectKernel<P::Pack, MR, NR>> {
    let (m, k, n) = (rows.len(), a.cols(), b.cols());
    let row_bytes = NR * std::mem::size_of::<P::Pack>();
    let fits = m <= blocks.mc
        && n <= blocks.nc
        && [a.layout(), b.layout(), c_layout] == [Layout::RowMajor; 3]
        && k > 0
        && k * (row_bytes + PACK_ALIGN) <= blocks.kc * row_bytes
        && m * k + k * n + m * n <= blocks.mc * blocks.kc;
    simd::select_direct::<P::Pack, MR, NR>(isa).filter(|_| fits)
}

/// The unpacked path for a row range that fits one cache block
/// ([`direct_kernel`]): direct tiles read `A` and `B` where they lie (or
/// where [`PackOps::direct_operands`] widened them) in the tile order of
/// [`compute_block`], and land in `C` through the same
/// [`PackOps::accumulate`]. Each direct tile runs the FMA chain of the
/// packed tile it replaces, so `C` comes out bit for bit as from
/// [`run_blocked`], with the same microkernel call count.
#[allow(clippy::too_many_arguments)]
fn run_direct<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &DisjointSlice<'_, P::Src>,
    rows: Range<usize>,
    a_buf: &mut AlignedBuf<P::Pack>,
    b_buf: &mut AlignedBuf<P::Pack>,
    kernel: simd::DirectKernel<P::Pack, MR, NR>,
    half: HalfConv,
    timed: bool,
) -> (TunedStats, PhaseNs) {
    let (k, n) = (a.cols(), b.cols());
    let mut phases = PhaseNs::default();
    let mut clock = timed.then(Instant::now);
    let (ap, bp, mut stats) = P::direct_operands(a, b, rows.clone(), a_buf, b_buf, half);
    phases.pack += lap(&mut clock);
    for j_base in (0..n).step_by(NR) {
        let jlim = NR.min(n - j_base);
        for i_base in rows.clone().step_by(MR) {
            let ilim = MR.min(rows.end - i_base);
            let a_strip = &ap[(i_base - rows.start) * k..];
            let acc = kernel(k, a_strip, k, &bp[j_base..], n, ilim, jlim);
            stats.microkernel_calls += 1;
            for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                // SAFETY: the caller owns rows `rows` of `C` exclusively
                // (see `compute_block`).
                let crow = unsafe { c.row(i_base + r, n) };
                P::accumulate(half, &mut crow[j_base..j_base + jlim], &acc_row[..jlim]);
            }
        }
    }
    phases.compute += lap(&mut clock);
    (stats, phases)
}

/// One row range of `C`: [`run_direct`] when [`direct_kernel`] finds a
/// direct kernel for it, the packed [`run_blocked`] otherwise. The two
/// agree bit for bit, so the choice moves no result.
#[allow(clippy::too_many_arguments)]
fn run_rows<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &DisjointSlice<'_, P::Src>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    blocks: &BlockSizes,
    a_buf: &mut AlignedBuf<P::Pack>,
    b_buf: &mut AlignedBuf<P::Pack>,
    isa: Isa,
    timed: bool,
) -> (TunedStats, PhaseNs) {
    match direct_kernel::<P, MR, NR>(a, b, c_layout, &rows, blocks, isa) {
        Some(kernel) => {
            let half = simd::select_half(isa);
            run_direct::<P, MR, NR>(a, b, c, rows, a_buf, b_buf, kernel, half, timed)
        }
        None => run_blocked::<P, MR, NR>(
            a, b, c, c_shape, c_layout, rows, blocks, a_buf, b_buf, isa, timed,
        ),
    }
}

fn check_shapes<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, m: usize, n: usize) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.rows(), m, "A rows must match C rows");
    assert_eq!(b.cols(), n, "B cols must match C cols");
}

/// Runs the tuned kernel over one contiguous row range of `C`, packing
/// through `arena`, with the process-wide dispatched microkernel
/// ([`simd::active`]). This is the chunk-level entry the `Vendor` host
/// variant and the parallel driver share.
///
/// `c` wraps `C`'s backing storage (`m*n` elements, `c_layout` order);
/// the caller must own `rows` exclusively.
///
/// # Panics
///
/// Panics on shape mismatch or an unsupported tile shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &DisjointSlice<'_, T>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
) -> TunedStats {
    gemm_rows_with_isa(
        a,
        b,
        c,
        c_shape,
        c_layout,
        rows,
        params,
        arena,
        simd::active(),
    )
}

/// [`gemm_rows`] with an explicit ISA verdict instead of the process-wide
/// one — the A/B entry point tests and ablations use to compare
/// microkernels without touching `PERFPORT_SIMD`.
///
/// `isa` must be available on this CPU (callers obtain it from
/// [`Isa::detect`], [`simd::active`], or an [`Isa::available`] check);
/// [`simd::select`] falls back to the portable kernel for tile shapes the
/// ISA cannot serve.
///
/// # Panics
///
/// Panics on shape mismatch or an unsupported tile shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows_with_isa<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &DisjointSlice<'_, T>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
    isa: Isa,
) -> TunedStats {
    rows_phased(a, b, c, c_shape, c_layout, rows, params, arena, isa, false).0
}

/// [`gemm_rows_with_isa`] that also returns the per-layer wall time when
/// `timed` is set (see [`PhaseNs`]).
#[allow(clippy::too_many_arguments)]
fn rows_phased<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &DisjointSlice<'_, T>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
    isa: Isa,
    timed: bool,
) -> (TunedStats, PhaseNs) {
    let (m, n) = c_shape;
    check_shapes(a, b, m, n);
    assert_eq!(c.len(), m * n, "C storage size mismatch");
    assert!(rows.end <= m, "row range out of bounds");
    if TypeId::of::<T>() == TypeId::of::<F16>() {
        // `T` is exactly `F16`, so the owned matrices downcast safely
        // through `Any`; the widened pack buffers come from the typed
        // accessor, so no `PackArena` is ever reinterpreted across
        // scalar types.
        let a16 = (a as &dyn Any)
            .downcast_ref::<Matrix<F16>>()
            .expect("T is F16");
        let b16 = (b as &dyn Any)
            .downcast_ref::<Matrix<F16>>()
            .expect("T is F16");
        // SAFETY: `T` is exactly `F16` (checked above), so the cast is
        // the identity; the slice's lifetime is preserved by the
        // reborrow. (`DisjointSlice` borrows `C`, so it cannot go
        // through `Any`'s `'static` bound like the matrices above.)
        let c16 = unsafe { &*(c as *const DisjointSlice<'_, T>).cast::<DisjointSlice<'_, F16>>() };
        let (aw, bw) = arena.widened();
        let run = match (params.tile.mr, params.tile.nr) {
            (4, 4) => run_rows::<WidenedF16Ops, 4, 4>,
            (8, 4) => run_rows::<WidenedF16Ops, 8, 4>,
            (4, 8) => run_rows::<WidenedF16Ops, 4, 8>,
            (8, 8) => run_rows::<WidenedF16Ops, 8, 8>,
            (8, 16) => run_rows::<WidenedF16Ops, 8, 16>,
            _ => panic!("unsupported tile shape {}", params.tile),
        };
        return run(
            a16,
            b16,
            c16,
            c_shape,
            c_layout,
            rows,
            &params.blocks,
            aw,
            bw,
            isa,
            timed,
        );
    }
    let run = match (params.tile.mr, params.tile.nr) {
        (4, 4) => run_rows::<PlainOps<T>, 4, 4>,
        (8, 4) => run_rows::<PlainOps<T>, 8, 4>,
        (4, 8) => run_rows::<PlainOps<T>, 4, 8>,
        (8, 8) => run_rows::<PlainOps<T>, 8, 8>,
        (8, 16) => run_rows::<PlainOps<T>, 8, 16>,
        _ => panic!("unsupported tile shape {}", params.tile),
    };
    let (a_buf, b_buf) = PlainOps::<T>::bufs(arena);
    run(
        a,
        b,
        c,
        c_shape,
        c_layout,
        rows,
        &params.blocks,
        a_buf,
        b_buf,
        isa,
        timed,
    )
}

/// Serial tuned GEMM: `C += A · B` with explicit parameters and arena,
/// using the process-wide dispatched microkernel.
pub fn gemm_serial<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
) -> TunedStats {
    gemm_serial_with_isa(a, b, c, params, arena, simd::active())
}

/// [`gemm_serial`] with an explicit ISA verdict (see
/// [`gemm_rows_with_isa`] for the availability contract).
pub fn gemm_serial_with_isa<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
    isa: Isa,
) -> TunedStats {
    let shape = (c.rows(), c.cols());
    let layout = c.layout();
    let rows = 0..shape.0;
    let ds = DisjointSlice::new(c.as_mut_slice());
    let stats = gemm_rows_with_isa(a, b, &ds, shape, layout, rows, params, arena, isa);
    stats.emit();
    stats
}

/// Parallel tuned GEMM: `Mc` row blocks of `C` are the work-sharing
/// index space of one `parallel_for` (static block schedule), and every
/// worker packs through its thread-local arena. Returns the region
/// instrumentation; the packing/microkernel counters go to telemetry and
/// to the `gemm:tuned` trace span's arguments, and each worker's pack
/// and compute wall time to the `gemm/pack_ns` and `gemm/compute_ns`
/// histograms. Results are bitwise-identical to [`gemm_serial`] for
/// every team size.
pub fn gemm<T: Scalar>(
    pool: &ThreadPool,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
) -> RegionStats {
    let (m, n) = (c.rows(), c.cols());
    check_shapes(a, b, m, n);
    let isa = simd::active();
    let mut sp = perfport_trace::span("gemm", "tuned");
    if sp.is_recording() {
        sp.arg("m", m);
        sp.arg("n", n);
        sp.arg("k", a.cols());
        sp.arg("tile", params.tile.name());
        sp.arg("isa", isa.name());
        sp.arg("mc", params.blocks.mc);
        sp.arg("kc", params.blocks.kc);
        sp.arg("nc", params.blocks.nc);
        // FLOP/byte annotation: the analytic work and compulsory
        // traffic, so a trace alone is enough to place this kernel on a
        // roofline.
        sp.arg("flops", crate::serial::gemm_flops(m, n, a.cols()));
        sp.arg(
            "min_bytes",
            crate::serial::gemm_min_bytes(m, n, a.cols(), std::mem::size_of::<T>()),
        );
    }
    let layout = c.layout();
    let ds = DisjointSlice::new(c.as_mut_slice());
    let mc = params.blocks.mc;
    let pack_a_total = AtomicU64::new(0);
    let pack_b_total = AtomicU64::new(0);
    let micro_total = AtomicU64::new(0);
    let region = pool.parallel_for(m.div_ceil(mc), Schedule::StaticBlock, |_ctx, chunk| {
        if chunk.is_empty() {
            return;
        }
        let rows = (chunk.start * mc)..(chunk.end * mc).min(m);
        let (stats, phases) = with_thread_arena(|arena| {
            rows_phased(a, b, &ds, (m, n), layout, rows, params, arena, isa, true)
        });
        pack_a_total.fetch_add(stats.pack_a_bytes, Ordering::Relaxed);
        pack_b_total.fetch_add(stats.pack_b_bytes, Ordering::Relaxed);
        micro_total.fetch_add(stats.microkernel_calls, Ordering::Relaxed);
        PACK_NS.observe(phases.pack);
        COMPUTE_NS.observe(phases.compute);
    });
    let totals = TunedStats {
        pack_a_bytes: pack_a_total.into_inner(),
        pack_b_bytes: pack_b_total.into_inner(),
        microkernel_calls: micro_total.into_inner(),
    };
    totals.emit();
    sp.arg("pack_a_bytes", totals.pack_a_bytes);
    sp.arg("pack_b_bytes", totals.pack_b_bytes);
    sp.arg("microkernel_calls", totals.microkernel_calls);
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::gemm_reference_f64;
    use perfport_half::F16;

    fn tuned_vs_reference<T: Scalar>(m: usize, k: usize, n: usize, layout: Layout, tol: f64) {
        let a = Matrix::<T>::random(m, k, layout, 31);
        let b = Matrix::<T>::random(k, n, layout, 32);
        let reference = gemm_reference_f64(&a, &b);
        let params = TunedParams::for_cache::<T>(CacheInfo::DEFAULT);
        let mut arena = PackArena::new();
        let mut c = Matrix::<T>::zeros(m, n, layout);
        gemm_serial(&a, &b, &mut c, &params, &mut arena);
        let cast: Matrix<f64> = c.cast();
        let err = cast.max_abs_diff(&reference);
        assert!(err < tol, "{m}x{k}x{n} {layout}: error {err}");
    }

    #[test]
    fn serial_matches_reference_all_precisions() {
        tuned_vs_reference::<f64>(65, 33, 47, Layout::RowMajor, 1e-12);
        tuned_vs_reference::<f32>(65, 33, 47, Layout::RowMajor, 1e-3);
        tuned_vs_reference::<F16>(17, 9, 13, Layout::RowMajor, 0.2);
        tuned_vs_reference::<f64>(65, 33, 47, Layout::ColMajor, 1e-12);
    }

    #[test]
    fn every_tile_shape_matches_reference() {
        let (m, k, n) = (37, 29, 41);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 2);
        let reference = gemm_reference_f64(&a, &b);
        for tile in TileShape::ALL {
            let params = TunedParams::with_tile(CacheInfo::DEFAULT, tile, 8);
            let mut arena = PackArena::new();
            let mut c = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
            gemm_serial(&a, &b, &mut c, &params, &mut arena);
            assert!(c.max_abs_diff(&reference) < 1e-12, "tile {tile}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Accumulation order per element depends only on the Kc
        // blocking, never on which worker owns a row block.
        let pool = ThreadPool::new(5);
        let (m, k, n) = (83, 57, 43);
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = Matrix::<f64>::random(m, k, layout, 3);
            let b = Matrix::<f64>::random(k, n, layout, 4);
            let params = TunedParams {
                tile: TileShape { mr: 4, nr: 4 },
                // Tiny blocks force many chunks and k-panels.
                blocks: BlockSizes {
                    mc: 8,
                    kc: 12,
                    nc: 16,
                },
            };
            let mut arena = PackArena::new();
            let mut c_serial = Matrix::<f64>::zeros(m, n, layout);
            gemm_serial(&a, &b, &mut c_serial, &params, &mut arena);
            let mut c_par = Matrix::<f64>::zeros(m, n, layout);
            gemm(&pool, &a, &b, &mut c_par, &params);
            assert_eq!(c_serial, c_par, "{layout}");
        }
    }

    /// Serial reference vs the parallel driver, bitwise.
    fn parallel_vs_serial<T: Scalar>(m: usize, k: usize, n: usize, jobs: usize) {
        let pool = ThreadPool::new(jobs);
        let params = TunedParams {
            tile: TileShape { mr: 4, nr: 4 },
            // Tiny blocks force many row blocks and (jc, p0) panels.
            blocks: BlockSizes {
                mc: 8,
                kc: 12,
                nc: 16,
            },
        };
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = Matrix::<T>::random(m, k, layout, 7);
            let b = Matrix::<T>::random(k, n, layout, 8);
            let mut c_serial = Matrix::<T>::zeros(m, n, layout);
            gemm_serial(&a, &b, &mut c_serial, &params, &mut PackArena::new());
            let mut c_par = Matrix::<T>::zeros(m, n, layout);
            gemm(&pool, &a, &b, &mut c_par, &params);
            assert_eq!(c_serial, c_par, "{} {layout} jobs={jobs}", T::NAME);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_all_precisions() {
        for jobs in [1, 2, 7] {
            parallel_vs_serial::<f64>(83, 57, 43, jobs);
            parallel_vs_serial::<f32>(61, 45, 39, jobs);
            parallel_vs_serial::<F16>(33, 29, 21, jobs);
        }
        // One row block: the loop has one item and runs on the caller.
        parallel_vs_serial::<f64>(5, 57, 43, 3);
    }

    #[test]
    fn widened_f16_matches_software_conversion_under_every_verdict() {
        // Reference with no hardware conversion anywhere: the verdict's own
        // microkernel and tile run each Kc chunk on software-widened `f32`
        // operands from a zero `C`, and each chunk's sums are added into
        // the `f16` `C` in software — the widened path's arithmetic. A Kc
        // of 150 takes row-major `A` rows through more than one widened run.
        let bits = |c: &Matrix<F16>| c.as_slice().iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        let cases = [
            (12, [(19, 40, 12), (5, 37, 29), (33, 12, 4), (8, 25, 40)]),
            (150, [(9, 310, 20), (4, 150, 4), (17, 151, 13), (3, 64, 36)]),
        ];
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            for (kc, shapes) in cases {
                let blocks = BlockSizes { mc: 16, kc, nc: 32 };
                let params = TunedParams {
                    tile: TileShape::for_isa(isa, F16::PACK_BYTES),
                    blocks,
                };
                for (m, k, n) in shapes {
                    for layout in [Layout::RowMajor, Layout::ColMajor] {
                        let a = Matrix::<F16>::random(m, k, layout, 41);
                        let b = Matrix::<F16>::random(k, n, layout, 42);
                        let mut c = Matrix::<F16>::from_fn(m, n, layout, |i, j| {
                            F16::from_f32((i as f32 - j as f32) / 8.0)
                        });
                        let mut want = c.clone();
                        gemm_serial_with_isa(&a, &b, &mut c, &params, &mut PackArena::new(), isa);
                        for p0 in (0..k).step_by(blocks.kc) {
                            let kb = blocks.kc.min(k - p0);
                            let ap = Matrix::from_fn(m, kb, layout, |i, p| a[(i, p0 + p)].to_f32());
                            let bp = Matrix::from_fn(kb, n, layout, |p, j| b[(p0 + p, j)].to_f32());
                            let mut sums = Matrix::<f32>::zeros(m, n, layout);
                            gemm_serial_with_isa(
                                &ap,
                                &bp,
                                &mut sums,
                                &params,
                                &mut PackArena::new(),
                                isa,
                            );
                            for i in 0..m {
                                for j in 0..n {
                                    want[(i, j)] =
                                        F16::from_f32(want[(i, j)].to_f32() + sums[(i, j)]);
                                }
                            }
                        }
                        assert_eq!(bits(&c), bits(&want), "{isa} {m}x{k}x{n} {layout}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_gemm_observes_its_pack_and_compute_layers() {
        if perfport_telemetry::build_mode() != "on" {
            return;
        }
        let pool = ThreadPool::new(2);
        let params = TunedParams::for_cache::<f64>(CacheInfo::DEFAULT);
        let a = Matrix::<f64>::random(40, 30, Layout::RowMajor, 13);
        let b = Matrix::<f64>::random(30, 20, Layout::RowMajor, 14);
        let mut c = Matrix::<f64>::zeros(40, 20, Layout::RowMajor);
        let before = perfport_telemetry::snapshot();
        gemm(&pool, &a, &b, &mut c, &params);
        // Other tests share the process-wide registry, so only a lower
        // bound on the delta is deterministic.
        let delta = perfport_telemetry::snapshot().delta_since(&before);
        let count = |name: &str| delta.histograms.get(name).map_or(0, |h| h.count);
        assert!(count("gemm/pack_ns") >= 1);
        assert!(count("gemm/compute_ns") >= 1);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = Matrix::<f64>::ones(5, 5, Layout::RowMajor);
        let b = Matrix::<f64>::ones(5, 5, Layout::RowMajor);
        let mut c = Matrix::<f64>::from_fn(5, 5, Layout::RowMajor, |_, _| 2.0);
        let params = TunedParams::for_cache::<f64>(CacheInfo::DEFAULT);
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
        assert!(c.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn degenerate_shapes() {
        // 1×1, empty k, empty m/n.
        tuned_vs_reference::<f64>(1, 1, 1, Layout::RowMajor, 1e-15);
        let a = Matrix::<f64>::zeros(4, 0, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(0, 3, Layout::RowMajor);
        let mut c = Matrix::<f64>::from_fn(4, 3, Layout::RowMajor, |_, _| 9.0);
        let params = TunedParams::for_cache::<f64>(CacheInfo::DEFAULT);
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
        assert!(c.as_slice().iter().all(|&x| x == 9.0), "empty k adds zero");
        let a = Matrix::<f64>::zeros(0, 5, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(5, 0, Layout::RowMajor);
        let mut c = Matrix::<f64>::zeros(0, 0, Layout::RowMajor);
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
    }

    #[test]
    fn block_sizes_respect_caches_and_tiles() {
        for tile in TileShape::ALL {
            for bytes in [2usize, 4, 8] {
                let b = BlockSizes::for_cache(CacheInfo::DEFAULT, tile, bytes);
                assert!(b.kc >= 64 && b.kc <= 512 && b.kc.is_multiple_of(4));
                assert_eq!(b.mc % tile.mr, 0);
                assert_eq!(b.nc % tile.nr, 0);
                // Kc×NR B micropanel really fits L1d.
                assert!(b.kc * tile.nr * bytes <= CacheInfo::DEFAULT.l1d_bytes);
                // Mc×Kc A block really fits L2.
                assert!(b.mc * b.kc * bytes <= CacheInfo::DEFAULT.l2_bytes);
            }
        }
        // A tiny cache still yields runnable (clamped) blocks.
        let tiny = CacheInfo {
            l1d_bytes: 1024,
            l2_bytes: 4096,
            l3_bytes: 65536,
            ..CacheInfo::DEFAULT
        };
        let b = BlockSizes::for_cache(tiny, TileShape { mr: 8, nr: 8 }, 8);
        assert!(b.kc >= 64 && b.mc >= 8 && b.nc >= 8);
    }

    #[test]
    fn stats_count_packing_and_microkernels() {
        let (m, k, n) = (16, 8, 16);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 5);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 6);
        let params = TunedParams {
            tile: TileShape { mr: 4, nr: 4 },
            blocks: BlockSizes {
                mc: 16,
                kc: 8,
                nc: 16,
            },
        };
        let mut c = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
        let stats = gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
        // One k-panel, one row block: A packed once (16×8), B once (8×16),
        // and (16/4)·(16/4) microkernel tiles.
        assert_eq!(stats.pack_a_bytes, 16 * 8 * 8);
        assert_eq!(stats.pack_b_bytes, 8 * 16 * 8);
        assert_eq!(stats.microkernel_calls, 16);
    }

    #[test]
    fn default_tiles_per_width() {
        assert_eq!(TileShape::default_for(8), TileShape { mr: 4, nr: 4 });
        assert_eq!(TileShape::default_for(4), TileShape { mr: 4, nr: 8 });
        assert_eq!(TileShape::default_for(2), TileShape { mr: 4, nr: 8 });
        assert_eq!(TileShape { mr: 4, nr: 8 }.name(), "4x8");
    }

    #[test]
    fn avx512_takes_one_8x16_tile_for_every_width() {
        let zmm = TileShape { mr: 8, nr: 16 };
        assert_eq!(TileShape::for_isa(Isa::Avx512, 8), zmm);
        assert_eq!(TileShape::for_isa(Isa::Avx512, 4), zmm);
        assert!(TileShape::ALL.contains(&zmm));
    }

    /// `C` after `C += A·B` over every row from a nonzero start, through
    /// the packed [`run_blocked`] (`direct = false`) or through
    /// [`run_rows`], with the stats of the call.
    fn run_all<P: PackOps, const MR: usize, const NR: usize>(
        direct: bool,
        a: &Matrix<P::Src>,
        b: &Matrix<P::Src>,
        blocks: &BlockSizes,
        isa: Isa,
    ) -> (Vec<u64>, TunedStats) {
        let (m, n) = (a.rows(), b.cols());
        let mut c = Matrix::<P::Src>::from_fn(m, n, Layout::RowMajor, |i, j| {
            P::Src::from_f64((i as f64 - 2.0 * j as f64) / 16.0)
        });
        let ds = DisjointSlice::new(c.as_mut_slice());
        let (mut a_buf, mut b_buf) = (AlignedBuf::new(), AlignedBuf::new());
        let run = if direct {
            run_rows::<P, MR, NR>
        } else {
            run_blocked::<P, MR, NR>
        };
        let rows = 0..m;
        let (stats, _) = run(
            a,
            b,
            &ds,
            (m, n),
            Layout::RowMajor,
            rows,
            blocks,
            &mut a_buf,
            &mut b_buf,
            isa,
            false,
        );
        let bits = c.as_slice().iter().map(|x| x.to_f64().to_bits()).collect();
        (bits, stats)
    }

    /// Whether [`run_rows`] takes the direct tiles for all of `A·B`.
    fn goes_direct<P: PackOps, const MR: usize, const NR: usize>(
        a: &Matrix<P::Src>,
        b: &Matrix<P::Src>,
        blocks: &BlockSizes,
        isa: Isa,
    ) -> bool {
        direct_kernel::<P, MR, NR>(a, b, Layout::RowMajor, &(0..a.rows()), blocks, isa).is_some()
    }

    /// Direct ≡ packed for one flavour and tile under `isa`: bit for bit
    /// over a sweep of shapes, with the closed-form counts, and the gate's
    /// boundaries.
    fn direct_matches_packed<P: PackOps, const MR: usize, const NR: usize>(isa: Isa) {
        assert_eq!(
            TileShape::for_isa(isa, P::Src::PACK_BYTES),
            TileShape { mr: MR, nr: NR }
        );
        let blocks = TunedParams::for_cache_isa::<P::Src>(CacheInfo::DEFAULT, isa).blocks;
        let widened = if P::Src::BYTES == P::Src::PACK_BYTES {
            0
        } else {
            4
        };
        let what = |m, n, k| format!("{isa} {} {m}x{n}x{k}", P::Src::NAME);
        const SIZES: [usize; 11] = [1, 3, 4, 8, 12, 16, 17, 24, 32, 48, 64];
        for (i, &m) in SIZES.iter().enumerate() {
            for (j, &n) in SIZES.iter().enumerate() {
                for (l, &k) in SIZES.iter().enumerate() {
                    let seed = (100 * i + 10 * j + l) as u64;
                    let a = Matrix::<P::Src>::random(m, k, Layout::RowMajor, seed);
                    let b = Matrix::<P::Src>::random(k, n, Layout::RowMajor, seed + 7);
                    assert!(
                        goes_direct::<P, MR, NR>(&a, &b, &blocks, isa),
                        "{}",
                        what(m, n, k)
                    );
                    let (want, _) = run_all::<P, MR, NR>(false, &a, &b, &blocks, isa);
                    let (got, stats) = run_all::<P, MR, NR>(true, &a, &b, &blocks, isa);
                    assert_eq!(got, want, "{}", what(m, n, k));
                    let closed = TunedStats {
                        pack_a_bytes: (widened * m * k) as u64,
                        pack_b_bytes: (widened * k * n) as u64,
                        microkernel_calls: (m.div_ceil(MR) * n.div_ceil(NR)) as u64,
                    };
                    assert_eq!(stats, closed, "{}", what(m, n, k));
                }
            }
        }
        // The gate's edges: the deepest `B` strip that fits the
        // micropanel's L1 budget with one extra line per row goes direct,
        // one step deeper packs; a column-major operand packs; so do
        // operands past the `Mc×Kc` L2 budget, which `A` rows, `B` and
        // `C` rows meet exactly at `16·16 + 16·n + 16·n = 16·64`, n = 24.
        let (m, n) = (5, 7);
        let random = |r, c, layout, seed| Matrix::<P::Src>::random(r, c, layout, seed);
        let row = Layout::RowMajor;
        let row_bytes = NR * std::mem::size_of::<P::Pack>();
        let deepest = blocks.kc * row_bytes / (row_bytes + PACK_ALIGN);
        assert!(deepest < blocks.kc);
        for (k, direct) in [(deepest, true), (deepest + 1, false), (blocks.kc, false)] {
            let (a, b) = (random(m, k, row, 1), random(k, n, row, 2));
            assert_eq!(
                goes_direct::<P, MR, NR>(&a, &b, &blocks, isa),
                direct,
                "k = {k}"
            );
            let (want, _) = run_all::<P, MR, NR>(false, &a, &b, &blocks, isa);
            assert_eq!(
                run_all::<P, MR, NR>(true, &a, &b, &blocks, isa).0,
                want,
                "k = {k}"
            );
        }
        let (a, b) = (random(m, 9, Layout::ColMajor, 3), random(9, n, row, 4));
        assert!(!goes_direct::<P, MR, NR>(&a, &b, &blocks, isa));
        let (a, b) = (random(m, 9, row, 3), random(9, n, Layout::ColMajor, 4));
        assert!(!goes_direct::<P, MR, NR>(&a, &b, &blocks, isa));
        let (a, b) = (random(m, 9, row, 3), random(9, n, row, 4));
        assert!(
            direct_kernel::<P, MR, NR>(&a, &b, Layout::RowMajor, &(0..m), &blocks, isa).is_some()
        );
        assert!(
            direct_kernel::<P, MR, NR>(&a, &b, Layout::ColMajor, &(0..m), &blocks, isa).is_none()
        );
        let tight = BlockSizes {
            mc: 16,
            kc: 64,
            nc: 64,
        };
        for (n, direct) in [(24, true), (25, false)] {
            let (a, b) = (random(16, 16, row, 5), random(16, n, row, 6));
            assert_eq!(
                goes_direct::<P, MR, NR>(&a, &b, &tight, isa),
                direct,
                "n = {n}"
            );
            let (want, _) = run_all::<P, MR, NR>(false, &a, &b, &tight, isa);
            assert_eq!(
                run_all::<P, MR, NR>(true, &a, &b, &tight, isa).0,
                want,
                "n = {n}"
            );
        }
    }

    #[test]
    fn direct_tiles_match_packed_bit_for_bit() {
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            match isa {
                Isa::Avx512 => {
                    direct_matches_packed::<PlainOps<f64>, 8, 16>(isa);
                    direct_matches_packed::<PlainOps<f32>, 8, 16>(isa);
                    direct_matches_packed::<WidenedF16Ops, 8, 16>(isa);
                }
                Isa::Avx2 => {
                    direct_matches_packed::<PlainOps<f64>, 8, 4>(isa);
                    direct_matches_packed::<PlainOps<f32>, 8, 8>(isa);
                    direct_matches_packed::<WidenedF16Ops, 8, 8>(isa);
                }
                // No direct form: every problem packs.
                Isa::Neon | Isa::Portable => {
                    assert!(simd::select_direct::<f64, 8, 4>(isa).is_none());
                    assert!(simd::select_direct::<f32, 8, 8>(isa).is_none());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strip too short")]
    fn direct_entry_rejects_a_short_strip() {
        let Some(kernel) = [Isa::Avx512, Isa::Avx2]
            .into_iter()
            .filter(|isa| isa.available())
            .find_map(simd::select_direct::<f64, 8, 4>)
        else {
            panic!("strip too short"); // keep the expectation where no direct form exists
        };
        // Three rows of depth 5 at stride 5 need 15 elements of `A`.
        let _ = kernel(5, &[0.0; 14], 5, &[0.0; 20], 4, 3, 4);
    }

    #[test]
    #[should_panic(expected = "unsupported tile shape")]
    fn unsupported_tile_panics() {
        let a = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let mut c = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let params = TunedParams {
            tile: TileShape { mr: 3, nr: 5 },
            blocks: BlockSizes {
                mc: 8,
                kc: 8,
                nc: 8,
            },
        };
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
    }
}
