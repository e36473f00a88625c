//! Explicit SIMD microkernels with runtime ISA dispatch.
//!
//! The tuned kernel's inner loop ([`crate::tuned`]) historically relied on
//! LLVM autovectorising a const-generic scalar tile. That leaves measurable
//! headroom against a hand-vectorised vendor BLAS, chiefly because the
//! portable tile must avoid [`Scalar::mul_add`] (on targets without an FMA
//! instruction it lowers to a libm call), so it pays two roundings and two
//! instructions per multiply-accumulate. This module provides explicit
//! `std::arch` microkernels that issue genuine FMA vector instructions:
//!
//! * **x86-64 AVX2+FMA** — 256-bit lanes, `f64`/`f32` ([`x86`]);
//! * **x86-64 AVX-512F** — 512-bit lanes for `f64` and `f32`, on the
//!   `8×16` [`crate::tuned::TileShape`] that holds one `f32` or two `f64`
//!   zmm accumulators per row (tiles narrower than one zmm register take
//!   the 256-bit kernels);
//! * **aarch64 NEON** — 128-bit lanes, `f64`/`f32`, compiled only on
//!   aarch64 (the `neon` submodule);
//! * **portable** — the original autovectorized scalar tile, always
//!   available and always the reference ([`portable`]).
//!
//! The same verdict picks the binary16 ↔ `f32` conversions of the tuned
//! kernel's widened F16 path ([`select_half`], [`HalfConv`]): AVX-512F
//! `vcvtph2ps` / `vcvtps2ph` on 16 lanes under `avx512`, F16C on 8 lanes
//! under `avx2` (only if the CPU also reports `f16c`), and
//! `perfport-half`'s software routines under `portable`, on NEON and on
//! every other target. Narrowing rounds to nearest-even by an explicit
//! immediate, never by `MXCSR`. Unlike the FMA microkernels, the forms
//! agree bit for bit on every input that is not a NaN, so the choice never
//! changes a result. NEON's own conversion instructions are not used.
//!
//! # Dispatch contract
//!
//! The ISA is chosen **once per process** — [`active`] probes the CPU via
//! `is_x86_feature_detected!` (resp. the aarch64 equivalent) on first use
//! and caches the verdict — so every tuned GEMM in a process, serial or
//! parallel, runs the *same* microkernel. That preserves the tuned
//! kernel's serial≡parallel bitwise guarantee *per dispatched kernel*:
//! results never depend on which worker owns a row block, only (across
//! ISAs) on the kernel the whole process dispatched to.
//!
//! A SIMD kernel is used only when the register tile qualifies: the tile
//! width `NR` must be a multiple of the vector lane count for the element
//! type (e.g. 4 lanes for `f64` on AVX2), and one accumulator row must fit
//! the kernel's register budget of at most `MAX_VECS` vectors (2 on x86,
//! 4 on NEON; `f64` `8×16` on AVX2 would need 4). Non-qualifying tiles
//! fall back to the portable tile via [`select`]. A packed microkernel
//! always computes a full tile: the packing routines zero-pad
//! micropanels to full `MR`/`NR` extent, so ragged edges need no special
//! case. The exception is the *direct* form of each x86 kernel
//! (`select_direct`), which the tuned driver runs on
//! problems that fit one cache block without packing them: it reads the
//! row-major operands in place, clamps `A` rows past the edge and masks
//! `B` lanes past it (`_mm512_maskz_loadu_*` under AVX-512,
//! `_mm256_maskload_*` under AVX2). It runs the FMA body of its packed
//! kernel, so the live part of its tile is bit for bit the packed one.
//! `portable` and NEON have no direct form and always pack.
//!
//! # FMA-contraction caveat
//!
//! The SIMD kernels accumulate with fused multiply-add: each
//! multiply-accumulate rounds **once**, where the portable kernel rounds
//! twice. Per element of `C` the accumulation *order* is identical (the
//! `Kc` blocking fixes it), but the roundings differ, so SIMD and portable
//! results — and results across different ISAs — are not bitwise equal.
//! The difference is bounded by the forward-error tolerance in
//! [`crate::verify::Tolerance::for_gemm`] (FMA can only reduce the error
//! of each partial product), which the cross-kernel property tests assert
//! for every supported tile shape. Anything comparing results across
//! *processes* (snapshot diffs, committed baselines) must therefore treat
//! the dispatched ISA as part of the run's provenance; `perfport-bench`
//! records it in every run manifest.
//!
//! # Forcing a kernel: `PERFPORT_SIMD`
//!
//! The `PERFPORT_SIMD` environment variable overrides detection for A/B
//! runs: `portable` forces the fallback tile, `avx2` / `avx512` / `neon`
//! request a specific ISA (honoured only if the CPU supports it — an
//! unavailable request degrades to the best available ISA with a note on
//! stderr, never to an illegal-instruction fault, and the rejected
//! request is kept queryable via [`rejected_override`] so run manifests
//! can record it), and `auto` (or unset) detects. An *unknown* value is
//! a hard error: the process aborts listing the valid names, because a
//! typo'd override that silently fell back to detection would label an
//! A/B run with the wrong kernel and produce misattributed numbers. The
//! decision is queryable via [`active`] and is stamped into bench
//! manifests and trace metadata.
//!
//! ```
//! use perfport_gemm::simd::{self, Isa};
//!
//! // Whatever the process dispatched to, it is one of the known ISAs and
//! // it is available on this CPU.
//! let isa = simd::active();
//! assert!(isa.available());
//! assert!(Isa::ALL.contains(&isa));
//! ```

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(target_arch = "x86_64")]
pub mod x86;

use crate::scalar::Scalar;
use perfport_half::F16;
use std::any::TypeId;
use std::sync::OnceLock;

/// The instruction sets the dispatcher can select between.
///
/// Variants for foreign architectures exist on every build (so manifests
/// and diffs can always *name* them) but are only ever [`available`]
/// (and thus dispatched) on their own architecture.
///
/// [`available`]: Isa::available
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 AVX-512F: 512-bit lanes for `f64` and `f32`.
    Avx512,
    /// x86-64 AVX2 + FMA: 256-bit lanes.
    Avx2,
    /// aarch64 NEON/ASIMD: 128-bit lanes.
    Neon,
    /// The autovectorized const-generic scalar tile; every target.
    Portable,
}

impl Isa {
    /// Every ISA the dispatcher knows, best first. [`detect`] returns the
    /// first available entry, so order encodes preference.
    ///
    /// [`detect`]: Isa::detect
    pub const ALL: [Isa; 4] = [Isa::Avx512, Isa::Avx2, Isa::Neon, Isa::Portable];

    /// The identifier used in manifests, traces, and `PERFPORT_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
            Isa::Portable => "portable",
        }
    }

    /// Parses a [`Isa::name`] string (as accepted by `PERFPORT_SIMD`).
    pub fn from_name(name: &str) -> Option<Isa> {
        Isa::ALL.into_iter().find(|isa| isa.name() == name)
    }

    /// Whether this CPU can execute this ISA's microkernels.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            // `native` runs the 256-bit `avx2,fma` kernels under this
            // verdict for tiles narrower than a zmm register, and a
            // hypervisor can mask features one at a time, so AVX-512F
            // alone does not qualify.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f") && Isa::Avx2.available(),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// The best ISA this CPU supports (ignores the environment override).
    pub fn detect() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of resolving the `PERFPORT_SIMD` override against what
/// the CPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolution {
    /// The ISA the process dispatches to.
    isa: Isa,
    /// A valid override that named an ISA this CPU cannot execute; the
    /// request was rejected and `isa` is the detected fallback. Recorded
    /// so run manifests can disclose that the override was *not* honoured.
    rejected: Option<Isa>,
}

/// Resolves the `PERFPORT_SIMD` override against what the CPU supports.
/// Separated from [`active`] so it is testable without process-global
/// state; `quiet` suppresses the degradation note. An unrecognised value
/// is an error (the caller aborts): silently detecting past a typo would
/// misattribute every number the run produces.
fn resolve(request: Option<&str>, quiet: bool) -> Result<Resolution, String> {
    let detected = Isa::detect();
    let honoured = |isa| Resolution {
        isa,
        rejected: None,
    };
    let Some(request) = request else {
        return Ok(honoured(detected));
    };
    let request = request.trim();
    if request.is_empty() || request == "auto" {
        return Ok(honoured(detected));
    }
    match Isa::from_name(request) {
        Some(isa) if isa.available() => Ok(honoured(isa)),
        Some(isa) => {
            if !quiet {
                eprintln!(
                    "perfport-gemm: PERFPORT_SIMD={isa} is not available on this CPU; \
                     using {detected}"
                );
            }
            Ok(Resolution {
                isa: detected,
                rejected: Some(isa),
            })
        }
        None => Err(format!(
            "unknown PERFPORT_SIMD value '{request}' \
             (expected auto|portable|avx2|avx512|neon)"
        )),
    }
}

fn resolution() -> Resolution {
    static ACTIVE: OnceLock<Resolution> = OnceLock::new();
    *ACTIVE.get_or_init(
        || match resolve(std::env::var("PERFPORT_SIMD").ok().as_deref(), false) {
            Ok(r) => r,
            Err(msg) => {
                // Fail fast: a typo'd A/B override must never silently
                // produce numbers attributed to the wrong kernel.
                eprintln!("perfport-gemm: {msg}");
                std::process::exit(2);
            }
        },
    )
}

/// The ISA every tuned GEMM in this process dispatches to.
///
/// Decided once, on first call: the `PERFPORT_SIMD` override if set and
/// available, otherwise the best ISA the CPU supports. An unknown
/// `PERFPORT_SIMD` value aborts the process with exit status 2. See the
/// module docs for the contract this one-shot decision upholds.
pub fn active() -> Isa {
    resolution().isa
}

/// The `PERFPORT_SIMD` override this process rejected because the named
/// ISA is not executable on this CPU (`None` when no override was given
/// or it was honoured). [`active`] is the detected fallback in that
/// case; manifests record both so A/B runs stay attributable.
pub fn rejected_override() -> Option<Isa> {
    resolution().rejected
}

/// A microkernel: `kb`-deep contraction of zero-padded `MR`-row /
/// `NR`-column micropanels into an `MR×NR` accumulator tile.
///
/// `ap` holds `kb` groups of `MR` consecutive `A` values, `bp` holds `kb`
/// groups of `NR` consecutive `B` values (the packed layouts produced in
/// `crate::tuned`). Implementations panic if a panel is shorter than the
/// contraction requires.
pub type Microkernel<T, const MR: usize, const NR: usize> = fn(usize, &[T], &[T]) -> [[T; NR]; MR];

/// The portable reference microkernel: an autovectorized scalar tile.
///
/// Products are accumulated with separate multiply and add (not
/// [`Scalar::mul_add`]) because on baseline targets without an FMA
/// instruction `mul_add` lowers to a libm call that defeats
/// vectorisation. With `MR`/`NR` known at compile time LLVM unrolls the
/// tile fully and keeps the accumulator in vector registers.
pub fn portable<T: Scalar, const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[T],
    bp: &[T],
) -> [[T; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    let mut acc = [[T::zero(); NR]; MR];
    for p in 0..kb {
        let arow = &ap[p * MR..p * MR + MR];
        let brow = &bp[p * NR..p * NR + NR];
        for r in 0..MR {
            let av = arow[r];
            for c in 0..NR {
                acc[r][c] += av * brow[c];
            }
        }
    }
    acc
}

/// A direct microkernel: the same `kb`-deep contraction as a
/// [`Microkernel`], read in place from row-major operands instead of
/// packed micropanels.
///
/// Called as `kernel(kb, a, lda, b, ldb, ilim, jlim)`: `a` starts at the
/// tile's first `A` row (rows `lda` apart, `kb` live elements each), `b`
/// at its first `B` element (rows `ldb` apart). Rows past `ilim` and
/// columns past `jlim` of the returned tile are unspecified; the live
/// `ilim × jlim` corner is bit for bit what the packed kernel of the same
/// ISA, precision and tile computes from zero-padded panels. Panics if
/// `ilim` or `jlim` is outside `1..=MR` / `1..=NR`, or, when `kb > 0`, if
/// `(ilim-1)·lda + kb > a.len()` or `(kb-1)·ldb + jlim > b.len()`.
pub(crate) type DirectKernel<T, const MR: usize, const NR: usize> =
    fn(usize, &[T], usize, &[T], usize, usize, usize) -> [[T; NR]; MR];

/// The native forms one ISA provides for a tile: the packed kernel, and
/// the direct one where the ISA has it (x86 only).
struct Native<T, const MR: usize, const NR: usize> {
    packed: Microkernel<T, MR, NR>,
    direct: Option<DirectKernel<T, MR, NR>>,
}

/// Reinterprets concrete kernels as the generic signatures, checked by
/// the caller's `TypeId` comparison.
///
/// # Safety
///
/// `T` and `U` must be the same type (each function pointer is only
/// transmuted between two spellings of one signature).
unsafe fn cast_kernels<T: Scalar, U: Scalar, const MR: usize, const NR: usize>(
    k: Native<U, MR, NR>,
) -> Native<T, MR, NR> {
    debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<U>());
    // SAFETY: caller guarantees T == U, so both function-pointer types
    // name the identical ABI.
    unsafe {
        Native {
            packed: std::mem::transmute::<Microkernel<U, MR, NR>, Microkernel<T, MR, NR>>(k.packed),
            direct: k.direct.map(|d| {
                std::mem::transmute::<DirectKernel<U, MR, NR>, DirectKernel<T, MR, NR>>(d)
            }),
        }
    }
}

/// The native kernels `isa` provides for element type `T` and tile
/// `MR×NR`, or `None` when the combination has no native implementation
/// (foreign ISA, unsupported lane multiple, a row wider than the kernel's
/// `MAX_VECS` register budget, or the software-half type, which the tuned
/// driver widens to `f32` before it ever reaches a microkernel). One
/// decision serves both forms, so a direct tile always runs the FMA body
/// of the packed kernel it stands in for.
fn native<T: Scalar, const MR: usize, const NR: usize>(isa: Isa) -> Option<Native<T, MR, NR>> {
    let is_f64 = TypeId::of::<T>() == TypeId::of::<f64>();
    let is_f32 = TypeId::of::<T>() == TypeId::of::<f32>();
    #[cfg(target_arch = "x86_64")]
    {
        // The kernels index `acc[r][..NR / lanes]` of a `MAX_VECS`-wide row.
        let fits = |lanes: usize| NR.is_multiple_of(lanes) && NR / lanes <= x86::MAX_VECS;
        let avx = matches!(isa, Isa::Avx512 | Isa::Avx2);
        if is_f64 {
            if isa == Isa::Avx512 && fits(8) {
                let k = Native {
                    packed: x86::f64_avx512::<MR, NR>,
                    direct: Some(x86::f64_avx512_direct::<MR, NR>),
                };
                // SAFETY: T == f64.
                return Some(unsafe { cast_kernels(k) });
            }
            if avx && fits(4) {
                // The AVX-512 verdict also requires AVX2+FMA, so the
                // 256-bit kernels are legal under either.
                let k = Native {
                    packed: x86::f64_avx2::<MR, NR>,
                    direct: Some(x86::f64_avx2_direct::<MR, NR>),
                };
                // SAFETY: T == f64.
                return Some(unsafe { cast_kernels(k) });
            }
        }
        if is_f32 {
            if isa == Isa::Avx512 && fits(16) {
                let k = Native {
                    packed: x86::f32_avx512::<MR, NR>,
                    direct: Some(x86::f32_avx512_direct::<MR, NR>),
                };
                // SAFETY: T == f32.
                return Some(unsafe { cast_kernels(k) });
            }
            if avx && fits(8) {
                let k = Native {
                    packed: x86::f32_avx2::<MR, NR>,
                    direct: Some(x86::f32_avx2_direct::<MR, NR>),
                };
                // SAFETY: T == f32.
                return Some(unsafe { cast_kernels(k) });
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        let fits = |lanes: usize| NR.is_multiple_of(lanes) && NR / lanes <= neon::MAX_VECS;
        if isa == Isa::Neon {
            if is_f64 && fits(2) {
                let k = Native {
                    packed: neon::f64_neon::<MR, NR>,
                    direct: None,
                };
                // SAFETY: T == f64.
                return Some(unsafe { cast_kernels(k) });
            }
            if is_f32 && fits(4) {
                let k = Native {
                    packed: neon::f32_neon::<MR, NR>,
                    direct: None,
                };
                // SAFETY: T == f32.
                return Some(unsafe { cast_kernels(k) });
            }
        }
    }
    let _ = (is_f64, is_f32, isa);
    None
}

/// Selects the microkernel `isa` provides for element type `T` and tile
/// `MR×NR`, falling back to [`portable`] whenever no native kernel exists
/// for the combination (see the module docs for the qualification rules).
///
/// The returned function is safe to call only because selection is gated
/// on [`Isa::available`]: callers must pass an available ISA (as
/// [`active`] guarantees), and the debug assertion enforces it.
pub fn select<T: Scalar, const MR: usize, const NR: usize>(isa: Isa) -> Microkernel<T, MR, NR> {
    debug_assert!(isa.available(), "dispatching to unavailable ISA {isa}");
    native::<T, MR, NR>(isa).map_or(portable::<T, MR, NR>, |k| k.packed)
}

/// Selects the direct form of the native kernel [`select`] returns for
/// the same arguments, or `None` where there is none: under `portable`
/// and NEON (which keep packing), and wherever [`select`] falls back to
/// [`portable`]. The same availability contract as [`select`] applies.
pub(crate) fn select_direct<T: Scalar, const MR: usize, const NR: usize>(
    isa: Isa,
) -> Option<DirectKernel<T, MR, NR>> {
    debug_assert!(isa.available(), "dispatching to unavailable ISA {isa}");
    native::<T, MR, NR>(isa).and_then(|k| k.direct)
}

/// Whether `select::<T, MR, NR>(isa)` resolves to a native SIMD kernel
/// (as opposed to the portable fallback). Drives test coverage and the
/// "was SIMD actually used" honesty checks in the bench harness.
pub fn is_native<T: Scalar, const MR: usize, const NR: usize>(isa: Isa) -> bool {
    native::<T, MR, NR>(isa).is_some()
}

/// The binary16 ↔ `f32` slice conversions of the tuned kernel's widened
/// F16 path, as one ISA verdict provides them ([`select_half`]).
///
/// Every form computes the same bits for every input that is not a NaN,
/// so the choice never changes a GEMM result; only the time differs.
#[derive(Debug, Clone, Copy)]
pub struct HalfConv {
    /// `dst[i] = widen(src[i])`, exact. Panics if the lengths differ.
    pub widen: fn(&[F16], &mut [f32]),
    /// `c[i] = narrow(widen(c[i]) + v[i])`: one `f32` add, then one
    /// round-to-nearest-even narrowing. Panics if the lengths differ.
    pub accumulate: fn(&mut [F16], &[f32]),
}

impl HalfConv {
    /// The software routines of `perfport-half`: the reference, and the
    /// conversion of every verdict without a hardware form.
    pub const SOFTWARE: HalfConv = HalfConv {
        widen: F16::widen_slice,
        accumulate: accumulate_software,
    };
}

/// [`HalfConv::accumulate`] in software.
fn accumulate_software(c: &mut [F16], v: &[f32]) {
    assert_eq!(c.len(), v.len(), "accumulate length mismatch");
    for (c, &v) in c.iter_mut().zip(v) {
        *c = F16::from_f32(c.to_f32() + v);
    }
}

/// Selects the half-precision conversions for the verdict `isa`:
/// AVX-512F `vcvtph2ps` / `vcvtps2ph` on 16 lanes under `avx512`, F16C on
/// 8 lanes under `avx2` when the CPU also reports `f16c` (AVX2 does not
/// imply it), and [`HalfConv::SOFTWARE`] otherwise — under `portable`,
/// on NEON, and on every other target. An unavailable `isa` also gets
/// the software routines, so the returned functions are always safe to
/// run.
pub fn select_half(isa: Isa) -> HalfConv {
    #[cfg(target_arch = "x86_64")]
    {
        if isa == Isa::Avx512 && isa.available() {
            return HalfConv {
                widen: x86::f16_widen_avx512,
                accumulate: x86::f16_accumulate_avx512,
            };
        }
        if isa == Isa::Avx2 && isa.available() && std::arch::is_x86_feature_detected!("f16c") {
            return HalfConv {
                widen: x86::f16_widen_f16c,
                accumulate: x86::f16_accumulate_f16c,
            };
        }
    }
    let _ = isa;
    HalfConv::SOFTWARE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::from_name(isa.name()), Some(isa));
            assert_eq!(isa.to_string(), isa.name());
        }
        assert_eq!(Isa::from_name("sse9"), None);
    }

    #[test]
    fn detection_is_sane() {
        // Portable is always available; detect() therefore always finds
        // something, and whatever it finds must be executable here.
        assert!(Isa::Portable.available());
        assert!(Isa::detect().available());
        assert!(active().available());
        // Foreign-architecture ISAs are never available.
        #[cfg(target_arch = "x86_64")]
        assert!(!Isa::Neon.available());
        // The AVX-512 verdict runs the AVX2+FMA kernels on narrow tiles,
        // so it must never be available without them, even where a
        // hypervisor masks them while exposing AVX-512F.
        assert!(!Isa::Avx512.available() || Isa::Avx2.available());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Isa::Avx512.available(),
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        );
        #[cfg(target_arch = "aarch64")]
        {
            assert!(!Isa::Avx2.available());
            assert!(!Isa::Avx512.available());
        }
    }

    #[test]
    fn env_override_resolution() {
        let detected = Isa::detect();
        let ok = |r: Result<Resolution, String>| r.expect("must resolve");
        assert_eq!(ok(resolve(None, true)).isa, detected);
        assert_eq!(ok(resolve(Some("auto"), true)).isa, detected);
        assert_eq!(ok(resolve(Some(""), true)).isa, detected);
        assert_eq!(ok(resolve(None, true)).rejected, None);
        let portable = ok(resolve(Some("portable"), true));
        assert_eq!(portable.isa, Isa::Portable);
        assert_eq!(portable.rejected, None);
        // An unknown value is a hard error that names the valid spellings
        // (a typo must never silently fall back to detection).
        let err = resolve(Some("avx9000"), true).expect_err("junk must be rejected");
        assert!(err.contains("avx9000"), "{err}");
        for name in ["auto", "portable", "avx2", "avx512", "neon"] {
            assert!(err.contains(name), "{err} missing {name}");
        }
        // A valid but unavailable request degrades to detection — never a
        // fault — and records what it rejected.
        #[cfg(target_arch = "x86_64")]
        {
            let r = ok(resolve(Some("neon"), true));
            assert_eq!(r.isa, detected);
            assert_eq!(r.rejected, Some(Isa::Neon));
        }
        #[cfg(target_arch = "aarch64")]
        {
            let r = ok(resolve(Some("avx2"), true));
            assert_eq!(r.isa, detected);
            assert_eq!(r.rejected, Some(Isa::Avx2));
        }
    }

    #[test]
    fn portable_kernel_computes_the_tile() {
        // kb=2 contraction with hand-checkable values.
        let ap = [1.0f64, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let bp = [1.0f64, 0.5, 0.25, 0.125, 2.0, 1.0, 0.5, 0.25];
        let acc = portable::<f64, 4, 4>(2, &ap, &bp);
        // row 0: 1*b0 + 10*b1
        assert_eq!(acc[0], [21.0, 10.5, 5.25, 2.625]);
        // kb=0 yields the zero tile.
        let zero = portable::<f64, 4, 4>(0, &[], &[]);
        assert_eq!(zero, [[0.0; 4]; 4]);
    }

    #[test]
    fn selection_respects_lane_multiples() {
        // Portable ISA always selects the portable kernel.
        assert!(!is_native::<f64, 4, 4>(Isa::Portable));
        assert!(!is_native::<f32, 4, 8>(Isa::Portable));
        #[cfg(target_arch = "x86_64")]
        {
            if Isa::Avx2.available() {
                // f64 tiles are all 4-lane multiples; f32 needs NR % 8.
                assert!(is_native::<f64, 4, 4>(Isa::Avx2));
                assert!(is_native::<f64, 8, 4>(Isa::Avx2));
                assert!(is_native::<f32, 4, 8>(Isa::Avx2));
                assert!(!is_native::<f32, 4, 4>(Isa::Avx2));
                // The software-half type never gets a native kernel (the
                // tuned driver widens it to f32 first).
                assert!(!is_native::<perfport_half::F16, 4, 8>(Isa::Avx2));
                // Four ymm vectors per f64 row exceed the register budget.
                assert!(!is_native::<f64, 8, 16>(Isa::Avx2));
                assert!(is_native::<f32, 8, 16>(Isa::Avx2));
            }
            if Isa::Avx512.available() {
                assert!(is_native::<f64, 8, 8>(Isa::Avx512));
                assert!(is_native::<f64, 4, 4>(Isa::Avx512));
                assert!(is_native::<f32, 8, 8>(Isa::Avx512));
                assert!(is_native::<f64, 8, 16>(Isa::Avx512));
                assert!(is_native::<f32, 8, 16>(Isa::Avx512));
            }
        }
        #[cfg(target_arch = "aarch64")]
        if Isa::Neon.available() {
            assert!(is_native::<f64, 4, 4>(Isa::Neon));
            assert!(is_native::<f32, 4, 8>(Isa::Neon));
            assert!(!is_native::<f64, 8, 16>(Isa::Neon));
            assert!(is_native::<f32, 8, 16>(Isa::Neon));
        }
    }

    #[test]
    fn native_kernels_match_portable_on_exact_products() {
        // Products of small integers are exact at every precision, so
        // native and portable kernels must agree bit-for-bit on them
        // (FMA contraction cannot change an exact result).
        for isa in Isa::ALL.into_iter().filter(|i| i.available()) {
            let kb = 7;
            let ap64: Vec<f64> = (0..kb * 8).map(|i| ((i % 11) as f64) - 5.0).collect();
            let bp64: Vec<f64> = (0..kb * 8).map(|i| ((i % 7) as f64) * 0.5).collect();
            let native = select::<f64, 8, 8>(isa)(kb, &ap64, &bp64);
            let reference = portable::<f64, 8, 8>(kb, &ap64, &bp64);
            assert_eq!(native, reference, "{isa} f64");
            let ap32: Vec<f32> = ap64.iter().map(|&x| x as f32).collect();
            let bp32: Vec<f32> = bp64.iter().map(|&x| x as f32).collect();
            let native = select::<f32, 8, 8>(isa)(kb, &ap32, &bp32);
            let reference = portable::<f32, 8, 8>(kb, &ap32, &bp32);
            assert_eq!(native, reference, "{isa} f32");
        }
    }

    #[test]
    #[should_panic(expected = "panel too short")]
    fn short_panels_panic() {
        let _ = portable::<f64, 4, 4>(3, &[0.0; 4], &[0.0; 16]);
    }

    fn available() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|isa| isa.available())
    }

    fn half_bits(c: &[F16]) -> Vec<u16> {
        c.iter().map(|h| h.to_bits()).collect()
    }

    #[test]
    fn hardware_widen_matches_software_on_every_pattern() {
        let src: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let mut want = vec![0.0f32; src.len()];
        (HalfConv::SOFTWARE.widen)(&src, &mut want);
        for isa in available() {
            let mut got = vec![0.0f32; src.len()];
            (select_half(isa).widen)(&src, &mut got);
            for (h, (g, w)) in src.iter().zip(got.iter().zip(&want)) {
                assert_eq!(g.to_bits(), w.to_bits(), "{isa} {:#06x}", h.to_bits());
            }
        }
    }

    /// Deterministic pseudo-random halves and floats for the slice tests.
    fn operands(seed: u64, len: usize) -> (Vec<F16>, Vec<f32>) {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let c = (0..len)
            .map(|_| F16::from_f32((next() % 20_000) as f32 / 64.0 - 150.0))
            .collect();
        let v = (0..len)
            .map(|_| (next() % 1_000_000) as f32 / 4096.0 - 120.0)
            .collect();
        (c, v)
    }

    #[test]
    fn hardware_conversions_handle_every_length_to_sixteen() {
        // Each length runs inside a wider buffer: elements past the slice
        // must come out untouched, as must every element of a length the
        // vector width does not divide.
        const SENTINEL: F16 = F16::from_bits(0x5a5a);
        for isa in available() {
            let conv = select_half(isa);
            for len in 0..=16 {
                let (c0, v) = operands(len as u64 + 1, len);
                let mut want = c0.clone();
                (HalfConv::SOFTWARE.accumulate)(&mut want, &v);
                let mut buf = c0.clone();
                buf.resize(len + 16, SENTINEL);
                (conv.accumulate)(&mut buf[..len], &v);
                assert_eq!(half_bits(&buf[..len]), half_bits(&want), "{isa} n={len}");
                assert!(buf[len..].iter().all(|h| h.to_bits() == SENTINEL.to_bits()));

                let mut wide = vec![-1.0f32; len + 16];
                (conv.widen)(&c0, &mut wide[..len]);
                let exact: Vec<f32> = c0.iter().map(|h| h.to_f32()).collect();
                assert_eq!(wide[..len], exact[..], "{isa} widen n={len}");
                assert!(wide[len..].iter().all(|&x| x == -1.0));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        /// `accumulate` into `+0` narrows `v` alone (`+0 + v == v` for
        /// every `v` but `-0`, which both forms turn into `+0`). Each
        /// element is drawn from one of five classes: any bit pattern,
        /// ties (and their neighbours) between two halves, the half
        /// subnormal range, the 65 504 / 65 520 overflow boundary, and
        /// NaNs with arbitrary payloads.
        #[test]
        fn hardware_narrowing_matches_software(
            draws in proptest::collection::vec((0u8..5, 0u32..=u32::MAX), 1..48)
        ) {
            let v: Vec<f32> = draws.iter().map(|&(class, raw)| narrowing_case(class, raw)).collect();
            let mut want = vec![F16::ZERO; v.len()];
            (HalfConv::SOFTWARE.accumulate)(&mut want, &v);
            for isa in available() {
                let mut got = vec![F16::ZERO; v.len()];
                (select_half(isa).accumulate)(&mut got, &v);
                proptest::prop_assert_eq!(half_bits(&got), half_bits(&want), "{} {:?}", isa, v);
            }
        }
    }

    /// One `f32` of the narrowing class `class` built from the bits `raw`.
    fn narrowing_case(class: u8, raw: u32) -> f32 {
        let sign = raw & 0x8000_0000;
        let bits = match class {
            0 => raw,
            1 => {
                // A normal half, then half its ulp (f32 bit 12) above it,
                // nudged by -1, 0 or +1 f32 ulps around the tie.
                let h = raw as u16 % 0x7800 + 0x0400;
                let tie = F16::from_bits(h).to_f32().to_bits() | 0x1000;
                sign | (tie + (raw >> 16) % 3 - 1)
            }
            // Exponents 2^-26 ..= 2^-15: below, through and at the top of
            // the half subnormals.
            2 => sign | ((101 + (raw >> 8) % 12) << 23) | (raw & 0x007f_ffff),
            3 => sign | (65504.0f32.to_bits() - 0x100 + raw % 0x2200),
            _ => sign | 0x7f80_0000 | (raw & 0x007f_ffff).max(1),
        };
        f32::from_bits(bits)
    }

    /// Runs `f` with `MXCSR.RC` set to round toward zero, then restores
    /// the caller's control word.
    #[cfg(target_arch = "x86_64")]
    fn toward_zero<R>(f: impl FnOnce() -> R) -> R {
        use std::arch::asm;
        let mut saved = 0u32;
        // SAFETY: `stmxcsr` stores the four-byte control word into a
        // local the pointer names.
        unsafe { asm!("stmxcsr [{}]", in(reg) &mut saved, options(nostack)) };
        let rz = saved | 0x6000;
        // SAFETY: only the rounding-control bits change. `f` performs no
        // float operation whose result depends on them apart from the
        // narrowing under test (its additions are `+0 + v`, exact in
        // every mode), and the saved word is restored before returning.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &rz, options(nostack, readonly)) };
        let r = f();
        // SAFETY: restores the word stored above.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &saved, options(nostack, readonly)) };
        r
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_narrowing_rounds_to_nearest_whatever_mxcsr_says() {
        // Three quarters of an ulp above each half, and exact ties above
        // odd halves: nearest-even rounds every one up, toward-zero down.
        let v: Vec<f32> = (0..37u16)
            .flat_map(|i| {
                let h = F16::from_bits(0x3c01 + 2 * i * 97).to_f32().to_bits();
                [f32::from_bits(h + 0x1800), f32::from_bits(h + 0x1000)]
            })
            .collect();
        let mut want = vec![F16::ZERO; v.len()];
        (HalfConv::SOFTWARE.accumulate)(&mut want, &v);
        for isa in available() {
            let accumulate = select_half(isa).accumulate;
            let mut got = vec![F16::ZERO; v.len()];
            toward_zero(|| accumulate(std::hint::black_box(&mut got), &v));
            assert_eq!(half_bits(&got), half_bits(&want), "{isa}");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn select_half_takes_the_hardware_form_the_verdict_detected() {
        type Widen = fn(&[F16], &mut [f32]);
        let widen = |isa| select_half(isa).widen;
        let avx512: Widen = x86::f16_widen_avx512;
        let f16c: Widen = x86::f16_widen_f16c;
        assert_eq!(
            std::ptr::fn_addr_eq(widen(Isa::Avx512), avx512),
            Isa::Avx512.available()
        );
        assert_eq!(
            std::ptr::fn_addr_eq(widen(Isa::Avx2), f16c),
            Isa::Avx2.available() && std::arch::is_x86_feature_detected!("f16c")
        );
        for isa in [Isa::Portable, Isa::Neon] {
            assert!(!std::ptr::fn_addr_eq(widen(isa), avx512));
            assert!(!std::ptr::fn_addr_eq(widen(isa), f16c));
        }
    }
}
