//! Explicit SIMD backends for the width-generic plane kernel, with runtime
//! CPU-feature detection and a force-portable switch.
//!
//! The kernel in `kernel.rs` treats every word-column of a `[u64; W]` plane
//! as an independent 64-lane instance — carries never cross words — so the
//! `W` words of one plane are exactly the lanes of one vector register:
//! 128-bit SSE2/NEON for `W = 2`, 256-bit AVX2 for `W = 4`, 512-bit AVX-512
//! (or an AVX2 pair) for `W = 8`. This module provides the `WordVec`
//! abstraction the kernel is generic over, the per-ISA implementations, and
//! the dispatch policy ([`active_level`]).
//!
//! Every implementation computes bit-identical results: the vector ripple
//! loops run while *any* word-column still carries (finished columns see
//! no-op lane operations), so the portable `[u64; W]` implementation — the
//! differential oracle the SIMD proptests compare against — and the
//! vectorized paths agree bit-for-bit.
//!
//! ## Forcing the portable fallback
//!
//! Set `TCMM_SIMD=off` (or `0`, `portable`, `none`) in the environment to
//! disable vector dispatch process-wide (CI runs the whole test suite this
//! way so both arms stay green), or cap it with `TCMM_SIMD=sse2` /
//! `TCMM_SIMD=avx2`. Tests that need both arms in one process use
//! [`force_portable`], a runtime override that wins over detection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The vector ISA the plane kernel dispatches to, as reported by
/// [`active_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// No vector dispatch: the portable `[u64; W]` loops (also the
    /// differential oracle).
    Portable,
    /// 128-bit SSE2 (x86_64 baseline): `W = 2` rides one register.
    Sse2,
    /// 256-bit AVX2: `W = 4` rides one register, `W = 8` a pair.
    Avx2,
    /// 512-bit AVX-512F: `W = 8` rides one register.
    Avx512,
    /// 128-bit NEON (aarch64 baseline): wider widths ride register pairs.
    Neon,
}

impl SimdLevel {
    /// Human-readable name (telemetry / bench reports).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Neon => "neon",
        }
    }
}

static FORCE_PORTABLE: AtomicBool = AtomicBool::new(false);
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

/// Detects the best supported level, capped by the `TCMM_SIMD` environment
/// variable (read once per process).
fn detect() -> SimdLevel {
    let cap = match std::env::var("TCMM_SIMD") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "0" | "portable" | "none" => return SimdLevel::Portable,
            "sse2" => SimdLevel::Sse2,
            "avx2" => SimdLevel::Avx2,
            // Unknown values (and explicit "avx512"/"neon"/"on") leave the
            // hardware ceiling in charge.
            _ => SimdLevel::Avx512,
        },
        Err(_) => SimdLevel::Avx512,
    };
    hardware_level(cap)
}

#[cfg(target_arch = "x86_64")]
fn hardware_level(cap: SimdLevel) -> SimdLevel {
    let rank = |l: SimdLevel| match l {
        SimdLevel::Portable => 0,
        SimdLevel::Sse2 => 1,
        SimdLevel::Avx2 => 2,
        _ => 3,
    };
    let hw = if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        // SSE2 is part of the x86_64 baseline.
        SimdLevel::Sse2
    };
    if rank(cap) < rank(hw) {
        cap
    } else {
        hw
    }
}

#[cfg(target_arch = "aarch64")]
fn hardware_level(cap: SimdLevel) -> SimdLevel {
    // NEON is part of the aarch64 baseline; the only meaningful cap is
    // "portable", handled before detection.
    let _ = cap;
    SimdLevel::Neon
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn hardware_level(_cap: SimdLevel) -> SimdLevel {
    SimdLevel::Portable
}

/// The level detection found for this process (hardware ∩ `TCMM_SIMD` cap),
/// ignoring any [`force_portable`] override.
pub fn detected_level() -> SimdLevel {
    *DETECTED.get_or_init(detect)
}

/// Forces (or releases) the portable fallback at runtime, overriding
/// detection. Process-global; intended for differential tests and
/// experiments that must exercise both dispatch arms in one process.
/// Either arm is always correct, so a concurrent reader only ever observes
/// a valid configuration.
pub fn force_portable(force: bool) {
    FORCE_PORTABLE.store(force, Ordering::Relaxed);
}

/// Whether [`force_portable`] is currently in effect.
pub fn portable_forced() -> bool {
    FORCE_PORTABLE.load(Ordering::Relaxed)
}

/// The level the kernel dispatches on *right now*:
/// [`detected_level`] unless the portable fallback is forced.
pub fn active_level() -> SimdLevel {
    if portable_forced() {
        SimdLevel::Portable
    } else {
        detected_level()
    }
}

/// Whether width-`w` word-columns currently ride vector registers (`false`
/// for the portable arm and for `w = 1`, which has nothing to vectorize).
/// Backend cost models use this to price wide passes.
pub fn vectorized_width(w: usize) -> bool {
    match active_level() {
        SimdLevel::Portable => false,
        SimdLevel::Sse2 => w == 2,
        SimdLevel::Avx2 | SimdLevel::Avx512 | SimdLevel::Neon => matches!(w, 2 | 4 | 8),
    }
}

/// The vector abstraction the plane kernel is generic over: one value holds
/// the `W` word-columns of a single plane.
///
/// Implementations must be bitwise-exact (they only permute/combine lane
/// bits), so every instantiation of the kernel produces identical results.
/// SIMD implementations may only be *dispatched to* when the corresponding
/// CPU feature is present (enforced by `active_level` in `kernel.rs`);
/// their methods are `#[inline(always)]` so they compile inside the
/// `#[target_feature]` dispatch wrappers.
pub(crate) trait WordVec<const W: usize>: Copy {
    /// All-zero lanes.
    fn zero() -> Self;
    /// All-one lanes.
    fn ones() -> Self;
    /// Loads one plane's word-columns (unaligned).
    fn load(a: &[u64; W]) -> Self;
    /// Stores back into one plane's word-columns (unaligned).
    fn store(self, a: &mut [u64; W]);
    /// Lane-wise XOR.
    fn xor(self, o: Self) -> Self;
    /// Lane-wise AND.
    fn and(self, o: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, o: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// `true` iff any bit of any lane is set (ripple-loop termination).
    fn any(self) -> bool;

    /// Three-way XOR (carry-save sum); AVX-512 overrides with one
    /// `vpternlogq`.
    #[inline(always)]
    fn xor3(self, b: Self, c: Self) -> Self {
        self.xor(b).xor(c)
    }

    /// Bitwise majority (carry-save carry); AVX-512 overrides with one
    /// `vpternlogq`.
    #[inline(always)]
    fn maj(self, b: Self, c: Self) -> Self {
        (self.and(b)).or(self.or(b).and(c))
    }
}

/// The portable implementation: plain `[u64; W]` lane arithmetic. This is
/// the differential oracle every SIMD path is tested against, and the
/// fallback when no vector ISA covers `W`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Words<const W: usize>([u64; W]);

impl<const W: usize> WordVec<W> for Words<W> {
    #[inline(always)]
    fn zero() -> Self {
        Words([0u64; W])
    }
    #[inline(always)]
    fn ones() -> Self {
        Words([!0u64; W])
    }
    #[inline(always)]
    fn load(a: &[u64; W]) -> Self {
        Words(*a)
    }
    #[inline(always)]
    fn store(self, a: &mut [u64; W]) {
        *a = self.0;
    }
    #[inline(always)]
    fn xor(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a ^= b;
        }
        self
    }
    #[inline(always)]
    fn and(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a &= b;
        }
        self
    }
    #[inline(always)]
    fn or(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a |= b;
        }
        self
    }
    #[inline(always)]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
    #[inline(always)]
    fn any(self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }
}

/// Splits a `[u64; 4]` plane into its two `[u64; 2]` halves.
#[inline(always)]
fn halves4(a: &[u64; 4]) -> (&[u64; 2], &[u64; 2]) {
    // SAFETY: `[u64; 4]` is exactly two adjacent `[u64; 2]` (no padding).
    unsafe {
        (
            &*(a.as_ptr() as *const [u64; 2]),
            &*(a.as_ptr().add(2) as *const [u64; 2]),
        )
    }
}

/// Splits a `[u64; 8]` plane into its two `[u64; 4]` halves.
#[inline(always)]
fn halves8(a: &[u64; 8]) -> (&[u64; 4], &[u64; 4]) {
    // SAFETY: `[u64; 8]` is exactly two adjacent `[u64; 4]` (no padding).
    unsafe {
        (
            &*(a.as_ptr() as *const [u64; 4]),
            &*(a.as_ptr().add(4) as *const [u64; 4]),
        )
    }
}

/// A `W = 4` vector built from two `W = 2` halves (NEON and pre-AVX2 x86).
#[derive(Clone, Copy)]
pub(crate) struct Pair4<V>(V, V);

impl<V: WordVec<2>> WordVec<4> for Pair4<V> {
    #[inline(always)]
    fn zero() -> Self {
        Pair4(V::zero(), V::zero())
    }
    #[inline(always)]
    fn ones() -> Self {
        Pair4(V::ones(), V::ones())
    }
    #[inline(always)]
    fn load(a: &[u64; 4]) -> Self {
        let (lo, hi) = halves4(a);
        Pair4(V::load(lo), V::load(hi))
    }
    #[inline(always)]
    fn store(self, a: &mut [u64; 4]) {
        let mut lo = [0u64; 2];
        let mut hi = [0u64; 2];
        self.0.store(&mut lo);
        self.1.store(&mut hi);
        a[..2].copy_from_slice(&lo);
        a[2..].copy_from_slice(&hi);
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        Pair4(self.0.xor(o.0), self.1.xor(o.1))
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        Pair4(self.0.and(o.0), self.1.and(o.1))
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        Pair4(self.0.or(o.0), self.1.or(o.1))
    }
    #[inline(always)]
    fn not(self) -> Self {
        Pair4(self.0.not(), self.1.not())
    }
    #[inline(always)]
    fn any(self) -> bool {
        self.0.any() || self.1.any()
    }
}

/// A `W = 8` vector built from two `W = 4` halves (AVX2 pair, NEON quads).
#[derive(Clone, Copy)]
pub(crate) struct Pair8<V>(V, V);

impl<V: WordVec<4>> WordVec<8> for Pair8<V> {
    #[inline(always)]
    fn zero() -> Self {
        Pair8(V::zero(), V::zero())
    }
    #[inline(always)]
    fn ones() -> Self {
        Pair8(V::ones(), V::ones())
    }
    #[inline(always)]
    fn load(a: &[u64; 8]) -> Self {
        let (lo, hi) = halves8(a);
        Pair8(V::load(lo), V::load(hi))
    }
    #[inline(always)]
    fn store(self, a: &mut [u64; 8]) {
        let mut lo = [0u64; 4];
        let mut hi = [0u64; 4];
        self.0.store(&mut lo);
        self.1.store(&mut hi);
        a[..4].copy_from_slice(&lo);
        a[4..].copy_from_slice(&hi);
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        Pair8(self.0.xor(o.0), self.1.xor(o.1))
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        Pair8(self.0.and(o.0), self.1.and(o.1))
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        Pair8(self.0.or(o.0), self.1.or(o.1))
    }
    #[inline(always)]
    fn not(self) -> Self {
        Pair8(self.0.not(), self.1.not())
    }
    #[inline(always)]
    fn any(self) -> bool {
        self.0.any() || self.1.any()
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86_64 implementations. SSE2 is a baseline feature, so its
    //! intrinsics run unconditionally; the AVX2/AVX-512 types are only
    //! dispatched to after `is_x86_feature_detected!` succeeds, from
    //! `#[target_feature]` wrappers in `kernel.rs`.
    #![allow(unused_unsafe)] // intrinsic safety varies with static features

    use super::WordVec;
    use std::arch::x86_64::*;

    /// One 128-bit SSE2 register carrying a `W = 2` plane.
    #[derive(Clone, Copy)]
    pub(crate) struct Sse2(__m128i);

    impl WordVec<2> for Sse2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe { Sse2(_mm_setzero_si128()) }
        }
        #[inline(always)]
        fn ones() -> Self {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe { Sse2(_mm_set1_epi64x(-1)) }
        }
        #[inline(always)]
        fn load(a: &[u64; 2]) -> Self {
            // SAFETY: `a` spans exactly the 16 bytes read and `loadu` has
            // no alignment requirement; SSE2 is baseline on x86_64.
            unsafe { Sse2(_mm_loadu_si128(a.as_ptr() as *const __m128i)) }
        }
        #[inline(always)]
        fn store(self, a: &mut [u64; 2]) {
            // SAFETY: `a` spans exactly the 16 bytes written and `storeu`
            // has no alignment requirement; SSE2 is baseline on x86_64.
            unsafe { _mm_storeu_si128(a.as_mut_ptr() as *mut __m128i, self.0) }
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe { Sse2(_mm_xor_si128(self.0, o.0)) }
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe { Sse2(_mm_and_si128(self.0, o.0)) }
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe { Sse2(_mm_or_si128(self.0, o.0)) }
        }
        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe { Sse2(_mm_xor_si128(self.0, _mm_set1_epi64x(-1))) }
        }
        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: SSE2 is baseline on x86_64; register-only, no memory.
            unsafe {
                let eq0 = _mm_cmpeq_epi32(self.0, _mm_setzero_si128());
                _mm_movemask_epi8(eq0) != 0xFFFF
            }
        }
    }

    /// One 256-bit AVX2 register carrying a `W = 4` plane.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(__m256i);

    impl WordVec<4> for Avx2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: AVX2 register-only op; this type is constructed only
            // behind a runtime `avx2` check (see the kernel.rs dispatch).
            unsafe { Avx2(_mm256_setzero_si256()) }
        }
        #[inline(always)]
        fn ones() -> Self {
            // SAFETY: AVX2 register-only op behind the runtime avx2 check.
            unsafe { Avx2(_mm256_set1_epi64x(-1)) }
        }
        #[inline(always)]
        fn load(a: &[u64; 4]) -> Self {
            // SAFETY: `a` spans exactly the 32 bytes read and `loadu` has
            // no alignment requirement; AVX2 verified at dispatch time.
            unsafe { Avx2(_mm256_loadu_si256(a.as_ptr() as *const __m256i)) }
        }
        #[inline(always)]
        fn store(self, a: &mut [u64; 4]) {
            // SAFETY: `a` spans exactly the 32 bytes written and `storeu`
            // has no alignment requirement; AVX2 verified at dispatch time.
            unsafe { _mm256_storeu_si256(a.as_mut_ptr() as *mut __m256i, self.0) }
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: AVX2 register-only op behind the runtime avx2 check.
            unsafe { Avx2(_mm256_xor_si256(self.0, o.0)) }
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: AVX2 register-only op behind the runtime avx2 check.
            unsafe { Avx2(_mm256_and_si256(self.0, o.0)) }
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: AVX2 register-only op behind the runtime avx2 check.
            unsafe { Avx2(_mm256_or_si256(self.0, o.0)) }
        }
        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: AVX2 register-only op behind the runtime avx2 check.
            unsafe { Avx2(_mm256_xor_si256(self.0, _mm256_set1_epi64x(-1))) }
        }
        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: AVX register-only op behind the runtime avx2 check.
            unsafe { _mm256_testz_si256(self.0, self.0) == 0 }
        }
    }

    /// One 512-bit AVX-512F register carrying a `W = 8` plane. `xor3` and
    /// `maj` collapse to single `vpternlogq` instructions.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512(__m512i);

    impl WordVec<8> for Avx512 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: AVX-512F register-only op; this type is constructed
            // only behind a runtime `avx512f` check (kernel.rs dispatch).
            unsafe { Avx512(_mm512_setzero_si512()) }
        }
        #[inline(always)]
        fn ones() -> Self {
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_set1_epi64(-1)) }
        }
        #[inline(always)]
        fn load(a: &[u64; 8]) -> Self {
            // SAFETY: `a` spans exactly the 64 bytes read and `loadu` has
            // no alignment requirement; AVX-512F verified at dispatch time.
            unsafe { Avx512(_mm512_loadu_si512(a.as_ptr() as *const __m512i)) }
        }
        #[inline(always)]
        fn store(self, a: &mut [u64; 8]) {
            // SAFETY: `a` spans exactly the 64 bytes written and `storeu`
            // has no alignment requirement; AVX-512F verified at dispatch.
            unsafe { _mm512_storeu_si512(a.as_mut_ptr() as *mut __m512i, self.0) }
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_xor_si512(self.0, o.0)) }
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_and_si512(self.0, o.0)) }
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_or_si512(self.0, o.0)) }
        }
        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_xor_si512(self.0, _mm512_set1_epi64(-1))) }
        }
        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { _mm512_test_epi64_mask(self.0, self.0) != 0 }
        }
        #[inline(always)]
        fn xor3(self, b: Self, c: Self) -> Self {
            // 0x96: bitwise a ^ b ^ c.
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_ternarylogic_epi64::<0x96>(self.0, b.0, c.0)) }
        }
        #[inline(always)]
        fn maj(self, b: Self, c: Self) -> Self {
            // 0xE8: bitwise majority(a, b, c).
            // SAFETY: AVX-512F register-only op behind the avx512f check.
            unsafe { Avx512(_mm512_ternarylogic_epi64::<0xE8>(self.0, b.0, c.0)) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{Avx2, Avx512, Sse2};

#[cfg(target_arch = "aarch64")]
mod arm {
    //! aarch64 NEON implementation (`W = 2`; wider widths compose through
    //! [`super::Pair4`] / [`super::Pair8`]). NEON is baseline on aarch64.
    use super::WordVec;
    use std::arch::aarch64::*;

    /// One 128-bit NEON register carrying a `W = 2` plane.
    #[derive(Clone, Copy)]
    pub(crate) struct Neon(uint64x2_t);

    impl WordVec<2> for Neon {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { Neon(vdupq_n_u64(0)) }
        }
        #[inline(always)]
        fn ones() -> Self {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { Neon(vdupq_n_u64(!0)) }
        }
        #[inline(always)]
        fn load(a: &[u64; 2]) -> Self {
            // SAFETY: `a` spans exactly the 16 bytes read and `vld1q` has
            // no alignment requirement beyond u64; NEON is baseline.
            unsafe { Neon(vld1q_u64(a.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, a: &mut [u64; 2]) {
            // SAFETY: `a` spans exactly the 16 bytes written and `vst1q`
            // has no alignment requirement beyond u64; NEON is baseline.
            unsafe { vst1q_u64(a.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { Neon(veorq_u64(self.0, o.0)) }
        }
        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { Neon(vandq_u64(self.0, o.0)) }
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { Neon(vorrq_u64(self.0, o.0)) }
        }
        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { Neon(veorq_u64(self.0, vdupq_n_u64(!0))) }
        }
        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: NEON is baseline on aarch64; register-only, no memory.
            unsafe { vmaxvq_u32(vreinterpretq_u32_u64(self.0)) != 0 }
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) use arm::Neon;

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<const W: usize, V: WordVec<W>>() {
        let mut a = [0u64; W];
        let mut b = [0u64; W];
        for w in 0..W {
            a[w] = 0x9e3779b97f4a7c15u64.rotate_left(w as u32 * 7) ^ w as u64;
            b[w] = 0x2545f4914f6cdd1du64.rotate_right(w as u32 * 5);
        }
        let va = V::load(&a);
        let vb = V::load(&b);
        let mut out = [0u64; W];
        va.xor(vb).store(&mut out);
        for w in 0..W {
            assert_eq!(out[w], a[w] ^ b[w], "xor word {w}");
        }
        va.and(vb).store(&mut out);
        for w in 0..W {
            assert_eq!(out[w], a[w] & b[w], "and word {w}");
        }
        va.or(vb).store(&mut out);
        for w in 0..W {
            assert_eq!(out[w], a[w] | b[w], "or word {w}");
        }
        va.not().store(&mut out);
        for w in 0..W {
            assert_eq!(out[w], !a[w], "not word {w}");
        }
        let vc = V::ones();
        va.xor3(vb, vc).store(&mut out);
        for w in 0..W {
            assert_eq!(out[w], a[w] ^ b[w] ^ !0, "xor3 word {w}");
        }
        va.maj(vb, vc).store(&mut out);
        for w in 0..W {
            let (x, y, z) = (a[w], b[w], !0u64);
            assert_eq!(out[w], (x & y) | (x & z) | (y & z), "maj word {w}");
        }
        assert!(va.any());
        assert!(!V::zero().any());
        V::zero().store(&mut out);
        assert_eq!(out, [0u64; W]);
        V::ones().store(&mut out);
        assert_eq!(out, [!0u64; W]);
    }

    #[test]
    fn portable_words_all_widths() {
        exercise::<1, Words<1>>();
        exercise::<2, Words<2>>();
        exercise::<4, Words<4>>();
        exercise::<8, Words<8>>();
        exercise::<4, Pair4<Words<2>>>();
        exercise::<8, Pair8<Words<4>>>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_vectors_match_portable_semantics() {
        exercise::<2, Sse2>();
        exercise::<4, Pair4<Sse2>>();
        if std::arch::is_x86_feature_detected!("avx2") {
            exercise::<4, Avx2>();
            exercise::<8, Pair8<Avx2>>();
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            exercise::<8, Avx512>();
        }
    }

    #[cfg(target_arch = "aarch64")]
    #[test]
    fn neon_vectors_match_portable_semantics() {
        exercise::<2, Neon>();
        exercise::<4, Pair4<Neon>>();
        exercise::<8, Pair8<Pair4<Neon>>>();
    }

    #[test]
    fn force_portable_round_trips() {
        assert!(!portable_forced());
        force_portable(true);
        assert_eq!(active_level(), SimdLevel::Portable);
        assert!(portable_forced());
        assert!(!vectorized_width(4));
        force_portable(false);
        assert_eq!(active_level(), detected_level());
    }

    #[test]
    fn level_names_are_stable() {
        for (level, name) in [
            (SimdLevel::Portable, "portable"),
            (SimdLevel::Sse2, "sse2"),
            (SimdLevel::Avx2, "avx2"),
            (SimdLevel::Avx512, "avx512"),
            (SimdLevel::Neon, "neon"),
        ] {
            assert_eq!(level.name(), name);
        }
    }
}
