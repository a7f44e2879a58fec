//! Explicit SIMD counting kernels with runtime dispatch.
//!
//! Every support count the permutation engine performs bottoms out in one of
//! a handful of kernels: the word sweeps over packed `u64` bitmap words —
//! intersect-and-popcount ([`and_count`]), plain popcount ([`count_ones`])
//! and complement intersect ([`andnot_count`], the primitive negative-rule
//! covers need) — and the positional popcount ([`positional_count`]) that
//! counts one stored id list against [`LANES`] permutations at once.
//!
//! Three implementations back the kernels:
//!
//! | kind     | selected when                                   | technique |
//! |----------|--------------------------------------------------|-----------|
//! | `scalar` | always available                                 | 4×u64-unrolled loops the compiler autovectorises; SWAR byte counters for the positional count |
//! | `avx2`   | x86/x86_64 with AVX2 (runtime-detected)          | 256-bit `AND` + Mula nibble-LUT popcount (`pshufb` + `psadbw`); `pshufb` byte spread + `cmpeq` for the positional count |
//! | `neon`   | aarch64 (NEON is architecturally guaranteed)     | 128-bit `AND` + `vcnt`/`vaddlv` byte popcount; the positional count runs scalar |
//!
//! The active kind is resolved **once** per process — from the
//! `SIGRULE_KERNEL` environment variable (`scalar`, `simd`, or `auto`; an
//! unsupported `simd` request falls back to scalar) and runtime feature
//! detection — and cached in an atomic, so dispatch on the hot path is one
//! relaxed load and a predictable branch.  [`force`] overrides the selection
//! at runtime for A/B tests and benchmarks.
//!
//! Every kernel returns exact integer counts, so the implementations are
//! interchangeable bit for bit; `tests/kernel_equivalence.rs` proves it
//! over random inputs including non-multiple-of-4 tails and id lists around
//! the positional count's 255-id accumulator blocks.
//!
//! # Label words (the positional count's layout)
//!
//! The permutation engine runs [`LANES`] permutations per chunk, one per bit
//! of a `u64`: for one class, `words[t]` has bit `j` set when record `t`
//! carries that class under the chunk's permutation `j`.  A forest node's
//! class count on every permutation of the chunk is then one walk over its
//! stored ids that sums the bits of each id's word into 64 per-lane counts
//! — a tid list and a diffset alike, so one kernel serves every node.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, LazyLock};

/// A kernel implementation family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Unrolled scalar loops (always available, autovectorisable).
    Scalar,
    /// 256-bit AVX2 lanes (x86/x86_64, runtime-detected).
    Avx2,
    /// 128-bit NEON lanes (aarch64).
    Neon,
}

impl KernelKind {
    /// Stable lower-case name (`"scalar"`, `"avx2"`, `"neon"`), as surfaced
    /// in `EngineStats` and the serve `stats` response.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Neon => "neon",
        }
    }

    fn code(self) -> u8 {
        match self {
            KernelKind::Scalar => 1,
            KernelKind::Avx2 => 2,
            KernelKind::Neon => 3,
        }
    }

    fn from_code(code: u8) -> Option<KernelKind> {
        match code {
            1 => Some(KernelKind::Scalar),
            2 => Some(KernelKind::Avx2),
            3 => Some(KernelKind::Neon),
            _ => None,
        }
    }
}

/// Permutation lanes per label word: one per bit of a `u64`.
pub const LANES: usize = 64;

/// The cached dispatch decision: 0 = not yet resolved, otherwise
/// `KernelKind::code()`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The SIMD kind this build + machine supports, if any.
pub fn simd_kind() -> Option<KernelKind> {
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(KernelKind::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is architecturally guaranteed on aarch64.
        return Some(KernelKind::Neon);
    }
    #[allow(unreachable_code)]
    None
}

/// Pure resolution rule: what `SIGRULE_KERNEL` (if set) and the machine's
/// SIMD support select.  `simd` with no SIMD support falls back to scalar —
/// the runtime feature-detection fallback the unit tests pin.
pub fn resolve(env: Option<&str>, simd: Option<KernelKind>) -> KernelKind {
    match env.map(str::trim) {
        Some("scalar") => KernelKind::Scalar,
        // `simd` and `auto` (and anything unrecognised) both take the best
        // the machine offers; `simd` simply has nothing stricter to ask for
        // on stable Rust than "the detected SIMD path, if any".
        _ => simd.unwrap_or(KernelKind::Scalar),
    }
}

/// The active kernel kind, resolved once from `SIGRULE_KERNEL` + feature
/// detection and cached.
pub fn kind() -> KernelKind {
    match KernelKind::from_code(ACTIVE.load(Relaxed)) {
        Some(kind) => kind,
        None => {
            let env = std::env::var("SIGRULE_KERNEL").ok();
            let resolved = resolve(env.as_deref(), simd_kind());
            ACTIVE.store(resolved.code(), Relaxed);
            resolved
        }
    }
}

/// Overrides the active kernel kind (benchmark / A-B-test hook); `None`
/// re-resolves from the environment on the next call to [`kind`].  Forcing a
/// SIMD kind the machine does not support would execute illegal
/// instructions, so unsupported requests degrade to scalar here too.
pub fn force(kind: Option<KernelKind>) {
    let code = match kind {
        None => 0,
        Some(KernelKind::Scalar) => KernelKind::Scalar.code(),
        Some(requested) => {
            if simd_kind() == Some(requested) {
                requested.code()
            } else {
                KernelKind::Scalar.code()
            }
        }
    };
    ACTIVE.store(code, Relaxed);
}

// ---------------------------------------------------------------------------
// Sweep counters (process-wide observability, surfaced via registry_stats).
// ---------------------------------------------------------------------------

/// Batched forest sweeps (one class over one 64-permutation chunk) run in
/// this process: the one store
/// of the count.  Shared as an `Arc` so the metrics registry can render
/// this atomic itself (`sigrule::obs_metrics` exposes it) instead of a copy.
pub static BATCHED_SWEEPS: LazyLock<Arc<AtomicU64>> = LazyLock::new(Arc::default);

/// Records `n` batched forest sweeps actually run (a class
/// whose supports are derived rather than swept is not counted).
pub fn note_batched_sweeps(n: u64) {
    BATCHED_SWEEPS.fetch_add(n, Relaxed);
}

/// Process-wide kernel dispatch observability: which kernel kind is active
/// and how many batched forest sweeps ran.  Counters are cumulative over the
/// process (they exist for dashboards and the serve `stats` surface, not for
/// per-engine accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Active kernel kind name (`"scalar"`, `"avx2"`, `"neon"`).
    pub kernel: &'static str,
    /// Forest sweeps run, one per swept class per permutation chunk.
    pub batched_sweeps: u64,
    /// Always 0 (every sweep is batched); perfbench's `perm.per_perm_sweeps` reads it.
    pub per_perm_sweeps: u64,
}

/// A snapshot of the process-wide kernel counters.
pub fn counters() -> KernelCounters {
    KernelCounters {
        kernel: kind().name(),
        batched_sweeps: BATCHED_SWEEPS.load(Relaxed),
        per_perm_sweeps: 0,
    }
}

// ---------------------------------------------------------------------------
// Dispatching kernels.
// ---------------------------------------------------------------------------

/// `|a ∩ b|`: word-wise `AND` + popcount over the common prefix of the two
/// word slices.  Callers with equal-length guarantees should debug-assert
/// them; the kernel itself only ever reads `min(len)` words.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection.
        KernelKind::Avx2 => unsafe { avx2::and_count(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        KernelKind::Neon => unsafe { neon::and_count(a, b) },
        _ => scalar::and_count(a, b),
    }
}

/// `|a \ b|`: word-wise `AND NOT` + popcount over the common prefix.  The
/// complement-cover primitive (`supp(¬B)` relative to a cover) negative
/// association rules build on.
#[inline]
pub fn andnot_count(a: &[u64], b: &[u64]) -> usize {
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection.
        KernelKind::Avx2 => unsafe { avx2::andnot_count(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        KernelKind::Neon => unsafe { neon::andnot_count(a, b) },
        _ => scalar::andnot_count(a, b),
    }
}

/// `|a|`: popcount of a word slice.
#[inline]
pub fn count_ones(a: &[u64]) -> usize {
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection.
        KernelKind::Avx2 => unsafe { avx2::count_ones(a) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        KernelKind::Neon => unsafe { neon::count_ones(a) },
        _ => scalar::count_ones(a),
    }
}

/// Positional popcount over a record-indexed array of label words: writes
/// `acc[j]` = how many of the record ids in `ids` have bit `j` set in
/// `words[id]`.  With bit `j` of `words[t]` meaning "record `t` carries the
/// class under permutation `j`", this counts a stored id list's class
/// members on all [`LANES`] permutations of a chunk in one walk: one word
/// load per id instead of one per id per permutation.  Lanes whose bit is
/// clear in every word count 0, so a short chunk reads only its live lanes.
///
/// # Panics
///
/// Panics if an id indexes past `words`.
#[inline]
pub fn positional_count(ids: &[u32], words: &[u64], acc: &mut [u32; LANES]) {
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection.
        KernelKind::Avx2 => unsafe { avx2::positional_count(ids, words, acc) },
        _ => scalar::positional_count(ids, words, acc),
    }
}

/// Ids per byte-accumulator block of the positional count: a `u8` counter
/// takes at most 255 increments before it is widened into the `u32`s.
const BYTE_BLOCK: usize = 255;

// ---------------------------------------------------------------------------
// Scalar baseline: 4×u64-unrolled, autovectorisable, explicit tail handling.
// ---------------------------------------------------------------------------

/// The always-available scalar kernels; public so equivalence tests and the
/// microbenchmarks can pin an implementation regardless of dispatch.
pub mod scalar {
    /// Scalar `|a ∩ b|` over the common prefix (4×u64 unrolled + tail loop).
    #[inline]
    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut sums = [0usize; 4];
        let mut i = 0;
        while i + 4 <= n {
            sums[0] += (a[i] & b[i]).count_ones() as usize;
            sums[1] += (a[i + 1] & b[i + 1]).count_ones() as usize;
            sums[2] += (a[i + 2] & b[i + 2]).count_ones() as usize;
            sums[3] += (a[i + 3] & b[i + 3]).count_ones() as usize;
            i += 4;
        }
        // Tail: up to 3 words past the last full 4-word group.
        while i < n {
            sums[0] += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        sums.iter().sum()
    }

    /// Scalar `|a \ b|` over the common prefix.
    #[inline]
    pub fn andnot_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut sums = [0usize; 4];
        let mut i = 0;
        while i + 4 <= n {
            sums[0] += (a[i] & !b[i]).count_ones() as usize;
            sums[1] += (a[i + 1] & !b[i + 1]).count_ones() as usize;
            sums[2] += (a[i + 2] & !b[i + 2]).count_ones() as usize;
            sums[3] += (a[i + 3] & !b[i + 3]).count_ones() as usize;
            i += 4;
        }
        while i < n {
            sums[0] += (a[i] & !b[i]).count_ones() as usize;
            i += 1;
        }
        sums.iter().sum()
    }

    /// Scalar popcount (4×u64 unrolled + tail loop).
    #[inline]
    pub fn count_ones(a: &[u64]) -> usize {
        let mut sums = [0usize; 4];
        let mut i = 0;
        while i + 4 <= a.len() {
            sums[0] += a[i].count_ones() as usize;
            sums[1] += a[i + 1].count_ones() as usize;
            sums[2] += a[i + 2].count_ones() as usize;
            sums[3] += a[i + 3].count_ones() as usize;
            i += 4;
        }
        while i < a.len() {
            sums[0] += a[i].count_ones() as usize;
            i += 1;
        }
        sums.iter().sum()
    }

    /// Scalar positional popcount (SWAR): eight `u64` accumulators hold one
    /// byte counter per lane — accumulator `k`, byte `b` counts lane
    /// `8b + k` — so each id costs eight shift-mask-adds instead of 64 bit
    /// tests.  The bytes are widened into `acc` every 255 ids.
    #[inline]
    pub fn positional_count(ids: &[u32], words: &[u64], acc: &mut [u32; super::LANES]) {
        const LOW_BITS: u64 = 0x0101_0101_0101_0101;
        *acc = [0; super::LANES];
        for block in ids.chunks(super::BYTE_BLOCK) {
            let mut sums = [0u64; 8];
            for &t in block {
                let word = words[t as usize];
                for (k, sum) in sums.iter_mut().enumerate() {
                    *sum += (word >> k) & LOW_BITS;
                }
            }
            for (k, sum) in sums.iter().enumerate() {
                for byte in 0..8 {
                    acc[8 * byte + k] += ((sum >> (8 * byte)) & 0xff) as u32;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2: 256-bit AND + Mula nibble-LUT popcount.
// ---------------------------------------------------------------------------

/// The AVX2 kernels (x86/x86_64 only; callers must verify AVX2 support).
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
pub mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Per-64-bit-lane popcount of a 256-bit vector: nibble lookup
    /// (`pshufb`) summed with `psadbw` (Muła's method).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_epi64(v: __m256i) -> __m256i {
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Horizontal sum of the four 64-bit lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let sum = _mm_add_epi64(lo, hi);
        (_mm_cvtsi128_si64(sum) as u64)
            .wrapping_add(_mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)) as u64)
    }

    /// AVX2 `|a ∩ b|` over the common prefix.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-detect before calling).
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let av = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_and_si256(av, bv)));
            i += 4;
        }
        let mut total = hsum_epi64(acc) as usize;
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// AVX2 `|a \ b|` over the common prefix.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-detect before calling).
    #[target_feature(enable = "avx2")]
    pub unsafe fn andnot_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let av = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            // andnot(x, y) = !x & y, so pass b first.
            acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_andnot_si256(bv, av)));
            i += 4;
        }
        let mut total = hsum_epi64(acc) as usize;
        while i < n {
            total += (a[i] & !b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// AVX2 popcount.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-detect before calling).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_ones(a: &[u64]) -> usize {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= a.len() {
            let av = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount_epi64(av));
            i += 4;
        }
        let mut total = hsum_epi64(acc) as usize;
        while i < a.len() {
            total += a[i].count_ones() as usize;
            i += 1;
        }
        total
    }

    /// AVX2 positional popcount: each id's word is broadcast, its eight
    /// bytes are spread over 64 byte lanes by two `pshufb`s (byte `i` of the
    /// low half takes word byte `i / 8`, of the high half byte `4 + i / 8`),
    /// and an `and` + `cmpeq` against the per-byte bit mask turns lane `i`'s
    /// bit into `0xff`, which is subtracted from two `u8` accumulators.
    /// The accumulators are widened into `acc` every 255 ids.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-detect before calling).
    #[target_feature(enable = "avx2")]
    pub unsafe fn positional_count(ids: &[u32], words: &[u64], acc: &mut [u32; super::LANES]) {
        let spread_lo = _mm256_setr_epi8(
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3,
            3, 3, 3,
        );
        let spread_hi = _mm256_setr_epi8(
            4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7,
            7, 7, 7,
        );
        let bits = _mm256_set1_epi64x(i64::from_le_bytes([1, 2, 4, 8, 16, 32, 64, 128]));
        *acc = [0; super::LANES];
        for block in ids.chunks(super::BYTE_BLOCK) {
            let mut sum_lo = _mm256_setzero_si256();
            let mut sum_hi = _mm256_setzero_si256();
            for &t in block {
                let word = _mm256_set1_epi64x(words[t as usize] as i64);
                let lo = _mm256_and_si256(_mm256_shuffle_epi8(word, spread_lo), bits);
                let hi = _mm256_and_si256(_mm256_shuffle_epi8(word, spread_hi), bits);
                sum_lo = _mm256_sub_epi8(sum_lo, _mm256_cmpeq_epi8(lo, bits));
                sum_hi = _mm256_sub_epi8(sum_hi, _mm256_cmpeq_epi8(hi, bits));
            }
            let mut bytes = [0u8; super::LANES];
            _mm256_storeu_si256(bytes.as_mut_ptr() as *mut __m256i, sum_lo);
            _mm256_storeu_si256(bytes.as_mut_ptr().add(32) as *mut __m256i, sum_hi);
            for (total, &b) in acc.iter_mut().zip(&bytes) {
                *total += u32::from(b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NEON: 128-bit AND + vcnt byte popcount.
// ---------------------------------------------------------------------------

/// The NEON kernels (aarch64 only, where NEON is architecturally present).
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use std::arch::aarch64::*;

    /// NEON `|a ∩ b|` over the common prefix.
    ///
    /// # Safety
    ///
    /// Requires NEON (guaranteed on aarch64).
    #[target_feature(enable = "neon")]
    pub unsafe fn and_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut total = 0usize;
        let mut i = 0;
        while i + 2 <= n {
            let av = vld1q_u64(a.as_ptr().add(i));
            let bv = vld1q_u64(b.as_ptr().add(i));
            let and = vandq_u64(av, bv);
            total += vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(and))) as usize;
            i += 2;
        }
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// NEON `|a \ b|` over the common prefix.
    ///
    /// # Safety
    ///
    /// Requires NEON (guaranteed on aarch64).
    #[target_feature(enable = "neon")]
    pub unsafe fn andnot_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut total = 0usize;
        let mut i = 0;
        while i + 2 <= n {
            let av = vld1q_u64(a.as_ptr().add(i));
            let bv = vld1q_u64(b.as_ptr().add(i));
            let diff = vbicq_u64(av, bv); // a & !b
            total += vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(diff))) as usize;
            i += 2;
        }
        while i < n {
            total += (a[i] & !b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// NEON popcount.
    ///
    /// # Safety
    ///
    /// Requires NEON (guaranteed on aarch64).
    #[target_feature(enable = "neon")]
    pub unsafe fn count_ones(a: &[u64]) -> usize {
        let mut total = 0usize;
        let mut i = 0;
        while i + 2 <= a.len() {
            let av = vld1q_u64(a.as_ptr().add(i));
            total += vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(av))) as usize;
            i += 2;
        }
        while i < a.len() {
            total += a[i].count_ones() as usize;
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // Cheap deterministic word stream (splitmix64).
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    fn reference_and_count(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x & y).count_ones() as usize)
            .sum()
    }

    #[test]
    fn resolution_rule() {
        // Explicit scalar always wins.
        assert_eq!(
            resolve(Some("scalar"), Some(KernelKind::Avx2)),
            KernelKind::Scalar
        );
        // simd/auto take the detected SIMD kind…
        assert_eq!(
            resolve(Some("simd"), Some(KernelKind::Avx2)),
            KernelKind::Avx2
        );
        assert_eq!(
            resolve(Some("auto"), Some(KernelKind::Neon)),
            KernelKind::Neon
        );
        assert_eq!(resolve(None, Some(KernelKind::Avx2)), KernelKind::Avx2);
        // …and fall back to scalar when the machine has none: the runtime
        // feature-detection fallback path.
        assert_eq!(resolve(Some("simd"), None), KernelKind::Scalar);
        assert_eq!(resolve(None, None), KernelKind::Scalar);
    }

    #[test]
    fn force_rejects_unsupported_kinds() {
        let unsupported = match simd_kind() {
            Some(KernelKind::Avx2) | None => KernelKind::Neon,
            _ => KernelKind::Avx2,
        };
        force(Some(unsupported));
        assert_eq!(kind(), KernelKind::Scalar, "unsupported force degrades");
        force(None);
    }

    #[test]
    fn scalar_kernels_match_reference_with_tails() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 17, 63, 100] {
            let a = words(1, n);
            let b = words(2, n);
            assert_eq!(scalar::and_count(&a, &b), reference_and_count(&a, &b));
            assert_eq!(
                scalar::count_ones(&a),
                a.iter().map(|w| w.count_ones() as usize).sum::<usize>()
            );
            assert_eq!(
                scalar::andnot_count(&a, &b),
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| (x & !y).count_ones() as usize)
                    .sum::<usize>()
            );
        }
    }

    #[test]
    fn simd_kernels_match_scalar_when_available() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        if simd_kind() == Some(KernelKind::Avx2) {
            for n in [0usize, 1, 3, 4, 5, 7, 8, 17, 63, 100, 257] {
                let a = words(3, n);
                let b = words(4, n);
                // SAFETY: AVX2 support checked above.
                unsafe {
                    assert_eq!(avx2::and_count(&a, &b), scalar::and_count(&a, &b), "n={n}");
                    assert_eq!(avx2::count_ones(&a), scalar::count_ones(&a), "n={n}");
                    assert_eq!(
                        avx2::andnot_count(&a, &b),
                        scalar::andnot_count(&a, &b),
                        "n={n}"
                    );
                }
            }
        }
    }

    /// The naive reference: one bit test per id per lane.
    fn reference_positional(ids: &[u32], words: &[u64]) -> [u32; LANES] {
        let mut acc = [0u32; LANES];
        for &t in ids {
            for (lane, sum) in acc.iter_mut().enumerate() {
                *sum += ((words[t as usize] >> lane) & 1) as u32;
            }
        }
        acc
    }

    #[test]
    fn batched_kernels_match_per_lane_counts() {
        // Id counts around the 255-id byte-accumulator blocks, over words
        // with every lane live and with only the low 5 lanes live.
        let n = 600;
        for live in [LANES, 5] {
            let mask = if live == LANES {
                u64::MAX
            } else {
                (1 << live) - 1
            };
            let label_words: Vec<u64> = words(12, n).iter().map(|w| w & mask).collect();
            for n_ids in [0usize, 1, 254, 255, 256, 511] {
                let ids: Vec<u32> = (0..n_ids as u32).map(|i| (i * 7) % n as u32).collect();
                let want = reference_positional(&ids, &label_words);
                let mut acc = [u32::MAX; LANES];
                scalar::positional_count(&ids, &label_words, &mut acc);
                assert_eq!(acc, want, "scalar live={live} ids={n_ids}");
                positional_count(&ids, &label_words, &mut acc);
                assert_eq!(acc, want, "dispatched live={live} ids={n_ids}");
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                if simd_kind() == Some(KernelKind::Avx2) {
                    // SAFETY: AVX2 support checked above.
                    unsafe { avx2::positional_count(&ids, &label_words, &mut acc) };
                    assert_eq!(acc, want, "avx2 live={live} ids={n_ids}");
                }
                assert!(acc[live..].iter().all(|&c| c == 0), "dead lanes count 0");
            }
        }
    }

    #[test]
    fn gather_matches_bit_tests() {
        // Every id repeated 300 times: a single lane count crosses the
        // byte-accumulator limit within one block.
        let label_words = vec![0x8000_0000_0000_0001u64, u64::MAX, 0];
        let ids: Vec<u32> = (0..900).map(|i| i % 3).collect();
        let mut acc = [0u32; LANES];
        positional_count(&ids, &label_words, &mut acc);
        assert_eq!(acc, reference_positional(&ids, &label_words));
        assert_eq!((acc[0], acc[1], acc[63]), (600, 300, 600));
    }

    #[test]
    #[should_panic]
    fn positional_count_rejects_ids_past_the_words() {
        let mut acc = [0u32; LANES];
        positional_count(&[0, 3], &[1, 2, 3], &mut acc);
    }

    #[test]
    fn sweep_counters_accumulate() {
        let before = counters();
        note_batched_sweeps(3);
        let after = counters();
        assert!(after.batched_sweeps >= before.batched_sweeps + 3);
        assert_eq!(after.per_perm_sweeps, 0);
        assert!(!after.kernel.is_empty());
    }
}
