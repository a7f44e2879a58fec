//! Explicit SIMD bitmap kernels with runtime dispatch.
//!
//! Every support count the permutation engine performs bottoms out in one of
//! a handful of word-sweep kernels over packed `u64` bitmap words:
//! intersect-and-popcount ([`and_count`]), plain popcount ([`count_ones`]),
//! complement intersect ([`andnot_count`] — the primitive negative-rule
//! covers need), and the batched variants that sweep one cover against a
//! whole *lane block* of permuted class bitmaps at once ([`and_count_many`],
//! [`count_ones_many`], [`gather_count_many`]).
//!
//! Three implementations back each kernel:
//!
//! | kind     | selected when                                   | technique |
//! |----------|--------------------------------------------------|-----------|
//! | `scalar` | always available                                 | 4×u64-unrolled loops the compiler autovectorises |
//! | `avx2`   | x86/x86_64 with AVX2 (runtime-detected)          | 256-bit `AND` + Mula nibble-LUT popcount (`pshufb` + `psadbw`) |
//! | `neon`   | aarch64 (NEON is architecturally guaranteed)     | 128-bit `AND` + `vcnt`/`vaddlv` byte popcount |
//!
//! The active kind is resolved **once** per process — from the
//! `SIGRULE_KERNEL` environment variable (`scalar`, `simd`, or `auto`; an
//! unsupported `simd` request falls back to scalar) and runtime feature
//! detection — and cached in an atomic, so dispatch on the hot path is one
//! relaxed load and a predictable branch.  [`force`] overrides the selection
//! at runtime for A/B tests and benchmarks.
//!
//! Every kernel returns exact integer counts, so the three implementations
//! are interchangeable bit for bit; `tests/kernel_equivalence.rs` proves it
//! over random word vectors including non-multiple-of-4 tails.
//!
//! # Lane blocks (batched layout)
//!
//! The batched kernels read a *transposed* block of `lanes` equally sized
//! bitmaps: word `w` of lane `l` lives at `block[w * lanes + l]`, so all
//! lanes' copies of one word index are contiguous.  A sweep then loads each
//! cover word **once** and `AND`s it against `lanes` adjacent permuted label
//! words — the cache-blocked inner loop of the batched permutation engine
//! (see [`LaneBlock`](crate::vertical::LaneBlock)).

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

/// Batched (lane-block) forest sweeps run in this process: the one store
/// of the count.  Shared as an `Arc` so the metrics registry can render
/// this atomic itself (`sigrule::obs_metrics` exposes it) instead of a copy.
pub static BATCHED_SWEEPS: LazyLock<Arc<AtomicU64>> = LazyLock::new(Arc::default);

/// Records `n` batched (lane-block) forest sweeps actually run (a class
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
    /// Forest sweeps that ran through the batched lane-block path.
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

/// Batched `AND` + popcount: writes `acc[l] = |cover ∩ lane l|` for every
/// lane of a transposed block (`block[w * lanes + l]` = word `w` of lane
/// `l`).  Each cover word is loaded once and swept against `lanes` adjacent
/// block words — the cache-blocked batched-permutation kernel.
///
/// # Panics
///
/// Panics if `acc.len() < lanes` or the block is not `cover.len() * lanes`
/// words.
#[inline]
pub fn and_count_many(cover: &[u64], block: &[u64], lanes: usize, acc: &mut [u32]) {
    assert!(acc.len() >= lanes, "need one accumulator per lane");
    assert_eq!(block.len(), cover.len() * lanes, "block shape mismatch");
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection.
        KernelKind::Avx2 => unsafe { avx2::and_count_many(cover, block, lanes, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        KernelKind::Neon => unsafe { neon::and_count_many(cover, block, lanes, acc) },
        _ => scalar::and_count_many(cover, block, lanes, acc),
    }
}

/// Batched popcount: writes `acc[l] = |lane l|` for every lane of a
/// transposed block of `words_per_lane * lanes` words.
///
/// # Panics
///
/// Panics if `acc.len() < lanes` or the block length is not a multiple of
/// `lanes`.
#[inline]
pub fn count_ones_many(block: &[u64], lanes: usize, acc: &mut [u32]) {
    assert!(acc.len() >= lanes, "need one accumulator per lane");
    assert!(
        lanes > 0 && block.len().is_multiple_of(lanes),
        "block shape mismatch"
    );
    scalar_count_ones_many_dispatch(block, lanes, acc);
}

#[inline]
fn scalar_count_ones_many_dispatch(block: &[u64], lanes: usize, acc: &mut [u32]) {
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection.
        KernelKind::Avx2 => unsafe { avx2::count_ones_many(block, lanes, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        KernelKind::Neon => unsafe { neon::count_ones_many(block, lanes, acc) },
        _ => scalar::count_ones_many(block, lanes, acc),
    }
}

/// Batched sparse membership count: writes `acc[l]` = how many of the sorted
/// record ids in `tids` have their bit set in lane `l` of the transposed
/// block.  This is the tid-list counting kernel of the batched permutation
/// path: one cache line of the block serves all lanes of one id (and, for
/// clustered ids, up to 64 consecutive ids).
///
/// # Panics
///
/// Panics if `acc.len() < lanes`, the block length is not a multiple of
/// `lanes`, or a tid indexes past the block.
#[inline]
pub fn gather_count_many(tids: &[u32], block: &[u64], lanes: usize, acc: &mut [u32]) {
    assert!(acc.len() >= lanes, "need one accumulator per lane");
    assert!(
        lanes > 0 && block.len().is_multiple_of(lanes),
        "block shape mismatch"
    );
    if let Some(&max) = tids.last() {
        assert!(
            (max as usize / 64 + 1) * lanes <= block.len(),
            "tid {max} out of range for the block"
        );
    }
    match kind() {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `kind()` only returns Avx2 after runtime detection; the
        // bound check above covers every lane-group load.
        KernelKind::Avx2 => unsafe { avx2::gather_count_many(tids, block, lanes, acc) },
        _ => scalar::gather_count_many(tids, block, lanes, acc),
    }
}

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

    /// Scalar batched `AND` + popcount over a transposed block.
    #[inline]
    pub fn and_count_many(cover: &[u64], block: &[u64], lanes: usize, acc: &mut [u32]) {
        acc[..lanes].fill(0);
        for (w, &c) in cover.iter().enumerate() {
            let row = &block[w * lanes..(w + 1) * lanes];
            for (sum, &word) in acc[..lanes].iter_mut().zip(row) {
                *sum += (c & word).count_ones();
            }
        }
    }

    /// Scalar batched popcount over a transposed block.
    #[inline]
    pub fn count_ones_many(block: &[u64], lanes: usize, acc: &mut [u32]) {
        acc[..lanes].fill(0);
        for row in block.chunks_exact(lanes) {
            for (sum, &word) in acc[..lanes].iter_mut().zip(row) {
                *sum += word.count_ones();
            }
        }
    }

    /// Scalar batched sparse membership count over a transposed block.
    #[inline]
    pub fn gather_count_many(tids: &[u32], block: &[u64], lanes: usize, acc: &mut [u32]) {
        acc[..lanes].fill(0);
        for &t in tids {
            let row = &block[(t as usize / 64) * lanes..];
            let shift = t % 64;
            for (sum, &word) in acc[..lanes].iter_mut().zip(row) {
                *sum += ((word >> shift) & 1) as u32;
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

    /// AVX2 batched `AND` + popcount over a transposed block: lane groups of
    /// four ride one 256-bit accumulator each while every cover word is
    /// broadcast once per group.
    ///
    /// # Safety
    ///
    /// Requires AVX2; block must be `cover.len() * lanes` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_count_many(cover: &[u64], block: &[u64], lanes: usize, acc: &mut [u32]) {
        let mut lane = 0;
        while lane + 4 <= lanes {
            let mut acc_v = _mm256_setzero_si256();
            for (w, &c) in cover.iter().enumerate() {
                let v = _mm256_loadu_si256(block.as_ptr().add(w * lanes + lane) as *const __m256i);
                let cv = _mm256_set1_epi64x(c as i64);
                acc_v = _mm256_add_epi64(acc_v, popcount_epi64(_mm256_and_si256(v, cv)));
            }
            let mut sums = [0u64; 4];
            _mm256_storeu_si256(sums.as_mut_ptr() as *mut __m256i, acc_v);
            for (dst, &s) in acc[lane..lane + 4].iter_mut().zip(sums.iter()) {
                *dst = s as u32;
            }
            lane += 4;
        }
        // Tail lanes (lanes % 4): scalar per lane.
        while lane < lanes {
            let mut sum = 0u32;
            for (w, &c) in cover.iter().enumerate() {
                sum += (c & block[w * lanes + lane]).count_ones();
            }
            acc[lane] = sum;
            lane += 1;
        }
    }

    /// AVX2 batched popcount over a transposed block.
    ///
    /// # Safety
    ///
    /// Requires AVX2; block length must be a multiple of `lanes`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_ones_many(block: &[u64], lanes: usize, acc: &mut [u32]) {
        let words_per_lane = block.len() / lanes;
        let mut lane = 0;
        while lane + 4 <= lanes {
            let mut acc_v = _mm256_setzero_si256();
            for w in 0..words_per_lane {
                let v = _mm256_loadu_si256(block.as_ptr().add(w * lanes + lane) as *const __m256i);
                acc_v = _mm256_add_epi64(acc_v, popcount_epi64(v));
            }
            let mut sums = [0u64; 4];
            _mm256_storeu_si256(sums.as_mut_ptr() as *mut __m256i, acc_v);
            for (dst, &s) in acc[lane..lane + 4].iter_mut().zip(sums.iter()) {
                *dst = s as u32;
            }
            lane += 4;
        }
        while lane < lanes {
            let mut sum = 0u32;
            for w in 0..words_per_lane {
                sum += block[w * lanes + lane].count_ones();
            }
            acc[lane] = sum;
            lane += 1;
        }
    }

    /// AVX2 batched sparse membership count: per sorted id, one unaligned
    /// load covers four lanes' words and a shared shift extracts the bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every tid's lane-group words must be inside `block`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_count_many(tids: &[u32], block: &[u64], lanes: usize, acc: &mut [u32]) {
        let ones = _mm256_set1_epi64x(1);
        let mut lane = 0;
        while lane + 4 <= lanes {
            let mut acc_v = _mm256_setzero_si256();
            for &t in tids {
                let base = (t as usize / 64) * lanes + lane;
                let v = _mm256_loadu_si256(block.as_ptr().add(base) as *const __m256i);
                let shift = _mm_cvtsi32_si128((t % 64) as i32);
                let bits = _mm256_and_si256(_mm256_srl_epi64(v, shift), ones);
                acc_v = _mm256_add_epi64(acc_v, bits);
            }
            let mut sums = [0u64; 4];
            _mm256_storeu_si256(sums.as_mut_ptr() as *mut __m256i, acc_v);
            for (dst, &s) in acc[lane..lane + 4].iter_mut().zip(sums.iter()) {
                *dst = s as u32;
            }
            lane += 4;
        }
        while lane < lanes {
            let mut sum = 0u32;
            for &t in tids {
                sum += ((block[(t as usize / 64) * lanes + lane] >> (t % 64)) & 1) as u32;
            }
            acc[lane] = sum;
            lane += 1;
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

    /// NEON batched `AND` + popcount over a transposed block (lane pairs).
    ///
    /// # Safety
    ///
    /// Requires NEON; block must be `cover.len() * lanes` words.
    #[target_feature(enable = "neon")]
    pub unsafe fn and_count_many(cover: &[u64], block: &[u64], lanes: usize, acc: &mut [u32]) {
        let mut lane = 0;
        while lane + 2 <= lanes {
            let mut sums = vdupq_n_u64(0);
            for (w, &c) in cover.iter().enumerate() {
                let v = vld1q_u64(block.as_ptr().add(w * lanes + lane));
                let and = vandq_u64(v, vdupq_n_u64(c));
                let cnt = vcntq_u8(vreinterpretq_u8_u64(and));
                sums = vaddq_u64(sums, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
            }
            acc[lane] = vgetq_lane_u64(sums, 0) as u32;
            acc[lane + 1] = vgetq_lane_u64(sums, 1) as u32;
            lane += 2;
        }
        while lane < lanes {
            let mut sum = 0u32;
            for (w, &c) in cover.iter().enumerate() {
                sum += (c & block[w * lanes + lane]).count_ones();
            }
            acc[lane] = sum;
            lane += 1;
        }
    }

    /// NEON batched popcount over a transposed block.
    ///
    /// # Safety
    ///
    /// Requires NEON; block length must be a multiple of `lanes`.
    #[target_feature(enable = "neon")]
    pub unsafe fn count_ones_many(block: &[u64], lanes: usize, acc: &mut [u32]) {
        let words_per_lane = block.len() / lanes;
        let mut lane = 0;
        while lane + 2 <= lanes {
            let mut sums = vdupq_n_u64(0);
            for w in 0..words_per_lane {
                let v = vld1q_u64(block.as_ptr().add(w * lanes + lane));
                let cnt = vcntq_u8(vreinterpretq_u8_u64(v));
                sums = vaddq_u64(sums, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
            }
            acc[lane] = vgetq_lane_u64(sums, 0) as u32;
            acc[lane + 1] = vgetq_lane_u64(sums, 1) as u32;
            lane += 2;
        }
        while lane < lanes {
            let mut sum = 0u32;
            for w in 0..words_per_lane {
                sum += block[w * lanes + lane].count_ones();
            }
            acc[lane] = sum;
            lane += 1;
        }
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

    #[test]
    fn batched_kernels_match_per_lane_counts() {
        for lanes in [1usize, 2, 3, 4, 5, 7, 8, 11] {
            for words_per_lane in [1usize, 2, 5, 16, 33] {
                let cover = words(9, words_per_lane);
                let block = words(10, words_per_lane * lanes);
                let mut acc = vec![0u32; lanes];
                and_count_many(&cover, &block, lanes, &mut acc);
                for lane in 0..lanes {
                    let lane_words: Vec<u64> = (0..words_per_lane)
                        .map(|w| block[w * lanes + lane])
                        .collect();
                    assert_eq!(
                        acc[lane] as usize,
                        reference_and_count(&cover, &lane_words),
                        "lanes={lanes} wpl={words_per_lane} lane={lane}"
                    );
                }
                count_ones_many(&block, lanes, &mut acc);
                for lane in 0..lanes {
                    let expect: usize = (0..words_per_lane)
                        .map(|w| block[w * lanes + lane].count_ones() as usize)
                        .sum();
                    assert_eq!(acc[lane] as usize, expect);
                }
            }
        }
    }

    #[test]
    fn gather_matches_bit_tests() {
        let lanes = 8;
        let words_per_lane = 6;
        let block = words(11, words_per_lane * lanes);
        let tids: Vec<u32> = vec![0, 1, 5, 63, 64, 100, 200, 383];
        let mut acc = vec![0u32; lanes];
        gather_count_many(&tids, &block, lanes, &mut acc);
        for lane in 0..lanes {
            let expect = tids
                .iter()
                .filter(|&&t| (block[(t as usize / 64) * lanes + lane] >> (t % 64)) & 1 == 1)
                .count();
            assert_eq!(acc[lane] as usize, expect, "lane={lane}");
        }
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
