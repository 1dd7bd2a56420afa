/**
 * @file
 * The wide-ops layer: portable data-parallel kernels for the hot
 * probe loops.
 *
 * The TLB sets and PWC banks keep their match keys as contiguous
 * 8-byte arrays precisely so the probe is a streaming equality sweep
 * (cache sets are recency-ordered and scanned front to back instead).
 * This header turns that sweep into one (or a few) vector compares.
 * One backend is selected at compile time — AVX2, SSE2, NEON, or the
 * scalar fallback — and reported at runtime through backendName() so
 * `--json` artifacts record which kernels produced a measurement. The
 * scalar fallback is the default; `-DDMT_SIMD=on` opts into the widest
 * backend the compile flags allow (see the selection block below for
 * why).
 *
 * Contract: every wide kernel is bit-for-bit equivalent to its
 * scalar reference (the *Ref function next to it), for every input —
 * including duplicate keys, where "last match wins" mirrors the
 * branch-light scalar loops the kernels replaced. tests/test_simd.cc
 * pins this exhaustively per backend; a `-DDMT_SIMD=on` CI leg runs
 * the whole suite over the wide kernels so the opt-in path cannot
 * rot, and per-backend test targets cover SSE2 and AVX2 from every
 * leg regardless of the build's own backend.
 *
 * House rule (dmtlint `raw-simd`): vendor intrinsics live in this
 * header and nowhere else. Call sites express intent through these
 * kernels; the backend choice stays in one file.
 */

#ifndef DMT_COMMON_SIMD_HH
#define DMT_COMMON_SIMD_HH

#include <cstdint>

/*
 * The wide backends are opt-in (-DDMT_SIMD=on → DMT_SIMD_WIDE).
 * Interleaved A/B on the reference host (EXPERIMENTS.md, "Throughput
 * methodology") measured the scalar loops FASTER than both x86
 * vector paths for these short fixed-trip probes: SSE2 pays a
 * pair-swapped double compare to synthesize the missing 64-bit
 * equality and its 2 lanes never amortize it (0.8-1.0x), and the
 * AVX2 build loses 25-45% across the board on the virtualized host,
 * consistent with frequency-licence throttling. The kernels stay —
 * correctness-pinned per backend by tests/test_simd.cc and the
 * dmt_simd_{wide,avx2}_tests targets — so the trade can be re-taken
 * per deployment host with one configure flag.
 */
#if defined(DMT_SIMD_WIDE)
#if defined(__AVX2__)
#define DMT_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define DMT_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define DMT_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif // DMT_SIMD_WIDE

namespace dmt
{
namespace simd
{

/** Compile-time-selected backend, for runtime reporting. */
enum class Backend
{
    Scalar,
    Sse2,
    Avx2,
    Neon,
};

#if defined(DMT_SIMD_AVX2)
inline constexpr Backend kBackend = Backend::Avx2;
inline constexpr int kLanes = 4;  //!< 64-bit lanes per vector
#elif defined(DMT_SIMD_SSE2)
inline constexpr Backend kBackend = Backend::Sse2;
inline constexpr int kLanes = 2;
#elif defined(DMT_SIMD_NEON)
inline constexpr Backend kBackend = Backend::Neon;
inline constexpr int kLanes = 2;
#else
inline constexpr Backend kBackend = Backend::Scalar;
inline constexpr int kLanes = 1;
#endif

/** Name of the active backend ("avx2", "sse2", "neon", "scalar"). */
constexpr const char *
backendName()
{
    switch (kBackend) {
      case Backend::Avx2:
        return "avx2";
      case Backend::Sse2:
        return "sse2";
      case Backend::Neon:
        return "neon";
      case Backend::Scalar:
        return "scalar";
    }
    return "scalar";  // unreachable
}

/**
 * Scalar reference for findLastEqU64 — the exact loop the lookup
 * structures ran before the wide kernels, kept callable so the
 * differential suite can compare against it on any backend.
 * @return index of the LAST lane equal to `key`, or -1.
 */
inline int
findLastEqU64Ref(const std::uint64_t *p, int n, std::uint64_t key)
{
    int last = -1;
    for (int i = 0; i < n; ++i) {
        if (p[i] == key)
            last = i;
    }
    return last;
}

/**
 * Index of the LAST 64-bit element equal to `key` among the `n`
 * contiguous elements at `p`, or -1 when none matches.
 *
 * "Last" mirrors the branch-light scalar sweeps this replaces; for
 * the lookup structures the distinction is moot (duplicate keys are
 * an audited invariant violation), but the kernel's contract is
 * total so the differential tests can drive it with arbitrary
 * inputs. `n` may be 0; p may be unaligned. Lanes beyond the last
 * full vector are finished by the reference loop.
 */
inline int
findLastEqU64(const std::uint64_t *p, int n, std::uint64_t key)
{
#if defined(DMT_SIMD_AVX2)
    int last = -1;
    const __m256i k =
        _mm256_set1_epi64x(static_cast<long long>(key));
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        const unsigned mask = static_cast<unsigned>(
            _mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, k))));
        if (mask)
            last = i + 31 - __builtin_clz(mask);
    }
    for (; i < n; ++i) {
        if (p[i] == key)
            last = i;
    }
    return last;
#elif defined(DMT_SIMD_SSE2)
    // SSE2 has no 64-bit compare: compare 32-bit halves and AND the
    // result with its pair-swapped self, so a 64-bit lane is all-ones
    // iff both halves matched.
    int last = -1;
    const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
    int i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i));
        const __m128i eq32 = _mm_cmpeq_epi32(v, k);
        const __m128i eq64 = _mm_and_si128(
            eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
        const unsigned mask = static_cast<unsigned>(
            _mm_movemask_pd(_mm_castsi128_pd(eq64)));
        if (mask)
            last = i + (mask >> 1);  // 0b10/0b11 -> lane 1, 0b01 -> 0
    }
    for (; i < n; ++i) {
        if (p[i] == key)
            last = i;
    }
    return last;
#elif defined(DMT_SIMD_NEON)
    int last = -1;
    const uint64x2_t k = vdupq_n_u64(key);
    int i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(p + i), k);
        if (vgetq_lane_u64(eq, 1))
            last = i + 1;
        else if (vgetq_lane_u64(eq, 0))
            last = i;
    }
    for (; i < n; ++i) {
        if (p[i] == key)
            last = i;
    }
    return last;
#else
    return findLastEqU64Ref(p, n, key);
#endif
}

/**
 * Scalar reference for anyEqU64: does any of the `n` elements at `p`
 * equal `key`?
 */
inline bool
anyEqU64Ref(const std::uint64_t *p, int n, std::uint64_t key)
{
    for (int i = 0; i < n; ++i) {
        if (p[i] == key)
            return true;
    }
    return false;
}

/**
 * Existence-only probe: true iff some element equals `key`. Cheaper
 * than findLastEqU64 where the way index is not needed (read-only
 * screens); same totality contract.
 */
inline bool
anyEqU64(const std::uint64_t *p, int n, std::uint64_t key)
{
#if defined(DMT_SIMD_AVX2)
    int i = 0;
    const __m256i k =
        _mm256_set1_epi64x(static_cast<long long>(key));
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        if (_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, k))))
            return true;
    }
    for (; i < n; ++i) {
        if (p[i] == key)
            return true;
    }
    return false;
#elif defined(DMT_SIMD_SSE2)
    int i = 0;
    const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
    for (; i + 2 <= n; i += 2) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i));
        const __m128i eq32 = _mm_cmpeq_epi32(v, k);
        const __m128i eq64 = _mm_and_si128(
            eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
        if (_mm_movemask_pd(_mm_castsi128_pd(eq64)))
            return true;
    }
    for (; i < n; ++i) {
        if (p[i] == key)
            return true;
    }
    return false;
#elif defined(DMT_SIMD_NEON)
    int i = 0;
    const uint64x2_t k = vdupq_n_u64(key);
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t eq = vceqq_u64(vld1q_u64(p + i), k);
        if (vgetq_lane_u64(vorrq_u64(eq, vextq_u64(eq, eq, 1)), 0))
            return true;
    }
    for (; i < n; ++i) {
        if (p[i] == key)
            return true;
    }
    return false;
#else
    return anyEqU64Ref(p, n, key);
#endif
}

/**
 * Scalar reference for minIndexU64: index of the FIRST minimum
 * element (ties to the lowest index) — exactly the branchless
 * first-minimum victim scan every lookup structure runs, where
 * invalid ways pinned at stamp 0 sort below all valid stamps.
 * Requires n >= 1.
 */
inline int
minIndexU64Ref(const std::uint64_t *p, int n)
{
    int best = 0;
    std::uint64_t min = p[0];
    for (int i = 1; i < n; ++i) {
        const bool lower = p[i] < min;
        min = lower ? p[i] : min;
        best = lower ? i : best;
    }
    return best;
}

/**
 * Index of the first minimum of `n` (>= 1) unsigned 64-bit elements,
 * ties to the lowest index. The victim-selection kernel: invalid
 * ways keep LRU stamp 0, so the first minimum is the first invalid
 * way if any, else the true LRU way.
 */
inline int
minIndexU64(const std::uint64_t *p, int n)
{
#if defined(DMT_SIMD_AVX2)
    if (n < 8)
        return minIndexU64Ref(p, n);
    // Lane-parallel running minimum with the lane's source index
    // packed into the value's low bits? No — stamps use the full
    // 64-bit range. Track (min, index) per lane instead: compare
    // with the unsigned trick (flip the sign bit, compare signed).
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    __m256i minv = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)),
        sign);
    __m256i mini = _mm256_set_epi64x(3, 2, 1, 0);
    const __m256i four = _mm256_set1_epi64x(4);
    __m256i idx = mini;
    int i = 4;
    for (; i + 4 <= n; i += 4) {
        idx = _mm256_add_epi64(idx, four);
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + i)),
            sign);
        // Strictly-lower replaces: keeps the earliest index on ties.
        const __m256i lt = _mm256_cmpgt_epi64(minv, v);
        minv = _mm256_blendv_epi8(minv, v, lt);
        mini = _mm256_blendv_epi8(mini, idx, lt);
    }
    alignas(32) std::uint64_t mv[4];
    alignas(32) std::uint64_t mi[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(mv), minv);
    _mm256_store_si256(reinterpret_cast<__m256i *>(mi), mini);
    // Horizontal reduce: strict compare + lower-index tiebreak
    // reproduces the sequential scan's choice exactly.
    std::uint64_t bestv = mv[0] ^ 0x8000000000000000ull;
    int besti = static_cast<int>(mi[0]);
    for (int l = 1; l < 4; ++l) {
        const std::uint64_t v = mv[l] ^ 0x8000000000000000ull;
        const int li = static_cast<int>(mi[l]);
        if (v < bestv || (v == bestv && li < besti)) {
            bestv = v;
            besti = li;
        }
    }
    for (; i < n; ++i) {
        if (p[i] < bestv) {
            bestv = p[i];
            besti = i;
        }
    }
    return besti;
#else
    // SSE2 lacks a 64-bit compare and NEON's is not worth two lanes;
    // the branchless scalar scan is already compare+cmov per element.
    return minIndexU64Ref(p, n);
#endif
}

} // namespace simd
} // namespace dmt

#endif // DMT_COMMON_SIMD_HH
