/**
 * @file
 * The two scans every TLB set and PWC bank makes over its contiguous
 * 8-byte arrays: the key match and the victim choice. Plain scalar
 * loops, which the compiler unrolls for the fixed way counts the TLB
 * dispatches on; wider vector versions measured slower on short
 * fixed-trip probes like these (EXPERIMENTS.md).
 */

#ifndef DMT_TLB_SET_SWEEP_HH
#define DMT_TLB_SET_SWEEP_HH

#include <cstdint>

namespace dmt
{

/**
 * Index of the LAST of the `n` elements at `p` equal to `key`, or -1
 * when none matches. For the lookup structures "last" is moot:
 * duplicate keys within a set are an audited invariant violation, so
 * the last match is the only match.
 */
inline int
lastEqualIndex(const std::uint64_t *p, int n, std::uint64_t key)
{
    int last = -1;
    for (int i = 0; i < n; ++i) {
        if (p[i] == key)
            last = i;
    }
    return last;
}

/**
 * Index of the FIRST minimum of the `n` (>= 1) elements at `p`, ties
 * to the lowest index: the victim scan. Invalid ways keep LRU stamp
 * 0, below every valid stamp, so it picks the first invalid way if
 * one exists and the true LRU way otherwise.
 */
inline int
firstMinIndex(const std::uint64_t *p, int n)
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

} // namespace dmt

#endif // DMT_TLB_SET_SWEEP_HH
