#include "sim/translation_sim.hh"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "core/dmt_fetcher.hh"
#include "obs/event.hh"
#include "sim/radix_walker.hh"

namespace dmt
{

namespace
{

std::uint8_t
narrow8(std::uint32_t v)
{
    DMT_ASSERT(v <= 0xff, "event field %u overflows a byte", v);
    return static_cast<std::uint8_t>(v);
}

std::uint16_t
narrow16(std::uint64_t v)
{
    DMT_ASSERT(v <= 0xffff,
               "event field %llu overflows 16 bits",
               static_cast<unsigned long long>(v));
    return static_cast<std::uint16_t>(v);
}

/** Flat cell index for one step's (slot | dim, level) key. */
int
stepCellIndex(const WalkStepCost &step)
{
    if (step.slot >= 0)
        return step.slot;  // slots are 1-24 (Figure 2)
    int dim = 3;  // 'd'
    if (step.dim == 'g')
        dim = 0;
    else if (step.dim == 'h')
        dim = 1;
    else if (step.dim == 'n')
        dim = 2;
    return 32 + dim * 8 + step.level;
}

/** stepCosts map key for a flat cell index (stepCellIndex inverse). */
std::pair<char, int>
stepCellKey(int idx)
{
    if (idx < 32)
        return {'s', idx};
    constexpr char dims[4] = {'g', 'h', 'n', 'd'};
    return {dims[(idx - 32) / 8], (idx - 32) % 8};
}

/** Copy the per-access cache tally into the event record. */
void
fillTally(obs::TranslationEvent &ev, const CacheTally &tally)
{
    ev.l1dHits = narrow8(tally.l1dHits);
    ev.l1dMisses = narrow8(tally.l1dMisses);
    ev.l2Hits = narrow8(tally.l2Hits);
    ev.l2Misses = narrow8(tally.l2Misses);
    ev.llcHits = narrow8(tally.llcHits);
    ev.llcMisses = narrow8(tally.llcMisses);
    ev.memAccesses = narrow8(tally.memAccesses);
}

} // namespace

TranslationSimulator::TranslationSimulator(
    TranslationMechanism &mechanism, TlbHierarchy &tlbs,
    MemoryHierarchy &caches)
    : mechanism_(mechanism), tlbs_(tlbs), caches_(caches)
{
}

SimResult
TranslationSimulator::run(TraceSource &trace, const SimConfig &config)
{
    SimResult result;
    SimStepCells cells;
    const std::uint64_t total =
        config.warmupAccesses + config.measureAccesses;
    runRange(trace, config, result, cells, 0, total);
    foldStepCells(cells, result);
    return result;
}

void
TranslationSimulator::runRange(TraceSource &trace,
                               const SimConfig &config,
                               SimResult &result, SimStepCells &cells,
                               std::uint64_t begin, std::uint64_t end)
{
    if (begin >= end)
        return;
    // One downcast per range (slice), not per access: pick the
    // design-specialized loop instantiation when the mechanism is a
    // design worth specializing for, else the generic one.
    if (auto *radix = dynamic_cast<RadixWalker *>(&mechanism_))
        dispatchRange(*radix, trace, config, result, cells, begin,
                      end);
    else if (auto *dmt = dynamic_cast<DmtNativeFetcher *>(&mechanism_))
        dispatchRange(*dmt, trace, config, result, cells, begin, end);
    else
        dispatchRange(mechanism_, trace, config, result, cells, begin,
                      end);
}

template <class Mech>
void
TranslationSimulator::dispatchRange(Mech &mech, TraceSource &trace,
                                    const SimConfig &config,
                                    SimResult &result,
                                    SimStepCells &cells,
                                    std::uint64_t begin,
                                    std::uint64_t end)
{
    if (sink_)
        loopRange<true>(mech, trace, config, result, cells, begin, end);
    else
        loopRange<false>(mech, trace, config, result, cells, begin,
                         end);
}

void
TranslationSimulator::foldStepCells(const SimStepCells &cells,
                                    SimResult &result)
{
    // Cell sums are integral; one double conversion per cell equals
    // the former per-walk double adds exactly (all values < 2^53).
    for (int idx = 0; idx < SimStepCells::kCells; ++idx) {
        if (cells.counts[idx] == 0)
            continue;
        auto &dst = result.stepCosts[stepCellKey(idx)];
        dst.first += static_cast<double>(cells.cycles[idx]);
        dst.second += static_cast<Counter>(cells.counts[idx]);
    }
}

template <bool kTrace, class Mech>
void
TranslationSimulator::loopRange(Mech &mech, TraceSource &trace,
                                const SimConfig &config,
                                SimResult &result, SimStepCells &cells,
                                std::uint64_t begin, std::uint64_t end)
{
    // Traced runs always record steps so events carry the per-step
    // walk breakdown; the untraced loop honours the config.
    mech.recordSteps(kTrace || config.recordSteps);
    CacheTally tally;
    static const std::vector<WalkStepCost> kNoSteps;
    if constexpr (kTrace)
        caches_.setEventTally(&tally);

    std::array<Addr, kSimBatch> vas{};
    std::uint64_t i = begin;
    while (i < end) {
        std::uint64_t n = std::min(kSimBatch, end - i);
        // Batches never straddle the warmup boundary, so `measuring`
        // is one branch per batch instead of one per access.
        if (i < config.warmupAccesses)
            n = std::min(n, config.warmupAccesses - i);
        const bool measuring = i >= config.warmupAccesses;

        // One virtual call fills the whole batch.
        trace.fill(vas.data(), n);

        // The commit pass, with counters held in per-batch
        // accumulators.
        BatchStats bs;
        for (std::uint64_t j = 0; j < n; ++j) {
            const Addr va = vas[j];
            if constexpr (kTrace)
                tally.reset();
            const TlbHierarchy::Lookup tlb = tlbs_.lookupData(va);

            ++bs.accesses;
            if (tlb.level == TlbHierarchy::Result::L1Hit)
                ++bs.l1TlbHits;
            else if (tlb.level == TlbHierarchy::Result::L2Hit)
                ++bs.l2TlbHits;

            if (tlb.level == TlbHierarchy::Result::Miss) {
                const WalkRecord rec = mech.walk(va);
                tlbs_.fillData(va, rec.size, rec.pa, rec.linear());
                ++bs.walks;
                bs.walkCycles += static_cast<Counter>(rec.latency);
                bs.seqRefs += static_cast<Counter>(rec.seqRefs);
                bs.parallelRefs +=
                    static_cast<Counter>(rec.parallelRefs);
                if (rec.fellBack)
                    ++bs.fallbacks;
                if (measuring) {
                    for (const auto &step : rec.steps) {
                        const int idx = stepCellIndex(step);
                        cells.cycles[idx] += step.cycles;
                        ++cells.counts[idx];
                    }
                }
                // The data access, at the walked physical address.
                caches_.access(rec.pa);
                if constexpr (kTrace) {
                    obs::TranslationEvent ev;
                    ev.accessId = i + j;
                    ev.va = va;
                    ev.pa = rec.pa;
                    DMT_ASSERT(rec.latency <= 0xffffffffull,
                               "walk latency overflows the event "
                               "record");
                    ev.walkCycles =
                        static_cast<std::uint32_t>(rec.latency);
                    ev.seqRefs = narrow16(
                        static_cast<std::uint64_t>(rec.seqRefs));
                    ev.parallelRefs = narrow16(
                        static_cast<std::uint64_t>(
                            rec.parallelRefs));
                    ev.tlb = static_cast<std::uint8_t>(
                        obs::TlbLevel::Miss);
                    ev.path = static_cast<std::uint8_t>(
                        obs::eventPathOf(rec.path));
                    ev.pageSize =
                        static_cast<std::uint8_t>(rec.size);
                    ev.pwcStartLevel = rec.pwcStartLevel;
                    ev.pwcHits = rec.pwcHits;
                    ev.pwcMisses = rec.pwcMisses;
                    ev.nestedPwcHits = rec.nestedPwcHits;
                    ev.nestedPwcMisses = rec.nestedPwcMisses;
                    ev.nestedWalks = rec.nestedWalks;
                    ev.dmtProbes = rec.dmtProbes;
                    ev.dmtFaults = rec.dmtFaults;
                    ev.flags = static_cast<std::uint8_t>(
                        (measuring ? obs::kEventMeasured : 0) |
                        (rec.gteaPath ? obs::kEventGtea : 0) |
                        (rec.fellBack ? obs::kEventFellBack : 0));
                    fillTally(ev, tally);
                    sink_->emit(ev, rec.steps);
                }
            } else {
                // The data access, at the entry's carried translation
                // (or a functional one for a non-linear entry).
                const Addr pa = tlb.linear ? tlb.pa : mech.resolve(va);
                caches_.access(pa);
                if constexpr (kTrace) {
                    obs::TranslationEvent ev;
                    ev.accessId = i + j;
                    ev.va = va;
                    ev.pa = pa;
                    ev.tlb = static_cast<std::uint8_t>(
                        tlb.level == TlbHierarchy::Result::L1Hit
                            ? obs::TlbLevel::L1
                            : obs::TlbLevel::Stlb);
                    ev.path = static_cast<std::uint8_t>(
                        obs::EventPath::TlbHit);
                    ev.pageSize = static_cast<std::uint8_t>(tlb.size);
                    ev.flags = measuring ? obs::kEventMeasured : 0;
                    fillTally(ev, tally);
                    sink_->emit(ev, kNoSteps);
                }
            }
        }

        // Fold the batch accumulators. Walk latencies are integers
        // and the run totals stay far below 2^53, so one double
        // conversion here equals per-walk double adds.
        if (measuring) {
            result.accesses += bs.accesses;
            result.l1TlbHits += bs.l1TlbHits;
            result.l2TlbHits += bs.l2TlbHits;
            result.walks += bs.walks;
            result.fallbacks += bs.fallbacks;
            result.walkCycles += static_cast<double>(bs.walkCycles);
            result.seqRefs += bs.seqRefs;
            result.parallelRefs += bs.parallelRefs;
        }
        i += n;
    }

    if constexpr (kTrace)
        caches_.setEventTally(nullptr);
}

// The loop template is instantiated implicitly through runRange's
// dispatch: (RadixWalker, DmtNativeFetcher, TranslationMechanism) ×
// (traced, untraced) — six loop bodies, all private to this
// translation unit.

SimSession::SimSession(TranslationSimulator &sim, TraceSource &trace,
                       const SimConfig &config)
    : sim_(sim), trace_(trace), config_(config),
      total_(config.warmupAccesses + config.measureAccesses)
{
}

std::uint64_t
SimSession::advance(std::uint64_t max_accesses)
{
    std::uint64_t n = total_ - cursor_;
    if (max_accesses != 0 && max_accesses < n)
        n = max_accesses;
    if (n == 0)
        return 0;
    sim_.runRange(trace_, config_, result_, cells_, cursor_,
                  cursor_ + n);
    cursor_ += n;
    return n;
}

const SimResult &
SimSession::result()
{
    DMT_ASSERT(done(), "SimSession::result before completion "
                       "(%llu of %llu accesses)",
               static_cast<unsigned long long>(cursor_),
               static_cast<unsigned long long>(total_));
    if (!folded_) {
        TranslationSimulator::foldStepCells(cells_, result_);
        folded_ = true;
    }
    return result_;
}

} // namespace dmt
