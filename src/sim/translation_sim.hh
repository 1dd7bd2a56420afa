/**
 * @file
 * The trace-driven translation simulator (§5 of the paper).
 *
 * Streams a memory trace through the TLB hierarchy; every miss
 * invokes the configured TranslationMechanism, charging PTE fetches
 * to the shared cache hierarchy. The data accesses themselves also
 * go through the caches, so PTE-vs-data contention is modelled. The
 * output is the translation overhead O_sim that feeds the §5
 * execution-time model, plus the per-step breakdown of Figure 16.
 */

#ifndef DMT_SIM_TRANSLATION_SIM_HH
#define DMT_SIM_TRANSLATION_SIM_HH

#include <cstddef>
#include <cstdint>
#include <map>

#include "common/types.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/mechanism.hh"
#include "tlb/tlb.hh"

namespace dmt
{

namespace obs
{
class EventSink;
}

/** A source of virtual addresses (one per memory access). */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** @return the next accessed virtual address. */
    virtual Addr next() = 0;

    /**
     * Bulk-fill `n` consecutive addresses into `out` — one virtual
     * call per batch instead of per access. The default simply loops
     * next(), so every existing source keeps working unchanged;
     * sources with cheap bulk access (e.g. FileTrace) override it.
     * Must produce exactly the sequence `n` next() calls would.
     */
    virtual void
    fill(Addr *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
    }
};

/**
 * Accesses per batch of the simulator loop: the trace fills one
 * stack array of this many addresses per virtual call, and the
 * counters of a batch fold into the SimResult once.
 */
inline constexpr std::uint64_t kSimBatch = 256;

/** Simulation lengths. */
struct SimConfig
{
    std::uint64_t warmupAccesses = 200'000;
    std::uint64_t measureAccesses = 2'000'000;
    /** Record per-step walk costs (Figure 16). */
    bool recordSteps = false;
};

/** Aggregate results of one simulation. */
struct SimResult
{
    Counter accesses = 0;
    Counter l1TlbHits = 0;
    Counter l2TlbHits = 0;
    Counter walks = 0;
    Counter fallbacks = 0;
    double walkCycles = 0.0;      //!< total page-walk latency
    Counter seqRefs = 0;
    Counter parallelRefs = 0;
    /** Per-(dimension, level) cycles and counts (Figure 16). */
    std::map<std::pair<char, int>, std::pair<double, Counter>>
        stepCosts;

    /** Mean page-walk latency in cycles. */
    double
    meanWalkLatency() const
    {
        return walks ? walkCycles / static_cast<double>(walks) : 0.0;
    }

    /** Translation overhead per access — the O_sim of §5. */
    double
    overheadPerAccess() const
    {
        return accesses ? walkCycles / static_cast<double>(accesses)
                        : 0.0;
    }

    /** Mean dependent references per walk (Table 6 cross-check). */
    double
    meanSeqRefs() const
    {
        return walks ? static_cast<double>(seqRefs) /
                           static_cast<double>(walks)
                     : 0.0;
    }
};

/**
 * Per-batch accumulators of the simulator loop. The fields mirror
 * their SimResult counterparts one-to-one (walkCycles stays integral
 * here — walk latencies are integers, so one double conversion at
 * batch-fold time loses nothing) and are folded into the SimResult
 * at the end of every batch, keeping the hot loop's counter updates
 * register-resident.
 */
struct BatchStats
{
    Counter accesses = 0;
    Counter l1TlbHits = 0;
    Counter l2TlbHits = 0;
    Counter walks = 0;
    Counter fallbacks = 0;
    Counter walkCycles = 0;
    Counter seqRefs = 0;
    Counter parallelRefs = 0;
};

/**
 * Flat step-cost accumulator of the simulator loop: Figure-16 slots
 * (1-24) occupy cells below 32, (dimension, level) pairs the cells
 * above. Folded into SimResult::stepCosts once per run (or once per
 * SimSession, whose slices all accumulate into the same cells, so
 * slicing cannot change the fold).
 */
struct SimStepCells
{
    static constexpr int kCells = 64;
    std::uint64_t cycles[kCells] = {};
    std::uint64_t counts[kCells] = {};
};

/** Drives traces through TLBs, the mechanism, and the caches. */
class TranslationSimulator
{
  public:
    TranslationSimulator(TranslationMechanism &mechanism,
                         TlbHierarchy &tlbs, MemoryHierarchy &caches);

    /** Run warmup + measurement over the trace. */
    SimResult run(TraceSource &trace, const SimConfig &config);

    /**
     * Run accesses [begin, end) of the warmup + measurement stream,
     * accumulating into caller-held state. run() is one call over
     * the whole range; SimSession (and through it the host node's
     * time slicing) issues many. Any partition of [0, total) into
     * consecutive ranges produces results and event streams
     * byte-identical to one run(): the loop carries no cross-access
     * state outside the simulated structures, and a batch holds no
     * more than its counters (`ctest -L host` slices at 1 to 1,000
     * accesses).
     */
    void runRange(TraceSource &trace, const SimConfig &config,
                  SimResult &result, SimStepCells &cells,
                  std::uint64_t begin, std::uint64_t end);

    /** Fold flat step cells into SimResult::stepCosts (once). */
    static void foldStepCells(const SimStepCells &cells,
                              SimResult &result);

    /**
     * Attach (nullptr to detach) an event sink receiving one
     * TranslationEvent per simulated access. The hot loop is
     * instantiated separately for the traced and untraced cases, so
     * running without a sink costs nothing.
     */
    void setEventSink(obs::EventSink *sink) { sink_ = sink; }

  private:
    /**
     * The simulator loop, instantiated by runRange() per (design ×
     * trace mode): `Mech` is one of the concrete designs worth
     * specializing for (the native radix walker and the native DMT
     * fetcher — both `final`, with walk()/resolve() defined in their
     * headers), so the commit body inlines the walk and fetch
     * instead of calling through `TranslationMechanism*`; every
     * other design takes the generic instantiation, whose `Mech` is
     * the abstract base. Six instantiations in all.
     */
    template <bool kTrace, class Mech>
    void loopRange(Mech &mech, TraceSource &trace,
                   const SimConfig &config, SimResult &result,
                   SimStepCells &cells, std::uint64_t begin,
                   std::uint64_t end);

    /** Pick the traced or untraced loop for `mech`. */
    template <class Mech>
    void dispatchRange(Mech &mech, TraceSource &trace,
                       const SimConfig &config, SimResult &result,
                       SimStepCells &cells, std::uint64_t begin,
                       std::uint64_t end);

    TranslationMechanism &mechanism_;
    TlbHierarchy &tlbs_;
    MemoryHierarchy &caches_;
    obs::EventSink *sink_ = nullptr;
};

/**
 * A resumable simulation: the same warmup + measurement stream run()
 * executes, sliceable into advance() calls of any size. The host
 * node scheduler interleaves many of these, one per tenant, running
 * each for a time slice before switching; because every slice goes
 * through TranslationSimulator::runRange, the concatenation of
 * slices is byte-identical to one uninterrupted run().
 */
class SimSession
{
  public:
    SimSession(TranslationSimulator &sim, TraceSource &trace,
               const SimConfig &config);

    /**
     * Execute up to `max_accesses` further accesses (0 = all
     * remaining). @return the number actually executed (less than
     * requested only at end of stream).
     */
    std::uint64_t advance(std::uint64_t max_accesses = 0);

    bool done() const { return cursor_ == total_; }
    std::uint64_t cursor() const { return cursor_; }
    std::uint64_t total() const { return total_; }

    /**
     * The completed result. Call only when done(); folds the step
     * cells on first use.
     */
    const SimResult &result();

  private:
    TranslationSimulator &sim_;
    TraceSource &trace_;
    SimConfig config_;
    SimResult result_;
    SimStepCells cells_;
    std::uint64_t cursor_ = 0;
    std::uint64_t total_;
    bool folded_ = false;
};

} // namespace dmt

#endif // DMT_SIM_TRANSLATION_SIM_HH
