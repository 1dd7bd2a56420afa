#include "driver/cell.hh"

#include <type_traits>

#include "obs/event_log.hh"
#include "obs/replay.hh"

namespace dmt
{
namespace driver
{

namespace
{

template <class TB>
constexpr bool kNative = std::is_same_v<TB, NativeTestbed>;
template <class TB>
constexpr bool kVirt = std::is_same_v<TB, VirtTestbed>;

/** The DMT state a design needs, set up before the workload's VMAs. */
template <class TB>
void
attachDmt(TB &tb, Design design)
{
    const bool dmt = design == Design::Dmt || design == Design::PvDmt;
    if constexpr (kNative<TB>) {
        if (dmt)
            tb.attachDmt();
    } else if constexpr (kVirt<TB>) {
        if (dmt)
            tb.attachDmt(design == Design::PvDmt);
    } else if (design == Design::PvDmt) {
        tb.attachPvDmt();
    }
}

template <class TB>
DmtRegisterFile &
taskRegistersOf(TB &tb)
{
    if constexpr (kVirt<TB>)
        return tb.guestRegisters();
    else
        return tb.registers();
}

template <class TB>
void
readOutcome(TB &tb, CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
    if constexpr (!kNative<TB>) {
        if (tb.shadowPager())
            out.shadowExits = tb.shadowPager()->exits();
        // The guest-most hypercall channel.
        const auto *hc = [&] {
            if constexpr (kVirt<TB>)
                return tb.hypercall();
            else
                return tb.l2Hypercall();
        }();
        if (hc) {
            out.hypercalls = hc->hypercalls();
            out.hypercallCycles = hc->simulatedCost();
        }
    }
}

} // namespace

Cell::Cell(Workload &workload, CampaignEnv env, Design design,
           const TestbedConfig &tb_config, const SimConfig &sim_config,
           std::uint64_t seed, const std::string &events_path,
           std::unique_ptr<TraceSource> trace)
{
    const Addr footprint = workload.footprintBytes();
    switch (env) {
      case CampaignEnv::Native:
        testbed_ =
            std::make_unique<NativeTestbed>(footprint, tb_config);
        break;
      case CampaignEnv::Virt:
        testbed_ = std::make_unique<VirtTestbed>(footprint, tb_config);
        break;
      case CampaignEnv::Nested:
        testbed_ =
            std::make_unique<NestedTestbed>(footprint, tb_config);
        break;
    }
    visit([&](auto &tb) {
        attachDmt(tb, design);
        workload.setup(tb.proc());
        mech_ = &tb.build(design);
        tlbs_ = &tb.tlbs();
        caches_ = &tb.caches();
        taskRegs_ = &taskRegistersOf(tb);
    });
    trace_ = trace ? std::move(trace) : workload.trace(seed);
    sim_ = std::make_unique<TranslationSimulator>(*mech_, *tlbs_,
                                                  *caches_);
    if (!events_path.empty()) {
        sink_ = std::make_unique<obs::FileEventSink>(events_path);
        before_ = translationCounters();
        sim_->setEventSink(sink_.get());
    }
    session_ = std::make_unique<SimSession>(*sim_, *trace_, sim_config);
}

Cell::~Cell() = default;

void
Cell::attachAuditor(InvariantAuditor &auditor)
{
    visit([&](auto &tb) { tb.attachAuditor(auditor); });
}

obs::CounterMap
Cell::translationCounters()
{
    StatGroup g("translation");
    visit([&](auto &tb) { tb.translationStats(g); });
    return obs::counterMapFromStats(g);
}

CellOutcome
Cell::finish()
{
    CellOutcome out;
    out.sim = session_->result();
    if (sink_) {
        obs::CounterMap counters =
            obs::diffCounters(before_, translationCounters());
        obs::addSimResultCounters(counters, out.sim);
        sim_->setEventSink(nullptr);
        sink_->setCounters(counters);
        sink_->finish();
        sink_.reset();
    }
    out.design = mech_->name();
    visit([&](auto &tb) { readOutcome(tb, out); });
    return out;
}

} // namespace driver
} // namespace dmt
