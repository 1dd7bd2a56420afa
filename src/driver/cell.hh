/**
 * @file
 * One cell of the evaluation grid, built in one place.
 *
 * A cell is one (workload, environment, design) experiment on its own
 * shared-nothing testbed. driver::runCell, every HostNode tenant and
 * dmtsim hold a Cell, so the construction order, the DMT attach rule,
 * the event footer and the outcome read-out exist once. The
 * constructor builds, in this order: the environment's testbed; the
 * DMT state the design needs (before the workload lays out its VMAs);
 * the workload's set-up; the design's mechanism; the trace, the
 * simulator and its resumable SimSession; and, given an events path,
 * the .dmtevents sink with a snapshot of the translation counters.
 *
 * The owner advances session() in one call or in slices, then calls
 * finish() once. The event footer holds the run's own counter deltas
 * (after minus before), so nothing the testbed did before the run can
 * skew the file's self-verification.
 */

#ifndef DMT_DRIVER_CELL_HH
#define DMT_DRIVER_CELL_HH

#include <memory>
#include <string>
#include <variant>

#include "driver/campaign.hh"
#include "obs/event.hh"

namespace dmt
{

class InvariantAuditor;

namespace obs
{
class FileEventSink;
}

namespace driver
{

class Cell
{
  public:
    /**
     * Build the cell; the workload must outlive it. `trace`, if set,
     * replaces the workload's own trace of `seed`. If `events_path`
     * is non-empty, every simulated access goes to that file.
     */
    Cell(Workload &workload, CampaignEnv env, Design design,
         const TestbedConfig &tb_config, const SimConfig &sim_config,
         std::uint64_t seed, const std::string &events_path = "",
         std::unique_ptr<TraceSource> trace = nullptr);
    ~Cell();

    Cell(const Cell &) = delete;
    Cell &operator=(const Cell &) = delete;

    SimSession &session() { return *session_; }
    TranslationMechanism &mechanism() { return *mech_; }
    TlbHierarchy &tlbs() { return *tlbs_; }
    MemoryHierarchy &caches() { return *caches_; }
    /** The task-state DMT register file of the guest-most level. */
    DmtRegisterFile &taskRegisters() { return *taskRegs_; }

    /** Register the testbed with `auditor`, which must outlive it. */
    void attachAuditor(InvariantAuditor &auditor);

    /**
     * Call once session() is done: write the event footer and read
     * the outcome (its wall-clock fields stay zero).
     */
    CellOutcome finish();

  private:
    template <class F>
    decltype(auto)
    visit(F &&f)
    {
        return std::visit([&](auto &tb) -> decltype(auto) { return f(*tb); },
                          testbed_);
    }

    obs::CounterMap translationCounters();

    std::variant<std::unique_ptr<NativeTestbed>,
                 std::unique_ptr<VirtTestbed>,
                 std::unique_ptr<NestedTestbed>>
        testbed_;
    TranslationMechanism *mech_ = nullptr;
    TlbHierarchy *tlbs_ = nullptr;
    MemoryHierarchy *caches_ = nullptr;
    DmtRegisterFile *taskRegs_ = nullptr;
    std::unique_ptr<TraceSource> trace_;
    std::unique_ptr<TranslationSimulator> sim_;
    std::unique_ptr<obs::FileEventSink> sink_;
    obs::CounterMap before_;
    std::unique_ptr<SimSession> session_;
};

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_CELL_HH
