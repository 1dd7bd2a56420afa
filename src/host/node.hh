/**
 * @file
 * The multi-tenant host node scheduler.
 *
 * A HostNode time-slices N tenant testbeds over M simulated cores —
 * the cloud-density regime the paper never measures (one guest owns
 * each core there). Every tenant is one driver::Cell, the same
 * build as a campaign cell: a shared-nothing testbed (its own
 * memory, caches, TLBs, page tables, DMT state) driven through the
 * cell's resumable SimSession. The scheduler interleaves their
 * access streams in round-robin or weighted slices and models what
 * real multiplexing costs:
 *
 *  - the per-core physical DMT register file (16 entries) becomes a
 *    cache of (tenant, register) pairs with LRU + pinning
 *    (CoreRegisterFile) under VMID-tagged retention, or is cleared
 *    outright under the full-flush policy;
 *  - a context switch charges save/load cycles per architectural
 *    register plus a base cost, and — under full flush — empties the
 *    incoming tenant's TLBs and walker PWCs (nothing of its
 *    translation state survived the time it was descheduled);
 *  - a tenant migrating across cores under tagged retention pays a
 *    HATRIC-style translation-coherence shootdown and loses its
 *    cached state.
 *
 * Correctness contract (enforced by ctest -L host): with tagged
 * retention, host costs never touch the simulated structures, so
 * every tenant's SimResult and .dmtevents stream is byte-identical
 * to an isolated driver::runCell of the same identity and seed — for
 * any slice size, tenant mix, and core count. One tenant with an
 * infinite slice reproduces the single-testbed path exactly under
 * either policy.
 */

#ifndef DMT_HOST_NODE_HH
#define DMT_HOST_NODE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "driver/campaign.hh"
#include "host/hatric.hh"
#include "host/register_file.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"

namespace dmt
{

class InvariantAuditor;

namespace obs
{
class FileHostEventSink;
}

namespace host
{

/** What happens to a tenant's TLB/PWC state while descheduled. */
enum class FlushPolicy
{
    /** Untagged hardware: every context switch flushes. */
    Full,
    /** ASID/VMID-tagged retention: state survives descheduling on
     *  the same core (capacity contention is not modelled — see
     *  DESIGN.md §10 for the deviation note). */
    Tagged,
};

/** How slice lengths are assigned. */
enum class SlicePolicy
{
    RoundRobin,  //!< every tenant gets sliceAccesses
    Weighted,    //!< tenant gets sliceAccesses × its weight
};

/** Stable lowercase token ("full" / "tagged"). */
std::string flushPolicyId(FlushPolicy policy);

/** One tenant: a (workload, env, design) identity plus QoS knobs. */
struct TenantSpec
{
    /** Unique within the node; salts the tenant's seed. */
    std::string name;
    std::string workload = "GUPS";
    driver::CampaignEnv env = driver::CampaignEnv::Native;
    Design design = Design::Dmt;
    bool thp = false;
    /** Slice multiplier under SlicePolicy::Weighted (min 1). */
    unsigned weight = 1;
    /** Architectural registers 0..pinned-1 are pinned in the core
     *  file at switch-in (survive LRU under tagged retention). */
    int pinnedRegisters = 0;
};

/** Node-wide knobs. */
struct HostNodeConfig
{
    unsigned cores = 1;
    /** Accesses per time slice; 0 = run each tenant to completion
     *  (infinite slice). */
    std::uint64_t sliceAccesses = 0;
    FlushPolicy flush = FlushPolicy::Tagged;
    SlicePolicy slice = SlicePolicy::RoundRobin;
    /** Rotate tenants one core over every N scheduling rounds;
     *  0 = tenants never migrate. */
    unsigned migrateEveryRounds = 0;
    HatricCosts costs;
    /** Working-set / structure scale (see scaledTestbedConfig). */
    double scale = 1.0 / 16.0;
    std::uint64_t baseSeed = 42;
    SimConfig sim;
    /** When non-empty, every tenant writes its .dmtevents stream to
     *  `<eventsDir>/<tenantEventsFileName>` (same footer contract as
     *  driver::runCell). The directory must exist. */
    std::string eventsDir;
    /** When non-empty, the scheduler writes its .dmthostevents log
     *  here (self-verifying, see obs/host_event.hh). */
    std::string hostEventsPath;
};

/** Host-side counters charged to one tenant. */
struct HostTenantStats
{
    Counter dispatches = 0;     //!< time slices received
    Counter ctxSwitches = 0;    //!< switch-ins (core occupant changed)
    Counter migrations = 0;     //!< resumed on a different core
    Counter shootdowns = 0;     //!< coherence shootdowns triggered
    Counter tlbFlushes = 0;     //!< TLB flushes taken at switch-in
    Counter pwcFlushes = 0;     //!< PWC flushes taken at switch-in
    Counter regHits = 0;        //!< regs found resident (tagged)
    Counter regLoads = 0;       //!< regs (re)loaded from task state
    Counter regSaves = 0;       //!< regs saved at switch-out (full)
    Counter switchCycles = 0;   //!< total context-switch cycles
    Counter shootdownCycles = 0;
    Counter coherenceCycles = 0;

    /** All host-side cycles charged to this tenant. */
    Counter
    hostCycles() const
    {
        return switchCycles + shootdownCycles + coherenceCycles;
    }
};

/** Everything measured for one tenant. */
struct HostTenantResult
{
    TenantSpec spec;
    std::uint64_t seed = 0;
    SimResult sim;
    HostTenantStats host;
    double coverage = 1.0;    //!< DMT register coverage (if any)
    Counter shadowExits = 0;
    Counter hypercalls = 0;
    Cycles hypercallCycles = 0;
    std::string design;       //!< mechanism display name
    std::string eventsPath;   //!< per-tenant .dmtevents (if written)
};

/**
 * The node scheduler. Construct with the node config and the tenant
 * list, optionally attach an auditor, then run() once.
 */
class HostNode
{
  public:
    HostNode(const HostNodeConfig &config,
             std::vector<TenantSpec> tenants);
    ~HostNode();

    HostNode(const HostNode &) = delete;
    HostNode &operator=(const HostNode &) = delete;

    /**
     * The tenant's RNG seed: the driver's cellSeed of its
     * (workload, env, design, thp) identity, salted with the tenant
     * name. Depends only on (base seed, spec) — never on tenant
     * count, order, core count, or policies — so an isolated
     * driver::runCell with this seed is the tenant's exact oracle.
     */
    static std::uint64_t tenantSeed(std::uint64_t base_seed,
                                    const TenantSpec &spec);

    /** Canonical .dmtevents file name for a tenant in eventsDir. */
    static std::string tenantEventsFileName(const TenantSpec &spec);

    /**
     * Register the per-core register files with the invariant
     * auditor; the scheduler ticks one audit event per context
     * switch. The auditor must outlive this node.
     */
    void attachAuditor(InvariantAuditor &auditor);

    /**
     * Build every tenant testbed and run all tenants to completion
     * under the configured policies. Call exactly once.
     * @return per-tenant results in tenant-list order.
     */
    std::vector<HostTenantResult> run();

    /**
     * Append every host counter of every tenant to `g` under
     * `host.t<N>.*` names (the same keys the .dmthostevents footer
     * and reconstructHostCounters use). Valid after run().
     */
    void hostStats(StatGroup &g) const;

    /** The physical register file of one core (tests/diagnostics). */
    const CoreRegisterFile &coreFile(unsigned core) const;

    /** Scheduling rounds executed by run(). */
    std::uint64_t rounds() const { return rounds_; }

  private:
    struct Tenant;

    void buildTenant(Tenant &t);
    void finalizeTenant(Tenant &t);
    void switchIn(unsigned core, Tenant &t);
    std::uint64_t sliceFor(const Tenant &t) const;

    HostNodeConfig config_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::vector<CoreRegisterFile> coreFiles_;
    /** Per-core resident tenant index (kNoTenant = idle). */
    std::vector<std::uint32_t> current_;
    std::uint64_t rounds_ = 0;
    InvariantAuditor *auditor_ = nullptr;
    std::vector<int> auditHookIds_;
    std::unique_ptr<obs::FileHostEventSink> hostSink_;
    bool ran_ = false;
};

} // namespace host
} // namespace dmt

#endif // DMT_HOST_NODE_HH
