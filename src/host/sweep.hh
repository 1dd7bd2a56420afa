/**
 * @file
 * Tenants-per-core sweep over the host node scheduler.
 *
 * The dmt-node scenario of EXPERIMENTS.md: fix the node (cores,
 * slice, flush policy, HATRIC costs) and sweep the tenant density
 * 1 → 256 tenants per core, reporting per-tenant walk latency, DMT
 * register-file hit rate, and host-side (switch/shootdown/coherence)
 * cycles. Each sweep point is a shared-nothing HostNode, so points
 * run on a thread pool and the merged JSON is byte-identical for any
 * --threads value — the same determinism contract the campaign
 * driver enforces, and what tests/test_concurrency.cc checks.
 */

#ifndef DMT_HOST_SWEEP_HH
#define DMT_HOST_SWEEP_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "host/node.hh"

namespace dmt::host
{

/** The sweep grid plus the per-point node configuration. */
struct NodeSweepConfig
{
    /** Densities to run (tenants on each core). */
    std::vector<unsigned> tenantsPerCore = {1, 4, 16, 64, 256};
    unsigned cores = 1;
    /** Tenant i runs workloads[i % size] (round-robin mix). */
    std::vector<std::string> workloads = {"GUPS"};
    driver::CampaignEnv env = driver::CampaignEnv::Native;
    Design design = Design::Dmt;
    bool thp = false;
    /** Accesses per time slice (0 = run-to-completion). */
    std::uint64_t sliceAccesses = 512;
    FlushPolicy flush = FlushPolicy::Tagged;
    SlicePolicy slice = SlicePolicy::RoundRobin;
    unsigned migrateEveryRounds = 0;
    /** Architectural registers pinned at switch-in (all tenants). */
    int pinnedRegisters = 0;
    HatricCosts costs;
    /** Dense nodes: default to small per-tenant working sets. */
    double scale = 1.0 / 64.0;
    std::uint64_t baseSeed = 42;
    SimConfig sim;
};

/** Aggregates + per-tenant detail for one sweep point. */
struct NodePointResult
{
    unsigned tenantsPerCore = 0;
    unsigned tenants = 0;
    std::uint64_t rounds = 0;

    /* Simulated-translation aggregates (summed over tenants). */
    std::uint64_t accesses = 0;
    std::uint64_t walks = 0;
    double walkCycles = 0.0;

    /* Host-side aggregates (summed over tenants). */
    std::uint64_t dispatches = 0;
    std::uint64_t ctxSwitches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t tlbFlushes = 0;
    std::uint64_t pwcFlushes = 0;
    std::uint64_t regHits = 0;
    std::uint64_t regLoads = 0;
    std::uint64_t regSaves = 0;
    std::uint64_t switchCycles = 0;
    std::uint64_t shootdownCycles = 0;
    std::uint64_t coherenceCycles = 0;

    std::vector<HostTenantResult> perTenant;

    double
    meanWalkLatency() const
    {
        return walks ? walkCycles / static_cast<double>(walks) : 0.0;
    }

    /** DMT register-file hit rate across all touches. */
    double
    registerHitRate() const
    {
        const std::uint64_t touches = regHits + regLoads;
        return touches ? static_cast<double>(regHits) /
                             static_cast<double>(touches)
                       : 0.0;
    }

    std::uint64_t
    hostCycles() const
    {
        return switchCycles + shootdownCycles + coherenceCycles;
    }

    /** Host multiplexing tax amortised over simulated accesses. */
    double
    hostCyclesPerAccess() const
    {
        return accesses ? static_cast<double>(hostCycles()) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * The node every sweep point runs (only the tenant list differs from
 * point to point), with no event logs.
 */
HostNodeConfig nodeConfig(const NodeSweepConfig &config);

/**
 * The tenant list for one sweep point: `tenants_per_core × cores`
 * specs named t0, t1, ... with workloads assigned round-robin.
 * Deterministic — the tests use it to reproduce a point's tenants
 * for isolated oracle runs.
 */
std::vector<TenantSpec> sweepTenants(const NodeSweepConfig &config,
                                     unsigned tenants_per_core);

/**
 * Fold per-tenant node results into one sweep-point record (sums
 * the simulated and host counters; takes ownership of `tenants`).
 * Exposed so callers that run a HostNode directly (event-logging
 * bench runs, tests) aggregate exactly like the sweep does.
 */
NodePointResult foldNodePoint(unsigned tenants_per_core,
                              std::uint64_t rounds,
                              std::vector<HostTenantResult> tenants);

/**
 * Run every sweep point on `threads` worker threads (each point is
 * one shared-nothing HostNode). Results come back in grid order
 * regardless of completion order. `progress`, if set, is called
 * under a lock as each point finishes.
 */
std::vector<NodePointResult> runNodeSweep(
    const NodeSweepConfig &config, unsigned threads,
    const std::function<void(const NodePointResult &, std::size_t,
                             std::size_t)> &progress = nullptr);

/**
 * Emit the dmt-node-v1 report. Deterministic: byte-identical for
 * any thread count that produced `results`.
 */
void emitNodeJson(std::ostream &os, const NodeSweepConfig &config,
                  const std::vector<NodePointResult> &results);

} // namespace dmt::host

#endif // DMT_HOST_SWEEP_HH
