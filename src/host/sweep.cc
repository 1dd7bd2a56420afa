#include "host/sweep.hh"

#include "common/log.hh"
#include "driver/json.hh"
#include "driver/pool.hh"

namespace dmt::host
{

std::vector<TenantSpec>
sweepTenants(const NodeSweepConfig &config, unsigned tenants_per_core)
{
    DMT_ASSERT(!config.workloads.empty(),
               "node sweep needs at least one workload");
    const unsigned total = tenants_per_core * config.cores;
    std::vector<TenantSpec> tenants;
    tenants.reserve(total);
    for (unsigned i = 0; i < total; ++i) {
        TenantSpec spec;
        spec.name.push_back('t');
        spec.name.append(std::to_string(i));
        spec.workload = config.workloads[i % config.workloads.size()];
        spec.env = config.env;
        spec.design = config.design;
        spec.thp = config.thp;
        spec.pinnedRegisters = config.pinnedRegisters;
        tenants.push_back(std::move(spec));
    }
    return tenants;
}

NodePointResult
foldNodePoint(unsigned tenants_per_core, std::uint64_t rounds,
              std::vector<HostTenantResult> tenants)
{
    NodePointResult point;
    point.tenantsPerCore = tenants_per_core;
    point.perTenant = std::move(tenants);
    point.tenants = static_cast<unsigned>(point.perTenant.size());
    point.rounds = rounds;
    for (const HostTenantResult &t : point.perTenant) {
        point.accesses += t.sim.accesses;
        point.walks += t.sim.walks;
        point.walkCycles += t.sim.walkCycles;
        point.dispatches += t.host.dispatches;
        point.ctxSwitches += t.host.ctxSwitches;
        point.migrations += t.host.migrations;
        point.shootdowns += t.host.shootdowns;
        point.tlbFlushes += t.host.tlbFlushes;
        point.pwcFlushes += t.host.pwcFlushes;
        point.regHits += t.host.regHits;
        point.regLoads += t.host.regLoads;
        point.regSaves += t.host.regSaves;
        point.switchCycles += t.host.switchCycles;
        point.shootdownCycles += t.host.shootdownCycles;
        point.coherenceCycles += t.host.coherenceCycles;
    }
    return point;
}

HostNodeConfig
nodeConfig(const NodeSweepConfig &config)
{
    HostNodeConfig node;
    node.cores = config.cores;
    node.sliceAccesses = config.sliceAccesses;
    node.flush = config.flush;
    node.slice = config.slice;
    node.migrateEveryRounds = config.migrateEveryRounds;
    node.costs = config.costs;
    node.scale = config.scale;
    node.baseSeed = config.baseSeed;
    node.sim = config.sim;
    return node;
}

namespace
{

void
emitSweepConfig(JsonWriter &json, const NodeSweepConfig &config)
{
    json.key("config");
    json.beginObject();
    json.field("cores", static_cast<std::uint64_t>(config.cores));
    json.key("workloads");
    json.beginArray();
    for (const std::string &wl : config.workloads)
        json.value(wl);
    json.endArray();
    json.field("env", driver::envId(config.env));
    json.field("design", driver::designId(config.design));
    json.field("thp", config.thp);
    json.field("slice_accesses", config.sliceAccesses);
    json.field("flush_policy", flushPolicyId(config.flush));
    json.field("slice_policy",
               config.slice == SlicePolicy::Weighted ? "weighted"
                                                     : "round-robin");
    json.field("migrate_every_rounds",
               static_cast<std::uint64_t>(config.migrateEveryRounds));
    json.field("pinned_registers",
               static_cast<std::int64_t>(config.pinnedRegisters));
    json.field("scale_denominator", 1.0 / config.scale);
    json.field("base_seed", config.baseSeed);
    json.field("warmup_accesses", config.sim.warmupAccesses);
    json.field("measure_accesses", config.sim.measureAccesses);
    json.key("hatric_costs");
    json.beginObject();
    json.field("switch_base_cycles", config.costs.switchBaseCycles);
    json.field("reg_load_cycles", config.costs.regLoadCycles);
    json.field("reg_save_cycles", config.costs.regSaveCycles);
    json.field("tlb_flush_cycles", config.costs.tlbFlushCycles);
    json.field("pwc_flush_cycles", config.costs.pwcFlushCycles);
    json.field("shootdown_base_cycles",
               config.costs.shootdownBaseCycles);
    json.field("shootdown_per_core_cycles",
               config.costs.shootdownPerCoreCycles);
    json.field("coherence_per_line_cycles",
               config.costs.coherencePerLineCycles);
    json.endObject();
    json.endObject();
}

} // namespace

std::vector<NodePointResult>
runNodeSweep(const NodeSweepConfig &config, unsigned threads,
             const std::function<void(const NodePointResult &,
                                      std::size_t, std::size_t)>
                 &progress)
{
    const std::vector<unsigned> &grid = config.tenantsPerCore;
    std::vector<NodePointResult> results(grid.size());
    driver::runJobs(
        grid.size(), threads,
        [&](std::size_t i) {
            // Shared-nothing: the whole node (every tenant testbed)
            // belongs to this point alone.
            HostNode host(nodeConfig(config),
                          sweepTenants(config, grid[i]));
            auto tenants = host.run();
            results[i] = foldNodePoint(grid[i], host.rounds(),
                                       std::move(tenants));
        },
        [&](std::size_t i, std::size_t finished) {
            if (progress)
                progress(results[i], finished, grid.size());
        });
    return results;
}

void
emitNodeJson(std::ostream &os, const NodeSweepConfig &config,
             const std::vector<NodePointResult> &results)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "dmt-node-v1");
    emitSweepConfig(json, config);

    json.key("points");
    json.beginArray();
    for (const NodePointResult &point : results) {
        json.beginObject();
        json.field("tenants_per_core",
                   static_cast<std::uint64_t>(point.tenantsPerCore));
        json.field("tenants",
                   static_cast<std::uint64_t>(point.tenants));
        json.field("rounds", point.rounds);
        json.field("accesses", point.accesses);
        json.field("walks", point.walks);
        json.field("walk_cycles", point.walkCycles);
        json.field("mean_walk_latency", point.meanWalkLatency());
        json.field("dispatches", point.dispatches);
        json.field("ctx_switches", point.ctxSwitches);
        json.field("migrations", point.migrations);
        json.field("shootdowns", point.shootdowns);
        json.field("tlb_flushes", point.tlbFlushes);
        json.field("pwc_flushes", point.pwcFlushes);
        json.field("reg_hits", point.regHits);
        json.field("reg_loads", point.regLoads);
        json.field("reg_saves", point.regSaves);
        json.field("reg_hit_rate", point.registerHitRate());
        json.field("switch_cycles", point.switchCycles);
        json.field("shootdown_cycles", point.shootdownCycles);
        json.field("coherence_cycles", point.coherenceCycles);
        json.field("host_cycles", point.hostCycles());
        json.field("host_cycles_per_access",
                   point.hostCyclesPerAccess());

        json.key("per_tenant");
        json.beginArray();
        for (const HostTenantResult &t : point.perTenant) {
            json.beginObject();
            json.field("name", t.spec.name);
            json.field("workload", t.spec.workload);
            json.field("seed", t.seed);
            json.field("mechanism", t.design);
            json.field("accesses", t.sim.accesses);
            json.field("walks", t.sim.walks);
            json.field("mean_walk_latency", t.sim.meanWalkLatency());
            json.field("overhead_per_access",
                       t.sim.overheadPerAccess());
            json.field("dispatches", t.host.dispatches);
            json.field("ctx_switches", t.host.ctxSwitches);
            json.field("migrations", t.host.migrations);
            json.field("reg_hits", t.host.regHits);
            json.field("reg_loads", t.host.regLoads);
            json.field("host_cycles", t.host.hostCycles());
            json.field("coverage", t.coverage);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace dmt::host
