#include "driver/campaign.hh"

#include <algorithm>
#include <chrono>
#include <map>

#include <sys/resource.h>

#include "common/log.hh"
#include "common/stats.hh"
#include "driver/cell.hh"
#include "driver/json.hh"
#include "driver/pool.hh"

namespace dmt
{
namespace driver
{

const char *const campaignSchema = "dmt-campaign-v1";

std::string
envId(CampaignEnv env)
{
    switch (env) {
      case CampaignEnv::Native: return "native";
      case CampaignEnv::Virt: return "virt";
      case CampaignEnv::Nested: return "nested";
    }
    return "?";
}

std::string
designId(Design design)
{
    switch (design) {
      case Design::Vanilla: return "vanilla";
      case Design::Shadow: return "shadow";
      case Design::Fpt: return "fpt";
      case Design::Ecpt: return "ecpt";
      case Design::Agile: return "agile";
      case Design::Asap: return "asap";
      case Design::Dmt: return "dmt";
      case Design::PvDmt: return "pvdmt";
    }
    return "?";
}

std::vector<Design>
validDesigns(CampaignEnv env)
{
    switch (env) {
      case CampaignEnv::Native:
        return {Design::Vanilla, Design::Fpt, Design::Ecpt,
                Design::Asap, Design::Dmt};
      case CampaignEnv::Virt:
        return {Design::Vanilla, Design::Shadow, Design::Fpt,
                Design::Ecpt, Design::Agile, Design::Asap,
                Design::Dmt, Design::PvDmt};
      case CampaignEnv::Nested:
        return {Design::Vanilla, Design::PvDmt};
    }
    return {};
}

namespace
{

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
designValidIn(CampaignEnv env, Design design)
{
    const auto valid = validDesigns(env);
    return std::find(valid.begin(), valid.end(), design) !=
           valid.end();
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, const std::string &salt)
{
    return splitmix64(seed ^ fnv1a64(salt));
}

std::uint64_t
cellSeed(std::uint64_t base_seed, const CellSpec &spec)
{
    const std::string identity = spec.workload + "|" +
                                 envId(spec.env) + "|" +
                                 designId(spec.design) + "|" +
                                 (spec.thp ? "thp" : "4k");
    return splitmix64(base_seed ^ fnv1a64(identity));
}

CellOutcome
runCell(Workload &workload, CampaignEnv env, Design design,
        const TestbedConfig &tb_config, const SimConfig &sim_config,
        std::uint64_t seed, const std::string &events_path)
{
    // dmtlint: allow(wall-clock) -- timing sidecar: wallSeconds only
    // ever reaches emitTimingJson, never the deterministic report
    const auto start = std::chrono::steady_clock::now();
    CellOutcome out;
    {
        Cell cell(workload, env, design, tb_config, sim_config, seed,
                  events_path);
        cell.session().advance();
        out = cell.finish();
    }
    const std::chrono::duration<double> elapsed =
        // dmtlint: allow(wall-clock) -- timing sidecar, see above
        std::chrono::steady_clock::now() - start;
    out.wallSeconds = elapsed.count();
    out.accessesPerSec =
        safeOpsPerSec(out.sim.accesses, out.wallSeconds);
    return out;
}

std::string
cellEventsFileName(const CellSpec &spec)
{
    return envId(spec.env) + "_" + spec.workload + "_" +
           designId(spec.design) + "_" + (spec.thp ? "thp" : "4k") +
           ".dmtevents";
}

std::vector<CellSpec>
enumerateCells(const CampaignConfig &config)
{
    std::vector<std::string> workloads = config.workloads;
    if (workloads.empty())
        workloads = paperWorkloadNames();
    std::sort(workloads.begin(), workloads.end());

    std::vector<CellSpec> cells;
    for (const CampaignEnv env : config.envs) {
        for (const auto &wl : workloads) {
            const std::vector<Design> designs =
                config.designs.empty() ? validDesigns(env)
                                       : config.designs;
            for (const Design design : designs) {
                if (!designValidIn(env, design))
                    continue;
                cells.push_back({wl, env, design, false});
                if (config.includeThp)
                    cells.push_back({wl, env, design, true});
            }
        }
    }
    return cells;
}

std::vector<CellResult>
runCampaign(const CampaignConfig &config, unsigned threads,
            const std::function<void(const CellResult &, std::size_t,
                                     std::size_t)> &progress)
{
    const std::vector<CellSpec> cells = enumerateCells(config);
    std::vector<CellResult> results(cells.size());
    runJobs(
        cells.size(), threads,
        [&](std::size_t i) {
            const CellSpec &spec = cells[i];
            CellResult &res = results[i];
            res.spec = spec;
            res.seed = cellSeed(config.baseSeed, spec);
            // Shared-nothing: the workload object, testbed, and
            // trace all belong to this cell alone.
            auto wl = makeWorkload(spec.workload, config.scale);
            const TestbedConfig tb = scaledTestbedConfig(
                config.scale,
                spec.thp ? ThpMode::Always : ThpMode::Never);
            const std::string eventsPath =
                config.eventsDir.empty()
                    ? std::string()
                    : config.eventsDir + "/" +
                          cellEventsFileName(spec);
            res.outcome = runCell(*wl, spec.env, spec.design, tb,
                                  config.sim, res.seed, eventsPath);
        },
        [&](std::size_t i, std::size_t finished) {
            if (progress)
                progress(results[i], finished, cells.size());
        });
    return results;
}

namespace
{

/** MPKI proxy: TLB-miss page walks per thousand accesses. */
double
mpki(const SimResult &sim)
{
    return sim.accesses ? 1000.0 * static_cast<double>(sim.walks) /
                              static_cast<double>(sim.accesses)
                        : 0.0;
}

double
hitRatio(Counter hits, Counter accesses)
{
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
}

void
emitConfig(JsonWriter &json, const CampaignConfig &config)
{
    json.key("config");
    json.beginObject();
    json.field("base_seed", config.baseSeed);
    json.field("scale_denominator", 1.0 / config.scale);
    json.field("warmup_accesses", config.sim.warmupAccesses);
    json.field("measure_accesses", config.sim.measureAccesses);
    json.field("include_thp", config.includeThp);
    json.endObject();
}

} // namespace

void
emitCampaignJson(std::ostream &os, const CampaignConfig &config,
                 const std::vector<CellResult> &results)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", campaignSchema);
    emitConfig(json, config);

    json.key("cells");
    json.beginArray();
    for (const CellResult &res : results) {
        const SimResult &sim = res.outcome.sim;
        json.beginObject();
        json.field("env", envId(res.spec.env));
        json.field("workload", res.spec.workload);
        json.field("design", designId(res.spec.design));
        json.field("mechanism", res.outcome.design);
        json.field("thp", res.spec.thp);
        json.field("seed", res.seed);
        json.field("accesses", sim.accesses);
        json.field("l1_tlb_hits", sim.l1TlbHits);
        json.field("stlb_hits", sim.l2TlbHits);
        json.field("l1_tlb_hit_ratio",
                   hitRatio(sim.l1TlbHits, sim.accesses));
        json.field("stlb_hit_ratio",
                   hitRatio(sim.l2TlbHits, sim.accesses));
        json.field("walks", sim.walks);
        json.field("mpki", mpki(sim));
        json.field("walk_cycles", sim.walkCycles);
        json.field("mean_walk_latency", sim.meanWalkLatency());
        json.field("overhead_per_access", sim.overheadPerAccess());
        json.field("seq_refs", sim.seqRefs);
        json.field("parallel_refs", sim.parallelRefs);
        json.field("mean_seq_refs", sim.meanSeqRefs());
        json.field("fallbacks", sim.fallbacks);
        json.field("coverage", res.outcome.coverage);
        json.field("shadow_exits", res.outcome.shadowExits);
        json.field("hypercalls", res.outcome.hypercalls);
        json.field("hypercall_cycles", res.outcome.hypercallCycles);
        json.endObject();
    }
    json.endArray();

    // Per-(env, design) aggregates across workloads, accumulated
    // through the stats snapshot/merge machinery so the campaign
    // exercises the same code the components use.
    std::map<std::pair<std::string, std::string>, StatGroup>
        aggregates;
    for (const CellResult &res : results) {
        const SimResult &sim = res.outcome.sim;
        StatGroup cell("cell");
        cell.scalar("overhead_per_access")
            .sample(sim.overheadPerAccess());
        cell.scalar("mean_walk_latency").sample(sim.meanWalkLatency());
        cell.scalar("mpki").sample(mpki(sim));
        cell.scalar("walks").inc(static_cast<double>(sim.walks));
        cell.scalar("fallbacks")
            .inc(static_cast<double>(sim.fallbacks));
        const auto key = std::make_pair(envId(res.spec.env),
                                        designId(res.spec.design));
        auto it = aggregates.find(key);
        if (it == aggregates.end()) {
            it = aggregates
                     .emplace(key, StatGroup(key.first + "/" +
                                             key.second))
                     .first;
        }
        it->second.merge(cell);
    }

    json.key("aggregates");
    json.beginArray();
    for (const auto &[key, group] : aggregates) {
        json.beginObject();
        json.field("env", key.first);
        json.field("design", key.second);
        json.field("cells", group.get("overhead_per_access").count());
        json.field("mean_overhead_per_access",
                   group.get("overhead_per_access").mean());
        json.field("max_overhead_per_access",
                   group.get("overhead_per_access").max());
        json.field("mean_walk_latency",
                   group.get("mean_walk_latency").mean());
        json.field("mean_mpki", group.get("mpki").mean());
        json.field("total_walks", group.get("walks").sum());
        json.field("total_fallbacks", group.get("fallbacks").sum());
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
emitTimingJson(std::ostream &os, const CampaignConfig &config,
               const std::vector<CellResult> &results,
               unsigned threads, double wall_seconds)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "dmt-campaign-timing-v1");
    json.field("threads", static_cast<std::uint64_t>(threads));
    json.field("campaign_wall_seconds", wall_seconds);
    emitConfig(json, config);

    double cellSeconds = 0.0;
    std::uint64_t accesses = 0;
    json.key("cells");
    json.beginArray();
    for (const CellResult &res : results) {
        json.beginObject();
        json.field("env", envId(res.spec.env));
        json.field("workload", res.spec.workload);
        json.field("design", designId(res.spec.design));
        json.field("thp", res.spec.thp);
        json.field("wall_seconds", res.outcome.wallSeconds);
        json.field("accesses_per_sec", res.outcome.accessesPerSec);
        json.endObject();
        cellSeconds += res.outcome.wallSeconds;
        accesses += res.outcome.sim.accesses;
    }
    json.endArray();
    json.field("total_cell_seconds", cellSeconds);
    json.field("total_measured_accesses", accesses);
    json.field("aggregate_accesses_per_sec",
               safeOpsPerSec(accesses, wall_seconds));

    // What the whole process cost the host up to now (the run is
    // over when the sidecar is written): kernel time and peak RSS are
    // where a simulated memory that outgrows its state shows.
    rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        panic("getrusage(RUSAGE_SELF) failed");
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    json.key("host_usage");
    json.beginObject();
    json.field("user_seconds", seconds(usage.ru_utime));
    json.field("system_seconds", seconds(usage.ru_stime));
    // Linux reports ru_maxrss in KiB.
    json.field("peak_rss_mb",
               static_cast<double>(usage.ru_maxrss) / 1024.0);
    json.field("minor_faults",
               static_cast<std::uint64_t>(usage.ru_minflt));
    json.endObject();
    json.endObject();
}

} // namespace driver
} // namespace dmt
