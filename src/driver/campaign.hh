/**
 * @file
 * The parallel simulation campaign runner.
 *
 * A campaign enumerates the paper's full evaluation grid — workload x
 * translation mechanism x environment (x page mode) — and runs every
 * cell on a thread pool. Each cell is *shared-nothing*: it builds its
 * own testbed (physical memory, allocators, caches, TLBs, page
 * tables, DMT state) and its own workload object, and derives its RNG
 * seed purely from `(base_seed, workload, mechanism, env, thp)`. As a
 * consequence the merged result is byte-identical for any thread
 * count and any scheduling order; `dmt-campaign --threads 4` and
 * `--threads 1` must produce the same BENCH_campaign.json.
 *
 * Wall-clock timing is self-measured per cell but kept out of the
 * deterministic report (see emitCampaignJson vs emitTimingJson).
 */

#ifndef DMT_DRIVER_CAMPAIGN_HH
#define DMT_DRIVER_CAMPAIGN_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace driver
{

/** Campaign environments (the columns of Figs. 14/15/17). */
enum class CampaignEnv
{
    Native,
    Virt,
    Nested,
};

/** Stable lowercase token used in seeds, JSON, and CLI flags. */
std::string envId(CampaignEnv env);

/** Stable lowercase token for a design ("vanilla", "pvdmt", ...). */
std::string designId(Design design);

/** The designs modelled in an environment, in canonical order. */
std::vector<Design> validDesigns(CampaignEnv env);

/** One cell of the evaluation grid. */
struct CellSpec
{
    std::string workload;
    CampaignEnv env = CampaignEnv::Native;
    Design design = Design::Vanilla;
    bool thp = false;
};

/**
 * Derive the per-cell RNG seed. Depends only on the base seed and
 * the cell's identity, never on enumeration order or thread count.
 */
std::uint64_t cellSeed(std::uint64_t base_seed, const CellSpec &spec);

/**
 * Mix a salt string into a seed (splitmix64 over seed ^ FNV-1a of
 * the salt) — the same construction cellSeed uses. Exposed so
 * higher layers (the host node's per-tenant seeds) can derive
 * identity-only seeds that agree with what a standalone runCell of
 * the same identity would use.
 */
std::uint64_t mixSeed(std::uint64_t seed, const std::string &salt);

/** Everything measured in one cell. */
struct CellOutcome
{
    SimResult sim;
    double coverage = 1.0;    //!< DMT register coverage (if any)
    Counter shadowExits = 0;  //!< shadow pager sync count (if any)
    Counter hypercalls = 0;
    Cycles hypercallCycles = 0;
    std::string design;       //!< mechanism display name
    /** Self-measured, non-deterministic; excluded from the report. */
    double wallSeconds = 0.0;
    double accessesPerSec = 0.0;
};

/**
 * Run one cell against an already-constructed workload: build it (a
 * driver::Cell, see cell.hh), stream its whole trace through the
 * translation simulator, tear it down, and time all of it.
 * `sim_config.recordSteps` decides whether per-step walk costs are
 * kept.
 *
 * If `events_path` is non-empty, a FileEventSink captures every
 * simulated access to that .dmtevents file, with the cell's
 * translation counters embedded in the footer (so the file is
 * self-verifying via tools/events_check). Because cells are
 * shared-nothing, the file depends only on the cell's identity and
 * seed — byte-identical across thread counts.
 */
CellOutcome runCell(Workload &workload, CampaignEnv env, Design design,
                    const TestbedConfig &tb_config,
                    const SimConfig &sim_config, std::uint64_t seed,
                    const std::string &events_path = "");

/** Canonical events file name for a cell within --events-dir. */
std::string cellEventsFileName(const CellSpec &spec);

/** Campaign-wide knobs. */
struct CampaignConfig
{
    /** Workload names; empty = all seven paper workloads. */
    std::vector<std::string> workloads;
    /** Environments to sweep. */
    std::vector<CampaignEnv> envs = {CampaignEnv::Native,
                                     CampaignEnv::Virt,
                                     CampaignEnv::Nested};
    /**
     * Designs to sweep; empty = every design valid in each
     * environment. Designs invalid in an environment are skipped.
     */
    std::vector<Design> designs;
    /** Page modes: always 4 KB; optionally also THP. */
    bool includeThp = false;
    double scale = 1.0 / 16.0;
    std::uint64_t baseSeed = 42;
    SimConfig sim;
    /**
     * When non-empty, every cell writes its event stream to
     * `<eventsDir>/<cellEventsFileName>`. The directory must exist.
     */
    std::string eventsDir;
};

/** A finished cell: spec + derived seed + measurements. */
struct CellResult
{
    CellSpec spec;
    std::uint64_t seed = 0;
    CellOutcome outcome;
};

/**
 * Enumerate the grid in canonical sorted order:
 * (env, workload, design, thp), with envs and designs in their
 * canonical declaration order and workloads sorted lexically.
 */
std::vector<CellSpec> enumerateCells(const CampaignConfig &config);

/**
 * Run every cell of the campaign on `threads` worker threads.
 * Results are returned in enumeration (canonical) order regardless
 * of completion order. `progress`, if set, is called once per
 * finished cell from worker threads (serialized internally).
 */
std::vector<CellResult> runCampaign(
    const CampaignConfig &config, unsigned threads,
    const std::function<void(const CellResult &, std::size_t done,
                             std::size_t total)> &progress = nullptr);

/** Schema identifier written into every campaign report. */
extern const char *const campaignSchema;

/**
 * Write the deterministic campaign report: config echo, one entry
 * per cell (walk cycles, MPKI, hit ratios, seq/parallel refs,
 * fallbacks, coverage, ...), and per-(env, design) aggregates built
 * with the stats merge machinery. Byte-identical across thread
 * counts.
 */
void emitCampaignJson(std::ostream &os, const CampaignConfig &config,
                      const std::vector<CellResult> &results);

/**
 * Write the self-measured timing sidecar (wall seconds and simulated
 * accesses/sec per cell, plus totals, plus the process's user and
 * system CPU seconds, peak RSS and minor faults from getrusage at
 * the time of writing). Deliberately a separate
 * document: timing varies run to run and would break the byte-for-
 * byte determinism contract of the main report.
 */
void emitTimingJson(std::ostream &os, const CampaignConfig &config,
                    const std::vector<CellResult> &results,
                    unsigned threads, double wall_seconds);

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_CAMPAIGN_HH
