/**
 * @file
 * Shared harness code for the per-figure/table benchmark binaries.
 *
 * Every binary in bench/ regenerates one table or figure of the
 * paper: it builds fresh testbeds per (workload, design, page-size)
 * cell, runs the trace-driven simulation, applies the §5 execution
 * model, and prints the same rows/series the paper reports. The cell
 * execution itself lives in src/driver (shared with dmt-campaign);
 * this layer adds environment sizing and table/JSON presentation.
 *
 * Environment knobs (all optional):
 *   DMT_BENCH_ACCESSES  measured accesses per cell (default 1000000)
 *   DMT_BENCH_WARMUP    warmup accesses (default 200000)
 *   DMT_BENCH_SCALE     working-set scale denominator (default 16,
 *                       i.e. 1/16 of the paper's footprints)
 *
 * Every binary also accepts `--json[=PATH]`, and no other flag: emit
 * the printed tables as a machine-readable JSON document (default
 * BENCH_<name>.json) through the same deterministic emitter
 * dmt-campaign uses.
 */

#ifndef DMT_BENCH_BENCH_UTIL_HH
#define DMT_BENCH_BENCH_UTIL_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/campaign.hh"
#include "sim/exec_model.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace bench
{

/** Outcome of one simulated cell (see driver::CellOutcome). */
using Outcome = driver::CellOutcome;

/** Simulation sizing from the environment. */
SimConfig simConfigFromEnv(bool record_steps = false);

/** Working-set scale from the environment. */
double scaleFromEnv();

/**
 * Base testbed config for a page mode. Unless DMT_BENCH_FULL_MACHINE
 * is set, TLB/PWC/cache capacities are scaled by the working-set
 * scale so their reach relative to the working set matches the
 * paper's full-size runs.
 */
TestbedConfig testbedConfig(bool thp);

/** Run one native cell. */
Outcome runNative(Workload &workload, Design design, bool thp,
                  std::uint64_t seed = 42);

/** Run one single-level virtualization cell. */
Outcome runVirt(Workload &workload, Design design, bool thp,
                std::uint64_t seed = 42, bool record_steps = false);

/** Run one nested-virtualization cell. */
Outcome runNested(Workload &workload, Design design, bool thp,
                  std::uint64_t seed = 42);

/** Pretty-print a table: header + rows of fixed-width columns. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    void addRow(std::vector<std::string> row);
    void print() const;

    const std::vector<std::string> &header() const { return header_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    /** Format a double with the given precision. */
    static std::string num(double v, int precision = 2);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Optional JSON mirror of a binary's printed tables.
 *
 * Construct it from argv at the top of main(); while disabled every
 * call is a no-op, so binaries register their tables unconditionally.
 * Tables are written (sorted by registration name) when write() or
 * the destructor runs; a file that cannot be written is fatal().
 */
class JsonReport
{
  public:
    /**
     * Parses argv: `--json[=PATH]` is the binary's only flag, and
     * anything else exits 2 with the usage (driver::parseFlags).
     */
    JsonReport(int argc, char **argv, std::string experiment);
    ~JsonReport();

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    bool enabled() const { return enabled_; }

    /** Register a table under a stable name. */
    void addTable(const std::string &name, const Table &table);

    /** Write the document now (idempotent). */
    void write();

  private:
    bool enabled_ = false;
    bool written_ = false;
    std::string experiment_;
    std::string path_;
    std::map<std::string, std::pair<std::vector<std::string>,
                                    std::vector<std::vector<
                                        std::string>>>>
        tables_;
};

/** Print the standard configuration banner (Tables 2 & 3). */
void printConfigBanner(const std::string &experiment);

} // namespace bench
} // namespace dmt

#endif // DMT_BENCH_BENCH_UTIL_HH
