#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>

#include "driver/cli.hh"
#include "driver/json.hh"

namespace dmt
{
namespace bench
{

namespace
{

/**
 * An environment count, parsed strictly: anything but digits, or a
 * value below `min`, exits 2 naming the variable instead of running
 * with a silently substituted number.
 */
std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t min = 0)
{
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    const auto n = driver::parseCount(value, min);
    if (!n) {
        std::fprintf(stderr,
                     "error: %s=\"%s\" is not a count%s\n", name, value,
                     min > 0 ? " of at least 1" : "");
        std::exit(2);
    }
    return *n;
}

} // namespace

SimConfig
simConfigFromEnv(bool record_steps)
{
    SimConfig cfg;
    cfg.measureAccesses = envCount("DMT_BENCH_ACCESSES", 1'000'000);
    cfg.warmupAccesses = envCount("DMT_BENCH_WARMUP", 200'000);
    cfg.recordSteps = record_steps;
    return cfg;
}

double
scaleFromEnv()
{
    return 1.0 /
           static_cast<double>(envCount("DMT_BENCH_SCALE", 16, 1));
}

TestbedConfig
testbedConfig(bool thp)
{
    const ThpMode mode = thp ? ThpMode::Always : ThpMode::Never;
    if (std::getenv("DMT_BENCH_FULL_MACHINE")) {
        TestbedConfig cfg;
        cfg.thp = mode;
        return cfg;
    }
    // Preserve structure reach relative to the scaled working set.
    return scaledTestbedConfig(scaleFromEnv(), mode);
}

Outcome
runNative(Workload &workload, Design design, bool thp,
          std::uint64_t seed)
{
    return driver::runCell(workload, driver::CampaignEnv::Native,
                           design, testbedConfig(thp),
                           simConfigFromEnv(), seed);
}

Outcome
runVirt(Workload &workload, Design design, bool thp,
        std::uint64_t seed, bool record_steps)
{
    return driver::runCell(workload, driver::CampaignEnv::Virt,
                           design, testbedConfig(thp),
                           simConfigFromEnv(record_steps), seed);
}

Outcome
runNested(Workload &workload, Design design, bool thp,
          std::uint64_t seed)
{
    return driver::runCell(workload, driver::CampaignEnv::Nested,
                           design, testbedConfig(thp),
                           simConfigFromEnv(), seed);
}

Table::Table(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
Table::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
Table::print() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size();
             ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto printRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::printf("%-*s  ", static_cast<int>(widths[c]),
                        row[c].c_str());
        }
        std::printf("\n");
    };
    printRow(header_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    for (std::size_t i = 0; i < total; ++i)
        std::printf("-");
    std::printf("\n");
    for (const auto &row : rows_)
        printRow(row);
}

JsonReport::JsonReport(int argc, char **argv,
                       std::string experiment)
    : experiment_(std::move(experiment)),
      path_("BENCH_" + experiment_ + ".json")
{
    driver::parseFlags(
        argc, argv,
        {driver::optional(enabled_,
                          driver::text("--json", "FILE", path_))});
    if (enabled_)
        driver::checkWritable(path_);
}

JsonReport::~JsonReport()
{
    write();
}

void
JsonReport::addTable(const std::string &name, const Table &table)
{
    if (!enabled_)
        return;
    tables_[name] = {table.header(), table.rows()};
}

void
JsonReport::write()
{
    if (!enabled_ || written_)
        return;
    written_ = true;
    driver::writeFile(path_, [&](std::ostream &os) {
        JsonWriter json(os);
        json.beginObject();
        json.field("schema", "dmt-bench-v1");
        json.field("experiment", experiment_);
        json.key("tables");
        json.beginObject();
        // std::map iteration: table names are emitted sorted.
        for (const auto &[name, table] : tables_) {
            json.key(name);
            json.beginObject();
            json.key("header");
            json.beginArray();
            for (const auto &cell : table.first)
                json.value(cell);
            json.endArray();
            json.key("rows");
            json.beginArray();
            for (const auto &row : table.second) {
                json.beginArray();
                for (const auto &cell : row)
                    json.value(cell);
                json.endArray();
            }
            json.endArray();
            json.endObject();
        }
        json.endObject();
        json.endObject();
    });
    std::printf("wrote %s\n", path_.c_str());
}

void
printConfigBanner(const std::string &experiment)
{
    const SimConfig sim = simConfigFromEnv();
    const TestbedConfig cfg = testbedConfig(false);
    std::printf("=====================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("Simulated machine: Xeon Gold 6138 class (paper "
                "Tables 2/3), capacities scaled with the working "
                "set\n");
    std::printf("  L1D TLB %de/%dw, STLB %de/%dw, PWC %d-%d-%d "
                "(1 cyc)\n",
                cfg.l1dTlb.entries, cfg.l1dTlb.associativity,
                cfg.stlb.entries, cfg.stlb.associativity,
                cfg.pwc.entriesForL3Table, cfg.pwc.entriesForL2Table,
                cfg.pwc.entriesForL1Table);
    std::printf("  L1D %lluK/%dw 4cyc, L2 %lluK/%dw 14cyc, LLC "
                "%lluK/%dw 54cyc, DRAM 200cyc\n",
                static_cast<unsigned long long>(
                    cfg.hierarchy.l1d.sizeBytes / 1024),
                cfg.hierarchy.l1d.associativity,
                static_cast<unsigned long long>(
                    cfg.hierarchy.l2.sizeBytes / 1024),
                cfg.hierarchy.l2.associativity,
                static_cast<unsigned long long>(
                    cfg.hierarchy.llc.sizeBytes / 1024),
                cfg.hierarchy.llc.associativity);
    std::printf("  Working-set scale 1/%.0f of the paper; "
                "%llu+%llu accesses per cell\n",
                1.0 / scaleFromEnv(),
                static_cast<unsigned long long>(sim.warmupAccesses),
                static_cast<unsigned long long>(sim.measureAccesses));
    std::printf("=====================================================\n");
}

} // namespace bench
} // namespace dmt
