/**
 * @file
 * Tests for the campaign runner (src/driver): grid enumeration,
 * per-cell seed derivation, the deterministic JSON emitter, and the
 * headline property — the merged campaign report is byte-identical
 * regardless of thread count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "driver/campaign.hh"
#include "driver/cli.hh"
#include "driver/json.hh"

using namespace dmt;
using namespace dmt::driver;

namespace
{

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, DoubleFormatRoundTripsAndStaysNumeric)
{
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0.0");
    EXPECT_EQ(JsonWriter::formatDouble(1.0), "1.0");
    EXPECT_EQ(JsonWriter::formatDouble(0.1), "0.1");
    EXPECT_EQ(JsonWriter::formatDouble(1.0 / 3.0),
              JsonWriter::formatDouble(1.0 / 3.0));
    // Round-trip: parsing the emitted text recovers the exact bits.
    const double v = 152.57520972881576;
    EXPECT_EQ(std::stod(JsonWriter::formatDouble(v)), v);
}

TEST(JsonWriter, EmitsStableDocumentStructure)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("name", "x");
    json.key("list");
    json.beginArray();
    json.value(std::uint64_t{1});
    json.value(2.5);
    json.value(true);
    json.endArray();
    json.endObject();
    EXPECT_EQ(os.str(),
              "{\n  \"name\": \"x\",\n  \"list\": [\n    1,\n"
              "    2.5,\n    true\n  ]\n}\n");
}

TEST(Campaign, CellSeedsAreStableAndDistinct)
{
    const CellSpec a{"GUPS", CampaignEnv::Native, Design::Vanilla,
                     false};
    EXPECT_EQ(cellSeed(42, a), cellSeed(42, a));

    std::set<std::uint64_t> seeds;
    for (const auto &wl : {"GUPS", "Redis"}) {
        for (const CampaignEnv env :
             {CampaignEnv::Native, CampaignEnv::Virt}) {
            for (const Design d : {Design::Vanilla, Design::Dmt}) {
                for (const bool thp : {false, true})
                    seeds.insert(cellSeed(42, {wl, env, d, thp}));
            }
        }
    }
    EXPECT_EQ(seeds.size(), 16u);
    EXPECT_NE(cellSeed(42, a), cellSeed(43, a));
}

TEST(Campaign, EnumerationIsSortedAndFiltersInvalidDesigns)
{
    CampaignConfig cfg;
    cfg.workloads = {"Redis", "GUPS"};  // unsorted on purpose
    cfg.envs = {CampaignEnv::Nested};
    const auto cells = enumerateCells(cfg);
    // Nested models only vanilla and pvDMT.
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].workload, "GUPS");
    EXPECT_EQ(cells[0].design, Design::Vanilla);
    EXPECT_EQ(cells[1].design, Design::PvDmt);
    EXPECT_EQ(cells[2].workload, "Redis");

    // An explicit design list is filtered per environment.
    cfg.designs = {Design::Ecpt, Design::PvDmt};
    const auto filtered = enumerateCells(cfg);
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_EQ(filtered[0].design, Design::PvDmt);
}

TEST(Campaign, DesignAndEnvTokensRoundTrip)
{
    const std::vector<Design> designs = {
        Design::Vanilla, Design::Shadow, Design::Fpt, Design::Ecpt,
        Design::Agile,   Design::Asap,   Design::Dmt, Design::PvDmt};
    ASSERT_EQ(designNames().size(), designs.size());
    for (const Design d : designs)
        EXPECT_EQ(lookup(designNames(), designId(d)), d);
    const std::vector<CampaignEnv> envs = {
        CampaignEnv::Native, CampaignEnv::Virt, CampaignEnv::Nested};
    ASSERT_EQ(envNames().size(), envs.size());
    for (const CampaignEnv e : envs)
        EXPECT_EQ(lookup(envNames(), envId(e)), e);
    ASSERT_EQ(workloadNames().size(), paperWorkloadNames().size());
    for (const std::string &w : paperWorkloadNames())
        EXPECT_EQ(lookup(workloadNames(), w), w);
}

/** The tentpole property: thread count never changes the report. */
TEST(Campaign, ReportIsByteIdenticalAcrossThreadCounts)
{
    CampaignConfig cfg;
    cfg.workloads = {"GUPS", "BTree"};
    cfg.envs = {CampaignEnv::Native};
    cfg.designs = {Design::Vanilla, Design::Dmt};
    cfg.scale = 1.0 / 512.0;
    cfg.sim.warmupAccesses = 1'000;
    cfg.sim.measureAccesses = 5'000;

    const auto one = runCampaign(cfg, 1);
    const auto four = runCampaign(cfg, 4);
    ASSERT_EQ(one.size(), 4u);
    ASSERT_EQ(four.size(), one.size());

    std::ostringstream a, b;
    emitCampaignJson(a, cfg, one);
    emitCampaignJson(b, cfg, four);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"schema\": \"dmt-campaign-v1\""),
              std::string::npos);
    EXPECT_NE(a.str().find("\"aggregates\""), std::string::npos);
}

TEST(Campaign, TimingSidecarIsSeparateFromReport)
{
    CampaignConfig cfg;
    cfg.workloads = {"GUPS"};
    cfg.envs = {CampaignEnv::Native};
    cfg.designs = {Design::Vanilla};
    cfg.scale = 1.0 / 512.0;
    cfg.sim.warmupAccesses = 500;
    cfg.sim.measureAccesses = 2'000;

    const auto results = runCampaign(cfg, 2);
    std::ostringstream report, timing;
    emitCampaignJson(report, cfg, results);
    emitTimingJson(timing, cfg, results, 2, 1.0);

    // Wall-clock numbers live only in the sidecar.
    EXPECT_EQ(report.str().find("wall_seconds"), std::string::npos);
    EXPECT_NE(timing.str().find("wall_seconds"), std::string::npos);
    EXPECT_NE(timing.str().find("dmt-campaign-timing-v1"),
              std::string::npos);
    // So do the host resources the process used.
    for (const char *key : {"\"host_usage\"", "\"user_seconds\"",
                            "\"system_seconds\"", "\"peak_rss_mb\"",
                            "\"minor_faults\""}) {
        EXPECT_EQ(report.str().find(key), std::string::npos) << key;
        EXPECT_NE(timing.str().find(key), std::string::npos) << key;
    }
    const std::string sidecar = timing.str();
    const std::string rss = "\"peak_rss_mb\": ";
    const std::size_t at = sidecar.find(rss);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GT(std::strtod(sidecar.c_str() + at + rss.size(), nullptr),
              0.0);
}

} // namespace
