/**
 * @file
 * Host multi-tenancy differential suite (`ctest -L host`).
 *
 * The node scheduler's correctness oracle is the single-testbed path
 * it multiplexes: a tenant's seed depends only on its identity, so
 * an isolated driver::runCell of the same (workload, env, design,
 * thp, seed) is the ground truth for everything the tenant should
 * have simulated. These tests pin the contract from DESIGN.md §10:
 *
 *  - one tenant with an infinite slice reproduces runCell exactly —
 *    every SimResult counter, the per-step cost map, and a
 *    byte-identical .dmtevents stream — under either flush policy;
 *  - so does one tenant sliced at any length, batch edges included:
 *    the simulator's batching is invisible to SimSession slicing;
 *  - K interleaved tenants under tagged retention each equal their
 *    isolated runs byte-for-byte (host multiplexing is invisible to
 *    the simulated structures);
 *  - full flush only adds misses: walks are ordered Full ≥ Tagged,
 *    strictly when switches actually flush;
 *  - the .dmthostevents log is self-verifying: the per-tenant host
 *    counters reconstructed from the record stream equal the footer
 *    and the in-memory HostTenantStats exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant_auditor.hh"
#include "driver/campaign.hh"
#include "host/node.hh"
#include "host/sweep.hh"
#include "obs/host_event.hh"
#include "obs/replay.hh"
#include "sim/testbed.hh"
#include "workloads/workloads.hh"

#include "temp_dir.hh"

namespace dmt
{
namespace
{

using driver::CampaignEnv;
using driver::CellOutcome;
using host::FlushPolicy;
using host::HostNode;
using host::HostNodeConfig;
using host::HostTenantResult;
using host::TenantSpec;

constexpr double kScale = 1.0 / 256.0;
constexpr std::uint64_t kBaseSeed = 42;
constexpr std::uint64_t kWarmup = 500;
constexpr std::uint64_t kMeasure = 4'000;

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot read " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

SimConfig
smallSim()
{
    SimConfig sim;
    sim.warmupAccesses = kWarmup;
    sim.measureAccesses = kMeasure;
    sim.recordSteps = true;
    return sim;
}

HostNodeConfig
baseNode()
{
    HostNodeConfig node;
    node.scale = kScale;
    node.baseSeed = kBaseSeed;
    node.sim = smallSim();
    return node;
}

/** The isolated single-testbed oracle for one tenant. */
CellOutcome
isolatedOracle(const TenantSpec &spec,
               const std::string &events_path = "",
               const SimConfig &sim = smallSim())
{
    auto workload = makeWorkload(spec.workload, kScale);
    const TestbedConfig tb = scaledTestbedConfig(
        kScale, spec.thp ? ThpMode::Always : ThpMode::Never);
    return driver::runCell(*workload, spec.env, spec.design, tb, sim,
                           HostNode::tenantSeed(kBaseSeed, spec),
                           events_path);
}

void
expectSimIdentical(const SimResult &a, const SimResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.l1TlbHits, b.l1TlbHits) << what;
    EXPECT_EQ(a.l2TlbHits, b.l2TlbHits) << what;
    EXPECT_EQ(a.walks, b.walks) << what;
    EXPECT_EQ(a.fallbacks, b.fallbacks) << what;
    // Exact: walk latencies are integral cycles, and any drift here
    // breaks the byte-identical JSON contract downstream.
    EXPECT_EQ(a.walkCycles, b.walkCycles) << what;
    EXPECT_EQ(a.seqRefs, b.seqRefs) << what;
    EXPECT_EQ(a.parallelRefs, b.parallelRefs) << what;
    EXPECT_EQ(a.stepCosts, b.stepCosts) << what;
}

TenantSpec
tenant(const std::string &name, const std::string &workload,
       CampaignEnv env, Design design)
{
    TenantSpec spec;
    spec.name = name;
    spec.workload = workload;
    spec.env = env;
    spec.design = design;
    return spec;
}

// ------------------------------------- 1 tenant ≡ single-testbed path

struct SingleTenantCase
{
    CampaignEnv env;
    Design design;
    const char *tag;
};

// The test name's parameter comment shows the tag: gtest's default
// would print the struct's bytes, the tag's address included, so the
// name would change from one build to the next.
void
PrintTo(const SingleTenantCase &c, std::ostream *os)
{
    *os << c.tag;
}

class SingleTenantDifferential
    : public ::testing::TestWithParam<SingleTenantCase>
{
};

TEST_P(SingleTenantDifferential, InfiniteSliceMatchesRunCell)
{
    const SingleTenantCase &c = GetParam();
    for (const FlushPolicy policy :
         {FlushPolicy::Tagged, FlushPolicy::Full}) {
        const std::string tag = std::string(c.tag) + "/" +
                                host::flushPolicyId(policy);
        // Unique per policy: both runs write into this process's
        // directory, and the tenant name decides the events file name.
        const TenantSpec spec =
            tenant("solo_" + std::string(c.tag) + "_" +
                       host::flushPolicyId(policy),
                   "GUPS", c.env, c.design);

        HostNodeConfig node = baseNode();
        node.sliceAccesses = 0;  // infinite slice
        node.flush = policy;
        node.eventsDir = tempDir();
        HostNode host(node, {spec});
        const std::vector<HostTenantResult> results = host.run();
        ASSERT_EQ(results.size(), 1u) << tag;

        const std::string oraclePath =
            tempPath("host_oracle_" + spec.name + ".dmtevents");
        const CellOutcome oracle = isolatedOracle(spec, oraclePath);

        expectSimIdentical(results[0].sim, oracle.sim, tag);
        EXPECT_EQ(results[0].coverage, oracle.coverage) << tag;
        EXPECT_EQ(results[0].shadowExits, oracle.shadowExits) << tag;
        EXPECT_EQ(results[0].hypercalls, oracle.hypercalls) << tag;
        EXPECT_EQ(results[0].hypercallCycles, oracle.hypercallCycles)
            << tag;
        EXPECT_EQ(results[0].seed,
                  HostNode::tenantSeed(kBaseSeed, spec))
            << tag;

        // Byte-for-byte: the tenant's event stream is the isolated
        // run's stream.
        EXPECT_EQ(slurp(results[0].eventsPath), slurp(oraclePath))
            << tag << ": event streams differ from the oracle";

        // An undisturbed single tenant never pays flushes or
        // migrations; it context-switches in exactly once.
        EXPECT_EQ(results[0].host.ctxSwitches, 1u) << tag;
        EXPECT_EQ(results[0].host.migrations, 0u) << tag;
        EXPECT_EQ(results[0].host.tlbFlushes, 0u) << tag;
        EXPECT_EQ(results[0].host.shootdowns, 0u) << tag;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Environments, SingleTenantDifferential,
    ::testing::Values(
        SingleTenantCase{CampaignEnv::Native, Design::Dmt, "native"},
        SingleTenantCase{CampaignEnv::Virt, Design::Dmt, "virt"},
        SingleTenantCase{CampaignEnv::Nested, Design::PvDmt,
                         "nested"}),
    [](const ::testing::TestParamInfo<SingleTenantCase> &param) {
        return param.param.tag;
    });

// ------------------------------ K interleaved ≡ K isolated (tagged)

TEST(HostDifferential, InterleavedTenantsMatchIsolatedRuns)
{
    const std::vector<TenantSpec> tenants = {
        tenant("a", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("b", "BTree", CampaignEnv::Native, Design::Dmt),
        tenant("c", "GUPS", CampaignEnv::Virt, Design::Dmt),
        tenant("d", "GUPS", CampaignEnv::Native, Design::Vanilla),
    };

    HostNodeConfig node = baseNode();
    node.sliceAccesses = 128;  // many interleavings
    node.flush = FlushPolicy::Tagged;
    node.eventsDir = tempDir();
    HostNode host(node, tenants);
    const std::vector<HostTenantResult> results = host.run();
    ASSERT_EQ(results.size(), tenants.size());

    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const std::string tag = "tenant " + tenants[i].name;
        const std::string oraclePath =
            tempPath("host_iso_" + tenants[i].name + ".dmtevents");
        const CellOutcome oracle =
            isolatedOracle(tenants[i], oraclePath);
        expectSimIdentical(results[i].sim, oracle.sim, tag);
        EXPECT_EQ(slurp(results[i].eventsPath), slurp(oraclePath))
            << tag;
        // Interleaving happened: everyone was dispatched repeatedly.
        EXPECT_GT(results[i].host.dispatches, 1u) << tag;
    }
}

// The same interleaving must also be invariant in the slice length
// under tagged retention: simulated results never depend on how the
// schedule chops the streams.
TEST(HostDifferential, TaggedResultsAreSliceInvariant)
{
    const std::vector<TenantSpec> tenants = {
        tenant("x", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("y", "BTree", CampaignEnv::Native, Design::Vanilla),
    };
    std::vector<std::vector<HostTenantResult>> runs;
    for (const std::uint64_t slice : {64u, 1024u}) {
        HostNodeConfig node = baseNode();
        node.sliceAccesses = slice;
        node.flush = FlushPolicy::Tagged;
        HostNode host(node, tenants);
        runs.push_back(host.run());
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        expectSimIdentical(runs[0][i].sim, runs[1][i].sim,
                           "slice 64 vs 1024, tenant " +
                               tenants[i].name);
    }
}

// ------------------------------ one run() ≡ any slicing of it

// The simulator loop fills and commits batches of kSimBatch (256)
// accesses, cut at the warmup boundary, and a slice that ends inside
// a batch resumes with a fresh one. Slices of 1, 7, 255, 257 and
// 1,000 accesses around a 2,001-access warmup misalign every batch
// edge; none of them may show in the results or the event stream.
// One cell per loop instantiation: native vanilla (RadixWalker),
// native DMT (DmtNativeFetcher), and two generic ones.
class SliceInvariance : public ::testing::TestWithParam<SingleTenantCase>
{
};

TEST_P(SliceInvariance, SlicedSessionMatchesOneRun)
{
    const SingleTenantCase &c = GetParam();
    SimConfig sim = smallSim();
    sim.warmupAccesses = 2'001;
    const TenantSpec spec =
        tenant("slice_" + std::string(c.tag), "GUPS", c.env, c.design);
    const std::string runPath =
        tempPath("run_" + std::string(c.tag) + ".dmtevents");
    const CellOutcome oracle = isolatedOracle(spec, runPath, sim);

    for (const std::uint64_t slice : {1u, 7u, 255u, 257u, 1000u}) {
        const std::string tag =
            std::string(c.tag) + " slice " + std::to_string(slice);
        HostNodeConfig node = baseNode();
        node.sim = sim;
        node.sliceAccesses = slice;
        node.flush = FlushPolicy::Tagged;
        node.eventsDir = tempDir();
        HostNode host(node, {spec});
        const std::vector<HostTenantResult> results = host.run();
        ASSERT_EQ(results.size(), 1u) << tag;
        EXPECT_GT(results[0].host.dispatches, 1u) << tag;
        expectSimIdentical(results[0].sim, oracle.sim, tag);
        EXPECT_EQ(slurp(results[0].eventsPath), slurp(runPath))
            << tag << ": event streams differ from one run()";
    }
}

INSTANTIATE_TEST_SUITE_P(
    LoopInstantiations, SliceInvariance,
    ::testing::Values(
        SingleTenantCase{CampaignEnv::Native, Design::Vanilla,
                         "native_vanilla"},
        SingleTenantCase{CampaignEnv::Native, Design::Dmt,
                         "native_dmt"},
        SingleTenantCase{CampaignEnv::Virt, Design::PvDmt,
                         "virt_pvdmt"},
        SingleTenantCase{CampaignEnv::Nested, Design::Vanilla,
                         "nested_vanilla"}),
    [](const ::testing::TestParamInfo<SingleTenantCase> &param) {
        return param.param.tag;
    });

// --------------------------------------- flush-policy ordering

TEST(HostDifferential, FullFlushCostsAtLeastTagged)
{
    const std::vector<TenantSpec> tenants = {
        tenant("p", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("q", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("r", "BTree", CampaignEnv::Native, Design::Dmt),
    };
    std::map<std::string, std::vector<HostTenantResult>> byPolicy;
    for (const FlushPolicy policy :
         {FlushPolicy::Tagged, FlushPolicy::Full}) {
        HostNodeConfig node = baseNode();
        node.sliceAccesses = 256;
        node.flush = policy;
        HostNode host(node, tenants);
        byPolicy[host::flushPolicyId(policy)] = host.run();
    }

    Counter taggedWalks = 0, fullWalks = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const HostTenantResult &tagged = byPolicy["tagged"][i];
        const HostTenantResult &full = byPolicy["full"][i];
        // Flushing a tenant's TLBs at switch-in can only add misses,
        // never remove them (LRU contents after a flush stay a
        // subset of the unflushed run's). Only the walk *count* is
        // ordered — per-walk cost depends on PWC/cache state, so
        // total cycles may go either way for an individual tenant.
        EXPECT_GE(full.sim.walks, tagged.sim.walks)
            << "tenant " << tenants[i].name;
        // Full flush actually flushed; tagged on one core never does.
        EXPECT_GT(full.host.tlbFlushes, 0u);
        EXPECT_EQ(tagged.host.tlbFlushes, 0u);
        taggedWalks += tagged.sim.walks;
        fullWalks += full.sim.walks;
    }
    // With three tenants round-robining on one core, the full-flush
    // penalty must show up somewhere.
    EXPECT_GT(fullWalks, taggedWalks);
}

// --------------------------------------- host-event replay contract

TEST(HostEvents, ReplayReconstructsSchedulerCountersExactly)
{
    const std::vector<TenantSpec> tenants = {
        tenant("m0", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("m1", "BTree", CampaignEnv::Native, Design::Dmt),
        tenant("m2", "GUPS", CampaignEnv::Native, Design::Vanilla),
    };
    HostNodeConfig node = baseNode();
    node.cores = 2;
    node.sliceAccesses = 128;
    node.flush = FlushPolicy::Tagged;
    node.migrateEveryRounds = 3;  // force migrations + shootdowns
    node.hostEventsPath = tempPath("host_replay.dmthostevents");
    HostNode host(node, tenants);
    const std::vector<HostTenantResult> results = host.run();

    // Self-verification: footer == reconstruction from records.
    const obs::HostEventLog log =
        obs::readHostEventLog(node.hostEventsPath);
    const obs::CounterMap rec =
        obs::reconstructHostCounters(log.records);
    EXPECT_TRUE(obs::compareCounters(log.counters, rec).empty());

    // And both equal the in-memory per-tenant stats, field by field.
    bool sawMigration = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const host::HostTenantStats &h = results[i].host;
        const std::string p = "host.t" + std::to_string(i) + ".";
        const auto at = [&](const char *key) -> std::uint64_t {
            const auto it = rec.find(p + key);
            return it == rec.end() ? 0 : it->second;
        };
        EXPECT_EQ(at("dispatches"), h.dispatches) << p;
        EXPECT_EQ(at("ctx_switches"), h.ctxSwitches) << p;
        EXPECT_EQ(at("migrations"), h.migrations) << p;
        EXPECT_EQ(at("shootdowns"), h.shootdowns) << p;
        EXPECT_EQ(at("tlb_flushes"), h.tlbFlushes) << p;
        EXPECT_EQ(at("pwc_flushes"), h.pwcFlushes) << p;
        EXPECT_EQ(at("reg_hits"), h.regHits) << p;
        EXPECT_EQ(at("reg_loads"), h.regLoads) << p;
        EXPECT_EQ(at("reg_saves"), h.regSaves) << p;
        EXPECT_EQ(at("switch_cycles"), h.switchCycles) << p;
        EXPECT_EQ(at("shootdown_cycles"), h.shootdownCycles) << p;
        EXPECT_EQ(at("coherence_cycles"), h.coherenceCycles) << p;
        sawMigration = sawMigration || h.migrations > 0;
    }
    EXPECT_TRUE(sawMigration)
        << "migration rotation never triggered; the shootdown path "
           "went untested";
}

TEST(HostEvents, MigrationPaysShootdownAndColdRestart)
{
    const std::vector<TenantSpec> tenants = {
        tenant("c0", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("c1", "GUPS", CampaignEnv::Native, Design::Dmt),
    };
    HostNodeConfig node = baseNode();
    node.cores = 2;
    node.sliceAccesses = 128;
    node.flush = FlushPolicy::Tagged;
    node.migrateEveryRounds = 2;
    HostNode host(node, tenants);
    const std::vector<HostTenantResult> results = host.run();

    Counter migrations = 0, shootdowns = 0, shootdownCycles = 0;
    for (const HostTenantResult &r : results) {
        migrations += r.host.migrations;
        shootdowns += r.host.shootdowns;
        shootdownCycles += r.host.shootdownCycles;
    }
    EXPECT_GT(migrations, 0u);
    // Under tagged retention every migration is a shootdown on the
    // core left behind, at the configured HATRIC cost.
    EXPECT_EQ(shootdowns, migrations);
    const HostNodeConfig ref = baseNode();
    EXPECT_EQ(shootdownCycles,
              shootdowns * (ref.costs.shootdownBaseCycles +
                            ref.costs.shootdownPerCoreCycles));
}

// ------------------------------------------ scheduling policies

TEST(HostScheduler, WeightedTenantsNeedFewerDispatches)
{
    std::vector<TenantSpec> tenants = {
        tenant("heavy", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("light", "GUPS", CampaignEnv::Native, Design::Dmt),
    };
    tenants[0].weight = 4;
    HostNodeConfig node = baseNode();
    node.sliceAccesses = 128;
    node.slice = host::SlicePolicy::Weighted;
    HostNode host(node, tenants);
    const std::vector<HostTenantResult> results = host.run();
    // Same stream length, 4× the slice → about a quarter of the
    // dispatches.
    EXPECT_LT(results[0].host.dispatches,
              results[1].host.dispatches);
    // Weighted slicing is a scheduling knob only: simulated results
    // still equal the isolated oracle under tagged retention.
    const CellOutcome oracle = isolatedOracle(tenants[0]);
    expectSimIdentical(results[0].sim, oracle.sim, "heavy");
}

TEST(HostScheduler, AuditorValidatesEverySwitch)
{
    const std::vector<TenantSpec> tenants = {
        tenant("a0", "GUPS", CampaignEnv::Native, Design::Dmt),
        tenant("a1", "BTree", CampaignEnv::Native, Design::Dmt),
    };
    HostNodeConfig node = baseNode();
    node.sliceAccesses = 256;
    InvariantAuditor auditor;
    auditor.setInterval(1);  // sweep on every audit event
    HostNode host(node, tenants);
    host.attachAuditor(auditor);
    host.run();
    EXPECT_GT(auditor.stats().events, 0u);
    EXPECT_EQ(auditor.stats().violations, 0u);
}

// ------------------------------------------ sweep layer determinism

TEST(HostSweep, TenantListIsDeterministicAndUniquelyNamed)
{
    host::NodeSweepConfig cfg;
    cfg.cores = 2;
    cfg.workloads = {"GUPS", "BTree"};
    const auto tenants = host::sweepTenants(cfg, 3);
    ASSERT_EQ(tenants.size(), 6u);
    EXPECT_EQ(tenants[0].name, "t0");
    EXPECT_EQ(tenants[5].name, "t5");
    EXPECT_EQ(tenants[0].workload, "GUPS");
    EXPECT_EQ(tenants[1].workload, "BTree");
    // Seeds differ even for identical identities: the name salt.
    EXPECT_NE(HostNode::tenantSeed(kBaseSeed, tenants[0]),
              HostNode::tenantSeed(kBaseSeed, tenants[2]));
}

} // namespace
} // namespace dmt
