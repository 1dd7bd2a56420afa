/**
 * @file
 * §6.3 — DMT overheads, as google-benchmark microbenchmarks plus a
 * summary report:
 *
 *  - KVM_HC_ALLOC_TEA latency for 50/100/200 MB TEAs, single-level
 *    and nested (simulated cost from the calibrated model, plus the
 *    real host-side management work measured by the benchmark);
 *  - VMA-to-TEA mapping management under heavy fragmentation
 *    (FMFI ~0.99), the Redis VMA lifecycle;
 *  - page-table memory consumption, DMT (eager TEAs) vs vanilla;
 *  - DMT register coverage of translation requests;
 *  - the CACTI-anchored hardware cost model.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hh"
#include "core/hw_cost.hh"
#include "driver/cli.hh"
#include "os/fragmenter.hh"
#include "virt/costs.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

/** Hypercall microbenchmark: allocate a TEA of `mb` megabytes of
 *  table frames through the pv path and report the simulated cost. */
void
BM_HypercallAllocTea(benchmark::State &state)
{
    const std::uint64_t teaBytes = state.range(0) * 1024 * 1024;
    const std::uint64_t pages = teaBytes >> pageShift;
    for (auto _ : state) {
        state.PauseTiming();
        PhysicalMemory hostMem(Addr{4} << 30);
        BuddyAllocator hostAlloc(hostMem.size() >> pageShift);
        VmConfig vmCfg;
        vmCfg.vmBytes = Addr{2} << 30;
        VirtualMachine vm(hostMem, hostAlloc, vmCfg);
        GteaTable table;
        TeaHypercall hypercall(vm, hostAlloc, table);
        state.ResumeTiming();

        auto grant = hypercall.allocTea(pages);
        benchmark::DoNotOptimize(grant);

        state.PauseTiming();
        const double simulatedMs =
            static_cast<double>(hypercall.lastCost()) /
            cyclesPerSecond * 1e3;
        state.counters["sim_ms"] = simulatedMs;
        state.ResumeTiming();
    }
}

BENCHMARK(BM_HypercallAllocTea)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

/** Mapping management under FMFI ~0.99 fragmentation: the full
 *  Redis-like VMA lifecycle with DMT attached. */
void
BM_MappingManagementFragmented(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        PhysicalMemory mem(Addr{2} << 30);
        BuddyAllocator alloc(mem.size() >> pageShift);
        AddressSpace proc(mem, alloc, {});
        // Burn contiguity: only isolated order-0 holes stay free.
        Fragmenter fragmenter(alloc);
        fragmenter.fragment(0.4);
        state.ResumeTiming();

        LocalTeaSource src(alloc);
        TeaManager teas(proc.pageTable(), src);
        DmtRegisterFile regs;
        MappingManager manager(proc, teas, regs, {});
        // 64 MB heap + a handful of arenas, Redis-style but sized
        // for the fragmented 2 GB testbed.
        proc.mmapAt(0x10000000, Addr{64} << 20, VmaKind::Heap);
        Addr at = 0x20000000;
        for (int i = 0; i < 5; ++i) {
            proc.mmapAt(at, Addr{4} << 20, VmaKind::Data);
            at += (Addr{4} << 20) + pageSize;
        }
        benchmark::DoNotOptimize(manager.stats().splits);

        state.PauseTiming();
        state.counters["splits"] =
            static_cast<double>(manager.stats().splits);
        state.counters["uncovered"] =
            static_cast<double>(manager.stats().uncovered);
        proc.munmap(0x10000000);
        state.ResumeTiming();
    }
}

BENCHMARK(BM_MappingManagementFragmented)
    ->Unit(benchmark::kMillisecond);

/** Report block printed after the microbenchmarks. */
void
printSummary()
{
    printConfigBanner("Section 6.3: DMT overhead report");

    // Simulated hypercall latencies (the paper's Table-form list).
    std::printf("\nKVM_HC_ALLOC_TEA simulated latency (model: fixed "
                "hypercall cost + per-page allocation):\n");
    Table hc({"TEA size", "Virtualized (ms)", "Nested (ms)"});
    for (int mb : {50, 100, 200}) {
        const std::uint64_t pages =
            (static_cast<std::uint64_t>(mb) << 20) >> pageShift;
        const double virtMs =
            (hypercallVirtSeconds +
             static_cast<double>(pages *
                                 TeaHypercall::allocCyclesPerPage) /
                 cyclesPerSecond) *
            1e3;
        const double nestedMs =
            (hypercallNestedSeconds +
             static_cast<double>(pages *
                                 TeaHypercall::allocCyclesPerPage) /
                 cyclesPerSecond) *
            1e3;
        hc.addRow({std::to_string(mb) + " MB", Table::num(virtMs),
                   Table::num(nestedMs)});
    }
    hc.print();
    std::printf("Paper: 13.27/23.73/48.07 ms virtualized, "
                "15.67/24.55/54.87 ms nested; bare hypercall 1.88 us "
                "/ 10.75 us.\n");

    // Page-table memory, DMT vs vanilla.
    std::printf("\nPage-table memory (4KB pages):\n");
    Table mem({"Workload", "Vanilla PT (MB)", "DMT PT+TEA (MB)",
               "Overhead"});
    const double scale = scaleFromEnv();
    for (const auto &name : {"Redis", "Memcached", "GUPS"}) {
        auto wl = makeWorkload(name, scale);
        NativeTestbed vtb(wl->footprintBytes(), {});
        wl->setup(vtb.proc());
        const double vanillaMb =
            static_cast<double>(vtb.proc().pageTable().tableBytes()) /
            (1024.0 * 1024.0);

        auto wl2 = makeWorkload(name, scale);
        NativeTestbed dtb(wl2->footprintBytes(), {});
        dtb.attachDmt();
        wl2->setup(dtb.proc());
        // TEA-reserved frames include eager slack; table pages placed
        // inside TEAs are counted once.
        const std::uint64_t teaPages =
            dtb.teaManager()->reservedPages();
        const std::uint64_t scattered =
            dtb.proc().pageTable().tablePages();
        std::uint64_t inTea = 0;
        for (const Tea *tea : dtb.teaManager()->all())
            inTea += tea->pages();
        const double dmtMb =
            static_cast<double>((scattered - std::min(scattered,
                                                      inTea)) +
                                teaPages) *
            pageSize / (1024.0 * 1024.0);
        mem.addRow(
            {name, Table::num(vanillaMb), Table::num(dmtMb),
             Table::num((dmtMb / vanillaMb - 1.0) * 100.0, 1) + "%"});
    }
    mem.print();
    std::printf("Paper: 247.2 MB vs 241.3 MB on average (<2.5%% "
                "extra).\n");

    std::printf("\nDMT register coverage (virtualized, 4KB):\n");
    Table cov({"Workload", "Coverage", "Fallbacks/walks"});
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, scale);
        const Outcome out = runVirt(*wl, Design::PvDmt, false);
        cov.addRow({name, Table::num(out.coverage * 100.0, 2) + "%",
                    Table::num(
                        out.sim.walks
                            ? 100.0 *
                                  static_cast<double>(
                                      out.sim.fallbacks) /
                                  static_cast<double>(out.sim.walks)
                            : 0.0,
                        3) +
                        "%"});
    }
    cov.print();
    std::printf("Paper: the registers cover 99+%% of walk requests.\n");

    // Hardware cost model.
    std::printf("\nHardware cost (CACTI-anchored model, 22nm):\n");
    Table hw({"Registers", "Leakage (mW)", "Area (mm^2)",
              "% of Xeon TDP", "% of die"});
    for (int regs : {4, 8, 16, 32}) {
        const HwCost cost = estimateDmtHardwareCost(regs);
        hw.addRow({std::to_string(regs),
                   Table::num(cost.leakageMilliWatts),
                   Table::num(cost.areaMm2, 3),
                   Table::num(cost.leakageMilliWatts / 10.0 /
                                  xeonTdpWatts,
                              4) +
                       "%",
                   Table::num(cost.areaMm2 / xeonDieMm2 * 100.0, 4) +
                       "%"});
    }
    hw.print();
    std::printf("Paper: 4.87 mW and 0.03 mm^2 per MMU at 16 "
                "registers.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    // What google-benchmark did not take must be no flag at all.
    driver::parseFlags(argc, argv, {});
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printSummary();
    return 0;
}
