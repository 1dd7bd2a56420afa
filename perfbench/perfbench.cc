/**
 * @file
 * dmt-perfbench — the sampling program of the repository benchmark.
 *
 * Drives the simulator only through its public calls and times each
 * call from outside: testbed constructors, attachDmt/attachPvDmt,
 * Workload::setup, build(design), TraceSource::fill,
 * SimSession::advance, the testbed destructors, and HostNode
 * construction, run() and destruction. Every timed call becomes one
 * span; spans and the simulated results of every finished unit are
 * kept in memory and written as JSON lines when the run ends.
 * perfbench/run.py turns them into metrics (best of interleaved
 * samples) and verifies the results.
 *
 * Sampling: after one untimed warm-up pass, the samples of different
 * units are interleaved round-robin across the whole run, never taken
 * back to back — the host's speed drifts in epochs of seconds, and
 * only a minimum over samples spread across those epochs is steady.
 *
 * Clock: a span's duration is the CPU time of the calling thread
 * (CLOCK_THREAD_CPUTIME_ID), which leaves out the time the thread
 * waited for a CPU, including time the hypervisor gave the vCPU to
 * another guest. Its start and wall-clock length place it in the
 * trace.
 *
 *   dmt-perfbench --workload W --seed N --seconds S --trace 0|1
 *                 --out FILE
 *
 * CPU: between samples, CpuPicker keeps the thread on the fastest CPU
 * the process may use (see there).
 *
 * With --trace 1, every other sample of each unit is instrumented:
 * its spans also carry getrusage and simulator-counter deltas. The
 * instrumentation runs outside the span's own interval; the span's
 * "outer" time includes it, which is what obs.trace_overhead compares.
 */

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "driver/campaign.hh"
#include "host/node.hh"
#include "host/sweep.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/workloads.hh"

using namespace dmt;

namespace
{

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, double>;
using CounterFn = std::function<Counters()>;

/** Addresses generated per TraceSource::fill sample. */
constexpr std::size_t kFillAccesses = 65536;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: dmt-perfbench --workload "
                 "loop-thp|setup-4k|node-flush --seed N "
                 "--seconds S --trace 0|1 --out FILE\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage();
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(opt.seconds > 0.0))
                usage();
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage();
            opt.trace = val == "1";
        } else if (arg == "--out") {
            opt.out = val;
        } else {
            usage();
        }
    }
    if (opt.workload.empty() || opt.out.empty())
        usage();
    return opt;
}

/** Process-wide getrusage counters the traced spans carry. */
Counters
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {{"minflt", static_cast<double>(ru.ru_minflt)},
            {"majflt", static_cast<double>(ru.ru_majflt)},
            {"sys_s", secs(ru.ru_stime)},
            {"user_s", secs(ru.ru_utime)}};
}

Counters
statCounters(const StatGroup &g)
{
    Counters out;
    for (const auto &[name, stat] : g.snapshot())
        out[name] = stat.sum();
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
appendCounters(std::string &out, const Counters &c)
{
    out += '{';
    bool first = true;
    for (const auto &[k, v] : c) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + k + "\":" + jsonNumber(v);
    }
    out += '}';
}

/** Which sample of which unit a span belongs to. */
struct SampleRef
{
    int unit = 0;
    int sample = 0;
    bool warm = false;    //!< warm-up pass: excluded from metrics
    bool traced = false;  //!< instrumented with counter deltas
};

/**
 * In-memory span and result store. Spans are plain records with a
 * start, an inner duration (the call alone) and an outer duration
 * (the call plus any instrumentation around it).
 */
class Recorder
{
  public:
    Recorder() : origin_(Clock::now()) {}

    /** Wall-clock seconds since the recorder was made. */
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    /** CPU seconds this thread has run. */
    static double
    cpuNow()
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    /**
     * Time `call` as span `name`. When the sample is traced, the
     * getrusage deltas and the deltas of `counters` (if given) around
     * the call are attached; they are read outside the inner interval.
     */
    void
    time(const char *name, const SampleRef &ref, std::uint64_t accesses,
         const std::function<void()> &call,
         const CounterFn &counters = nullptr)
    {
        const double pre = cpuNow();
        Counters u0, c0;
        if (ref.traced) {
            u0 = usageNow();
            if (counters)
                c0 = counters();
        }
        const double t0 = now();
        const double c0s = cpuNow();
        call();
        const double c1s = cpuNow();
        const double t1 = now();
        Counters args;
        if (ref.traced) {
            const Counters u1 = usageNow();
            for (const auto &[k, v] : u1)
                args[k] = v - u0[k];
            if (counters) {
                for (const auto &[k, v] : counters())
                    args["counter." + k] = v - c0[k];
            }
        }
        span(name, ref, t0, t1 - t0, c1s - c0s, cpuNow() - pre, accesses,
             args);
    }

    /**
     * Record a span: wall-clock start and length, and CPU time of the
     * call alone (`dur`) and with its instrumentation (`outer`).
     */
    void
    span(const char *name, const SampleRef &ref, double t0, double wall,
         double dur, double outer, std::uint64_t accesses,
         const Counters &args = {})
    {
        std::string line = "{\"type\":\"span\",\"name\":\"";
        line += name;
        line += "\",\"unit\":" + std::to_string(ref.unit) +
                ",\"sample\":" + std::to_string(ref.sample) +
                ",\"warm\":" + (ref.warm ? "true" : "false") +
                ",\"traced\":" + (ref.traced ? "true" : "false") +
                ",\"t0\":" + jsonNumber(t0) +
                ",\"wall\":" + jsonNumber(wall) +
                ",\"dur\":" + jsonNumber(dur) +
                ",\"outer\":" + jsonNumber(outer) +
                ",\"accesses\":" + std::to_string(accesses) +
                ",\"args\":";
        appendCounters(line, args);
        line += '}';
        lines_.push_back(std::move(line));
    }

    /** A finished unit execution: its report JSON and counters. */
    void
    result(const SampleRef &ref, std::string report,
           const Counters &counters)
    {
        // One record per line: the writer pretty-prints, and JSON
        // string values never hold a raw newline.
        for (char &c : report) {
            if (c == '\n')
                c = ' ';
        }
        std::string line = "{\"type\":\"result\",\"unit\":" +
                           std::to_string(ref.unit) +
                           ",\"sample\":" + std::to_string(ref.sample) +
                           ",\"warm\":" + (ref.warm ? "true" : "false") +
                           ",\"traced\":" +
                           (ref.traced ? "true" : "false") +
                           ",\"report\":" + report + ",\"counters\":";
        appendCounters(line, counters);
        line += '}';
        lines_.push_back(std::move(line));
    }

    void raw(std::string line) { lines_.push_back(std::move(line)); }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::binary);
        for (const std::string &l : lines_)
            os << l << '\n';
        if (!os.good())
            fatal("cannot write '%s'", path.c_str());
    }

  private:
    Clock::time_point origin_;
    std::vector<std::string> lines_;
};

/**
 * Keeps the benchmark thread on the fastest CPU it may use.
 *
 * On a shared host one vCPU can run cache- and memory-bound code 1.5-2x
 * slower than the VM's other vCPUs for seconds to minutes at a time,
 * so no minimum over the samples a run takes on it reaches the fast
 * state. Twice a second, between samples and outside every span, the
 * picker times a short probe on each allowed CPU and moves the thread
 * to the fastest one when it beats the current CPU by 10%. The probe
 * is the same kind of work as the simulator's: a 16-way LRU cache
 * model over a random line stream whose misses read a 64 MB table.
 */
class CpuPicker
{
  public:
    CpuPicker()
        : tags_(kSets * kWays, ~std::uint64_t{0}),
          stamps_(kSets * kWays, 0), table_(kTableWords)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
            }
        }
        for (std::size_t i = 0; i < table_.size(); ++i)
            table_[i] = i;
    }

    /** Probe every CPU and settle on the fastest, at most twice a second. */
    void
    maybePick(double wall_now)
    {
        if (cpus_.size() < 2 || wall_now - last_ < kInterval)
            return;
        last_ = wall_now;
        ++picks_;
        int best = -1;
        double bestTime = 0.0, currentTime = 0.0;
        for (const int c : cpus_) {
            if (!pin(c))
                return disable();
            const double t = probe();
            if (c == current_)
                currentTime = t;
            if (best < 0 || t < bestTime) {
                best = c;
                bestTime = t;
            }
        }
        if (current_ < 0 || bestTime < kMargin * currentTime) {
            moves_ += current_ >= 0 && best != current_;
            current_ = best;
        }
        if (!pin(current_))
            disable();
    }

    unsigned picks() const { return picks_; }
    unsigned moves() const { return moves_; }

  private:
    static constexpr double kInterval = 0.5;  //!< seconds between picks
    static constexpr double kMargin = 0.9;    //!< move when 10% faster
    static constexpr std::size_t kSets = 4096, kWays = 16;
    static constexpr std::size_t kTableWords = (64u << 20) / 8;
    static constexpr int kOps = 2048;         //!< accesses per pass

    static bool
    pin(int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        return sched_setaffinity(0, sizeof set, &set) == 0;
    }

    /** Stop picking and let the scheduler place the thread again. */
    void
    disable()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        for (const int c : cpus_)
            CPU_SET(c, &set);
        sched_setaffinity(0, sizeof set, &set);
        cpus_.clear();
    }

    /** Best CPU seconds of two passes, after one that warms the caches. */
    double
    probe()
    {
        pass();
        double best = 0.0;
        for (int i = 0; i < 2; ++i) {
            const double c0 = Recorder::cpuNow();
            pass();
            const double t = Recorder::cpuNow() - c0;
            best = i == 0 ? t : std::min(best, t);
        }
        return best;
    }

    void
    pass()
    {
        for (int i = 0; i < kOps; ++i) {
            rng_ ^= rng_ << 13;
            rng_ ^= rng_ >> 7;
            rng_ ^= rng_ << 17;
            // A line of a 1 GB range; half the stream stays in 4 MB.
            std::uint64_t line = (rng_ % (std::uint64_t{1} << 30)) >> 6;
            if ((rng_ >> 40) & 1)
                line &= 0xffff;
            const std::size_t set =
                ((line * 0x9E3779B97F4A7C15ull) >> 52) % kSets;
            std::uint64_t *tag = &tags_[set * kWays];
            std::uint64_t *stamp = &stamps_[set * kWays];
            ++clock_;
            std::size_t way = kWays;
            for (std::size_t w = 0; w < kWays; ++w) {
                if (tag[w] == line) {
                    way = w;
                    break;
                }
            }
            if (way == kWays) {
                way = 0;
                for (std::size_t w = 1; w < kWays; ++w) {
                    if (stamp[w] < stamp[way])
                        way = w;
                }
                tag[way] = line;
                sink_ = sink_ + table_[(line * 2654435761u) % table_.size()];
            }
            stamp[way] = clock_;
        }
    }

    std::vector<int> cpus_;
    int current_ = -1;
    double last_ = -1.0e9;
    unsigned picks_ = 0, moves_ = 0;
    std::vector<std::uint64_t> tags_, stamps_, table_;
    std::uint64_t rng_ = 1, clock_ = 0;
    volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------
// Cells: one (workload, env, design, page mode) identity.
// ---------------------------------------------------------------------

struct CellDef
{
    std::string id;
    driver::CellSpec spec;
    double scale = 1.0 / 256.0;
    SimConfig sim;
    std::uint64_t seed = 0;
    std::uint64_t slice = 4096;  //!< accesses per advance() sample
    bool runLoop = true;         //!< false: build and tear down only
};

CellDef
makeCell(const std::string &workload, driver::CampaignEnv env,
         Design design, bool thp, double scale, const SimConfig &sim,
         std::uint64_t base_seed, std::uint64_t slice)
{
    CellDef c;
    c.spec = {workload, env, design, thp};
    c.id = driver::envId(env) + "-" + workload + "-" +
           driver::designId(design) + (thp ? "-thp" : "-4k");
    c.scale = scale;
    c.sim = sim;
    c.seed = driver::cellSeed(base_seed, c.spec);
    c.slice = slice;
    return c;
}

bool
needsAttach(const driver::CellSpec &spec)
{
    if (spec.env == driver::CampaignEnv::Nested)
        return spec.design == Design::PvDmt;
    return spec.design == Design::Dmt || spec.design == Design::PvDmt;
}

void attach(NativeTestbed &tb, Design) { tb.attachDmt(); }
void attach(VirtTestbed &tb, Design d) { tb.attachDmt(d == Design::PvDmt); }
void attach(NestedTestbed &tb, Design) { tb.attachPvDmt(); }

PhysicalMemory &physmem(NativeTestbed &tb) { return tb.mem(); }
PhysicalMemory &physmem(VirtTestbed &tb) { return tb.hostMem(); }
PhysicalMemory &physmem(NestedTestbed &tb) { return tb.l0Mem(); }

/** The per-environment outcome fields driver::runCell reports. */
void
extras(NativeTestbed &tb, driver::CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
}

void
extras(VirtTestbed &tb, driver::CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
    if (tb.shadowPager())
        out.shadowExits = tb.shadowPager()->exits();
    if (tb.hypercall()) {
        out.hypercalls = tb.hypercall()->hypercalls();
        out.hypercallCycles = tb.hypercall()->simulatedCost();
    }
}

void
extras(NestedTestbed &tb, driver::CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
    if (tb.shadowPager())
        out.shadowExits = tb.shadowPager()->exits();
    if (tb.l2Hypercall()) {
        out.hypercalls = tb.l2Hypercall()->hypercalls();
        out.hypercallCycles = tb.l2Hypercall()->simulatedCost();
    }
}

template <class TB>
Counters
memCounters(TB *tb)
{
    if (!tb)
        return {};
    const PhysicalMemory &m = physmem(*tb);
    return {{"physmem.frames_in_use",
             static_cast<double>(m.framesInUse())},
            {"physmem.words_in_use", static_cast<double>(m.wordsInUse())}};
}

template <class TB>
Counters
managementCounters(TB *tb)
{
    if (!tb)
        return {};
    StatGroup g("mgmt");
    tb->managementStats(g);
    Counters c = statCounters(g);
    for (const auto &[k, v] : memCounters(tb))
        c[k] = v;
    return c;
}

template <class TB>
Counters
translationCounters(TB *tb)
{
    StatGroup g("xlat");
    tb->translationStats(g);
    return statCounters(g);
}

std::uint64_t
fnv1a(const std::vector<Addr> &v)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Addr a : v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (a >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/**
 * One live build of a cell. Owns everything a driver::runCell of the
 * same identity builds, but keeps the simulation resumable so its
 * measure window can be sliced.
 */
class LiveCell
{
  public:
    LiveCell(const CellDef &def, Recorder &rec, SampleRef ref)
        : def_(def), rec_(rec), ref_(ref)
    {
        wl_ = makeWorkload(def.spec.workload, def.scale);
        switch (def.spec.env) {
          case driver::CampaignEnv::Native: buildOn(native_); break;
          case driver::CampaignEnv::Virt: buildOn(virt_); break;
          case driver::CampaignEnv::Nested: buildOn(nested_); break;
        }
    }

    LiveCell(const LiveCell &) = delete;
    LiveCell &operator=(const LiveCell &) = delete;

    bool done() const { return !session_ || session_->done(); }

    /** Time the rest of this build: the warm-up part is over. */
    void endWarmUp() { ref_.warm = false; }

    /** Time one TraceSource::fill over a fresh trace of the seed. */
    void
    fillSample()
    {
        auto fresh = wl_->trace(def_.seed);
        std::vector<Addr> buf(kFillAccesses);
        rec_.time("workloads.trace_fill", ref_, kFillAccesses,
                  [&] { fresh->fill(buf.data(), buf.size()); });
        fillDigest_ = fnv1a(buf);
    }

    /** Advance one slice; the sample's traced flag may vary per slice. */
    void
    advance(bool traced)
    {
        SampleRef r = ref_;
        r.traced = traced;
        // The last slice of a stream may be short.
        const std::uint64_t n = std::min(
            def_.slice, session_->total() - session_->cursor());
        rec_.time(
            "sim.advance", r, n, [&] { session_->advance(n); },
            [&] { return xlat(); });
    }

    /** Run the whole remaining stream in slices. */
    void
    runToEnd()
    {
        while (!done())
            advance(ref_.traced);
    }

    /**
     * Record the finished unit's report and counters. A build-only
     * cell (no session) reports its management and memory counters.
     */
    void
    report()
    {
        if (!session_) {
            Counters counters;
            withTestbed(
                [&](auto &tb) { counters = managementCounters(&tb); });
            rec_.result(ref_, "null", counters);
            return;
        }
        driver::CellResult res;
        res.spec = def_.spec;
        res.seed = def_.seed;
        res.outcome.sim = session_->result();
        res.outcome.design = mech_->name();
        Counters counters;
        withTestbed([&](auto &tb) {
            extras(tb, res.outcome);
            counters = translationCounters(&tb);
            for (const auto &[k, v] : managementCounters(&tb))
                counters[k] = v;
        });
        counters["trace.fill_fnv_low32"] =
            static_cast<double>(fillDigest_ & 0xffffffffu);
        driver::CampaignConfig cfg;
        cfg.scale = def_.scale;
        cfg.baseSeed = 0;
        cfg.sim = def_.sim;
        cfg.includeThp = def_.spec.thp;
        std::ostringstream os;
        driver::emitCampaignJson(os, cfg, {res});
        rec_.result(ref_, os.str(), counters);
    }

    /** Time the destruction of everything the build created. */
    void
    teardown()
    {
        rec_.time("sim.teardown", ref_, 0, [&] {
            session_.reset();
            sim_.reset();
            trace_.reset();
            native_.reset();
            virt_.reset();
            nested_.reset();
            wl_.reset();
        });
    }

  private:
    template <class F>
    void
    withTestbed(F &&f)
    {
        if (native_)
            f(*native_);
        else if (virt_)
            f(*virt_);
        else
            f(*nested_);
    }

    Counters
    xlat()
    {
        Counters c;
        withTestbed([&](auto &tb) { c = translationCounters(&tb); });
        return c;
    }

    template <class TB>
    void
    buildOn(std::unique_ptr<TB> &tb)
    {
        const Addr footprint = wl_->footprintBytes();
        const TestbedConfig cfg = scaledTestbedConfig(
            def_.scale, def_.spec.thp ? ThpMode::Always : ThpMode::Never);
        rec_.time(
            "sim.testbed_ctor", ref_, 0,
            [&] { tb = std::make_unique<TB>(footprint, cfg); },
            [&] { return memCounters(tb.get()); });
        if (needsAttach(def_.spec)) {
            rec_.time(
                "core.attach", ref_, 0,
                [&] { attach(*tb, def_.spec.design); },
                [&] { return managementCounters(tb.get()); });
        }
        rec_.time(
            "workloads.setup", ref_, 0, [&] { wl_->setup(tb->proc()); },
            [&] { return managementCounters(tb.get()); });
        rec_.time(
            "baselines.build", ref_, 0,
            [&] { mech_ = &tb->build(def_.spec.design); },
            [&] { return managementCounters(tb.get()); });
        if (!def_.runLoop)
            return;
        trace_ = wl_->trace(def_.seed);
        sim_ = std::make_unique<TranslationSimulator>(*mech_, tb->tlbs(),
                                                      tb->caches());
        session_ = std::make_unique<SimSession>(*sim_, *trace_, def_.sim);
    }

    const CellDef &def_;
    Recorder &rec_;
    SampleRef ref_;
    std::unique_ptr<Workload> wl_;
    std::unique_ptr<NativeTestbed> native_;
    std::unique_ptr<VirtTestbed> virt_;
    std::unique_ptr<NestedTestbed> nested_;
    TranslationMechanism *mech_ = nullptr;
    std::unique_ptr<TraceSource> trace_;
    std::unique_ptr<TranslationSimulator> sim_;
    std::unique_ptr<SimSession> session_;
    std::uint64_t fillDigest_ = 0;
};

void
declareUnit(Recorder &rec, int unit, const std::string &id,
            const std::string &kind, std::uint64_t stream,
            std::uint64_t multiplicity)
{
    rec.raw("{\"type\":\"unit\",\"unit\":" + std::to_string(unit) +
            ",\"id\":\"" + id + "\",\"kind\":\"" + kind +
            "\",\"stream_accesses\":" + std::to_string(stream) +
            ",\"multiplicity\":" + std::to_string(multiplicity) + "}");
}

/**
 * Traced samples alternate with untraced ones in --trace 1 runs, and
 * neighbouring units start on opposite parities, so every round holds
 * both kinds.
 */
bool
tracedSample(const Options &opt, int unit, int sample)
{
    return opt.trace && (unit + sample) % 2 == 0;
}

/**
 * One whole cell execution back to back — construct, attach, set up,
 * build, fill, run every slice, report, tear down — under a root span.
 */
void
cellSample(const CellDef &def, int unit, int sample, bool warm,
           const Options &opt, Recorder &rec)
{
    const SampleRef ref{unit, sample, warm,
                        tracedSample(opt, unit, sample)};
    const double pre = rec.now();
    const double cpu = Recorder::cpuNow();
    LiveCell cell(def, rec, ref);
    if (def.runLoop) {
        cell.fillSample();
        cell.runToEnd();
    }
    cell.report();
    cell.teardown();
    const double cpuEnd = Recorder::cpuNow();
    rec.span("cell", ref, pre, rec.now() - pre, cpuEnd - cpu, cpuEnd - cpu,
             0);
}

/**
 * The rebuild workload (setup-4k): every sample is a whole cell
 * execution; cells take turns, one sample each per round.
 */
void
runRebuild(const std::vector<CellDef> &cells, const Options &opt,
           Recorder &rec, CpuPicker &picker)
{
    for (std::size_t u = 0; u < cells.size(); ++u)
        declareUnit(rec, static_cast<int>(u), cells[u].id, "cell",
                    cells[u].sim.warmupAccesses +
                        cells[u].sim.measureAccesses,
                    1);
    for (std::size_t u = 0; u < cells.size(); ++u) {
        picker.maybePick(rec.now());
        cellSample(cells[u], static_cast<int>(u), -1, true, opt, rec);
    }
    const double deadline = rec.now() + opt.seconds;
    for (int sample = 0; rec.now() < deadline; ++sample) {
        for (std::size_t u = 0; u < cells.size(); ++u) {
            if (sample > 0 && rec.now() >= deadline)
                break;
            picker.maybePick(rec.now());
            cellSample(cells[u], static_cast<int>(u), sample, false, opt,
                       rec);
        }
    }
}

/**
 * The loop workload (loop-thp): every cell keeps a live session and
 * the sessions advance one slice each, round-robin. A session that
 * reaches the end of its stream is reported, torn down and rebuilt,
 * so its setup and teardown are sampled too, spread across the run.
 */
void
runLoop(const std::vector<CellDef> &cells, const Options &opt,
        Recorder &rec, CpuPicker &picker)
{
    std::vector<std::unique_ptr<LiveCell>> live(cells.size());
    std::vector<int> generation(cells.size(), 0);
    std::vector<std::uint64_t> slices(cells.size(), 0);
    for (std::size_t u = 0; u < cells.size(); ++u) {
        declareUnit(rec, static_cast<int>(u), cells[u].id, "cell",
                    cells[u].sim.warmupAccesses +
                        cells[u].sim.measureAccesses,
                    1);
        // Warm-up pass: the first build and first slice of each cell.
        picker.maybePick(rec.now());
        live[u] = std::make_unique<LiveCell>(
            cells[u], rec, SampleRef{static_cast<int>(u), 0, true, false});
        live[u]->fillSample();
        live[u]->advance(false);
        live[u]->endWarmUp();
    }
    const double deadline = rec.now() + opt.seconds;
    while (rec.now() < deadline) {
        picker.maybePick(rec.now());
        for (std::size_t u = 0; u < cells.size(); ++u) {
            LiveCell &cell = *live[u];
            const bool traced =
                opt.trace && (slices[u]++ % 2 == 0);
            cell.advance(traced);
            if (!cell.done())
                continue;
            cell.report();
            cell.teardown();
            const int gen = ++generation[u];
            live[u].reset();
            live[u] = std::make_unique<LiveCell>(
                cells[u], rec,
                SampleRef{static_cast<int>(u), gen, false,
                          tracedSample(opt, static_cast<int>(u), gen)});
            live[u]->fillSample();
        }
    }
}

/**
 * node-flush: one dmt-node point (unit 0) interleaved with a
 * standalone build of its tenant identity (unit 1), which times the
 * testbed setup HostNode::run performs once per tenant.
 */
void
runNode(const Options &opt, Recorder &rec, CpuPicker &picker)
{
    host::NodeSweepConfig sweep;
    sweep.tenantsPerCore = {64};
    sweep.cores = 1;
    sweep.workloads = {"GUPS"};
    sweep.env = driver::CampaignEnv::Native;
    sweep.design = Design::Dmt;
    sweep.thp = true;
    sweep.sliceAccesses = 512;
    sweep.flush = host::FlushPolicy::Full;
    sweep.scale = 1.0 / 64.0;
    sweep.baseSeed = opt.seed;
    sweep.sim.warmupAccesses = 2'000;
    sweep.sim.measureAccesses = 20'000;
    const unsigned tenants = sweep.tenantsPerCore.front() * sweep.cores;

    host::HostNodeConfig node;
    node.cores = sweep.cores;
    node.sliceAccesses = sweep.sliceAccesses;
    node.flush = sweep.flush;
    node.slice = sweep.slice;
    node.costs = sweep.costs;
    node.scale = sweep.scale;
    node.baseSeed = sweep.baseSeed;
    node.sim = sweep.sim;

    const std::vector<host::TenantSpec> specs =
        host::sweepTenants(sweep, sweep.tenantsPerCore.front());
    CellDef tenant = makeCell("GUPS", sweep.env, sweep.design, sweep.thp,
                              sweep.scale, sweep.sim, opt.seed, 0);
    tenant.id = "tenant-" + tenant.id;
    tenant.seed = host::HostNode::tenantSeed(opt.seed, specs.front());
    tenant.runLoop = false;

    declareUnit(rec, 0, "node-GUPS-dmt-thp-x64-full", "node",
                tenants * (sweep.sim.warmupAccesses +
                           sweep.sim.measureAccesses),
                1);
    declareUnit(rec, 1, tenant.id, "tenant", 0, tenants);

    auto nodeSample = [&](int sample, bool warm) {
        const SampleRef ref{0, sample, warm,
                            tracedSample(opt, 0, sample)};
        const double pre = rec.now();
        const double cpu = Recorder::cpuNow();
        std::unique_ptr<host::HostNode> hn;
        rec.time("host.ctor", ref, 0, [&] {
            hn = std::make_unique<host::HostNode>(node, specs);
        });
        std::vector<host::HostTenantResult> results;
        rec.time("host.run", ref, 0, [&] { results = hn->run(); });
        host::NodePointResult point = host::foldNodePoint(
            sweep.tenantsPerCore[0], hn->rounds(), std::move(results));
        // Tenant testbeds are private to the node, so its TLB counters
        // come from the per-tenant SimResults (measure window only).
        double l1 = 0, l2 = 0;
        for (const host::HostTenantResult &t : point.perTenant) {
            l1 += static_cast<double>(t.sim.l1TlbHits);
            l2 += static_cast<double>(t.sim.l2TlbHits);
        }
        const auto acc = static_cast<double>(point.accesses);
        std::ostringstream os;
        host::emitNodeJson(os, sweep, {point});
        rec.result(ref, os.str(),
                   {{"host.ctx_switches",
                     static_cast<double>(point.ctxSwitches)},
                    {"host.tlb_flushes",
                     static_cast<double>(point.tlbFlushes)},
                    {"host.reg_hit_rate", point.registerHitRate()},
                    {"tlb.l1d.hits", l1},
                    {"tlb.l1d.misses", acc - l1},
                    {"tlb.stlb.hits", l2},
                    {"tlb.stlb.misses", acc - l1 - l2}});
        rec.time("host.teardown", ref, 0, [&] { hn.reset(); });
        const double cpuEnd = Recorder::cpuNow();
        rec.span("node", ref, pre, rec.now() - pre, cpuEnd - cpu,
                 cpuEnd - cpu, 0);
    };

    picker.maybePick(rec.now());
    nodeSample(-1, true);
    cellSample(tenant, 1, -1, true, opt, rec);
    const double deadline = rec.now() + opt.seconds;
    for (int sample = 0; sample == 0 || rec.now() < deadline; ++sample) {
        picker.maybePick(rec.now());
        nodeSample(sample, false);
        picker.maybePick(rec.now());
        cellSample(tenant, 1, sample, false, opt, rec);
    }
}

std::vector<CellDef>
loopThpCells(std::uint64_t seed)
{
    SimConfig sim;
    // Streams short enough that each cell is rebuilt about ten times a
    // run: its set-up and teardown minimums need that many samples.
    sim.warmupAccesses = 100'000;
    sim.measureAccesses = 500'000;
    const double scale = 1.0 / 16.0;
    const std::uint64_t slice = 8192;
    using driver::CampaignEnv;
    return {
        makeCell("GUPS", CampaignEnv::Native, Design::Vanilla, true, scale,
                 sim, seed, slice),
        makeCell("GUPS", CampaignEnv::Native, Design::Dmt, true, scale,
                 sim, seed, slice),
        makeCell("Redis", CampaignEnv::Virt, Design::Vanilla, true, scale,
                 sim, seed, slice),
        makeCell("Redis", CampaignEnv::Virt, Design::PvDmt, true, scale,
                 sim, seed, slice),
        makeCell("Redis", CampaignEnv::Nested, Design::Vanilla, true,
                 scale, sim, seed, slice),
        makeCell("Redis", CampaignEnv::Nested, Design::PvDmt, true, scale,
                 sim, seed, slice),
    };
}

std::vector<CellDef>
setup4kCells(std::uint64_t seed)
{
    // The dmt-campaign configuration BENCH_campaign.json was made with.
    SimConfig sim;
    sim.warmupAccesses = 10'000;
    sim.measureAccesses = 50'000;
    using driver::CampaignEnv;
    auto cell = [&](const char *wl, CampaignEnv env, Design d) {
        return makeCell(wl, env, d, false, 1.0 / 256.0, sim, seed, 4096);
    };
    return {
        cell("GUPS", CampaignEnv::Native, Design::Vanilla),
        cell("GUPS", CampaignEnv::Native, Design::Dmt),
        cell("Redis", CampaignEnv::Virt, Design::Vanilla),
        cell("Redis", CampaignEnv::Virt, Design::PvDmt),
        cell("BTree", CampaignEnv::Virt, Design::Fpt),
        cell("BTree", CampaignEnv::Virt, Design::Ecpt),
        cell("XSBench", CampaignEnv::Nested, Design::Vanilla),
        cell("XSBench", CampaignEnv::Nested, Design::PvDmt),
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    // Fault the simulated physical memory in 4 KB host pages: with
    // transparent huge pages, set-up is mostly the kernel zeroing 2 MB
    // pages (2.7 GB for setup-4k's 78 MB of frames), whose speed
    // follows memory bandwidth shared with other processes on the host.
    if (prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0)
        fatal("prctl(PR_SET_THP_DISABLE) failed");
    Recorder rec;
    CpuPicker picker;
    if (opt.workload == "loop-thp")
        runLoop(loopThpCells(opt.seed), opt, rec, picker);
    else if (opt.workload == "setup-4k")
        runRebuild(setup4kCells(opt.seed), opt, rec, picker);
    else if (opt.workload == "node-flush")
        runNode(opt, rec, picker);
    else
        usage();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rec.raw("{\"type\":\"run\",\"workload\":\"" + opt.workload +
            "\",\"seed\":" + std::to_string(opt.seed) +
            ",\"trace\":" + (opt.trace ? "true" : "false") +
            ",\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss) +
            ",\"cpu_picks\":" + std::to_string(picker.picks()) +
            ",\"cpu_moves\":" + std::to_string(picker.moves()) +
            ",\"elapsed_s\":" + jsonNumber(rec.now()) + "}");
    rec.write(opt.out);
    return 0;
}
