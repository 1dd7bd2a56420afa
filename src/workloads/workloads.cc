#include "workloads/workloads.hh"

#include <algorithm>

#include "common/log.hh"

namespace dmt
{

namespace
{

constexpr Addr operator""_MB(unsigned long long v)
{
    return static_cast<Addr>(v) << 20;
}

constexpr Addr operator""_GB(unsigned long long v)
{
    return static_cast<Addr>(v) << 30;
}

/** Scale a paper working-set size (in GB) down and round to 2 MB. */
Addr
scaleBytes(double paper_gb, double scale)
{
    const double bytes = paper_gb * 1073741824.0 * scale;
    const Addr chunks =
        std::max<Addr>(1, static_cast<Addr>(bytes / (2.0 * 1024 * 1024)));
    return chunks * 2_MB;
}

constexpr Addr stackBase = 0x7ffffff00000ull;
constexpr Addr libBase = 0x7f8000000000ull;
constexpr Addr heapBase = 0x10000000ull;

/**
 * The small VMAs every process has: code, stack, and `lib_count`
 * shared-library style mappings. These are hot but tiny (§4.2: they
 * rarely cause TLB misses).
 */
void
addSmallVmas(AddressSpace &proc, int lib_count, Rng &rng)
{
    proc.mmapAt(0x400000, 1_MB, VmaKind::Code);
    proc.mmapAt(stackBase, 1_MB, VmaKind::Stack);
    Addr at = libBase;
    for (int i = 0; i < lib_count; ++i) {
        const Addr size = pageSize * (1 + rng.below(15));
        proc.mmapAt(at, size, VmaKind::Library);
        at += size + pageSize * (16 + rng.below(48));
    }
}

/** Fraction of accesses that go to the hot small VMAs. */
constexpr double hotFraction = 0.03;

/** Base trace: routes a small fraction of accesses to the stack. */
class BaseTrace : public TraceSource
{
  public:
    explicit BaseTrace(std::uint64_t seed) : rng_(seed) {}

    Addr
    next() override
    {
        if (rng_.uniform() < hotFraction)
            return stackBase + 0x800 * rng_.below(8);
        return nextMain();
    }

    /**
     * Batch fill for the pipeline's stage 1: one virtual call per
     * batch, and each access pays a single nextMain() dispatch
     * instead of the two-hop next() -> nextMain() chain. Produces
     * exactly the sequence n next() calls would (same rng_ draws in
     * the same order).
     */
    void
    fill(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (rng_.uniform() < hotFraction)
                out[i] = stackBase + 0x800 * rng_.below(8);
            else
                out[i] = nextMain();
        }
    }

  protected:
    virtual Addr nextMain() = 0;

    Rng rng_;
};

// ---------------------------------------------------------------- GUPS

class GupsTrace : public BaseTrace
{
  public:
    GupsTrace(std::uint64_t seed, Addr base, Addr bytes)
        : BaseTrace(seed), base_(base), bytes_(bytes)
    {
    }

    Addr
    nextMain() override
    {
        return base_ + (rng_.below(bytes_ / 8) * 8);
    }

  private:
    Addr base_, bytes_;
};

class GupsWorkload : public Workload
{
  public:
    explicit GupsWorkload(double scale)
        : bytes_(scaleBytes(128.0, scale))
    {
        cal_.nativeWalkFraction = 0.42;
        cal_.virtNptTotal = 1.95;
        cal_.virtNptWalkFraction = 0.62;
        cal_.virtSptTotal = 2.60;
        cal_.virtSptWalkFraction = 0.30;
        cal_.nestedTotal = 13.9;
        cal_.nestedWalkFraction = 0.55;
        cal_.nestedShadowFraction = 0.50;
        cal_.virtSptShadowFraction = 0.30;
    }

    std::string name() const override { return "GUPS"; }
    Addr footprintBytes() const override { return bytes_; }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(1);
        addSmallVmas(proc, 100, rng);
        proc.mmapAt(heapBase, bytes_, VmaKind::Heap);
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        return std::make_unique<GupsTrace>(seed, heapBase, bytes_);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Addr bytes_;
    Calibration cal_;
};

// --------------------------------------------------------------- Redis

class RedisTrace : public BaseTrace
{
  public:
    RedisTrace(std::uint64_t seed, Addr heap, Addr bucket_bytes,
               Addr record_bytes)
        : BaseTrace(seed), heap_(heap), bucketBytes_(bucket_bytes),
          zipf_(record_bytes / 304, 0.99)
    {
    }

    Addr
    nextMain() override
    {
        // Alternate: hash-bucket probe, then the record itself
        // (Zipf-popular keys).
        if (phase_ == 0) {
            phase_ = 1;
            key_ = zipf_(rng_);
            const std::uint64_t h =
                (key_ * 0x9e3779b97f4a7c15ull) %
                (bucketBytes_ / 8);
            return heap_ + h * 8;
        }
        phase_ = 0;
        return heap_ + bucketBytes_ + key_ * 304;
    }

  private:
    Addr heap_, bucketBytes_;
    ZipfSampler zipf_;
    std::uint64_t key_ = 0;
    int phase_ = 0;
};

class RedisWorkload : public Workload
{
  public:
    explicit RedisWorkload(double scale)
        : heapBytes_(scaleBytes(148.0, scale))
    {
        cal_.nativeWalkFraction = 0.30;
        cal_.virtNptTotal = 1.60;
        cal_.virtNptWalkFraction = 0.50;
        cal_.virtSptTotal = 2.20;
        cal_.virtSptWalkFraction = 0.30;
        cal_.nestedTotal = 4.60;
        cal_.nestedWalkFraction = 0.50;
        cal_.nestedShadowFraction = 0.40;
        cal_.virtSptShadowFraction = 0.28;
    }

    std::string name() const override { return "Redis"; }
    Addr footprintBytes() const override { return heapBytes_; }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(2);
        addSmallVmas(proc, 174, rng);
        proc.mmapAt(heapBase, heapBytes_, VmaKind::Heap);
        // jemalloc-style arenas: the other dominant VMAs of Table 1.
        Addr at = heapBase + heapBytes_ + 64_MB;
        for (Addr sz : {64_MB, 32_MB, 16_MB, 8_MB, 8_MB}) {
            proc.mmapAt(at, sz, VmaKind::Data);
            at += sz + 16_MB;
        }
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        const Addr buckets = heapBytes_ / 16;
        return std::make_unique<RedisTrace>(
            seed, heapBase, buckets, heapBytes_ - buckets);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Addr heapBytes_;
    Calibration cal_;
};

// ----------------------------------------------------------- Memcached

class MemcachedTrace : public BaseTrace
{
  public:
    MemcachedTrace(std::uint64_t seed, std::vector<Addr> slabs,
                   Addr slab_bytes)
        : BaseTrace(seed), slabs_(std::move(slabs)),
          itemsPerSlab_(slab_bytes / 1024),
          zipf_(slabs_.size() * itemsPerSlab_, 0.99)
    {
    }

    Addr
    nextMain() override
    {
        const std::uint64_t item = zipf_(rng_);
        const Addr slab = slabs_[item / itemsPerSlab_];
        return slab + (item % itemsPerSlab_) * 1024;
    }

  private:
    std::vector<Addr> slabs_;
    std::uint64_t itemsPerSlab_;
    ZipfSampler zipf_;
};

class MemcachedWorkload : public Workload
{
  public:
    explicit MemcachedWorkload(double scale) : scale_(scale)
    {
        cal_.nativeWalkFraction = 0.14;
        cal_.virtNptTotal = 1.25;
        cal_.virtNptWalkFraction = 0.30;
        cal_.virtSptTotal = 1.70;
        cal_.virtSptWalkFraction = 0.25;
        cal_.nestedTotal = 2.30;
        cal_.nestedWalkFraction = 0.42;
        cal_.nestedShadowFraction = 0.32;
        cal_.virtSptShadowFraction = 0.25;
    }

    std::string name() const override { return "Memcached"; }

    Addr
    footprintBytes() const override
    {
        return 778 * slabBytes();
    }

    /** Slab size scaled so 778 slabs make the scaled 95 GB set. */
    Addr
    slabBytes() const
    {
        const Addr bytes = scaleBytes(95.0 / 778.0, scale_);
        return bytes;
    }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(3);
        addSmallVmas(proc, 285, rng);
        // Two clusters of slab VMAs with sub-16 KB bubbles (§2.3).
        slabs_.clear();
        const Addr sb = slabBytes();
        Addr at = heapBase;
        for (int i = 0; i < 400; ++i) {
            proc.mmapAt(at, sb, VmaKind::Data);
            slabs_.push_back(at);
            at += sb + 2 * pageSize;
        }
        at = heapBase + (1ull << 42);
        for (int i = 0; i < 378; ++i) {
            proc.mmapAt(at, sb, VmaKind::Data);
            slabs_.push_back(at);
            at += sb + 2 * pageSize;
        }
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        DMT_ASSERT(!slabs_.empty(), "setup() must run before trace()");
        return std::make_unique<MemcachedTrace>(seed, slabs_,
                                                slabBytes());
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    double scale_;
    std::vector<Addr> slabs_;
    Calibration cal_;
};

// --------------------------------------------------------------- BTree

class BtreeTrace : public BaseTrace
{
  public:
    BtreeTrace(std::uint64_t seed, Addr pool, Addr pool_bytes)
        : BaseTrace(seed), pool_(pool), poolBytes_(pool_bytes)
    {
    }

    Addr
    nextMain() override
    {
        // A lookup descends root -> internal -> internal -> leaf;
        // emit the four node accesses round-robin.
        const Addr levelBytes[4] = {pageSize, 512 * 1024, 64_MB,
                                    poolBytes_ - 64_MB - 512 * 1024 -
                                        pageSize};
        Addr offset = 0;
        for (int i = 0; i < level_; ++i)
            offset += levelBytes[i];
        const Addr addr =
            pool_ + offset + rng_.below(levelBytes[level_] / 256) * 256;
        level_ = (level_ + 1) % 4;
        return addr;
    }

  private:
    Addr pool_, poolBytes_;
    int level_ = 0;
};

class BtreeWorkload : public Workload
{
  public:
    explicit BtreeWorkload(double scale)
        : poolBytes_(scaleBytes(122.0, scale))
    {
        cal_.nativeWalkFraction = 0.28;
        cal_.virtNptTotal = 1.55;
        cal_.virtNptWalkFraction = 0.50;
        cal_.virtSptTotal = 2.10;
        cal_.virtSptWalkFraction = 0.28;
        cal_.nestedTotal = 4.20;
        cal_.nestedWalkFraction = 0.50;
        cal_.nestedShadowFraction = 0.40;
        cal_.virtSptShadowFraction = 0.28;
    }

    std::string name() const override { return "BTree"; }
    Addr footprintBytes() const override { return poolBytes_; }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(4);
        addSmallVmas(proc, 105, rng);
        proc.mmapAt(heapBase, poolBytes_, VmaKind::Heap);
        proc.mmapAt(heapBase + poolBytes_ + 32_MB, 64_MB,
                    VmaKind::Data);
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        return std::make_unique<BtreeTrace>(seed, heapBase,
                                            poolBytes_);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Addr poolBytes_;
    Calibration cal_;
};

// ------------------------------------------------------------- Canneal

class CannealTrace : public BaseTrace
{
  public:
    CannealTrace(std::uint64_t seed, Addr base, Addr bytes)
        : BaseTrace(seed), base_(base), bytes_(bytes)
    {
    }

    Addr
    nextMain() override
    {
        if (pendingNeighbor_) {
            pendingNeighbor_ = false;
            // Netlist neighbour: nearby element (spatial locality).
            const Addr delta = rng_.below(64 * 1024);
            const Addr at = last_ + delta;
            return at < base_ + bytes_ ? at : base_ + delta;
        }
        last_ = base_ + rng_.below(bytes_ / 64) * 64;
        pendingNeighbor_ = true;
        return last_;
    }

  private:
    Addr base_, bytes_;
    Addr last_ = 0;
    bool pendingNeighbor_ = false;
};

class CannealWorkload : public Workload
{
  public:
    explicit CannealWorkload(double scale)
        : bytes_(scaleBytes(61.0, scale))
    {
        cal_.nativeWalkFraction = 0.17;
        cal_.virtNptTotal = 1.30;
        cal_.virtNptWalkFraction = 0.36;
        cal_.virtSptTotal = 1.80;
        cal_.virtSptWalkFraction = 0.26;
        cal_.nestedTotal = 2.60;
        cal_.nestedWalkFraction = 0.45;
        cal_.nestedShadowFraction = 0.35;
        cal_.virtSptShadowFraction = 0.26;
    }

    std::string name() const override { return "Canneal"; }
    Addr footprintBytes() const override { return bytes_; }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(5);
        addSmallVmas(proc, 112, rng);
        proc.mmapAt(heapBase, bytes_, VmaKind::Heap);
        proc.mmapAt(heapBase + bytes_ + 16_MB, 32_MB, VmaKind::Data);
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        return std::make_unique<CannealTrace>(seed, heapBase, bytes_);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Addr bytes_;
    Calibration cal_;
};

// ------------------------------------------------------------- XSBench

class XsbenchTrace : public BaseTrace
{
  public:
    XsbenchTrace(std::uint64_t seed, Addr base, Addr grid_bytes,
                 Addr nuclide_bytes)
        : BaseTrace(seed), base_(base), gridBytes_(grid_bytes),
          nuclideBytes_(nuclide_bytes)
    {
    }

    Addr
    nextMain() override
    {
        const std::uint64_t entries = gridBytes_ / 16;
        if (step_ == 0) {
            lo_ = 0;
            hi_ = entries;
            target_ = rng_.below(entries);
        }
        if (hi_ - lo_ > 1 && step_ < 17) {
            const std::uint64_t mid = (lo_ + hi_) / 2;
            if (target_ < mid)
                hi_ = mid;
            else
                lo_ = mid;
            ++step_;
            return base_ + mid * 16;
        }
        // After the search: one random nuclide-data access.
        step_ = 0;
        return base_ + gridBytes_ +
               rng_.below(nuclideBytes_ / 64) * 64;
    }

  private:
    Addr base_, gridBytes_, nuclideBytes_;
    std::uint64_t lo_ = 0, hi_ = 0, target_ = 0;
    int step_ = 0;
};

class XsbenchWorkload : public Workload
{
  public:
    explicit XsbenchWorkload(double scale)
        : bytes_(scaleBytes(84.0, scale))
    {
        cal_.nativeWalkFraction = 0.18;
        cal_.virtNptTotal = 1.32;
        cal_.virtNptWalkFraction = 0.36;
        cal_.virtSptTotal = 1.80;
        cal_.virtSptWalkFraction = 0.26;
        cal_.nestedTotal = 2.80;
        cal_.nestedWalkFraction = 0.45;
        cal_.nestedShadowFraction = 0.35;
        cal_.virtSptShadowFraction = 0.26;
    }

    std::string name() const override { return "XSBench"; }
    Addr footprintBytes() const override { return bytes_; }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(6);
        addSmallVmas(proc, 108, rng);
        proc.mmapAt(heapBase, bytes_, VmaKind::Heap);
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        const Addr grid = bytes_ * 2 / 5;
        return std::make_unique<XsbenchTrace>(seed, heapBase, grid,
                                              bytes_ - grid);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Addr bytes_;
    Calibration cal_;
};

// ------------------------------------------------------------ Graph500

class Graph500Trace : public BaseTrace
{
  public:
    Graph500Trace(std::uint64_t seed, Addr base, Addr bytes)
        : BaseTrace(seed), base_(base), bytes_(bytes)
    {
    }

    Addr
    nextMain() override
    {
        ++step_;
        if (step_ % 4 == 0) {
            // Frontier scan: sequential over the vertex array.
            cursor_ += 64;
            if (cursor_ >= bytes_ / 8)
                cursor_ = 0;
            return base_ + cursor_;
        }
        // Random neighbour in the edge array.
        return base_ + bytes_ / 8 +
               rng_.below((bytes_ - bytes_ / 8) / 8) * 8;
    }

  private:
    Addr base_, bytes_;
    Addr cursor_ = 0;
    std::uint64_t step_ = 0;
};

class Graph500Workload : public Workload
{
  public:
    explicit Graph500Workload(double scale)
        : bytes_(scaleBytes(123.0, scale))
    {
        cal_.nativeWalkFraction = 0.24;
        cal_.virtNptTotal = 1.50;
        cal_.virtNptWalkFraction = 0.46;
        cal_.virtSptTotal = 2.00;
        cal_.virtSptWalkFraction = 0.28;
        cal_.nestedTotal = 3.80;
        cal_.nestedWalkFraction = 0.48;
        cal_.nestedShadowFraction = 0.38;
        cal_.virtSptShadowFraction = 0.28;
    }

    std::string name() const override { return "Graph500"; }
    Addr footprintBytes() const override { return bytes_; }

    void
    setup(AddressSpace &proc) override
    {
        Rng rng(7);
        addSmallVmas(proc, 102, rng);
        proc.mmapAt(heapBase, bytes_, VmaKind::Heap);
    }

    std::unique_ptr<TraceSource>
    trace(std::uint64_t seed) const override
    {
        return std::make_unique<Graph500Trace>(seed, heapBase,
                                               bytes_);
    }

    const Calibration &calibration() const override { return cal_; }

  private:
    Addr bytes_;
    Calibration cal_;
};

} // namespace

std::vector<std::string>
paperWorkloadNames()
{
    return {"Redis",   "Memcached", "GUPS",    "BTree",
            "Canneal", "XSBench",   "Graph500"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double scale)
{
    if (name == "Redis")
        return std::make_unique<RedisWorkload>(scale);
    if (name == "Memcached")
        return std::make_unique<MemcachedWorkload>(scale);
    if (name == "GUPS")
        return std::make_unique<GupsWorkload>(scale);
    if (name == "BTree")
        return std::make_unique<BtreeWorkload>(scale);
    if (name == "Canneal")
        return std::make_unique<CannealWorkload>(scale);
    if (name == "XSBench")
        return std::make_unique<XsbenchWorkload>(scale);
    if (name == "Graph500")
        return std::make_unique<Graph500Workload>(scale);
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::unique_ptr<Workload>>
makePaperWorkloads(double scale)
{
    std::vector<std::unique_ptr<Workload>> out;
    for (const auto &name : paperWorkloadNames())
        out.push_back(makeWorkload(name, scale));
    return out;
}

namespace
{

/**
 * Generate one SPEC-like VMA profile: a few dominant VMAs plus many
 * small ones, with total count and dominant count drawn from the
 * suite's published ranges (Table 1).
 */
VmaProfile
makeSpecProfile(const std::string &name, Rng &rng, int min_total,
                int max_total, int max_dominant)
{
    VmaProfile profile;
    profile.name = name;
    const int total =
        min_total +
        static_cast<int>(rng.below(max_total - min_total + 1));
    const int dominant =
        1 + static_cast<int>(rng.below(max_dominant));
    Addr at = 0x10000000ull;
    // Dominant VMAs: heap-like, placed adjacently in small groups.
    for (int i = 0; i < dominant && i < total; ++i) {
        const Addr size = 64_MB * (1 + rng.below(16));
        profile.vmas.push_back({at, size, VmaKind::Heap});
        // Mostly adjacent (same cluster), sometimes a far jump.
        if (rng.uniform() < 0.35) {
            at += size + 1_GB + 1_GB * rng.below(8);
        } else {
            at += size + pageSize * rng.below(4);
        }
    }
    // Small VMAs: library-like, scattered far away.
    at = libBase;
    for (int i = dominant; i < total; ++i) {
        const Addr size = pageSize * (1 + rng.below(32));
        profile.vmas.push_back({at, size, VmaKind::Library});
        at += size + pageSize * (16 + rng.below(64));
    }
    std::sort(profile.vmas.begin(), profile.vmas.end(),
              [](const Vma &a, const Vma &b) {
                  return a.base < b.base;
              });
    return profile;
}

} // namespace

std::vector<VmaProfile>
makeSpecProfiles2006(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VmaProfile> out;
    for (int i = 0; i < 30; ++i) {
        out.push_back(makeSpecProfile(
            "spec2006-" + std::to_string(i), rng, 18, 39, 14));
    }
    return out;
}

std::vector<VmaProfile>
makeSpecProfiles2017(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VmaProfile> out;
    for (int i = 0; i < 47; ++i) {
        out.push_back(makeSpecProfile(
            "spec2017-" + std::to_string(i), rng, 24, 70, 21));
    }
    return out;
}

} // namespace dmt
