#include "tlb/tlb.hh"

#include <bit>

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

namespace
{

/** Inverse of sizeSlot for keys unpacked during audits/evictions. */
constexpr PageSize
slotSize(std::uint64_t slot)
{
    switch (slot) {
      case 1:
        return PageSize::Size2M;
      case 2:
        return PageSize::Size1G;
      default:
        return PageSize::Size4K;
    }
}

} // namespace

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    DMT_ASSERT(config.entries > 0 && config.associativity > 0,
               "bad TLB geometry");
    DMT_ASSERT(config.entries % config.associativity == 0,
               "TLB entries must divide evenly into sets");
    numSets_ = config.entries / config.associativity;
    DMT_ASSERT(std::has_single_bit(numSets_),
               "TLB set count must be a power of two");
    keys_.assign(static_cast<std::size_t>(config.entries),
                 kInvalidKey);
    lastUse_.assign(static_cast<std::size_t>(config.entries), 0);
    frames_.assign(static_cast<std::size_t>(config.entries), 0);
}

std::optional<PageSize>
Tlb::probe(Addr va) const
{
    for (PageSize size :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        if (sizeCount_[sizeSlot(size)] == 0)
            continue;
        const Vpn vpn = va >> pageShiftOf(size);
        if (findIn(setIndex(vpn), keyOf(vpn, size)) >= 0)
            return size;
    }
    return std::nullopt;
}

void
Tlb::invalidate(Addr va)
{
    for (PageSize size :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        if (sizeCount_[sizeSlot(size)] == 0)
            continue;
        const Vpn vpn = va >> pageShiftOf(size);
        const std::size_t set = setIndex(vpn);
        const int way = findIn(set, keyOf(vpn, size));
        if (way >= 0) {
            keys_[set * config_.associativity + way] = kInvalidKey;
            lastUse_[set * config_.associativity + way] = 0;
            --sizeCount_[sizeSlot(size)];
        }
    }
}

void
Tlb::flush()
{
    keys_.assign(keys_.size(), kInvalidKey);
    lastUse_.assign(lastUse_.size(), 0);
    sizeCount_.fill(0);
}

void
Tlb::audit(AuditSink &sink, const TranslateOracle &oracle) const
{
    // Per-size residency counts must match the actual entries: a
    // stale count would make lookup()/probe() skip a resident size.
    std::array<std::uint32_t, 3> actual{};
    for (const std::uint64_t key : keys_) {
        if (key != kInvalidKey)
            ++actual[key & 3];
    }
    for (std::size_t s = 0; s < actual.size(); ++s) {
        DMT_AUDIT_CHECK(sink, actual[s] == sizeCount_[s],
                        "%s: size-residency count %zu is %u but %u "
                        "entries are resident",
                        config_.name.c_str(), s, sizeCount_[s],
                        actual[s]);
    }
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == kInvalidKey)
            continue;
        const Vpn vpn = static_cast<Vpn>(keys_[i] >> 2);
        const PageSize size = slotSize(keys_[i] & 3);
        const std::size_t set = i / config_.associativity;
        const int way = static_cast<int>(i % config_.associativity);
        DMT_AUDIT_CHECK(sink, setIndex(vpn) == set,
                        "%s: vpn 0x%llx sits in set %zu but indexes "
                        "to set %zu",
                        config_.name.c_str(),
                        static_cast<unsigned long long>(vpn), set,
                        setIndex(vpn));
        DMT_AUDIT_CHECK(sink, lastUse_[i] <= tick_,
                        "%s: LRU stamp %llu ahead of the TLB clock "
                        "%llu",
                        config_.name.c_str(),
                        static_cast<unsigned long long>(lastUse_[i]),
                        static_cast<unsigned long long>(tick_));
        // Invalid ways are pinned at stamp 0 so victim scans find
        // them first; a resident entry carrying 0 would break that.
        DMT_AUDIT_CHECK(sink, lastUse_[i] > 0,
                        "%s: resident entry for vpn 0x%llx carries "
                        "the invalid-way LRU stamp 0",
                        config_.name.c_str(),
                        static_cast<unsigned long long>(vpn));
        // Duplicate (vpn, size) pairs in one set would make lookup
        // results depend on way order.
        for (int w = way + 1; w < config_.associativity; ++w) {
            DMT_AUDIT_CHECK(
                sink,
                keys_[set * config_.associativity + w] != keys_[i],
                "%s: duplicate entry for vpn 0x%llx in set %zu",
                config_.name.c_str(),
                static_cast<unsigned long long>(vpn), set);
        }
        // Every resident entry must be findable by a read-only
        // probe; probe() (not lookup()) keeps the sweep from
        // perturbing LRU state or hit/miss counters.
        const Addr va = static_cast<Addr>(vpn) << pageShiftOf(size);
        DMT_AUDIT_CHECK(sink, probe(va).has_value(),
                        "%s: resident entry for va 0x%llx is not "
                        "findable by probe()",
                        config_.name.c_str(),
                        static_cast<unsigned long long>(va));
        if (!oracle)
            continue;
        const auto truth = oracle(va);
        if (!truth) {
            sink.fail("%s: stale entry translates unmapped va 0x%llx",
                      config_.name.c_str(),
                      static_cast<unsigned long long>(va));
            continue;
        }
        DMT_AUDIT_CHECK(sink, truth->size == size,
                        "%s: entry for va 0x%llx has stale page size",
                        config_.name.c_str(),
                        static_cast<unsigned long long>(va));
        // A linear entry answers hits from its frame, so the frame
        // must be where the page tables map the page right now.
        if (frames_[i] & kLinear) {
            DMT_AUDIT_CHECK(
                sink, (frames_[i] & ~kLinear) == truth->pa,
                "%s: entry for va 0x%llx carries frame 0x%llx but "
                "the page tables map it at 0x%llx",
                config_.name.c_str(),
                static_cast<unsigned long long>(va),
                static_cast<unsigned long long>(frames_[i] & ~kLinear),
                static_cast<unsigned long long>(truth->pa));
        }
    }
}

double
Tlb::hitRatio() const
{
    const Counter total = hits_ + misses_;
    return total ? static_cast<double>(hits_) /
                       static_cast<double>(total)
                 : 0.0;
}

TlbHierarchy::TlbHierarchy()
    : TlbHierarchy(TlbConfig{"l1d-tlb", 64, 4},
                   TlbConfig{"l1i-tlb", 128, 8},
                   TlbConfig{"stlb", 1536, 12})
{
}

TlbHierarchy::TlbHierarchy(const TlbConfig &l1d, const TlbConfig &l1i,
                           const TlbConfig &stlb)
    : l1d_(l1d), l1i_(l1i), stlb_(stlb)
{
}

TlbHierarchy::~TlbHierarchy()
{
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
}

void
TlbHierarchy::attachAuditor(InvariantAuditor &auditor,
                            Tlb::TranslateOracle oracle,
                            const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "TLB hierarchy already audited");
    auditor_ = &auditor;
    oracle_ = std::move(oracle);
    auditHookId_ = auditor.registerHook(name, [this](AuditSink &sink) {
        l1d_.audit(sink, oracle_);
        l1i_.audit(sink, oracle_);
        stlb_.audit(sink, oracle_);
    });
}

void
TlbHierarchy::flush()
{
    l1d_.flush();
    l1i_.flush();
    stlb_.flush();
    DMT_AUDIT_EVENT(auditor_);
}

} // namespace dmt
