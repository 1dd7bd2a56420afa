#include "mem/cache.hh"

#include <bit>

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    DMT_ASSERT(config.lineBytes > 0 &&
                   std::has_single_bit(
                       static_cast<unsigned>(config.lineBytes)),
               "line size must be a power of two");
    DMT_ASSERT(config.associativity > 0, "associativity must be > 0");
    const Addr lines = config.sizeBytes / config.lineBytes;
    DMT_ASSERT(lines % config.associativity == 0,
               "cache size must divide evenly into sets");
    numSets_ = lines / config.associativity;
    DMT_ASSERT(numSets_ > 0 && std::has_single_bit(numSets_),
               "number of sets must be a power of two");
    lineShift_ = std::countr_zero(
        static_cast<unsigned>(config.lineBytes));
    tags_.assign(numSets_ * config.associativity, invalidAddr);
}

void
Cache::insert(Addr addr)
{
    Addr *set = &tags_[setIndex(addr) * config_.associativity];
    const Addr tag = tagOf(addr);
    int way = config_.associativity - 1;  // LRU line or invalid way
    for (int w = 0; w < config_.associativity; ++w) {
        if (set[w] == tag) {
            way = w;  // already resident: just promote
            break;
        }
    }
    set[way] = tag;
    promote(set, way);
}

void
Cache::invalidate(Addr addr)
{
    Addr *set = &tags_[setIndex(addr) * config_.associativity];
    const Addr tag = tagOf(addr);
    for (int w = 0; w < config_.associativity; ++w) {
        if (set[w] == tag) {
            // Close the gap so invalid ways stay at the tail.
            for (int v = w + 1; v < config_.associativity; ++v)
                set[v - 1] = set[v];
            set[config_.associativity - 1] = invalidAddr;
            return;
        }
    }
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * config_.associativity;
    const Addr tag = tagOf(addr);
    bool found = false;
    for (int w = 0; w < config_.associativity; ++w)
        found |= tags_[base + w] == tag;
    return found;
}

void
Cache::flush()
{
    tags_.assign(tags_.size(), invalidAddr);
}

void
Cache::audit(AuditSink &sink) const
{
    for (std::size_t set = 0; set < numSets_; ++set) {
        const std::size_t base = set * config_.associativity;
        bool sawInvalid = false;
        for (int w = 0; w < config_.associativity; ++w) {
            const Addr tag = tags_[base + w];
            if (tag == invalidAddr) {
                sawInvalid = true;
                continue;
            }
            DMT_AUDIT_CHECK(sink, !sawInvalid,
                            "%s: line 0x%llx in way %d of set %zu "
                            "follows an invalid way",
                            config_.name.c_str(),
                            static_cast<unsigned long long>(tag), w,
                            set);
            DMT_AUDIT_CHECK(sink, (tag & (numSets_ - 1)) == set,
                            "%s: tag 0x%llx sits in set %zu but "
                            "indexes to set %llu",
                            config_.name.c_str(),
                            static_cast<unsigned long long>(tag),
                            set,
                            static_cast<unsigned long long>(
                                tag & (numSets_ - 1)));
            for (int v = w + 1; v < config_.associativity; ++v) {
                DMT_AUDIT_CHECK(sink, tags_[base + v] != tag,
                                "%s: line 0x%llx resident twice in "
                                "set %zu",
                                config_.name.c_str(),
                                static_cast<unsigned long long>(tag),
                                set);
            }
        }
    }
}

} // namespace dmt
