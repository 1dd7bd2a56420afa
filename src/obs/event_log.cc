#include "obs/event_log.hh"

#include <fstream>

#include "common/log.hh"

namespace dmt::obs
{

const char *
eventPathName(EventPath path)
{
    switch (path) {
      case EventPath::TlbHit: return "tlb_hit";
      case EventPath::Other: return "other";
      case EventPath::Radix: return "radix";
      case EventPath::Nested: return "nested";
      case EventPath::DmtDirect: return "dmt_direct";
      case EventPath::DmtFallback: return "dmt_fallback";
    }
    return "invalid";
}

RingEventSink::RingEventSink(std::size_t capacity)
    : capacity_(capacity)
{
    DMT_ASSERT(capacity_ > 0, "ring sink needs a positive capacity");
    ring_.reserve(capacity_);
}

void
RingEventSink::emit(const TranslationEvent &event,
                    const std::vector<WalkStepCost> &steps)
{
    ++emitted_;
    if (ring_.size() < capacity_) {
        ring_.push_back({event, steps});
        return;
    }
    ring_[head_] = {event, steps};
    head_ = (head_ + 1) % capacity_;
}

std::vector<DecodedEvent>
RingEventSink::drain()
{
    std::vector<DecodedEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
    ring_.clear();
    head_ = 0;
    return out;
}

FileEventSink::FileEventSink(const std::string &path)
    : log_(path, "event log")
{
    // Header with zeroed counts; finish() patches them in place.
    std::vector<unsigned char> &b = log_.buffer();
    b.insert(b.end(), kEventLogMagic,
             kEventLogMagic + sizeof(kEventLogMagic));
    putLe(b, kEventLogVersion, 4);
    putLe(b, kEventRecordBytes, 4);
    putLe(b, kStepRecordBytes, 4);
    putLe(b, 0, 4);  // reserved
    putLe(b, 0, 8);  // eventCount
    putLe(b, 0, 8);  // stepCount
    putLe(b, 0, 8);  // counterCount
}

FileEventSink::~FileEventSink()
{
    finish();
}

void
FileEventSink::emit(const TranslationEvent &ev,
                    const std::vector<WalkStepCost> &steps)
{
    DMT_ASSERT(!log_.finished(), "emit() after finish() on %s",
               path().c_str());
    DMT_ASSERT(steps.size() <= 255,
               "walk with %zu steps overflows the event record",
               steps.size());
    std::vector<unsigned char> &b = log_.buffer();
    putLe(b, ev.accessId, 8);
    putLe(b, ev.va, 8);
    putLe(b, ev.pa, 8);
    putLe(b, ev.walkCycles, 4);
    putLe(b, ev.seqRefs, 2);
    putLe(b, ev.parallelRefs, 2);
    putLe(b, ev.tlb, 1);
    putLe(b, ev.path, 1);
    putLe(b, ev.pageSize, 1);
    putLe(b, static_cast<std::uint8_t>(ev.pwcStartLevel), 1);
    putLe(b, ev.pwcHits, 1);
    putLe(b, ev.pwcMisses, 1);
    putLe(b, ev.nestedPwcHits, 1);
    putLe(b, ev.nestedPwcMisses, 1);
    putLe(b, ev.nestedWalks, 1);
    putLe(b, ev.dmtProbes, 1);
    putLe(b, ev.dmtFaults, 1);
    putLe(b, ev.flags, 1);
    putLe(b, ev.l1dHits, 1);
    putLe(b, ev.l1dMisses, 1);
    putLe(b, ev.l2Hits, 1);
    putLe(b, ev.l2Misses, 1);
    putLe(b, ev.llcHits, 1);
    putLe(b, ev.llcMisses, 1);
    putLe(b, ev.memAccesses, 1);
    putLe(b, static_cast<std::uint8_t>(steps.size()), 1);
    for (const auto &step : steps) {
        DMT_ASSERT(step.cycles <= 0xffffffffull,
                   "step cost %llu overflows the step record",
                   static_cast<unsigned long long>(step.cycles));
        putLe(b, step.pa, 8);
        putLe(b, static_cast<std::uint32_t>(step.cycles), 4);
        putLe(b, static_cast<std::uint8_t>(step.dim), 1);
        putLe(b, static_cast<std::uint8_t>(step.level), 1);
        putLe(b, static_cast<std::uint8_t>(step.slot), 1);
        putLe(b, 0, 1);
    }
    ++eventCount_;
    stepCount_ += steps.size();
    log_.maybeFlush();
}

void
FileEventSink::finish()
{
    log_.finish(24, {eventCount_, stepCount_});
}

EventLog
readEventLog(const std::string &path)
{
    LogReader r(path, "event log");
    r.expectMagic(kEventLogMagic, ".dmtevents");
    const std::uint32_t version = r.u32();
    if (version != kEventLogVersion)
        fatal("%s: unsupported event-log version %u", path.c_str(),
              version);
    const std::uint32_t eventBytes = r.u32();
    const std::uint32_t stepBytes = r.u32();
    if (eventBytes != kEventRecordBytes ||
        stepBytes != kStepRecordBytes) {
        fatal("%s: record sizes %u/%u do not match this build's %u/%u",
              path.c_str(), eventBytes, stepBytes, kEventRecordBytes,
              kStepRecordBytes);
    }
    r.u32();  // reserved
    const std::uint64_t eventCount = r.u64();
    const std::uint64_t stepCount = r.u64();
    const std::uint64_t counterCount = r.u64();
    r.expectRecords(eventCount, kEventRecordBytes);

    EventLog log;
    log.events.reserve(eventCount);
    std::uint64_t stepsSeen = 0;
    for (std::uint64_t i = 0; i < eventCount; ++i) {
        DecodedEvent de;
        TranslationEvent &ev = de.ev;
        ev.accessId = r.u64();
        ev.va = r.u64();
        ev.pa = r.u64();
        ev.walkCycles = r.u32();
        ev.seqRefs = r.u16();
        ev.parallelRefs = r.u16();
        ev.tlb = r.u8();
        ev.path = r.u8();
        ev.pageSize = r.u8();
        ev.pwcStartLevel = static_cast<std::int8_t>(r.u8());
        ev.pwcHits = r.u8();
        ev.pwcMisses = r.u8();
        ev.nestedPwcHits = r.u8();
        ev.nestedPwcMisses = r.u8();
        ev.nestedWalks = r.u8();
        ev.dmtProbes = r.u8();
        ev.dmtFaults = r.u8();
        ev.flags = r.u8();
        ev.l1dHits = r.u8();
        ev.l1dMisses = r.u8();
        ev.l2Hits = r.u8();
        ev.l2Misses = r.u8();
        ev.llcHits = r.u8();
        ev.llcMisses = r.u8();
        ev.memAccesses = r.u8();
        const std::uint8_t nSteps = r.u8();
        de.steps.reserve(nSteps);
        for (std::uint8_t s = 0; s < nSteps; ++s) {
            WalkStepCost step;
            step.pa = r.u64();
            step.cycles = r.u32();
            step.dim = static_cast<char>(r.u8());
            step.level = static_cast<std::int8_t>(r.u8());
            step.slot = static_cast<std::int8_t>(r.u8());
            r.u8();  // pad
            de.steps.push_back(step);
        }
        stepsSeen += nSteps;
        log.events.push_back(std::move(de));
    }
    if (stepsSeen != stepCount)
        fatal("%s: header says %llu steps but records hold %llu",
              path.c_str(),
              static_cast<unsigned long long>(stepCount),
              static_cast<unsigned long long>(stepsSeen));
    log.counters = r.footer(counterCount);
    return log;
}

std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        fatal("cannot open %s for digesting", path.c_str());
    std::uint64_t h = 0xcbf29ce484222325ull;
    char chunk[4096];
    while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
        const std::streamsize n = is.gcount();
        for (std::streamsize i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(chunk[i]);
            h *= 0x100000001b3ull;
        }
        if (n < static_cast<std::streamsize>(sizeof(chunk)))
            break;
    }
    return h;
}

std::string
digestString(std::uint64_t digest)
{
    static const char hex[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = hex[digest & 0xf];
        digest >>= 4;
    }
    return s;
}

} // namespace dmt::obs
