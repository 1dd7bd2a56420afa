#include "obs/host_event.hh"

#include "common/log.hh"

namespace dmt::obs
{

FileHostEventSink::FileHostEventSink(const std::string &path)
    : log_(path, "host event log")
{
    // Header with zeroed counts; finish() patches them in place.
    std::vector<unsigned char> &b = log_.buffer();
    b.insert(b.end(), kHostEventLogMagic,
             kHostEventLogMagic + sizeof(kHostEventLogMagic));
    putLe(b, kHostEventLogVersion, 4);
    putLe(b, kHostEventRecordBytes, 4);
    putLe(b, 0, 8);  // recordCount
    putLe(b, 0, 8);  // counterCount
}

FileHostEventSink::~FileHostEventSink()
{
    finish();
}

void
FileHostEventSink::emit(const HostEvent &ev)
{
    DMT_ASSERT(!log_.finished(), "emit() after finish() on %s",
               path().c_str());
    std::vector<unsigned char> &b = log_.buffer();
    putLe(b, ev.kind, 1);
    putLe(b, ev.core, 1);
    putLe(b, ev.flags, 2);
    putLe(b, ev.tenant, 4);
    putLe(b, ev.cycles, 8);
    putLe(b, ev.regHits, 4);
    putLe(b, ev.regLoads, 4);
    putLe(b, ev.regSaves, 4);
    putLe(b, ev.aux, 4);
    ++recordCount_;
    log_.maybeFlush();
}

void
FileHostEventSink::finish()
{
    log_.finish(16, {recordCount_});
}

HostEventLog
readHostEventLog(const std::string &path)
{
    LogReader r(path, "host event log");
    r.expectMagic(kHostEventLogMagic, ".dmthostevents");
    const std::uint32_t version = r.u32();
    if (version != kHostEventLogVersion)
        fatal("%s: unsupported host-event-log version %u",
              path.c_str(), version);
    const std::uint32_t recordBytes = r.u32();
    if (recordBytes != kHostEventRecordBytes)
        fatal("%s: record size %u does not match this build's %u",
              path.c_str(), recordBytes, kHostEventRecordBytes);
    const std::uint64_t recordCount = r.u64();
    const std::uint64_t counterCount = r.u64();
    r.expectRecords(recordCount, kHostEventRecordBytes);

    HostEventLog log;
    log.records.reserve(recordCount);
    for (std::uint64_t i = 0; i < recordCount; ++i) {
        HostEvent ev;
        ev.kind = r.u8();
        ev.core = r.u8();
        ev.flags = r.u16();
        ev.tenant = r.u32();
        ev.cycles = r.u64();
        ev.regHits = r.u32();
        ev.regLoads = r.u32();
        ev.regSaves = r.u32();
        ev.aux = r.u32();
        log.records.push_back(ev);
    }
    log.counters = r.footer(counterCount);
    return log;
}

std::string
hostCounterKey(std::uint32_t tenant, const char *name)
{
    return "host.t" + std::to_string(tenant) + "." + name;
}

CounterMap
reconstructHostCounters(const std::vector<HostEvent> &records)
{
    CounterMap m;
    for (const HostEvent &ev : records) {
        const std::uint32_t t = ev.tenant;
        switch (static_cast<HostEventKind>(ev.kind)) {
          case HostEventKind::Dispatch:
            ++m[hostCounterKey(t, "dispatches")];
            break;
          case HostEventKind::CtxSwitch:
            ++m[hostCounterKey(t, "ctx_switches")];
            m[hostCounterKey(t, "switch_cycles")] += ev.cycles;
            m[hostCounterKey(t, "reg_hits")] += ev.regHits;
            m[hostCounterKey(t, "reg_loads")] += ev.regLoads;
            m[hostCounterKey(t, "reg_saves")] += ev.regSaves;
            if (ev.flags & kHostTlbFlushed)
                ++m[hostCounterKey(t, "tlb_flushes")];
            if (ev.flags & kHostPwcFlushed)
                ++m[hostCounterKey(t, "pwc_flushes")];
            break;
          case HostEventKind::Migration:
            ++m[hostCounterKey(t, "migrations")];
            break;
          case HostEventKind::Shootdown:
            ++m[hostCounterKey(t, "shootdowns")];
            m[hostCounterKey(t, "shootdown_cycles")] += ev.cycles;
            m[hostCounterKey(t, "coherence_cycles")] += ev.aux;
            break;
          default:
            fatal("host event record with unknown kind %u",
                  static_cast<unsigned>(ev.kind));
        }
    }
    return m;
}

} // namespace dmt::obs
