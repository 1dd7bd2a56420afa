/**
 * @file
 * Binary host-scheduler event log (.dmthostevents) — writer/reader.
 *
 * The node scheduler (src/host) emits one record per scheduling
 * action: tenant dispatches, context switches (with the register
 * swap and flush work they performed), tenant migrations across
 * cores, and the HATRIC-modelled translation-coherence shootdowns
 * migrations trigger. Like .dmtevents, every file is self-verifying:
 * the footer holds the node's per-tenant host counters, and
 * reconstructHostCounters() recomputes the same map from the record
 * stream alone — tools/events_check enforces exact equality.
 *
 * Layout (all integers little-endian, no padding):
 *
 *   header, 32 bytes:
 *     0  magic          "DMTHOST1" (8 bytes)
 *     8  u32 version    1
 *    12  u32 recordBytes 32
 *    16  u64 recordCount  \ patched in place by finish()
 *    24  u64 counterCount /
 *
 *   recordCount × record (32 bytes):
 *     0  u8 kind   1 u8 core   2 u16 flags   4 u32 tenant
 *     8  u64 cycles
 *    16  u32 regHits   20 u32 regLoads   24 u32 regSaves
 *    28  u32 aux (coherence cycles on Shootdown records, else 0)
 *
 *   footer: counterCount × { u32 nameLen, name bytes, u64 value },
 *   in lexicographic (std::map) key order.
 *
 * Determinism: the scheduler is a fixed function of its config, so a
 * given (tenant set, policies, seed) produces a byte-identical file
 * on every run and thread count.
 */

#ifndef DMT_OBS_HOST_EVENT_HH
#define DMT_OBS_HOST_EVENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hh"
#include "obs/log_codec.hh"

namespace dmt::obs
{

/** Magic at offset 0 of every .dmthostevents file. */
inline constexpr char kHostEventLogMagic[8] = {'D', 'M', 'T', 'H',
                                               'O', 'S', 'T', '1'};
inline constexpr std::uint32_t kHostEventLogVersion = 1;
inline constexpr std::uint32_t kHostEventRecordBytes = 32;
inline constexpr std::uint32_t kHostEventLogHeaderBytes = 32;

/** Scheduling actions recorded by the node. */
enum class HostEventKind : std::uint8_t
{
    Dispatch = 0,    //!< a tenant got a time slice
    CtxSwitch = 1,   //!< the core's resident tenant changed
    Migration = 2,   //!< a tenant resumed on a different core
    Shootdown = 3,   //!< translation-coherence invalidation (HATRIC)
};

/** HostEvent::flags bits (CtxSwitch records). */
inline constexpr std::uint16_t kHostTlbFlushed = 1 << 0;
inline constexpr std::uint16_t kHostPwcFlushed = 1 << 1;
/** First occupancy of an idle core (nothing was switched out). */
inline constexpr std::uint16_t kHostInitial = 1 << 2;

/** One scheduling action. */
struct HostEvent
{
    std::uint8_t kind = 0;   //!< HostEventKind
    std::uint8_t core = 0;
    std::uint16_t flags = 0;
    std::uint32_t tenant = 0;  //!< tenant index within the node
    std::uint64_t cycles = 0;  //!< switch / shootdown cost charged
    std::uint32_t regHits = 0;   //!< DMT regs found resident
    std::uint32_t regLoads = 0;  //!< DMT regs (re)loaded
    std::uint32_t regSaves = 0;  //!< DMT regs saved on switch-out
    std::uint32_t aux = 0;     //!< coherence cycles on Shootdown
};

/** Buffered .dmthostevents writer (the same LogWriter as
 *  FileEventSink). */
class FileHostEventSink
{
  public:
    /** Opens `path` for writing; fatal on failure. */
    explicit FileHostEventSink(const std::string &path);
    ~FileHostEventSink();

    FileHostEventSink(const FileHostEventSink &) = delete;
    FileHostEventSink &operator=(const FileHostEventSink &) = delete;

    void emit(const HostEvent &event);

    /** Attach the node's counters, written to the footer. */
    void setCounters(const CounterMap &counters)
    {
        log_.setCounters(counters);
    }

    /** Flush, write the footer, patch the header, close the file. */
    void finish();

    const std::string &path() const { return log_.path(); }
    std::uint64_t recordCount() const { return recordCount_; }

  private:
    LogWriter log_;
    std::uint64_t recordCount_ = 0;
};

/** A fully decoded host-event log. */
struct HostEventLog
{
    std::vector<HostEvent> records;
    CounterMap counters;  //!< footer counters
};

/** Read and decode a .dmthostevents file; fatal on corrupt input. */
HostEventLog readHostEventLog(const std::string &path);

/** The footer key of one tenant's host counter: host.t<N>.<name>. */
std::string hostCounterKey(std::uint32_t tenant, const char *name);

/**
 * Rebuild the per-tenant host counters (`host.t<N>.*` keys) from the
 * record stream alone. The replay contract: for every log the node
 * writes, this must equal the footer exactly — context switches,
 * shootdowns, flushes, register traffic, and all charged cycles are
 * fully determined by the records.
 */
CounterMap reconstructHostCounters(const std::vector<HostEvent> &records);

} // namespace dmt::obs

#endif // DMT_OBS_HOST_EVENT_HH
