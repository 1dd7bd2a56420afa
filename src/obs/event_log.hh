/**
 * @file
 * Binary event-log format (.dmtevents) — writer and reader.
 *
 * Layout (all integers little-endian, no padding):
 *
 *   header, 48 bytes:
 *     0  magic         "DMTEVTS1" (8 bytes)
 *     8  u32 version   1
 *    12  u32 eventBytes 52 (size of one event record)
 *    16  u32 stepBytes  16 (size of one step record)
 *    20  u32 reserved   0
 *    24  u64 eventCount   \
 *    32  u64 stepCount     } patched in place by finish()
 *    40  u64 counterCount /
 *
 *   eventCount × event record (52 bytes):
 *     0  u64 accessId     8  u64 va        16  u64 pa
 *    24  u32 walkCycles  28  u16 seqRefs   30  u16 parallelRefs
 *    32  u8 tlb   33 u8 path   34 u8 pageSize   35 i8 pwcStartLevel
 *    36  u8 pwcHits   37 u8 pwcMisses
 *    38  u8 nestedPwcHits   39 u8 nestedPwcMisses   40 u8 nestedWalks
 *    41  u8 dmtProbes   42 u8 dmtFaults   43 u8 flags
 *    44  u8 l1dHits   45 u8 l1dMisses   46 u8 l2Hits   47 u8 l2Misses
 *    48  u8 llcHits   49 u8 llcMisses   50 u8 memAccesses
 *    51  u8 nSteps
 *   …each followed immediately by nSteps × step record (16 bytes):
 *     0  u64 pa   8  u32 cycles   12 i8 dim   13 i8 level
 *    14  i8 slot  15 u8 pad (0)
 *
 *   footer: counterCount × { u32 nameLen, name bytes, u64 value },
 *   in lexicographic (std::map) key order. The footer carries the
 *   run's translation ScalarStat values, making every file
 *   self-verifying: tools/events_check reconstructs the counters
 *   from the event stream and compares against the footer.
 *
 * Determinism: records are written in access order by a single
 * simulation, and the encoding has no timestamps, pointers, or
 * platform-dependent fields, so a given (testbed, trace, seed)
 * produces a byte-identical file on every run and thread count.
 */

#ifndef DMT_OBS_EVENT_LOG_HH
#define DMT_OBS_EVENT_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hh"
#include "obs/log_codec.hh"

namespace dmt::obs
{

/** Magic at offset 0 of every .dmtevents file. */
inline constexpr char kEventLogMagic[8] = {'D', 'M', 'T', 'E',
                                           'V', 'T', 'S', '1'};
inline constexpr std::uint32_t kEventLogVersion = 1;
inline constexpr std::uint32_t kEventRecordBytes = 52;
inline constexpr std::uint32_t kStepRecordBytes = 16;
inline constexpr std::uint32_t kEventLogHeaderBytes = 48;

/**
 * EventSink writing the binary log through the shared LogWriter,
 * whose recycled buffer bounds memory for any run length. Call
 * finish() (or let the destructor do it) to write the counter footer
 * and patch the header counts.
 */
class FileEventSink : public EventSink
{
  public:
    /** Opens `path` for writing; fatal on failure. */
    explicit FileEventSink(const std::string &path);
    ~FileEventSink() override;

    FileEventSink(const FileEventSink &) = delete;
    FileEventSink &operator=(const FileEventSink &) = delete;

    void emit(const TranslationEvent &event,
              const std::vector<WalkStepCost> &steps) override;

    /** Attach the run's counters, written to the footer by finish(). */
    void setCounters(const CounterMap &counters)
    {
        log_.setCounters(counters);
    }

    /** Flush, write the footer, patch the header, close the file. */
    void finish();

    const std::string &path() const { return log_.path(); }
    std::uint64_t eventCount() const { return eventCount_; }

  private:
    LogWriter log_;
    std::uint64_t eventCount_ = 0;
    std::uint64_t stepCount_ = 0;
};

/** A fully decoded event log. */
struct EventLog
{
    std::vector<DecodedEvent> events;
    CounterMap counters;  //!< footer counters (the run's stats)
};

/** Read and decode a .dmtevents file; fatal on corrupt input. */
EventLog readEventLog(const std::string &path);

/** FNV-1a 64-bit digest of a file's bytes; fatal if unreadable. */
std::uint64_t fileDigest(const std::string &path);

/** Format a digest as 16 lower-case hex digits. */
std::string digestString(std::uint64_t digest);

} // namespace dmt::obs

#endif // DMT_OBS_EVENT_LOG_HH
