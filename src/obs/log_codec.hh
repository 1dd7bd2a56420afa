/**
 * @file
 * The byte codec both binary logs share (.dmtevents and
 * .dmthostevents): a header whose counts are patched in place,
 * fixed-size records, and a footer of { u32 nameLen, name bytes, u64
 * value } counters in std::map key order, every integer
 * little-endian. LogReader ends any corrupt input (truncated, a count
 * the file cannot hold, a bad magic, trailing bytes) in fatal()
 * naming the file, never in an allocation sized by a corrupt header.
 */

#ifndef DMT_OBS_LOG_CODEC_HH
#define DMT_OBS_LOG_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace dmt::obs
{

/** Append the low `bytes` bytes of `v`, little-endian. */
inline void
putLe(std::vector<unsigned char> &b, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        b.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

/**
 * A log file being written: records go to a recycled buffer that is
 * flushed as it fills, so memory stays bounded for any run length.
 */
class LogWriter
{
  public:
    /** Open `path`; fatal on failure. `what` names the format. */
    LogWriter(const std::string &path, const char *what);

    /** The encode buffer: append the header, then each record. */
    std::vector<unsigned char> &buffer() { return buffer_; }

    /** Flush the buffer once it has grown past its threshold. */
    void maybeFlush();

    /** The counters finish() writes to the footer. */
    void setCounters(const CounterMap &counters) { counters_ = counters; }

    /**
     * Once only: append the footer, flush, overwrite the header from
     * byte `offset` with `counts` and then the footer's counter count
     * (u64 each, the order both formats use), and close; fatal on a
     * failed write.
     */
    void finish(std::streamoff offset,
                std::initializer_list<std::uint64_t> counts);

    bool finished() const { return finished_; }
    const std::string &path() const { return path_; }

  private:
    void flush();

    std::string path_;
    const char *what_;
    std::ofstream os_;
    std::vector<unsigned char> buffer_;
    CounterMap counters_;
    bool finished_ = false;
};

/** Bounds-checked little-endian reads over a whole log file. */
class LogReader
{
  public:
    /** Read all of `path`; fatal if it cannot be opened. */
    LogReader(const std::string &path, const char *what);

    std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
    std::uint64_t u64() { return le(8); }

    /** fatal() unless the file starts with `magic`. */
    void expectMagic(const char (&magic)[8], const char *ext);

    /**
     * fatal() unless the rest of the file can hold `count` records
     * of at least `bytes` each: call before sizing anything by it.
     */
    void expectRecords(std::uint64_t count, std::size_t bytes);

    /** Read `count` footer counters, which must end the file. */
    CounterMap footer(std::uint64_t count);

  private:
    void need(std::size_t n);
    std::uint64_t le(std::size_t bytes);

    std::string path_;
    const char *what_;
    std::vector<unsigned char> data_;
    std::size_t pos_ = 0;
};

} // namespace dmt::obs

#endif // DMT_OBS_LOG_CODEC_HH
