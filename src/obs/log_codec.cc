#include "obs/log_codec.hh"

#include <cstring>
#include <iterator>

#include "common/log.hh"

namespace dmt::obs
{

/** Flush the encode buffer once it grows past this many bytes. */
constexpr std::size_t kFlushThreshold = 1u << 20;

LogWriter::LogWriter(const std::string &path, const char *what)
    : path_(path), what_(what),
      os_(path, std::ios::binary | std::ios::trunc)
{
    if (!os_.good())
        fatal("cannot open %s %s for writing", what_, path_.c_str());
    buffer_.reserve(kFlushThreshold + 4096);
}

void
LogWriter::flush()
{
    os_.write(reinterpret_cast<const char *>(buffer_.data()),
              static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

void
LogWriter::maybeFlush()
{
    if (buffer_.size() >= kFlushThreshold)
        flush();
}

void
LogWriter::finish(std::streamoff offset,
                  std::initializer_list<std::uint64_t> counts)
{
    if (finished_)
        return;
    finished_ = true;
    for (const auto &[name, value] : counters_) {
        putLe(buffer_, name.size(), 4);
        buffer_.insert(buffer_.end(), name.begin(), name.end());
        putLe(buffer_, value, 8);
    }
    flush();
    // Patch the header counts now that the totals are known.
    for (const std::uint64_t count : counts)
        putLe(buffer_, count, 8);
    putLe(buffer_, counters_.size(), 8);
    os_.seekp(offset);
    flush();
    os_.close();
    if (!os_.good())
        fatal("failed writing %s %s", what_, path_.c_str());
}

LogReader::LogReader(const std::string &path, const char *what)
    : path_(path), what_(what)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        fatal("cannot open %s %s", what_, path_.c_str());
    data_.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
}

void
LogReader::need(std::size_t n)
{
    if (data_.size() - pos_ < n)
        fatal("corrupt %s %s: truncated at byte %zu", what_,
              path_.c_str(), pos_);
}

std::uint64_t
LogReader::le(std::size_t bytes)
{
    need(bytes);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += bytes;
    return v;
}

void
LogReader::expectMagic(const char (&magic)[8], const char *ext)
{
    need(sizeof(magic));
    if (std::memcmp(data_.data(), magic, sizeof(magic)) != 0)
        fatal("%s is not a %s file (bad magic)", path_.c_str(), ext);
    pos_ += sizeof(magic);
}

void
LogReader::expectRecords(std::uint64_t count, std::size_t bytes)
{
    const std::size_t left = data_.size() - pos_;
    if (count > left / bytes)
        fatal("corrupt %s %s: header claims %llu records but only "
              "%zu bytes follow",
              what_, path_.c_str(),
              static_cast<unsigned long long>(count), left);
}

CounterMap
LogReader::footer(std::uint64_t count)
{
    CounterMap counters;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t nameLen = u32();
        if (nameLen > 4096)
            fatal("%s: implausible counter name length %u",
                  path_.c_str(), nameLen);
        need(nameLen);
        std::string name(
            reinterpret_cast<const char *>(data_.data() + pos_),
            nameLen);
        pos_ += nameLen;
        counters[std::move(name)] = u64();
    }
    if (pos_ != data_.size())
        fatal("%s: %zu trailing bytes after the counter footer",
              path_.c_str(), data_.size() - pos_);
    return counters;
}

} // namespace dmt::obs
