#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace dmt
{

namespace
{
// Read from campaign worker threads; atomic so a runtime adjustment
// is not a data race.
std::atomic<LogLevel> globalLevel{LogLevel::Warn};

void
vlog(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlog("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlog("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
usageExit(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::exit(2);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    vlog("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Info)
        return;
    va_list args;
    va_start(args, fmt);
    vlog("info", fmt, args);
    va_end(args);
}

void
debugLog(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Debug)
        return;
    va_list args;
    va_start(args, fmt);
    vlog("debug", fmt, args);
    va_end(args);
}

} // namespace dmt
