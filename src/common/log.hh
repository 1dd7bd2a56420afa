/**
 * @file
 * Logging and error-reporting helpers in the gem5 idiom.
 *
 * panic()  — an internal simulator bug; never the user's fault. Aborts.
 * fatal()  — the simulation cannot continue due to a user error
 *            (bad configuration, an unwritable file). Exits with code 1.
 * usageExit() — a malformed command line. Exits with code 2.
 * warn()   — something is modelled approximately; keep going.
 * inform() — normal status output.
 */

#ifndef DMT_COMMON_LOG_HH
#define DMT_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace dmt
{

/** Verbosity levels for runtime log filtering. */
enum class LogLevel
{
    Quiet = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Set the global verbosity (default: Warn). */
void setLogLevel(LogLevel level);

/** @return the current global verbosity. */
LogLevel logLevel();

/**
 * Report an internal invariant violation and abort.
 * Use only for conditions that indicate a simulator bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a command-line usage error: print the message (the error and
 * the usage) to stderr and exit(2).
 */
[[noreturn]] void usageExit(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a non-fatal modelling concern. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operational status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Detailed tracing, enabled at LogLevel::Debug. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert a simulator invariant; panics with the message on failure.
 * Active in all build types (unlike assert()).
 */
#define DMT_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::dmt::warn("assertion '%s' failed at %s:%d", #cond,         \
                        __FILE__, __LINE__);                             \
            ::dmt::panic(__VA_ARGS__);                                   \
        }                                                                \
    } while (0)

} // namespace dmt

#endif // DMT_COMMON_LOG_HH
