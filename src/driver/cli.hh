/**
 * @file
 * The one command-line front end of every binary: a table of flags,
 * each a name, a value placeholder and a setter, one parser over it,
 * the name tables of designs, environments and workloads, and one
 * output-file writer with its up-front check.
 *
 * Any usage error (an unknown flag, a missing or malformed value, an
 * unknown name, an empty list) exits 2 naming the flag and value,
 * with the usage generated from the table, before the binary builds
 * anything: a bad value never runs with a silently substituted one.
 */

#ifndef DMT_DRIVER_CLI_HH
#define DMT_DRIVER_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "driver/campaign.hh"

namespace dmt
{
namespace driver
{

/** One command-line flag. */
struct Flag
{
    /** "--scale"; empty for a required positional argument. */
    std::string name;
    /** Value placeholder in the usage ("N"); empty for a switch. */
    std::string value;
    /** Takes the value (nullptr if none was given); false if bad. */
    std::function<bool(const char *)> set;
    /** --name[=value]: the value is optional and follows '='. */
    bool optional = false;
};

using Flags = std::vector<Flag>;

/**
 * Parse argv[1..] against `flags`, calling each setter in argument
 * order (so a repeated flag's last value wins). Exits 2 through
 * usageError() on any usage error.
 */
void parseFlags(int argc, char **argv, const Flags &flags);

/** Print "argv0: why" and the usage of `flags` to stderr; exit 2. */
[[noreturn]] void usageError(const char *argv0, const Flags &flags,
                             const std::string &why);

/** A switch: --name sets `on`. */
Flag flag(std::string name, bool &on);

/** --name VALUE: any text, such as a path. */
Flag text(std::string name, std::string value, std::string &out);

/** --scale N: the working set is 1/N of the paper's (out = 1/N). */
Flag scale(double &out);

/** --name[=V]: sets `on`; a value given after '=' goes to `with`. */
Flag optional(bool &on, Flag with);

/**
 * Parse an unsigned decimal count: digits only (no blank, sign or
 * suffix), from `min` to `max`.
 * @return the value, or nullopt for anything else
 */
std::optional<std::uint64_t> parseCount(
    const std::string &text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &csv);

/** --name N: a count from `min` to `max`. */
template <typename T>
Flag
count(std::string name, T &out, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<T>::max())
{
    return {std::move(name), "N", [&out, min, max](const char *v) {
                const auto n = parseCount(v, min, max);
                if (n)
                    out = static_cast<T>(*n);
                return n.has_value();
            }};
}

/** --name A,B,...: one or more comma-separated items, each `item`. */
template <typename T>
Flag
list(std::string name, std::string value, std::vector<T> &out,
     std::function<std::optional<T>(const std::string &)> item)
{
    return {std::move(name), std::move(value),
            [&out, item = std::move(item)](const char *v) {
                std::vector<T> items;
                for (const std::string &s : splitList(v)) {
                    const std::optional<T> x = item(s);
                    if (!x)
                        return false;
                    items.push_back(*x);
                }
                if (items.empty())
                    return false;
                out = std::move(items);
                return true;
            }};
}

/** A name table: every token a flag accepts, with its value. */
template <typename T>
using Names = std::vector<std::pair<std::string, T>>;

/** The table of `values`, each under its token `id(value)`. */
template <typename T, typename Id>
Names<T>
names(const std::vector<T> &values, Id id)
{
    Names<T> out;
    for (const T &v : values)
        out.emplace_back(id(v), v);
    return out;
}

/** @return the value of `token` in `table`, or nullopt. */
template <typename T>
std::optional<T>
lookup(const Names<T> &table, const std::string &token)
{
    for (const auto &[name, value] : table)
        if (name == token)
            return value;
    return std::nullopt;
}

/** The tokens of `table`, joined by `sep` (a usage placeholder). */
template <typename T>
std::string
tokens(const Names<T> &table, char sep)
{
    std::string out;
    for (const auto &entry : table)
        out += (out.empty() ? "" : std::string(1, sep)) + entry.first;
    return out;
}

/** Every design under its token: the --design/--designs table. */
Names<Design> designNames();

/** Every environment under its token: the --env/--envs table. */
Names<CampaignEnv> envNames();

/** The seven paper workloads: the --workload/--workloads table. */
Names<std::string> workloadNames();

/** --name TOKEN: one value picked from `table`. */
template <typename T>
Flag
choice(std::string name, const Names<T> &table, T &out)
{
    return {std::move(name), tokens(table, '|'),
            [table, &out](const char *v) {
                const std::optional<T> x = lookup(table, v);
                if (x)
                    out = *x;
                return x.has_value();
            }};
}

/** --name A,B,...: values picked from `table`. */
template <typename T>
Flag
choices(std::string name, const Names<T> &table, std::vector<T> &out)
{
    return list<T>(std::move(name), tokens(table, ','), out,
                   [table](const std::string &s) {
                       return lookup(table, s);
                   });
}

/**
 * Write one output file: `emit` fills the stream. fatal() naming the
 * file if it cannot be opened or fully written.
 */
void writeFile(const std::string &path,
               const std::function<void(std::ostream &)> &emit);

/**
 * Check an output path right after parseFlags(), before any cell is
 * built: fatal() naming the file, as writeFile() would after the
 * run, unless its directory exists and is writable.
 */
void checkWritable(const std::string &path);

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_CLI_HH
