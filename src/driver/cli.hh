/**
 * @file
 * Flag parsing shared by the command-line drivers (dmtsim,
 * dmt-campaign, dmt-node): strict numbers and comma lists.
 *
 * A malformed number must never run a cell with a silently
 * substituted value: strtoull() alone reads "x" as 0, and strtod()
 * reads it as 0 too, so `--scale x` became a 1/0 = inf scale. These
 * parsers take the whole text or nothing, and each driver turns
 * nothing into its usage message and exit status 2.
 */

#ifndef DMT_DRIVER_CLI_HH
#define DMT_DRIVER_CLI_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace dmt
{
namespace driver
{

/**
 * Parse an unsigned decimal count: digits only (no blank, sign or
 * suffix), at most `max`.
 * @return the value, or nullopt for anything else
 */
std::optional<std::uint64_t> parseCount(
    const std::string &text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse the N of `--scale N` (working set = paper size / N): a
 * finite number above zero, taken whole.
 * @return the scale 1/N, or nullopt for anything else
 */
std::optional<double> parseScale(const std::string &text);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &csv);

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_CLI_HH
