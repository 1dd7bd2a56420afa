#include "driver/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace dmt
{
namespace driver
{

std::optional<std::uint64_t>
parseCount(const std::string &text, std::uint64_t max)
{
    // strtoull alone would also take leading blanks and a sign.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (*end || errno == ERANGE || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseScale(const std::string &text)
{
    char *end = nullptr;
    const double denom = std::strtod(text.c_str(), &end);
    if (text.empty() || *end || !std::isfinite(denom) ||
        !(denom > 0.0))
        return std::nullopt;
    return 1.0 / denom;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace driver
} // namespace dmt
