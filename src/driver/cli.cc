#include "driver/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <unistd.h>

#include "common/log.hh"

namespace dmt
{
namespace driver
{

namespace
{

/** The usage of `flags`: positionals on the first line, one flag a
 *  line after it. */
std::string
usage(const char *argv0, const Flags &flags)
{
    std::string out = std::string("usage: ") + argv0;
    for (const Flag &f : flags)
        if (f.name.empty())
            out += " " + f.value;
    for (const Flag &f : flags)
        if (!f.name.empty())
            out += "\n    [" + f.name +
                   (f.value.empty() ? ""
                    : f.optional    ? "[=" + f.value + "]"
                                    : " " + f.value) +
                   "]";
    return out + "\n";
}

} // namespace

void
usageError(const char *argv0, const Flags &flags, const std::string &why)
{
    usageExit("%s: %s\n%s", argv0, why.c_str(),
              usage(argv0, flags).c_str());
}

void
parseFlags(int argc, char **argv, const Flags &flags)
{
    const auto fail = [&](const std::string &why) {
        usageError(argv[0], flags, why);
    };
    auto positional = flags.begin();
    const auto nextPositional = [&] {
        while (positional != flags.end() && !positional->name.empty())
            ++positional;
    };
    nextPositional();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            if (positional == flags.end())
                fail("unexpected argument '" + arg + "'");
            if (!positional->set(argv[i]))
                fail("bad " + positional->value + " '" + arg + "'");
            ++positional;
            nextPositional();
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const Flag *f = nullptr;
        for (const Flag &candidate : flags)
            if (candidate.name == name)
                f = &candidate;
        if (!f)
            fail("unknown flag '" + name + "'");
        const char *value = nullptr;
        if (eq != std::string::npos)
            value = argv[i] + eq + 1;
        else if (!f->value.empty() && !f->optional) {
            if (i + 1 >= argc)
                fail(name + " needs a value (" + f->value + ")");
            value = argv[++i];
        }
        if (f->value.empty() && value)
            fail(name + " takes no value");
        if (!f->set(value))
            fail("bad value '" + std::string(value ? value : "") +
                 "' for " + name);
    }
    if (positional != flags.end())
        fail("missing " + positional->value);
}

Flag
flag(std::string name, bool &on)
{
    return {std::move(name), "", [&on](const char *) {
                on = true;
                return true;
            }};
}

Flag
text(std::string name, std::string value, std::string &out)
{
    return {std::move(name), std::move(value), [&out](const char *v) {
                out = v;
                return true;
            }};
}

Flag
scale(double &out)
{
    return {"--scale", "N", [&out](const char *v) {
                char *end = nullptr;
                const double denom = std::strtod(v, &end);
                if (!*v || *end || !std::isfinite(denom) ||
                    !(denom > 0.0))
                    return false;
                out = 1.0 / denom;
                return true;
            }};
}

Flag
optional(bool &on, Flag with)
{
    with.optional = true;
    with.set = [&on, set = std::move(with.set)](const char *v) {
        on = true;
        return !v || set(v);
    };
    return with;
}

std::optional<std::uint64_t>
parseCount(const std::string &text, std::uint64_t min,
           std::uint64_t max)
{
    // strtoull alone would also take leading blanks and a sign.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (*end || errno == ERANGE || v < min || v > max)
        return std::nullopt;
    return v;
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

Names<Design>
designNames()
{
    // The virtualized environment models every design.
    return names(validDesigns(CampaignEnv::Virt), designId);
}

Names<CampaignEnv>
envNames()
{
    return names<CampaignEnv>({CampaignEnv::Native, CampaignEnv::Virt,
                               CampaignEnv::Nested},
                              envId);
}

Names<std::string>
workloadNames()
{
    return names(paperWorkloadNames(),
                 [](const std::string &name) { return name; });
}

void
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    emit(os);
    os.close();
    if (!os)
        fatal("error writing '%s'", path.c_str());
}

void
checkWritable(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec) ||
        ::access(dir.c_str(), W_OK) != 0) {
        fatal("cannot open '%s' for writing: '%s' is not a writable "
              "directory",
              path.c_str(), dir.c_str());
    }
}

} // namespace driver
} // namespace dmt
