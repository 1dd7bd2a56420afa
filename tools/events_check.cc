/**
 * @file
 * Replay verifier for .dmtevents and .dmthostevents logs.
 *
 * Reads a binary event log, reconstructs every counter from the
 * event stream alone, and asserts exact equality against the counter
 * footer the producer embedded — the differential check that makes
 * every events file self-verifying. The log format is dispatched on
 * the file magic: "DMTEVTS1" logs replay the translation counters
 * (TLB, PWC, radix walk, DMT fetch, nested walk, caches);
 * "DMTHOST1" logs replay the node scheduler's per-tenant host
 * counters (context switches, register traffic, flushes,
 * shootdowns). Translation logs can optionally be exported as a
 * Chrome trace_event JSON (Perfetto / chrome://tracing) or as the
 * dmt-events-v1 summary JSON.
 *
 * Usage:
 *   events_check FILE [--json OUT] [--chrome OUT] [--digest] [--quiet]
 *
 * Exit status: 0 if every reconstructed counter matches the footer,
 * 1 on any mismatch or on a log or output file that cannot be read or
 * written, 2 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "obs/event_log.hh"
#include "obs/export.hh"
#include "obs/host_event.hh"
#include "obs/replay.hh"

using namespace dmt;

namespace
{

/** True if the file starts with the .dmthostevents magic. */
bool
isHostEventLog(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    char magic[sizeof(dmt::obs::kHostEventLogMagic)] = {};
    if (!is.read(magic, sizeof(magic)))
        return false;
    return std::memcmp(magic, dmt::obs::kHostEventLogMagic,
                       sizeof(magic)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string file, jsonOut, chromeOut;
    bool digest = false, quiet = false;
    const driver::Flags flags = {
        driver::text("", "FILE", file),
        driver::text("--json", "OUT", jsonOut),
        driver::text("--chrome", "OUT", chromeOut),
        driver::flag("--digest", digest),
        driver::flag("--quiet", quiet),
    };
    driver::parseFlags(argc, argv, flags);
    const bool host = isHostEventLog(file);
    if (host && (!jsonOut.empty() || !chromeOut.empty()))
        driver::usageError(argv[0], flags,
                           "--json/--chrome do not apply to host-event "
                           "logs");
    if (digest)
        std::printf("%s  %s\n",
                    obs::digestString(obs::fileDigest(file)).c_str(),
                    file.c_str());

    // One read per log, then one replay against its footer. The
    // readers are fatal() on malformed input: a corrupt log is a
    // producer bug, not a condition to limp past.
    std::size_t records = 0, counters = 0;
    std::vector<std::string> mismatches;
    if (host) {
        const obs::HostEventLog log = obs::readHostEventLog(file);
        records = log.records.size();
        counters = log.counters.size();
        mismatches = obs::compareCounters(
            log.counters, obs::reconstructHostCounters(log.records));
    } else {
        const obs::EventLog log = obs::readEventLog(file);
        records = log.events.size();
        counters = log.counters.size();
        mismatches = obs::compareCounters(
            log.counters, obs::reconstructCounters(log.events));
        if (!jsonOut.empty())
            driver::writeFile(jsonOut, [&](std::ostream &os) {
                obs::writeEventsJson(os, log, file);
            });
        if (!chromeOut.empty())
            driver::writeFile(chromeOut, [&](std::ostream &os) {
                obs::writeChromeTrace(os, log, file);
            });
    }

    if (!mismatches.empty()) {
        std::fprintf(stderr,
                     "events_check: %zu counter mismatch(es) in %s\n",
                     mismatches.size(), file.c_str());
        for (const std::string &m : mismatches)
            std::fprintf(stderr, "  %s\n", m.c_str());
        return 1;
    }
    if (!quiet)
        std::printf("%s: %zu %s, %zu footer counters, all "
                    "reconstructed exactly\n",
                    file.c_str(), records, host ? "host events" : "events",
                    counters);
    return 0;
}
