// Fixture: test-temp-dir fires on gtest's shared TempDir() and on
// "/tmp/" path literals anywhere in tests/ outside the per-process
// helper; a comment may name either freely.
#include <string>

std::string
eventsPath()
{
    return ::testing::TempDir() + "events.dmtevents";  // want: test-temp-dir
}

std::string
tracePath()
{
    return "/tmp/trace.trc";  // want: test-temp-dir
}

std::string
relative()
{
    // Not "/tmp/": a relative name, and TempDir() only in a comment.
    return "tmp/trace.trc";
}
