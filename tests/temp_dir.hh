/**
 * @file
 * Test helper: one private temporary directory per test process.
 *
 * gtest_discover_tests runs every test in its own process, ctest -j
 * runs many of them at once, and two build trees may test on one
 * host at the same time. A file name fixed in a test is then written
 * by one process while another reads it. Every test file goes
 * through tempPath() instead: a path inside a directory that only
 * this process uses, named after its pid and the test that first
 * asked for it, and removed when the process exits. dmtlint's
 * `test-temp-dir` rule keeps TempDir() and "/tmp/" literals out of
 * every other file under tests/.
 */

#ifndef DMT_TESTS_TEMP_DIR_HH
#define DMT_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace dmt
{

/** The directory of this process; see tempDir(). */
class ProcessTempDir
{
  public:
    ProcessTempDir() : owner_(::getpid()), path_(makePath())
    {
        std::filesystem::create_directories(path_);
    }

    ~ProcessTempDir()
    {
        // A death test's forked child exits through here as well;
        // only the process that made the directory removes it.
        if (::getpid() != owner_)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ProcessTempDir(const ProcessTempDir &) = delete;
    ProcessTempDir &operator=(const ProcessTempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    static std::string
    makePath()
    {
        std::string test = "no_test";
        if (const auto *info =
                ::testing::UnitTest::GetInstance()->current_test_info())
            test = std::string(info->test_suite_name()) + "." +
                   info->name();
        // Parameterized names carry '/' and may carry quotes.
        for (char &c : test) {
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '.' && c != '-')
                c = '_';
        }
        return ::testing::TempDir() + "dmt-" +
               std::to_string(::getpid()) + "-" + test;
    }

    pid_t owner_;
    std::string path_;
};

/**
 * This process's private directory, without a trailing slash: made
 * on first use, removed with everything in it at exit.
 */
inline const std::string &
tempDir()
{
    static const ProcessTempDir dir;
    return dir.path();
}

/** Path of the file `name` inside tempDir(). */
inline std::string
tempPath(const std::string &name)
{
    return tempDir() + "/" + name;
}

} // namespace dmt

#endif // DMT_TESTS_TEMP_DIR_HH
