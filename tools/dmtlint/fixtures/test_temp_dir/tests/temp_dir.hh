// Fixture: the per-process helper itself is exempt by design — its
// TempDir() call must NOT fire test-temp-dir.
#ifndef DMT_TESTS_TEMP_DIR_HH
#define DMT_TESTS_TEMP_DIR_HH

#include <string>

inline std::string
tempDir()
{
    return ::testing::TempDir() + "dmt-private";
}

#endif // DMT_TESTS_TEMP_DIR_HH
