// Fixture: test-temp-dir covers tests/ only; a simulator source
// naming "/tmp/" must NOT fire it.
const char *
spoolDir()
{
    return "/tmp/dmt-spool";
}
