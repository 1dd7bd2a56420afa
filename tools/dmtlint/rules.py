"""dmtlint rules: the house contracts the compiler cannot enforce.

Style rules (ported from the original tools/lint.py):

  naked-new        no `new` outside smart-pointer factories
  banned-random    no ad-hoc randomness outside common/rng.hh
  include-guard    canonical DMT_<PATH>_<EXT> guards in src/ headers
  raw-logging      no printf/iostream output in src/ outside
                   common/log

Determinism and correctness rules (this file's reason to exist —
BENCH_campaign.json and .dmtevents streams must be byte-identical
across thread counts, and every counter must be reachable by the
snapshot/replay machinery):

  nondet-iteration       iterating a std::unordered_map/set visits
                         elements in an order that depends on hashing,
                         insertion history, and libstdc++ version; any
                         such loop that feeds stats, reports,
                         serialization, or event streams breaks the
                         byte-identical contract. Sort the keys first
                         or use std::map where order reaches output.
  wall-clock             system_clock/steady_clock/time() readings are
                         nondeterministic; they may only flow into the
                         timing sidecar (emitTimingJson) and log
                         timestamps, never into reports. Scoped to
                         src/; benches measure wall time by design.
  stat-registration      a Counter/ScalarStat/Histogram field of a
                         *Stats struct that nothing outside its own
                         subsystem ever reads is invisible to
                         StatGroup snapshots and events_check — it can
                         silently rot. Export it (see
                         Testbed::managementStats) or justify it.
  audit-registration     every structure with invariant-audit support
                         must actually be wired into the
                         InvariantAuditor: attachAuditor + event
                         ticking for self-registering classes, a
                         registerHook owner for embedded ones.
  shared-mutable-static  a non-const global or function-local static
                         in src/ is shared mutable state: a data race
                         under the parallel campaign runner and a
                         cross-cell determinism leak even without one.
                         Only common/log (atomic verbosity) is exempt.
  test-temp-dir          ctest runs test processes concurrently, so a
                         test file named in gtest's shared TempDir()
                         or under a "/tmp/" literal is written by one
                         process while another reads it. Test files go
                         through tests/temp_dir.hh's per-process
                         directory instead.
"""

import re

from engine import (Diagnostic, Rule, HEADER_SUFFIXES,
                    strip_cxx_comments)

ALL_RULES = []


def register(cls):
    ALL_RULES.append(cls())
    return cls


def _line_of(code, index):
    return code.count("\n", 0, index) + 1


# ---------------------------------------------------------------- #
# Style rules                                                      #
# ---------------------------------------------------------------- #


@register
class NakedNew(Rule):
    name = "naked-new"
    contract = ("use std::make_unique/make_shared; owning raw "
                "pointers have no place in the simulator")
    PATTERN = re.compile(r"\bnew\b(?!\s*\()")

    def check_file(self, f):
        for lineno, line in enumerate(f.lines, 1):
            if self.PATTERN.search(line):
                yield lineno, ("use std::make_unique/make_shared, "
                               "not a naked `new`")


@register
class BannedRandom(Rule):
    name = "banned-random"
    contract = ("all randomness flows through common/rng.hh; seeded "
                "reproducibility is part of the experiment contract")
    cmake = True
    allowed_files = frozenset({"src/common/rng.hh"})
    PATTERN = re.compile(
        r"\b(?:s?rand\s*\(|random_shuffle\b|std::(?:mt19937(?:_64)?|"
        r"minstd_rand0?|random_device|default_random_engine)\b)")

    def check_file(self, f):
        for lineno, line in enumerate(f.lines, 1):
            if self.PATTERN.search(line):
                yield lineno, ("use common/rng.hh, not ad-hoc "
                               "randomness")


@register
class IncludeGuard(Rule):
    name = "include-guard"
    contract = "src/ headers carry the canonical DMT_<PATH> guard"
    dirs = ("src",)
    GUARD = re.compile(r"^#ifndef\s+(\w+)\s*$", re.MULTILINE)

    @staticmethod
    def expected(rel):
        stem = "_".join(rel.with_suffix("").parts).upper()
        stem = re.sub(r"\W", "_", stem)
        ext = rel.suffix.lstrip(".").upper()
        return f"DMT_{stem}_{ext}"

    def check_file(self, f):
        if f.rel.suffix not in HEADER_SUFFIXES:
            return
        want = self.expected(f.rel.relative_to("src"))
        m = self.GUARD.search(f.code)
        if not m:
            yield 1, f"missing include guard {want}"
        elif m.group(1) != want:
            yield (_line_of(f.code, m.start()),
                   f"guard {m.group(1)} should be {want}")


@register
class RawLogging(Rule):
    name = "raw-logging"
    contract = ("src/ output goes through common/log.hh so verbosity "
                "and fatal behaviour stay centrally controlled")
    dirs = ("src",)
    cmake = True
    allowed_files = frozenset({"src/common/log.hh",
                               "src/common/log.cc"})
    PATTERN = re.compile(
        r"(?:\b(?:std::)?(?:printf|fprintf|vprintf|vfprintf|puts|"
        r"fputs)\s*\(|std::(?:cout|cerr|clog)\b)")

    def check_file(self, f):
        for lineno, line in enumerate(f.lines, 1):
            if self.PATTERN.search(line):
                yield lineno, ("use common/log.hh "
                               "(inform/warn/fatal/panic)")


# ---------------------------------------------------------------- #
# Determinism rules                                                #
# ---------------------------------------------------------------- #

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|"
                            r"multiset)\s*<")
UNORDERED_ALIAS = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_")
IDENT = re.compile(r"[A-Za-z_]\w*")


def _skip_template_args(code, lt):
    """Given the index of '<', return the index just past the
    matching '>' (or len(code) if unbalanced)."""
    depth = 0
    i = lt
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            break  # declaration ended without balancing: give up
        i += 1
    return len(code)


def unordered_names(code):
    """Names of variables/members declared with an unordered
    container type (heuristic single-declarator parse)."""
    names = set()
    type_tokens = [UNORDERED_DECL]
    for alias in UNORDERED_ALIAS.finditer(code):
        names_re = re.compile(r"\b" + re.escape(alias.group(1)) +
                              r"\b\s*(<)?")
        type_tokens.append(names_re)
    for pattern in type_tokens:
        for m in pattern.finditer(code):
            i = m.end()
            if m.group(0).rstrip().endswith("<"):
                i = _skip_template_args(code, m.end() - 1)
            # optional ref/ptr + whitespace, then the declarator
            while i < len(code) and code[i] in " \t\n&*":
                i += 1
            ident = IDENT.match(code, i)
            if not ident:
                continue
            j = ident.end()
            while j < len(code) and code[j] in " \t\n":
                j += 1
            if j < len(code) and code[j] in ";,={(":
                names.add(ident.group(0))
    return names


@register
class NondetIteration(Rule):
    name = "nondet-iteration"
    contract = ("no iteration over std::unordered_map/set where the "
                "visit order can reach stats, reports, serialization "
                "or event streams; sort keys first or use std::map")

    def check_file(self, f):
        return ()  # tree rule: needs the unit header's declarations

    def check_tree(self, tree):
        for f in tree.cxx_files():
            names = unordered_names(f.code)
            for mate in tree.unit(f):
                names |= unordered_names(mate.code)
            if not names:
                continue
            alt = "|".join(sorted(re.escape(n) for n in names))
            range_for = re.compile(
                r"for\s*\([^;()]*?:\s*(?:\*|&)?(" + alt + r")\s*\)")
            explicit = re.compile(
                r"\b(" + alt + r")\s*\.\s*(?:c?r?begin)\s*\(")
            for lineno, line in enumerate(f.lines, 1):
                m = range_for.search(line) or explicit.search(line)
                if m:
                    yield Diagnostic(
                        f.path, lineno, self.name,
                        f"iteration order over unordered container "
                        f"'{m.group(1)}' is nondeterministic; sort "
                        f"the keys first (or use std::map) where the "
                        f"order can reach output")


@register
class WallClock(Rule):
    name = "wall-clock"
    contract = ("no wall-clock reads in src/ outside the timing "
                "sidecar and log timestamps; simulated time is the "
                "only clock results may depend on")
    dirs = ("src",)
    PATTERN = re.compile(
        r"(?:std::)?chrono\s*::\s*(?:system_clock|steady_clock|"
        r"high_resolution_clock)"
        r"|(?<![\w.:>])(?:time|clock|gettimeofday|clock_gettime|"
        r"localtime(?:_r)?|gmtime(?:_r)?|mktime|strftime)\s*\(")

    def check_file(self, f):
        for lineno, line in enumerate(f.lines, 1):
            if self.PATTERN.search(line):
                yield lineno, ("wall-clock read in src/; only the "
                               "timing sidecar and log timestamps "
                               "may touch host time")


STATS_STRUCT = re.compile(r"\bstruct\s+(\w*Stats)\b[^;]*?\{")
STAT_FIELD = re.compile(
    r"^\s*(?:Counter|ScalarStat|Histogram)\s+(\w+)\s*[;={]",
    re.MULTILINE)


@register
class StatRegistration(Rule):
    name = "stat-registration"
    contract = ("every Counter/ScalarStat/Histogram field of a "
                "*Stats struct is read or registered outside its own "
                "subsystem, so StatGroup snapshots and events_check "
                "cannot silently miss it")
    dirs = ("src",)

    def check_tree(self, tree):
        # Collect *Stats fields declared in src/ headers.
        fields = []  # (file, lineno, struct, field, unit_paths)
        for f in tree.cxx_files(top_dirs=("src",)):
            if not f.is_header:
                continue
            for sm in STATS_STRUCT.finditer(f.code):
                open_brace = f.code.index("{", sm.start())
                end = self._match_brace(f.code, open_brace)
                body = f.code[open_brace:end]
                for fm in STAT_FIELD.finditer(body):
                    lineno = _line_of(f.code,
                                      open_brace + fm.start(1))
                    unit = {m.path for m in tree.unit(f)}
                    fields.append((f, lineno, sm.group(1),
                                   fm.group(1), unit))
        for f, lineno, struct, field, unit in fields:
            use = re.compile(r"[.>]\s*" + re.escape(field) +
                             r"\b(?!\s*\()")
            for other in tree.cxx_files():
                if other.path in unit:
                    continue
                if use.search(other.code):
                    break
            else:
                yield Diagnostic(
                    f.path, lineno, self.name,
                    f"stat field '{struct}.{field}' is never read or "
                    f"registered outside {f.rel.stem}.*; snapshots "
                    f"and events_check will silently miss it")

    @staticmethod
    def _match_brace(code, start):
        depth = 0
        for i in range(start, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    return i
        return len(code)


@register
class AuditRegistration(Rule):
    name = "audit-registration"
    contract = ("every structure with audit support is wired into "
                "the InvariantAuditor: self-registering classes "
                "declare attachAuditor and tick DMT_AUDIT_EVENT; "
                "embedded ones have a registerHook owner")
    dirs = ("src",)

    AUDITOR_MEMBER = re.compile(r"InvariantAuditor\s*\*\s*\w+_?\s*[;=]")
    AUDIT_DECL = re.compile(r"\baudit\s*\(\s*AuditSink\s*&")
    CLASS_BEFORE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{]*\{")

    def check_tree(self, tree):
        src = list(tree.cxx_files(top_dirs=("src",)))
        for f in src:
            if not f.is_header or f.top != "src":
                continue
            if f.rel.parts[1] == "check":
                continue  # the auditor itself
            unit_code = "".join(m.code for m in tree.unit(f))
            # (a) holds an auditor pointer -> must self-register and
            # tick mutation events somewhere in its unit.
            for m in self.AUDITOR_MEMBER.finditer(f.code):
                lineno = _line_of(f.code, m.start())
                if "attachAuditor" not in unit_code:
                    yield Diagnostic(
                        f.path, lineno, self.name,
                        "class holds an InvariantAuditor* but "
                        "declares no attachAuditor(); it can never "
                        "be wired into the auditor")
                elif "DMT_AUDIT_EVENT" not in unit_code and \
                        "registerHook" not in unit_code:
                    yield Diagnostic(
                        f.path, lineno, self.name,
                        "attachAuditor() exists but the unit never "
                        "ticks DMT_AUDIT_EVENT or registers a hook; "
                        "interval sweeps will not observe it")
            # (b) declares audit(AuditSink&) -> somebody must wire it:
            # its own unit via attachAuditor, or an owner that
            # registers a hook on its behalf.
            for m in self.AUDIT_DECL.finditer(f.code):
                lineno = _line_of(f.code, m.start())
                if "attachAuditor" in unit_code:
                    continue
                cls = self._enclosing_class(f.code, m.start())
                if cls and self._has_hook_owner(tree, src, f, cls):
                    continue
                yield Diagnostic(
                    f.path, lineno, self.name,
                    f"'{cls or f.rel.stem}::audit(AuditSink&)' is "
                    f"never registered with the InvariantAuditor "
                    f"(no attachAuditor in its unit and no "
                    f"registerHook owner references it)")

    def _enclosing_class(self, code, index):
        best = None
        for m in self.CLASS_BEFORE.finditer(code):
            if m.start() < index:
                best = m.group(1)
            else:
                break
        return best

    @staticmethod
    def _has_hook_owner(tree, src, header, cls):
        unit_paths = {m.path for m in tree.unit(header)}
        token = re.compile(r"\b" + re.escape(cls) + r"\b")
        for f in src:
            if f.path in unit_paths:
                continue
            if "registerHook" not in f.code:
                continue
            mates = "".join(m.code for m in tree.unit(f))
            if token.search(mates):
                return True
        return False


@register
class SharedMutableStatic(Rule):
    name = "shared-mutable-static"
    contract = ("no non-const globals or function-local statics in "
                "src/; shared mutable state races under the parallel "
                "campaign runner and leaks state across cells")
    dirs = ("src",)
    allowed_files = frozenset({"src/common/log.cc"})
    DECL = re.compile(r"(?:^|[{};])\s*(?:inline\s+)?"
                      r"(static|thread_local)\b(?!_)")
    IMMUTABLE = re.compile(r"^\s*(?:inline\s+)?(?:static|thread_local)"
                           r"(?:\s+inline)?\s+const(?:expr)?\b")

    def check_file(self, f):
        for lineno, line in enumerate(f.lines, 1):
            m = self.DECL.search(line)
            if not m or "static_assert" in line:
                continue
            if self.IMMUTABLE.match(line.strip()):
                continue
            # Look ahead over the declaration to decide variable vs
            # function: a '(' before any of ';={' means a function
            # (or constructor-style init, which we accept missing).
            window = " ".join(f.lines[lineno - 1:lineno + 2])
            tail = window[window.index(m.group(1)) + len(m.group(1)):]
            if re.match(r"\s+const(?:expr)?\b", tail):
                continue
            stop = re.search(r"[;={(]", tail)
            if stop is None or stop.group(0) == "(":
                continue
            yield lineno, (f"{m.group(1)} object is shared mutable "
                           f"state; pass state explicitly or make "
                           f"it const/constexpr")


@register
class TestTempDir(Rule):
    name = "test-temp-dir"
    contract = ("test files live in tests/temp_dir.hh's per-process "
                "directory (tempPath/tempDir), never in gtest's shared "
                "TempDir() or a /tmp/ literal that concurrent ctest "
                "processes also write")
    dirs = ("tests",)
    allowed_files = frozenset({"tests/temp_dir.hh"})
    TEMP_DIR = re.compile(r"\bTempDir\s*\(")
    TMP_LITERAL = re.compile(r'"/tmp/')

    def check_file(self, f):
        # f.code blanks string literals, so the /tmp/ literal is
        # searched for in the source with only its comments removed.
        no_comments = strip_cxx_comments(f.raw).splitlines()
        for lineno, line in enumerate(f.lines, 1):
            if self.TEMP_DIR.search(line) or \
                    self.TMP_LITERAL.search(no_comments[lineno - 1]):
                yield lineno, ("use tempPath()/tempDir() from "
                               "tests/temp_dir.hh, a directory private "
                               "to this test process")
