"""dmtlint core: file model, rule registry, suppressions, reporting.

The engine is deliberately small: a *rule* is an object with a name,
a one-line contract, a scope (directories + file kinds), and either a
per-file check, a whole-tree check, or both. The engine loads every
scanned file once (comments and string literals blanked out, line
numbers preserved), runs all applicable rules, then resolves inline
suppressions:

    // dmtlint: allow(rule) -- reason          (C/C++ sources)
    # dmtlint: allow(rule) -- reason           (CMake files)
    // dmtlint: allow-file(rule) -- reason     (whole file)

An `allow` covers findings on its own line and on the next
non-comment line (so it can trail the offending statement or stand
above it, wrapping over several comment lines). Suppressions are
contracts too:

  * a suppression without a `-- reason` is a `bad-suppression` error;
  * a suppression naming an unknown rule is a `bad-suppression` error;
  * a suppression that matches no finding is a `stale-suppression`
    error — dead suppressions rot into lies about the code.

Exit status: 0 clean, 1 any diagnostic survived.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

CODE_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp", ".h"}
HEADER_SUFFIXES = {".hh", ".hpp", ".h"}
SCAN_DIRS = ("src", "tests", "examples", "tools", "bench")

# Directories never scanned: build trees and the lint fixtures, which
# contain violations on purpose.
EXCLUDED_PARTS = {"build", "fixtures", "__pycache__"}

LINE_COMMENT = re.compile(r"//[^\n]*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"' + r"|'(?:[^'\\\n]|\\.)*'")
CMAKE_COMMENT = re.compile(r"#[^\n]*")

SUPPRESSION = re.compile(
    r"(?://|#)\s*dmtlint:\s*(allow|allow-file)\s*"
    r"\(\s*([A-Za-z0-9_\-, ]*?)\s*\)\s*(?:--\s*(\S.*?))?\s*$")


@dataclasses.dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, anchored to a repo-relative file and line."""
    path: str
    line: int
    rule: str
    message: str

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Suppression:
    path: str
    line: int
    rule: str
    kind: str          # "allow" | "allow-file"
    reason: str
    #: line numbers an `allow` covers (its own + next non-comment)
    covers: frozenset = frozenset()
    used: bool = False


def _blank(match):
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_cxx_comments(text):
    """Blank comments, preserving line numbers."""
    text = BLOCK_COMMENT.sub(_blank, text)
    return LINE_COMMENT.sub(_blank, text)


def strip_cxx_noise(text):
    """Blank comments and string literals, preserving line numbers."""
    return STRING.sub(_blank, strip_cxx_comments(text))


def strip_cmake_noise(text):
    return CMAKE_COMMENT.sub(_blank, text)


class SourceFile:
    """One scanned file: raw text, noise-stripped text, suppressions."""

    def __init__(self, root, rel):
        self.rel = rel                       # Path, repo-relative
        self.path = str(rel.as_posix())
        self.top = rel.parts[0] if rel.parts else ""
        self.is_cmake = rel.name == "CMakeLists.txt" or \
            rel.suffix == ".cmake"
        self.raw = (root / rel).read_text(encoding="utf-8")
        if self.is_cmake:
            self.code = strip_cmake_noise(self.raw)
        else:
            self.code = strip_cxx_noise(self.raw)
        self.lines = self.code.splitlines()
        self.suppressions = self._parse_suppressions()

    @property
    def is_header(self):
        return self.rel.suffix in HEADER_SUFFIXES

    def unit_stem(self):
        """Key grouping a header with its implementation file."""
        return self.rel.with_suffix("").as_posix()

    def _parse_suppressions(self):
        found = []
        raw_lines = self.raw.splitlines()
        for lineno, line in enumerate(raw_lines, 1):
            m = SUPPRESSION.search(line)
            if not m:
                continue
            kind = m.group(1)
            names = [n.strip() for n in m.group(2).split(",")
                     if n.strip()]
            reason = (m.group(3) or "").strip()
            if not names:
                names = [""]  # forces a bad-suppression diagnostic
            covers = self._covered_lines(raw_lines, lineno)
            for name in names:
                found.append(Suppression(self.path, lineno, name,
                                         kind, reason, covers))
        return found

    @staticmethod
    def _covered_lines(raw_lines, lineno):
        """An allow covers its own line plus the next line holding
        code (comment-only and blank lines in between are skipped,
        so a wrapped suppression comment still reaches its
        target)."""
        covered = {lineno}
        comment_only = re.compile(r"^\s*(?://|#|\*|/\*)")
        for next_line in range(lineno + 1, len(raw_lines) + 1):
            text = raw_lines[next_line - 1]
            if not text.strip() or comment_only.match(text):
                continue
            covered.add(next_line)
            break
        return frozenset(covered)


class Rule:
    """Base class: subclasses set `name`, `contract`, and a scope."""

    name = ""
    contract = ""
    #: top-level directories this rule looks at
    dirs = SCAN_DIRS
    #: scan C/C++ sources
    code = True
    #: also scan CMakeLists.txt / *.cmake files
    cmake = False
    #: repo-relative paths exempt by design (documented in `contract`)
    allowed_files = frozenset()

    def applies_to(self, f):
        if f.top not in self.dirs:
            return False
        if f.path in self.allowed_files:
            return False
        return self.cmake if f.is_cmake else self.code

    def check_file(self, f):
        """Yield (lineno, message) findings for one file."""
        return ()

    def check_tree(self, tree):
        """Yield Diagnostic findings needing whole-tree context."""
        return ()


class Tree:
    """Every scanned file, with unit (header/impl pairing) helpers."""

    def __init__(self, root, files):
        self.root = root
        self.files = files
        self.by_path = {f.path: f for f in files}
        self._units = {}
        for f in files:
            self._units.setdefault(f.unit_stem(), []).append(f)

    def unit(self, f):
        """The header/impl files sharing a stem with `f` (incl. f)."""
        return self._units.get(f.unit_stem(), [f])

    def cxx_files(self, top_dirs=None):
        for f in self.files:
            if f.is_cmake:
                continue
            if top_dirs and f.top not in top_dirs:
                continue
            yield f


def discover(root, dirs=SCAN_DIRS):
    """Collect scanned files under `root`, sorted for determinism."""
    files = []
    for dirname in dirs:
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            rel = path.relative_to(root)
            if any(part in EXCLUDED_PARTS for part in rel.parts):
                continue
            if path.suffix in CODE_SUFFIXES or \
                    path.name == "CMakeLists.txt" or \
                    path.suffix == ".cmake":
                files.append(SourceFile(root, rel))
    return Tree(root, files)


class Engine:
    """Runs rules over a tree and resolves suppressions."""

    def __init__(self, rules):
        self.rules = list(rules)
        self.rule_names = {r.name for r in self.rules}

    def run(self, tree):
        findings = []
        for rule in self.rules:
            for f in tree.files:
                if not rule.applies_to(f):
                    continue
                for lineno, message in rule.check_file(f):
                    findings.append(Diagnostic(f.path, lineno,
                                               rule.name, message))
            for diag in rule.check_tree(tree):
                findings.append(diag)
        return self._resolve(tree, findings)

    def _resolve(self, tree, findings):
        """Apply suppressions; emit bad/stale-suppression errors."""
        kept = []
        meta = []
        suppressions = [s for f in tree.files for s in f.suppressions]
        valid = []
        for s in suppressions:
            if s.rule not in self.rule_names:
                meta.append(Diagnostic(
                    s.path, s.line, "bad-suppression",
                    f"unknown rule '{s.rule}' in suppression"))
            elif not s.reason:
                meta.append(Diagnostic(
                    s.path, s.line, "bad-suppression",
                    f"suppression of '{s.rule}' has no '-- reason'"))
            else:
                valid.append(s)

        by_file = {}
        for s in valid:
            by_file.setdefault(s.path, []).append(s)

        for diag in findings:
            suppressed = False
            for s in by_file.get(diag.path, ()):
                if s.rule != diag.rule:
                    continue
                if s.kind == "allow-file" or diag.line in s.covers:
                    s.used = True
                    suppressed = True
            if not suppressed:
                kept.append(diag)

        for s in valid:
            if not s.used:
                meta.append(Diagnostic(
                    s.path, s.line, "stale-suppression",
                    f"suppression of '{s.rule}' matches no finding; "
                    f"delete it"))
        return sorted(kept + meta), valid


def emit_json(os_, root, rules, diagnostics, suppressions):
    """Machine-readable report (dmt JSON conventions: schema field,
    stable key order, sorted entries)."""
    doc = {
        "schema": "dmt-lint-v1",
        "root": str(root),
        "rules": [{"name": r.name, "contract": r.contract}
                  for r in sorted(rules, key=lambda r: r.name)],
        "diagnostics": [
            {"file": d.path, "line": d.line, "rule": d.rule,
             "message": d.message} for d in diagnostics],
        "suppressions": [
            {"file": s.path, "line": s.line, "rule": s.rule,
             "kind": s.kind, "reason": s.reason}
            for s in sorted(suppressions,
                            key=lambda s: (s.path, s.line, s.rule))],
        "counts": {
            "diagnostics": len(diagnostics),
            "suppressions": len(suppressions),
        },
    }
    json.dump(doc, os_, indent=2, sort_keys=False)
    os_.write("\n")


def report(diagnostics, out=sys.stdout, err=sys.stderr):
    for diag in diagnostics:
        print(diag.render(), file=out)
    if diagnostics:
        print(f"dmtlint: {len(diagnostics)} diagnostic(s)", file=err)
        return 1
    print("dmtlint: clean", file=out)
    return 0
