"""Metrics and verification for the repository benchmark.

dmt-perfbench writes one JSON record per line: `unit` declarations,
`span` records (one per timed public call), `result` records (one per
finished unit execution) and a closing `run` record. This module turns
them into metrics and checks the results. It is pure: no I/O beyond
what the caller passes in, so the tests drive it with synthetic records.

A span's `dur` and `outer` are CPU seconds of the benchmark thread
(the call alone, and with its instrumentation); `t0` and `wall` place
it on the wall clock. Every timed metric is built from CPU seconds.

The sampling rule every timed metric follows:
  * warm-up samples (the first, untimed pass) never count;
  * a unit's value for one span name is the minimum over its samples;
  * a workload's value is the sum of its per-unit minimums, and a rate
    divides sums built from those minimums.
"""

import hashlib
import json
import re

# Spans whose per-unit minimums add up to a cell's set-up time.
SETUP_SPANS = ("sim.testbed_ctor", "core.attach", "workloads.setup",
               "baselines.build")

# The loop-thp cells; each gets its own per-access loop metric.
LOOP_CELLS = ("native-vanilla", "native-dmt", "virt-vanilla",
              "virt-pvdmt", "nested-vanilla", "nested-pvdmt")

END_TO_END = (
    ("setup_s", "s"),
    ("teardown_s", "s"),
    ("cell_s", "s"),
    ("maccess_per_s", "M/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.testbed_ctor_s", "s"),
    ("core.attach_s", "s"),
    ("workloads.setup_s", "s"),
    ("baselines.build_s", "s"),
    ("sim.teardown_s", "s"),
    ("workloads.trace_ns_per_access", "ns"),
) + tuple(("sim.loop_ns_per_access." + c, "ns") for c in LOOP_CELLS) + (
    ("host.run_s", "s"),
    ("sim.testbed_ctor.minflt", "count"),
    ("workloads.setup.minflt", "count"),
    ("sim.teardown.minflt", "count"),
    ("sim.testbed_ctor.sys_s", "s"),
    ("workloads.setup.sys_s", "s"),
    ("sim.teardown.sys_s", "s"),
    ("mem.physmem.frames_in_use", "count"),
    ("mem.physmem.words_in_use", "count"),
    ("core.tea.migrations", "count"),
    ("core.tea.migrated_table_pages", "count"),
    ("core.mapping.reconciles", "count"),
    ("core.tea.alloc_failures", "count"),
    ("tlb.l1d.hit_ratio", "ratio"),
    ("tlb.stlb.hit_ratio", "ratio"),
    ("pwc.guest.hit_ratio", "ratio"),
    ("pwc.nested.hit_ratio", "ratio"),
    ("cache.l1d.hit_ratio", "ratio"),
    ("cache.l2.hit_ratio", "ratio"),
    ("cache.llc.hit_ratio", "ratio"),
    ("hierarchy.accesses_per_access", "ratio"),
    ("hierarchy.memory_accesses_per_access", "ratio"),
    ("sim.walks_per_access", "ratio"),
    ("sim.seq_refs_per_walk", "ratio"),
    ("dmt.direct_ratio", "ratio"),
    ("dmt.fallbacks", "count"),
    ("host.ctx_switches", "count"),
    ("host.tlb_flushes", "count"),
    ("host.reg_hit_rate", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.harness_self_s", "s"),
    ("obs.failed_frac", "ratio"),
    ("obs.cpu_moves", "count"),
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer names are <module>.<metric>: the module is a directory of
# src/ or a counter family the testbeds export; `obs` is the harness.
LAYER_MODULES = ("sim", "core", "workloads", "baselines", "mem", "tlb",
                 "pwc", "cache", "hierarchy", "dmt", "host", "obs")
LAYER_RE = re.compile(r"^(%s)\.[a-z0-9_]+(\.[A-Za-z0-9_-]+)*$"
                      % "|".join(LAYER_MODULES))


def valid_metric_name(name, per_layer):
    """The metric-name grammar of BENCHMARK.json."""
    if not NAME_RE.match(name):
        return False
    return bool(LAYER_RE.match(name)) if per_layer else "." not in name


# ---------------------------------------------------------------------
# Record access
# ---------------------------------------------------------------------

class Run:
    """The parsed records of one dmt-perfbench run."""

    def __init__(self, records):
        self.units = {}
        self.spans = []
        self.results = []
        self.info = {}
        for r in records:
            kind = r["type"]
            if kind == "unit":
                self.units[r["unit"]] = r
            elif kind == "span":
                self.spans.append(r)
            elif kind == "result":
                self.results.append(r)
            elif kind == "run":
                self.info = r

    def of_kind(self, *kinds):
        return [u for u, d in sorted(self.units.items())
                if d["kind"] in kinds]


def _timed(span, traced):
    """Whether a span counts, and with which duration.

    traced=None: every timed sample, inner duration (the call alone).
    traced=True/False: only samples with that instrumentation flag, with
    the outer duration (the call plus its instrumentation).
    """
    if span["warm"]:
        return None
    if traced is None:
        return span["dur"]
    if span["traced"] != traced:
        return None
    return span["outer"]


def unit_best(run, name, traced=None, spans=None):
    """{unit: minimum duration} of span `name` over timed samples.

    `spans` replaces run.spans, e.g. with self times for durations.
    """
    best = {}
    for s in run.spans if spans is None else spans:
        if s["name"] != name:
            continue
        d = _timed(s, traced)
        if d is None:
            continue
        u = s["unit"]
        best[u] = d if u not in best else min(best[u], d)
    return best


def unit_best_per_access(run, name, traced=None):
    """{unit: minimum seconds per access} over full-length spans.

    The last slice of a stream may be short; only spans of the unit's
    largest access count are compared, so every sample is equal work.
    """
    full = {}
    for s in run.spans:
        if s["name"] == name and s["accesses"] > 0:
            full[s["unit"]] = max(full.get(s["unit"], 0), s["accesses"])
    best = {}
    for s in run.spans:
        if s["name"] != name or s["accesses"] != full.get(s["unit"]):
            continue
        d = _timed(s, traced)
        if d is None:
            continue
        per = d / s["accesses"]
        u = s["unit"]
        best[u] = per if u not in best else min(best[u], per)
    return best


def sum_best(best, units, weight=None):
    """Sum of per-unit minimums, each times an optional weight."""
    return sum(best.get(u, 0.0) * (weight(u) if weight else 1)
               for u in units)


def rate(work, best_per_work):
    """Work done divided by the time the per-unit bests imply.

    `work` and `best_per_work` map a unit to its amount of work and its
    best time per unit of work; the rate is sum(work) / sum(best x work).
    """
    total = sum(work.values())
    time = sum(best_per_work[u] * w for u, w in work.items())
    return total / time if time > 0 else 0.0


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    A span's children are the spans of the same unit and sample that
    lie inside its wall-clock interval. Returns a list parallel to
    `spans`.
    """
    groups = {}
    for i, s in enumerate(spans):
        groups.setdefault((s["unit"], s["sample"]), []).append(i)
    out = [s["dur"] for s in spans]
    for idx in groups.values():
        for i in idx:
            a = spans[i]
            a0, a1 = a["t0"], a["t0"] + a["wall"]
            child = 0.0
            for j in idx:
                b = spans[j]
                if j == i or b["wall"] > a["wall"]:
                    continue
                if b["wall"] == a["wall"] and j < i:
                    continue
                if a0 <= b["t0"] and b["t0"] + b["wall"] <= a1:
                    child += b["dur"]
            out[i] = a["dur"] - child
    return out


# ---------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------

def _multiplicity(run, u):
    return run.units[u].get("multiplicity", 1)


def unit_components(run, traced=None):
    """{unit: (set-up, loop, teardown)} best seconds of every unit.

    A cell's loop is its best per-access slice time times its stream
    length. A tenant unit contributes set-up only, once per tenant of
    the node (its multiplicity): the node's destructor tears its
    tenants down, and host.run holds their loops.
    """
    comps = {}
    best = {n: unit_best(run, n, traced) for n in SETUP_SPANS + (
        "sim.teardown", "host.ctor", "host.run", "host.teardown")}
    per_access = unit_best_per_access(run, "sim.advance", traced)
    for u, d in sorted(run.units.items()):
        if d["kind"] == "node":
            comps[u] = tuple(best[n].get(u) for n in (
                "host.ctor", "host.run", "host.teardown"))
            continue
        setup = sum(best[n].get(u, 0.0) for n in SETUP_SPANS)
        if d["kind"] == "tenant":
            comps[u] = (setup * d["multiplicity"], 0.0, 0.0)
        else:
            loop = per_access.get(u)
            comps[u] = (setup,
                        None if loop is None
                        else loop * d["stream_accesses"],
                        best["sim.teardown"].get(u))
    return {u: c for u, c in comps.items() if None not in c}


def trace_overhead(run):
    """Traced over untraced whole-unit best time.

    Summed over the units that have timed samples of both kinds.
    """
    traced = unit_components(run, traced=True)
    plain = unit_components(run, traced=False)
    both = [u for u in traced if u in plain]
    return _ratio(sum(sum(traced[u]) for u in both),
                  sum(sum(plain[u]) for u in both))


def maccess_per_s(run):
    """Simulated accesses per second of best loop time, in millions."""
    work = {u: run.units[u]["stream_accesses"]
            for u in run.of_kind("cell", "node")}
    per = unit_best_per_access(run, "sim.advance")
    best_run = unit_best(run, "host.run")
    for u in run.of_kind("node"):
        per[u] = best_run[u] / work[u]
    return rate(work, per) / 1e6


def end_to_end(run):
    comps = unit_components(run)
    setup, teardown = (sum(c[i] for c in comps.values()) for i in (0, 2))
    # A node's run() already holds the set-up of its tenants.
    cell = sum(sum(c) for u, c in comps.items()
               if run.units[u]["kind"] != "tenant")
    return {
        "setup_s": setup,
        "teardown_s": teardown,
        "cell_s": cell,
        "maccess_per_s": maccess_per_s(run),
        "peak_rss_mb": run.info["peak_rss_kb"] / 1024.0,
    }


# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------

def _first_results(run):
    """{unit: its first result} (verification makes all agree)."""
    out = {}
    for r in sorted(run.results, key=lambda r: r["sample"]):
        out.setdefault(r["unit"], r)
    return out


def _report_cell(report):
    return report["cells"][0] if report and "cells" in report else None


def _ratio(num, den):
    return num / den if den else 0.0


def _traced_min(run, name, key, units):
    """Sum over units of the minimum traced-span delta `key`."""
    best = {}
    for s in run.spans:
        if s["name"] != name or s["warm"] or not s["traced"]:
            continue
        if key not in s["args"]:
            continue
        v = s["args"][key]
        best[s["unit"]] = min(best.get(s["unit"], v), v)
    return sum(best.get(u, 0.0) * _multiplicity(run, u) for u in units)


def per_layer(run, failed_frac):
    cells = run.of_kind("cell")
    tenants = run.of_kind("tenant")
    nodes = run.of_kind("node")
    built = cells + tenants
    mult = lambda u: _multiplicity(run, u)
    m = {}

    # Self time of each span: leaves keep their duration; the root
    # span of a sample keeps the harness time between calls.
    layered = [dict(s, dur=d)
               for s, d in zip(run.spans, self_times(run.spans))]

    def layer(name, units, weight=None):
        return sum_best(unit_best(run, name, spans=layered), units, weight)

    for name in SETUP_SPANS + ("sim.teardown",):
        m[name + "_s"] = layer(name, built, mult)
    m["host.run_s"] = layer("host.run", nodes)
    m["obs.harness_self_s"] = (layer("cell", built, mult) +
                               layer("node", nodes))

    # Every fill sample generates the same number of addresses.
    fill = unit_best_per_access(run, "workloads.trace_fill")
    m["workloads.trace_ns_per_access"] = (
        sum(fill.values()) / len(fill) * 1e9 if fill else 0.0)
    loop = unit_best_per_access(run, "sim.advance")
    for c in LOOP_CELLS:
        env, design = c.split("-")
        match = [u for u in cells
                 if run.units[u]["id"].split("-")[0] == env
                 and run.units[u]["id"].split("-")[2] == design]
        m["sim.loop_ns_per_access." + c] = (
            min(loop[u] for u in match if u in loop) * 1e9
            if any(u in loop for u in match) else 0.0)

    for span, prefix in (("sim.testbed_ctor", "sim.testbed_ctor"),
                         ("workloads.setup", "workloads.setup"),
                         ("sim.teardown", "sim.teardown")):
        m[prefix + ".minflt"] = _traced_min(run, span, "minflt", built)
        m[prefix + ".sys_s"] = _traced_min(run, span, "sys_s", built)

    first = _first_results(run)
    counters = {u: r["counters"] for u, r in first.items()}

    def total(pattern, units=None):
        rx = re.compile(pattern)
        return sum(v * mult(u) for u, c in counters.items()
                   if units is None or u in units
                   for k, v in c.items() if rx.match(k))

    m["mem.physmem.frames_in_use"] = total(r"^physmem\.frames_in_use$")
    m["mem.physmem.words_in_use"] = total(r"^physmem\.words_in_use$")
    m["core.tea.migrations"] = total(r"^tea\.([a-z0-9]+\.)?migrations$")
    m["core.tea.migrated_table_pages"] = total(
        r"^tea\.([a-z0-9]+\.)?migrated_table_pages$")
    m["core.mapping.reconciles"] = total(
        r"^mapping\.([a-z0-9]+\.)?reconciles$")
    m["core.tea.alloc_failures"] = total(
        r"^tea\.([a-z0-9]+\.)?alloc_failures$")
    for name in ("tlb.l1d", "tlb.stlb", "pwc.guest", "pwc.nested",
                 "cache.l1d", "cache.l2", "cache.llc"):
        hits = total("^%s\\.hits$" % re.escape(name))
        misses = total("^%s\\.misses$" % re.escape(name))
        m[name + ".hit_ratio"] = _ratio(hits, hits + misses)
    stream = sum(run.units[u]["stream_accesses"] for u in cells
                 if u in counters)
    m["hierarchy.accesses_per_access"] = _ratio(
        total(r"^hierarchy\.accesses$", cells), stream)
    m["hierarchy.memory_accesses_per_access"] = _ratio(
        total(r"^hierarchy\.memory_accesses$", cells), stream)
    m["dmt.direct_ratio"] = _ratio(total(r"^dmt\.direct$"),
                                   total(r"^dmt\.requests$"))
    m["dmt.fallbacks"] = total(r"^dmt\.fallbacks$")

    # Measure-window walks; a node point reports no sequential refs.
    walks = accesses = seq = cell_walks = 0
    for r in first.values():
        report = r["report"] or {}
        for entry in report.get("cells", []) + report.get("points", []):
            walks += entry["walks"]
            accesses += entry["accesses"]
        for cell in report.get("cells", []):
            seq += cell["seq_refs"]
            cell_walks += cell["walks"]
    m["sim.walks_per_access"] = _ratio(walks, accesses)
    m["sim.seq_refs_per_walk"] = _ratio(seq, cell_walks)

    m["host.ctx_switches"] = total(r"^host\.ctx_switches$", nodes)
    m["host.tlb_flushes"] = total(r"^host\.tlb_flushes$", nodes)
    m["host.reg_hit_rate"] = total(r"^host\.reg_hit_rate$", nodes)

    m["obs.trace_overhead"] = trace_overhead(run)
    m["obs.failed_frac"] = failed_frac
    m["obs.cpu_moves"] = run.info["cpu_moves"]
    return m


# ---------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------

def digest(obj):
    """Canonical SHA-256 of a JSON value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _campaign_key(cell):
    return (cell["env"], cell["workload"], cell["design"], cell["thp"])


def campaign_index(campaign):
    """BENCH_campaign.json cells by (env, workload, design, thp)."""
    return {_campaign_key(c): c for c in campaign["cells"]}


def _reference_problem(run, r, campaign, pinned, sibling):
    """Why result `r` disagrees with its reference, or None."""
    cell = _report_cell(r["report"])
    uid = run.units[r["unit"]]["id"]
    if campaign is not None and cell is not None:
        ref = campaign.get(_campaign_key(cell))
        if ref is None:
            return "%s: no BENCH_campaign.json entry" % uid
        diff = sorted(k for k in set(ref) | set(cell)
                      if ref.get(k) != cell.get(k))
        if diff:
            return "%s: differs from BENCH_campaign.json in %s" % (
                uid, ", ".join(diff))
    if pinned is not None:
        want = pinned.get(uid)
        if want is None:
            return "%s: no pinned digest" % uid
        if result_digest(r) != want:
            return "%s: result digest differs from the pinned one" % uid
    if uid in sibling and result_digest(r) != sibling[uid]:
        return "%s: differs from the other trace mode's run" % uid
    return None


def verify(run, campaign=None, pinned=None, sibling=None):
    """Check every finished unit execution.

    Every execution must agree exactly with the first execution of its
    unit (report and counters). When references apply (the default
    seed), each report is also compared field by field with its
    BENCH_campaign.json cell (`campaign`, from campaign_index) or with
    its pinned digest (`pinned`: {unit id: digest}). `sibling` holds the
    digests of a run of the same workload and seed in the other trace
    mode, whose simulated results must be identical.

    Returns (attempted, failed, problems).
    """
    first = {}
    problems = []
    failed = 0
    for r in sorted(run.results, key=lambda r: (r["unit"], r["sample"])):
        uid = run.units[r["unit"]]["id"]
        body = (r["report"], r["counters"])
        bad = None
        if r["unit"] not in first:
            first[r["unit"]] = body
        elif first[r["unit"]] != body:
            bad = "%s sample %d disagrees with its first sample" % (
                uid, r["sample"])
        if bad is None:
            bad = _reference_problem(run, r, campaign, pinned,
                                     sibling or {})
        if bad is not None:
            failed += 1
            problems.append(bad)
    return len(run.results), failed, problems


def result_digest(result):
    """Digest of one unit execution: its report and its counters."""
    return digest({"report": result["report"],
                   "counters": result["counters"]})


def pinned_digests(run):
    """{unit id: result digest} for pinning a reference run."""
    return {run.units[r["unit"]]["id"]: result_digest(r)
            for r in run.results}


def missing_samples(run):
    """Units without a timed sample of a span their metrics need."""
    need = {"cell": ("sim.testbed_ctor", "sim.teardown", "sim.advance"),
            "tenant": ("sim.testbed_ctor",),
            "node": ("host.ctor", "host.run", "host.teardown")}
    have = {(s["unit"], s["name"]) for s in run.spans if not s["warm"]}
    return ["%s/%s" % (d["id"], n) for u, d in sorted(run.units.items())
            for n in need[d["kind"]] if (u, n) not in have]


# ---------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------

def chrome_trace(run):
    """Spans as Chrome trace-event JSON (one track per unit)."""
    events = []
    for u, d in sorted(run.units.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": u, "args": {"name": d["id"]}})
    for s in run.spans:
        args = dict(s["args"], sample=s["sample"], warm=s["warm"],
                    traced=s["traced"], accesses=s["accesses"],
                    cpu_s=s["dur"])
        events.append({"name": s["name"], "cat": s["name"].split(".")[0],
                       "ph": "X", "pid": 1, "tid": s["unit"],
                       "ts": s["t0"] * 1e6, "dur": s["wall"] * 1e6,
                       "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
