"""Statistics, correctness gate and metric assembly for the checker benchmark.

The cxlbench binary (src/) prints raw samples; this module turns them into the
metrics named in BENCHMARK.json and decides whether a run was correct.
Kept free of I/O so that test_benchlib.py can exercise it directly.
"""

import math
import statistics

# Known answers of the exploration workloads (ProtocolConfig::correct(),
# free run, BFS, POR off).  Symmetry on or off changes the space, the
# thread count and store kind must not.
GOLDENS = {
    "nosym3": {"verdict": "HOLDS", "states": 860925,
               "transitions": 3084858, "diameter": 45},
    "sym3": {"verdict": "HOLDS", "states": 144294,
             "transitions": 517428, "diameter": 45},
}

WORKLOADS = ("nosym3", "sym3", "served")

# name -> unit, in BENCHMARK.json order.  Every workload reports every
# end-to-end metric (README.md gives each one's meaning per workload).
END_TO_END = {
    "wall_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "check_p50_ms": "ms",
    "check_p99_ms": "ms",
    "checks_per_s": "1/s",
}

# name -> (unit, better).  Layers a workload does not pass through
# report 0.
PER_LAYER = {
    "rules.generate_s": ("s", "lower"),
    "rules.generate_calls": ("count", "lower"),
    "rules.successors": ("count", "lower"),
    "state.tid_canon_s": ("s", "lower"),
    "state.sym_canon_s": ("s", "lower"),
    "state.sym_canon_calls": ("count", "lower"),
    "state.hash_s": ("s", "lower"),
    "store.fetch_s": ("s", "lower"),
    "store.insert_s": ("s", "lower"),
    "store.seal_s": ("s", "lower"),
    "store.inserted": ("count", "lower"),
    "store.dedup_ratio": ("ratio", "higher"),
    "store.probe_collisions": ("count", "lower"),
    "store.mapped_mb": ("MB", "lower"),
    "store.file_mb": ("MB", "lower"),
    "invariants.eval_s": ("s", "lower"),
    "invariants.evals": ("count", "lower"),
    "explorer.run_s": ("s", "lower"),
    "explorer.self_s": ("s", "lower"),
    "explorer.parallel_efficiency": ("ratio", "higher"),
    "api.model_build_ms": ("ms", "lower"),
    "api.model_builds": ("count", "lower"),
    "api.session_overhead_ms": ("ms", "lower"),
    "api.render_ms": ("ms", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.hit_p50_ms": ("ms", "lower"),
    "serve.miss_p50_ms": ("ms", "lower"),
    "serve.overhead_p50_ms": ("ms", "lower"),
    "serve.errors": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.layer_coverage": ("ratio", "higher"),
}

# Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10
MB = float(1 << 20)


# ----------------------------------------------------------- statistics

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n):
    """The highest ladder percentile with at least MIN_BEYOND of n
    samples beyond it, or None when not even the median qualifies."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def latency_p99(values):
    """p99 when at least MIN_BEYOND samples lie beyond it; otherwise no
    tail percentile is defensible and the median stands in (the
    exploration workloads time a handful of explorations per run)."""
    tail = tail_percentile(len(values))
    if tail is not None and tail >= 99.0:
        return percentile(values, 99.0)
    return median(values)


# ------------------------------------------------------- correctness gate

def gate_exploration(workload, run):
    """Problems with one exploration against the workload's golden."""
    golden = GOLDENS[workload]
    problems = []
    verdict = run["verdict"].split(" ", 1)[0]
    if verdict != golden["verdict"]:
        problems.append("verdict %s, want %s" % (verdict, golden["verdict"]))
    for key in ("states", "transitions", "diameter"):
        if run[key] != golden[key]:
            problems.append("%s %d, want %d" % (key, run[key], golden[key]))
    return problems


# ------------------------------------------------------------- summaries

def unit_walls(raw):
    """Wall time of each unit of work in a run: an exploration's
    engine seconds, or a served pass."""
    if raw["workload"] == "served":
        return [p["wall_s"] for p in raw["passes"]]
    return [r["seconds"] for r in raw["runs"]]


def served_round(passes):
    """(wall, requests, states) of one round over every slice at its
    typical speed: each slice's median pass wall, summed.  Slices
    differ in their cases, so a plain median over passes would hang
    on which slices a run happened to repeat, and one stalled pass
    would weigh on a sum over passes."""
    by_slice = {}
    for p in passes:
        by_slice.setdefault(p.get("slice", 0), []).append(p)
    wall = sum(median([p["wall_s"] for p in ps])
               for ps in by_slice.values())
    requests = sum(ps[0]["requests"] for ps in by_slice.values())
    states = sum(ps[0]["states"] for ps in by_slice.values())
    return wall, requests, states


def _metric(name, value):
    return {"value": value, "unit": END_TO_END[name]}


def _layer(name, value):
    return {"value": value, "unit": PER_LAYER[name][0]}


def summarize_exploration(workload, raw, trace):
    """(metrics, attempted, failed, problems) for nosym3 / sym3."""
    runs = raw["runs"]
    # The untimed warm-up exploration is gated like the timed ones.
    checked = runs + ([raw["warmup"]] if "warmup" in raw else [])
    problems = []
    failed = 0
    for i, run in enumerate(checked):
        bad = gate_exploration(workload, run)
        if bad:
            failed += 1
            problems.append("run %d: %s" % (i, "; ".join(bad)))
    attempted = len(checked)
    if not trace:
        calls = [r["call_s"] for r in runs]
        wall = median(unit_walls(raw))
        metrics = {
            "wall_s": _metric("wall_s", wall),
            "states_per_s": _metric("states_per_s", runs[0]["states"] / wall),
            "peak_rss_mb": _metric("peak_rss_mb", raw["peak_rss_bytes"] / MB),
            "setup_s": _metric("setup_s", median(raw["setup_s"])),
            "check_p50_ms": _metric("check_p50_ms", median(calls) * 1e3),
            "check_p99_ms": _metric("check_p99_ms", latency_p99(calls) * 1e3),
            # One check at a time: the loop's rate is the inverse of
            # its typical check (a count over the span would move in
            # whole-exploration steps).
            "checks_per_s": _metric("checks_per_s", 1.0 / median(calls)),
        }
        return metrics, attempted, failed, problems

    # The replay itself already had to match the engine run (the
    # binary exits 3 otherwise); count it as one more checked operation.
    run, rep = runs[0], raw["replay"]
    attempted += 1
    layers = rep["layers_s"]
    busy = sum(layers.values())
    values = dict.fromkeys(PER_LAYER, 0)
    values.update({
        "rules.generate_s": layers["generate"],
        "rules.generate_calls": rep["generate_calls"],
        "rules.successors": rep["transitions"],
        "state.tid_canon_s": layers["tid_canon"],
        "state.sym_canon_s": layers["sym_canon"],
        "state.sym_canon_calls": rep["sym_canon_calls"],
        "state.hash_s": layers["hash"],
        "store.fetch_s": layers["fetch"],
        "store.insert_s": layers["insert"],
        "store.seal_s": layers["seal"],
        "store.inserted": rep["inserted"],
        "store.dedup_ratio": rep["inserted"] / rep["transitions"],
        "store.probe_collisions": max(run["probe_collisions"],
                                      rep["probe_collisions"]),
        "store.mapped_mb": run["mapped_bytes"] / MB,
        "store.file_mb": run["file_bytes"] / MB,
        "invariants.eval_s": layers["invariants"],
        "invariants.evals": rep["invariant_evals"],
        "explorer.run_s": run["seconds"],
        "explorer.self_s": rep["wall_s"] - busy,
        "explorer.parallel_efficiency":
            busy / (run["threads"] * run["seconds"]),
        "api.model_build_ms": median(raw["model_build_s"]) * 1e3,
        "api.model_builds": raw["model_builds"],
        "api.session_overhead_ms": (run["call_s"] - run["seconds"]) * 1e3,
        "api.render_ms": raw["render_s"] * 1e3,
        "trace.wall_s": rep["wall_s"],
        "trace.overhead_s": rep["wall_s"] - run["seconds"],
        "trace.layer_coverage": busy / rep["wall_s"],
    })
    return ({k: _layer(k, v) for k, v in values.items()},
            attempted, failed, problems)


def summarize_served(raw, trace):
    """(metrics, attempted, failed, problems) for served."""
    latency = raw["latency_s"]
    ok = raw["ok"]
    attempted = len(latency)
    failed = attempted - sum(ok)
    problems = ["request: %s" % e for e in raw["failure_examples"]]
    problems += ["reference: %s" % e for e in raw["reference_errors"]]
    if attempted < 1000:
        problems.append("only %d requests; p99 needs 1000" % attempted)
    passes = raw["passes"]
    if not trace:
        wall, requests, states = served_round(passes)
        slices = len({p.get("slice", 0) for p in passes})
        metrics = {
            "wall_s": _metric("wall_s", wall / slices),
            "states_per_s": _metric("states_per_s", states / wall),
            # Each pass's own server, from a trimmed heap.
            "peak_rss_mb": _metric("peak_rss_mb", median(
                [p["peak_rss_bytes"] for p in passes]) / MB),
            "setup_s": _metric("setup_s", median(raw["setup_s"])),
            "check_p50_ms": _metric("check_p50_ms", median(latency) * 1e3),
            "check_p99_ms": _metric("check_p99_ms",
                                    latency_p99(latency) * 1e3),
            "checks_per_s": _metric("checks_per_s", requests / wall),
        }
        return metrics, attempted, failed, problems

    cached = raw["cached"]
    hits = [l for l, c in zip(latency, cached) if c]
    misses = [l for l, c in zip(latency, cached) if not c]
    overhead = [l - s for l, s, c, good in
                zip(latency, raw["payload_seconds"], cached, ok)
                if good and not c]
    api = raw["api"]
    values = dict.fromkeys(PER_LAYER, 0)
    values.update({
        "explorer.run_s": api["engine_s"],
        "api.model_build_ms": median(api["model_build_s"]) * 1e3,
        "api.model_builds": api["model_builds"],
        "api.session_overhead_ms": median(api["session_overhead_s"]) * 1e3,
        "api.render_ms": median(api["render_s"]) * 1e3,
        "serve.cache_hit_ratio": len(hits) / attempted,
        "serve.hit_p50_ms": median(hits) * 1e3 if hits else 0,
        "serve.miss_p50_ms": median(misses) * 1e3 if misses else 0,
        "serve.overhead_p50_ms": median(overhead) * 1e3 if overhead else 0,
        "serve.errors": raw["server_errors"],
        "serve.rejected": raw["server_rejected"],
        "trace.wall_s": sum(p["wall_s"] for p in passes),
    })
    return ({k: _layer(k, v) for k, v in values.items()},
            attempted, failed, problems)


def summarize(workload, raw, trace):
    if workload == "served":
        return summarize_served(raw, trace)
    return summarize_exploration(workload, raw, trace)
