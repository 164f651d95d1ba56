"""Turning measured calls and recorded spans into named metrics."""

from __future__ import annotations

from statistics import median

from tracer import self_time_by_kind

NS = 1e-9

# every search instance of the two search workloads, for per-instance metrics
INSTANCE_NAMES = (
    "tilde-8-7", "tilde-9-5", "downset-8-4-13", "antichain-6-2", "cancellative-3-8", "ex3-k4-7",
    "downset-9-4-13", "tilde-10-5", "cancellative-3-9", "trianglefree-10", "ex3-k4-8",
)

_SEARCH_BUILDERS = tuple(
    f"tracelab.search.{b}"
    for b in ("_build_downset_state", "_build_tilde_state", "_build_uniform_window_state", "_build_antichain_state")
)
_CLI_CALLS = ("tracelab.cli.run_query", "tracelab.cli.ex3", "tracelab.cli.max_cancellative")
_VERIFY = (
    "tracelab.setcore.is_downset", "tracelab.setcore.arrows",
    "tracelab.setcore.is_antichain", "tracelab.constructions.hookarrow",
)

# span-derived metric -> the wrapped names it measures; absent if any is missing
NEEDS = {
    "search.build_s": _SEARCH_BUILDERS,
    "search.dfs_s": _CLI_CALLS,
    "search.nodes_per_s": _CLI_CALLS,
    "search.verify_s": _VERIFY,
    "perm.canonicalize_s": ("tracelab.search._canonicalize",),
    "perm.canonicalize_calls": ("tracelab.search._canonicalize",),
    "perm.stabilizer_s": ("tracelab._perm.mask_stabilizer",),
    "perm.stabilizer_calls": ("tracelab._perm.mask_stabilizer",),
    "perm.apply_calls": ("tracelab._perm.apply_perm",),
    "cancellative.build_s": ("tracelab.cancellative_turan._build_cancellative_state",),
    "cancellative.verify_s": (
        "tracelab.cancellative_turan.is_cancellative", "tracelab.cancellative_turan.pattern_free",
    ),
    "cli.overhead_s": _CLI_CALLS,
    "setcore.is_downset_s": ("tracelab.setcore.is_downset",),
    "setcore.from_masks_s": ("tracelab.setcore.SetFamily.from_masks",),
    "setcore.from_masks_calls": ("tracelab.setcore.SetFamily.from_masks",),
    "setcore.trace_scan_s": ("tracelab.setcore.max_trace_over_ksets",),
    "setcore.trace_windows": ("tracelab.setcore.max_trace_over_ksets",),
    "transforms.compress_s": ("tracelab.transforms.downset_compress",),
    "transforms.downshift_calls": ("tracelab.transforms.downshift",),
    "transforms.downshift_useful_ratio": ("tracelab.transforms.downshift",),
    "transforms.partition_s": ("tracelab.transforms.partition_classes",),
    "transforms.symmetrize_s": ("tracelab.transforms.symmetrize_if_profitable",),
    "constructions.partite_s": ("tracelab.constructions.partite_family",),
}

# metric-name suffix -> unit, most specific first; anything else is a count
_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), (".s", "s"), ("_s", "s"),
          ("_frac", "ratio"), ("_ratio", "ratio"), ("_mb", "MiB"))


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# percentiles


def percentile(values, p: float) -> float:
    """p-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile_supported(count: int, p: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return round(count * (100.0 - p) / 100.0, 9) >= 10


def latency_summary(seconds) -> dict:
    """Sample count, and the 50th and 90th percentiles in ms where the
    sample count supports them."""
    ms = [s * 1000.0 for s in seconds]
    out = {"samples": len(ms)}
    for p in (50, 90):
        if percentile_supported(len(ms), p):
            out[f"p{p}_ms"] = percentile(ms, p)
    return out


# ---------------------------------------------------------------------------
# per-pass results


def pass_seconds(calls) -> float:
    return sum(c["seconds"] for c in calls)


def solve_seconds(passes) -> float:
    """Each call's median wall time over the passes, summed over the calls.
    A slow pass then moves no call's figure by itself."""
    return sum(median(c["seconds"] for c in same_call) for same_call in zip(*passes))


def search_totals(calls) -> dict:
    """Nodes, proved count and incumbent gap of one pass of search calls."""
    nodes = sum(c["nodes"] or 0 for c in calls)
    proved = sum(1 for c in calls if c["proved"])
    gap = sum(c["ref"] - c["optimum"] for c in calls if c["ref"] is not None and c["optimum"] is not None)
    return {"nodes": nodes, "proved": proved, "incumbent_gap": gap}


def instance_metrics(passes) -> dict:
    """search.<instance>.s (median over passes) and .nodes (first pass)
    for every instance name; zero for instances this workload does not run."""
    out = {}
    for name in INSTANCE_NAMES:
        secs = [c["seconds"] for p in passes for c in p if c["name"] == name]
        nodes = [c["nodes"] for c in passes[0] if c["name"] == name]
        out[f"search.{name}.s"] = median(secs) if secs else 0.0
        out[f"search.{name}.nodes"] = (nodes[0] or 0) if nodes else 0
    return out


# ---------------------------------------------------------------------------
# span-derived layer metrics


def span_metrics(spans, counts, setup_spans, calls, missing) -> dict:
    """Layer self times and counts from one traced pass.  A metric whose
    wrapped names are missing from the library is left out."""
    selfs = {k: v * NS for k, v in self_time_by_kind(spans).items()}
    ncalls: dict[str, int] = {}
    for row in spans:
        ncalls[row[0]] = ncalls.get(row[0], 0) + 1
    setup_selfs = {k: v * NS for k, v in self_time_by_kind(setup_spans).items()}
    nodes = sum(c["nodes"] or 0 for c in calls)
    dfs = selfs.get("search.query", 0.0)
    downshifts = counts.get("transforms.downshift", 0)
    out = {
        "search.build_s": selfs.get("search.build", 0.0),
        "search.dfs_s": dfs,
        "search.nodes_per_s": nodes / dfs if dfs > 0 else 0.0,
        "search.verify_s": selfs.get("search.verify", 0.0),
        "perm.canonicalize_s": selfs.get("perm.canonicalize", 0.0),
        "perm.canonicalize_calls": ncalls.get("perm.canonicalize", 0),
        "perm.stabilizer_s": selfs.get("perm.stabilizer", 0.0),
        "perm.stabilizer_calls": ncalls.get("perm.stabilizer", 0),
        "perm.apply_calls": counts.get("perm.apply", 0),
        "cancellative.build_s": selfs.get("cancellative.build", 0.0),
        "cancellative.verify_s": selfs.get("cancellative.verify", 0.0),
        "cli.overhead_s": selfs.get("cli.main", 0.0),
        "setcore.is_downset_s": selfs.get("setcore.is_downset", 0.0),
        "setcore.from_masks_s": selfs.get("setcore.from_masks", 0.0),
        "setcore.from_masks_calls": ncalls.get("setcore.from_masks", 0),
        "setcore.trace_scan_s": selfs.get("setcore.trace_scan", 0.0),
        "setcore.trace_windows": counts.get("setcore.trace_windows", 0),
        "transforms.compress_s": selfs.get("transforms.compress", 0.0),
        "transforms.downshift_calls": downshifts,
        "transforms.downshift_useful_ratio": (
            counts.get("transforms.downshift_useful", 0) / downshifts if downshifts else 0.0
        ),
        "transforms.partition_s": selfs.get("transforms.partition", 0.0),
        "transforms.symmetrize_s": selfs.get("transforms.symmetrize", 0.0),
        "constructions.partite_s": setup_selfs.get("constructions.partite", 0.0),
    }
    gone = set(missing)
    return {k: v for k, v in out.items() if not gone.intersection(NEEDS.get(k, ()))}
