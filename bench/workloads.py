"""The three benchmark workloads, their inputs, one measured pass each, and
the correctness gate.

Every workload is a closed loop with one client: each call is issued after
the previous one returned.  Library calls go through module attributes at
call time (``tl.max_tilde``, ``cli.main``), so the traced run sees them.

Independent re-checks here never reuse the library's own verification
path: windows are recounted directly from the witness masks, and the
library's kernels are only consulted as a second, different path.  All
checks run outside the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter

import tracelab as tl
import tracelab.cli as tlcli
from tracer import Tracer

WORKLOADS = ("proof-ladder", "frontier", "family-pipeline")

# window size of the family-pipeline trace scan
PIPELINE_K = 3
FRONTIER_BUDGET_NODES = 50_000
# large enough that the node budget is always what stops a rung
FRONTIER_BUDGET_SECS = 1e6


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    """One search call.  ``mode`` selects the re-check, ``params`` its
    parameters; ``ref`` is the known optimum (None when unknown)."""

    name: str
    mode: str
    params: dict
    ref: int | None
    argv: tuple = ()  # command line, for frontier rungs


def _ladder(scale: str) -> list[Instance]:
    if scale == "tiny":
        return [
            Instance("tilde-6-7", "tilde", {"n": 6, "c": 7}, 16),
            Instance("downset-6-3-7", "downset", {"n": 6, "a": 3, "b": 7}, 16),
            Instance("antichain-4-1", "antichain", {"n": 4, "k": 1}, 4),
            Instance("cancellative-3-5", "cancellative", {"n": 5, "l": 3}, 4),
            Instance("ex3-k4-5", "ex3", {"n": 5}, 7),
        ]
    return [
        Instance("tilde-8-7", "tilde", {"n": 8, "c": 7}, 28),
        Instance("tilde-9-5", "tilde", {"n": 9, "c": 5}, 20),
        Instance("downset-8-4-13", "downset", {"n": 8, "a": 4, "b": 13}, 48),
        Instance("antichain-6-2", "antichain", {"n": 6, "k": 2}, 15),
        Instance("cancellative-3-8", "cancellative", {"n": 8, "l": 3}, 18),
        Instance("ex3-k4-7", "ex3", {"n": 7}, 23),
    ]


def _frontier(scale: str) -> list[Instance]:
    nodes = 300 if scale == "tiny" else FRONTIER_BUDGET_NODES
    budget = ("--budget-nodes", str(nodes), "--budget-secs", str(FRONTIER_BUDGET_SECS))
    rungs = [
        Instance("downset-9-4-13", "downset", {"n": 9, "a": 4, "b": 13}, None,
                 ("search", "--n", "9", "--a", "4", "--b", "13")),
        # reference: mtilde_formula(5, 10) - 1
        Instance("tilde-10-5", "tilde", {"n": 10, "c": 5}, 25,
                 ("search", "--mode", "tilde", "--n", "10", "--c", "5")),
        Instance("cancellative-3-9", "cancellative", {"n": 9, "l": 3}, 27,
                 ("cancellative", "--n", "9", "--l", "3")),
        Instance("trianglefree-10", "cancellative", {"n": 10, "l": 2}, 25,
                 ("cancellative", "--n", "10", "--l", "2")),
        # reference: the averaging bound floor(8 * 23 / 5), met by a known witness
        Instance("ex3-k4-8", "ex3", {"n": 8}, 36,
                 ("ex3", "--n", "8", "--pattern", "k4")),
    ]
    return [Instance(r.name, r.mode, r.params, r.ref, r.argv + budget) for r in rungs]


def _library_call(inst: Instance):
    p = inst.params
    if inst.mode == "tilde":
        return tl.max_tilde(tl.ArrowQuery.tilde(p["n"], p["c"]))
    if inst.mode == "downset":
        return tl.max_family(tl.ArrowQuery.downset(p["n"], p["a"], p["b"]))
    if inst.mode == "antichain":
        return tl.max_antichain(tl.ArrowQuery.antichain(p["n"], p["k"]))
    if inst.mode == "cancellative":
        return tl.max_cancellative(p["n"], p["l"])
    return tl.ex3(p["n"], tl.Pattern.K_COMPLETE)


# ---------------------------------------------------------------------------
# family-pipeline inputs


@dataclass(frozen=True)
class PipelineInput:
    """A family as plain masks plus the symmetrization pair (x, y); no
    member contains both x and y, and compression keeps it that way."""

    name: str
    n: int
    masks: tuple[int, ...]
    x: int
    y: int


def random_stream(seed: int, count: int = 120) -> list[PipelineInput]:
    """``count`` random families on n = 10..16 (cycling), each of 30n draws
    of members with 1..6 elements.  Sizes are fixed by position so that the
    seed changes contents, not the amount of work.  Their compute-bound work
    is about a third of a pass, which damps the run-to-run spread of the
    memory-bound partite families below the index cutoff."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 10 + i % 7
        x, y = sorted(rng.sample(range(1, n + 1), 2))
        both = (1 << (x - 1)) | (1 << (y - 1))
        masks = set()
        for _ in range(30 * n):
            m = 0
            for b in rng.sample(range(n), rng.randint(1, 6)):
                m |= 1 << b
            if m & both == both:
                m ^= 1 << (y - 1)
            masks.add(m)
        out.append(PipelineInput(f"random-{i}", n, tuple(sorted(masks)), x, y))
    return out


def partite_stream(ns) -> list[PipelineInput]:
    """partite_family(n, 3); elements 1 and 2 share the first block, so no
    member holds both."""
    out = []
    for n in ns:
        fam = tl.partite_family(n, 3)
        out.append(PipelineInput(f"partite-{n}-3", n, fam.members, 1, 2))
    return out


# ---------------------------------------------------------------------------
# workload inputs


@dataclass
class Inputs:
    workload: str
    instances: list = field(default_factory=list)
    families: list = field(default_factory=list)
    # first verified output of each family, to compare later passes against
    expected: dict = field(default_factory=dict)


def build(workload: str, seed: int, scale: str = "full") -> Inputs:
    """Everything a pass needs.  The seed drives only the family stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inp = Inputs(workload)
    if workload == "proof-ladder":
        inp.instances = _ladder(scale)
    elif workload == "frontier":
        inp.instances = _frontier(scale)
    elif scale == "tiny":
        inp.families = random_stream(seed, count=6) + partite_stream(range(12, 14))
    else:
        inp.families = random_stream(seed) + partite_stream(range(20, 27))
    return inp


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Call:
    """Outcome of one public call."""

    name: str
    seconds: float
    ok: bool
    error: str | None = None
    optimum: int | None = None
    proved: bool | None = None
    nodes: int | None = None
    ref: int | None = None


def run_pass(inp: Inputs, tracer: Tracer | None = None) -> list[Call]:
    """One closed-loop pass over the workload's calls.  Without a tracer
    (or with tracing off) no span is recorded."""
    tracer = tracer or Tracer()
    if inp.workload == "proof-ladder":
        return [_run_ladder_call(inst, tracer) for inst in inp.instances]
    if inp.workload == "frontier":
        return [_run_frontier_call(inst, tracer) for inst in inp.instances]
    return [_run_family(fi, inp.expected, tracer) for fi in inp.families]


def _nodes_of(obj):
    """Node count of a result object or CLI result dict, at the top level or
    under ``stats``."""
    if isinstance(obj, dict):
        if "nodes" in obj:
            return obj["nodes"]
        return (obj.get("stats") or {}).get("nodes")
    if hasattr(obj, "nodes"):
        return obj.nodes
    stats = getattr(obj, "stats", None)
    return getattr(stats, "nodes", None)


def _with_tracing_off(tracer, fn, *args):
    was, tracer.on = tracer.on, False
    try:
        return fn(*args)
    finally:
        tracer.on = was


def _run_ladder_call(inst: Instance, tracer) -> Call:
    tracer.query = inst.name
    t0 = perf_counter()
    try:
        with tracer.span("search.query"):
            res = _library_call(inst)
    except Exception as exc:  # a raising call is a failed call, not a crash
        return Call(inst.name, perf_counter() - t0, False, f"raised {exc!r}", ref=inst.ref)
    dt = perf_counter() - t0
    witness = _witness_masks(res.witness)
    call = Call(inst.name, dt, True, None, res.optimum, res.proved_optimal, _nodes_of(res), inst.ref)
    call.error = _with_tracing_off(tracer, check_search_call, inst, call, *witness)
    call.ok = call.error is None
    return call


def _run_frontier_call(inst: Instance, tracer) -> Call:
    tracer.query = inst.name
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.main"):
                code = tlcli.main(list(inst.argv))
    except Exception as exc:  # a raising call is a failed call, not a crash
        return Call(inst.name, perf_counter() - t0, False, f"raised {exc!r}", ref=inst.ref)
    dt = perf_counter() - t0
    if code not in (0, 3):
        return Call(inst.name, dt, False, f"exit code {code}: {err.getvalue().strip()}", ref=inst.ref)
    try:
        obj = json.loads(out.getvalue().strip().splitlines()[-1])
        witness = _witness_from_json(obj["witness"])
        call = Call(inst.name, dt, True, None, obj["optimum"], obj["proved_optimal"], _nodes_of(obj), inst.ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Call(inst.name, dt, False, f"unreadable output: {exc!r}", ref=inst.ref)
    if call.proved != (code == 0):
        return Call(inst.name, dt, False, f"exit code {code} disagrees with proved_optimal", ref=inst.ref)
    call.error = _with_tracing_off(tracer, check_search_call, inst, call, *witness)
    call.ok = call.error is None
    return call


def _pipeline(fam, x: int, y: int):
    red = tl.downset_compress(fam)
    down = tl.is_downset(red)
    tm = tl.max_trace_over_ksets(red, PIPELINE_K)
    ps = tl.partition_classes(red)
    sym = tl.symmetrize_if_profitable(red, x, y)
    return red, down, tm, ps, sym


def _run_family(fi: PipelineInput, expected: dict, tracer) -> Call:
    tracer.query = fi.name
    # a fresh family object per call: cached membership data never carries over
    fam = tl.SetFamily(fi.n, tuple(sorted(fi.masks, key=lambda m: (m.bit_count(), m))))
    t0 = perf_counter()
    try:
        with tracer.span("pipeline.family"):
            red, down, tm, ps, sym = _pipeline(fam, fi.x, fi.y)
    except Exception as exc:  # a raising call is a failed call, not a crash
        return Call(fi.name, perf_counter() - t0, False, f"raised {exc!r}")
    dt = perf_counter() - t0
    digest = (red.members, down, tuple(tm), ps.classes, ps.aux.members, sym.members)
    if fi.name in expected:
        error = None if expected[fi.name] == digest else "output differs from the first pass"
    else:
        error = check_family_call(fi, red, down, tm, ps, sym)
        if error is None:
            expected[fi.name] = digest
    return Call(fi.name, dt, error is None, error)


# ---------------------------------------------------------------------------
# correctness gate


def _witness_masks(w) -> tuple[int, list[int]]:
    if hasattr(w, "g2"):
        return w.n, list(w.g2.members) + list(w.g3.members)
    return w.n, list(w.members)


def _witness_from_json(obj: dict) -> tuple[int, list[int]]:
    sets = obj["sets"] if "sets" in obj else list(obj["g2"]) + list(obj["g3"])
    masks = []
    for s in sets:
        m = 0
        for e in s:
            m |= 1 << (e - 1)
        masks.append(m)
    return int(obj["n"]), masks


def windows(n: int, k: int):
    for combo in combinations(range(n), k):
        y = 0
        for b in combo:
            y |= 1 << b
        yield y


def max_trace(masks, n: int, k: int) -> int:
    """Largest trace on a k-window, recounted directly."""
    return max((len({m & y for m in masks}) for y in windows(n, k)), default=0)


def max_inside(masks, n: int, k: int) -> int:
    """Most members inside one k-window, recounted directly."""
    return max((sum(1 for m in masks if m & y == m) for y in windows(n, k)), default=0)


def is_down_closed(masks) -> bool:
    have = set(masks)
    for m in have:
        b = m
        while b:
            low = b & -b
            if m ^ low not in have:
                return False
            b ^= low
    return True


def is_cancellative_direct(masks, l: int) -> bool:
    for i, h1 in enumerate(masks):
        for h2 in masks[i + 1:]:
            if (h1 & h2).bit_count() != l - 1:
                continue
            d = h1 ^ h2
            if any(d & h3 == d for h3 in masks):
                return False
    return True


def _witness_error(inst: Instance, n: int, masks: list[int]) -> str | None:
    p = inst.params
    if len(set(masks)) != len(masks):
        return "witness repeats a member"
    if inst.mode == "downset":
        if any(m.bit_count() >= p["a"] for m in masks) or not is_down_closed(masks):
            return "witness is not a down-set below level a"
        own = max_trace(masks, n, p["a"])
        lib = tl.max_trace_over_ksets(tl.SetFamily.from_masks(n, masks), p["a"]).max
        if own != lib or own >= p["b"]:
            return f"window trace {own} (library {lib}) reaches b={p['b']}"
    elif inst.mode == "tilde":
        pairs = {m for m in masks if m.bit_count() == 2}
        triples = [m for m in masks if m.bit_count() == 3]
        if len(pairs) + len(triples) != len(masks):
            return "witness holds a set that is neither pair nor triple"
        for t in triples:
            b = t
            while b:
                low = b & -b
                if t ^ low not in pairs:
                    return "witness is not complete (a triple misses a shadow pair)"
                b ^= low
        own = max_inside(masks, n, 4)
        tf = tl.TildeFamily(n, tl.SetFamily.from_masks(n, pairs), tl.SetFamily.from_masks(n, triples))
        lib = tl.hook_count_max(tf).max
        if own != lib or own >= p["c"]:
            return f"4-window count {own} (library {lib}) reaches c={p['c']}"
    elif inst.mode == "antichain":
        if any(a != b and a & b == a for a in masks for b in masks):
            return "witness is not an antichain"
        k1 = p["k"] + 1
        own = max_trace(masks, n, k1)
        lib = tl.max_trace_over_ksets(tl.SetFamily.from_masks(n, masks), k1).max if masks else 0
        if own != lib or own >= 1 << k1:
            return f"a {k1}-window is shattered (trace {own}, library {lib})"
    elif inst.mode == "cancellative":
        if any(m.bit_count() != p["l"] for m in masks) or not is_cancellative_direct(masks, p["l"]):
            return "witness is not a cancellative uniform family"
    elif inst.mode == "ex3":
        if any(m.bit_count() != 3 for m in masks) or max_inside(masks, n, 4) > 3:
            return "witness spans a K4 on some 4-window"
    return None


def check_search_call(inst: Instance, call: Call, n: int, masks: list[int]) -> str | None:
    """None when the call's answer survives the independent re-check."""
    if len(masks) != call.optimum:
        return f"witness size {len(masks)} differs from optimum {call.optimum}"
    err = _witness_error(inst, n, masks)
    if err:
        return err
    if inst.ref is not None:
        if call.proved and call.optimum != inst.ref:
            return f"proved optimum {call.optimum} differs from reference {inst.ref}"
        if call.optimum > inst.ref:
            return f"incumbent {call.optimum} exceeds reference {inst.ref}"
    return None


def check_family_call(fi: PipelineInput, red, down, tm, ps, sym) -> str | None:
    """None when every pipeline output passes the direct re-check."""
    if len(red) != len(fi.masks):
        return f"compression changed the size {len(fi.masks)} -> {len(red)}"
    if not is_down_closed(red.members) or down is not True:
        return "compressed family is not a down-set (or is_downset said otherwise)"
    before = max_trace(fi.masks, fi.n, PIPELINE_K)
    after = max_trace(red.members, fi.n, PIPELINE_K)
    if after > before or tm.max != after:
        return f"max trace {before} -> {after}, library reports {tm.max}"
    union = 0
    for z in ps.classes:
        if z & union:
            return "partition classes overlap"
        union |= z
    if union != (1 << fi.n) - 1:
        return "partition classes do not cover the ground set"
    if not is_down_closed(sym.members) or len(sym) < len(red):
        return "symmetrization lost the down-set property or shrank the family"
    return None
