"""Outside-in tracing for the benchmark's traced run.

Nothing in the library is edited.  Instead the tracer replaces selected
module-level names with thin wrappers, in every ``tracelab`` namespace that
holds the original object, and restores them afterwards.  A wrapper either
records a span (name, start, end, parent, query id) or only bumps a counter,
for functions called millions of times per run.

Spans stay in memory; the caller writes them out when the run ends.  Times
are integer nanoseconds from ``perf_counter_ns``, so self times of a query
sum to its span exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from dataclasses import dataclass, field
from math import comb
from time import perf_counter_ns

SPAN = "span"
COUNT = "count"


@dataclass(frozen=True)
class Target:
    """One library name to wrap.

    ``kind`` names the span (or counter); ``roles`` renames it in given
    namespaces, so a predicate called by the search is a verification span
    while the same predicate called elsewhere is a set-family kernel.
    ``own`` also wraps the defining module's own binding, for names the
    owner calls itself; ``only`` restricts wrapping to the listed modules.
    """

    module: str
    name: str
    kind: str
    mode: str = SPAN
    own: bool = False
    roles: dict = field(default_factory=dict)
    only: tuple = ()


_SEARCH = "tracelab.search"
_CANC = "tracelab.cancellative_turan"
_VERIFY_ROLES = {_SEARCH: "search.verify", _CANC: "cancellative.verify"}

TARGETS = (
    # state builders, resolved by name at call time inside the search module
    Target(_SEARCH, "_build_downset_state", "search.build", own=True),
    Target(_SEARCH, "_build_tilde_state", "search.build", own=True),
    Target(_SEARCH, "_build_uniform_window_state", "search.build", own=True),
    Target(_SEARCH, "_build_antichain_state", "search.build", own=True),
    Target(_CANC, "_build_cancellative_state", "cancellative.build", own=True),
    # permutation-group work
    Target(_SEARCH, "_canonicalize", "perm.canonicalize", own=True),
    Target("tracelab._perm", "mask_stabilizer", "perm.stabilizer"),
    Target("tracelab._perm", "apply_perm", "perm.apply", mode=COUNT, own=True),
    # independent re-verification of witnesses
    Target("tracelab.setcore", "is_downset", "setcore.is_downset", roles=_VERIFY_ROLES),
    Target("tracelab.setcore", "arrows", "search.verify", only=(_SEARCH,)),
    Target("tracelab.setcore", "is_antichain", "search.verify", only=(_SEARCH,)),
    Target("tracelab.constructions", "hookarrow", "search.verify", only=(_SEARCH,)),
    Target(_CANC, "is_cancellative", "cancellative.verify", own=True),
    Target(_CANC, "pattern_free", "cancellative.verify", own=True),
    # set-family kernels and transforms
    Target("tracelab.setcore", "max_trace_over_ksets", "setcore.trace_scan"),
    Target("tracelab.transforms", "downset_compress", "transforms.compress"),
    Target("tracelab.transforms", "downshift", "transforms.downshift", mode=COUNT, own=True),
    Target("tracelab.transforms", "partition_classes", "transforms.partition"),
    Target("tracelab.transforms", "symmetrize_if_profitable", "transforms.symmetrize"),
    Target("tracelab.constructions", "partite_family", "constructions.partite"),
    # library calls made by the command-line layer
    Target("tracelab.cli", "run_query", "search.query", own=True, only=("tracelab.cli",)),
    Target("tracelab.cli", "ex3", "search.query", own=True, only=("tracelab.cli",)),
    Target("tracelab.cli", "max_cancellative", "search.query", own=True, only=("tracelab.cli",)),
)


class Tracer:
    """Span and counter recorder.  ``spans`` rows are
    ``[name, start_ns, end_ns, parent_index, query]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.query = None
        self.on = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter_ns(), None, parent, self.query])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over what was recorded so far and start empty."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, kind: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self._begin(kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if kind == "setcore.trace_scan":
                fam = args[0]
                k = args[1] if len(args) > 1 else kwargs["k"]
                self.bump("setcore.trace_windows", comb(fam.n, k))
            return out

        return wrapper

    def _count_wrapper(self, fn, kind: str):
        if kind == "transforms.downshift":

            @functools.wraps(fn)
            def wrapper(fam, i):
                out = fn(fam, i)
                if self.on:
                    self.bump(kind)
                    if out.members != fam.members:
                        self.bump("transforms.downshift_useful")
                return out

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args):
            if self.on:
                c = self.counts
                c[kind] = c.get(kind, 0) + 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every namespace holding it.  A target whose
        module or name no longer exists is listed in ``missing``."""
        for t in targets:
            owner = sys.modules.get(t.module)
            fn = getattr(owner, t.name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{t.module}.{t.name}")
                continue
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == "tracelab" or mod_name.startswith("tracelab.")):
                    continue
                if mod.__dict__.get(t.name) is not fn:
                    continue
                if mod is owner and not t.own:
                    continue
                if t.only and mod_name not in t.only:
                    continue
                kind = t.roles.get(mod_name, t.kind)
                make = self._count_wrapper if t.mode == COUNT else self._span_wrapper
                self._patch(mod, t.name, make(fn, kind))
        self._install_from_masks()

    def _install_from_masks(self) -> None:
        setcore = sys.modules.get("tracelab.setcore")
        cls = getattr(setcore, "SetFamily", None)
        cm = cls.__dict__.get("from_masks") if cls is not None else None
        if not isinstance(cm, classmethod):
            self.missing.append("tracelab.setcore.SetFamily.from_masks")
            return
        self._patch(cls, "from_masks", classmethod(self._span_wrapper(cm.__func__, "setcore.from_masks")))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its children
    (children clipped to the parent, overlaps counted once)."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent, _q in spans:
        if parent is not None:
            kids.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _q) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def self_time_by_kind(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for (name, *_rest), st in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0) + st
    return out


def roots_balance(spans) -> bool:
    """True when, for every root span, the self times of its subtree sum to
    its duration (holds when children nest inside their parents)."""
    selfs = self_times(spans)
    root_of = []
    total: dict[int, int] = {}
    for idx, (_n, _s, _e, parent, _q) in enumerate(spans):
        root = idx if parent is None else root_of[parent]
        root_of.append(root)
        total[root] = total.get(root, 0) + selfs[idx]
    return all(total[r] == spans[r][2] - spans[r][1] for r in total)


def write_spans(path, phases: dict) -> None:
    """JSON lines ``[phase, name, start_ns, end_ns, parent, query]``; a
    parent is an index into the rows of the same phase."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for row in spans:
                fh.write(json.dumps([phase, *row]) + "\n")
