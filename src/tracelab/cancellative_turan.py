"""Cancellative and union-free uniform families, their extremal sizes at
desk scale, and small exact Turán numbers for four-vertex triple patterns.

An l-graph is *cancellative* when no three edges H1, H2, H3 satisfy
|H1 & H2| = l-1 and H1 ^ H2 inside H3.  For l = 2 this is exactly
triangle-freeness; the extremal counts follow the balanced-product
formula prod floor((n+i)/l) in the supported range, which the searches
here confirm exactly.

The two triple patterns live on four vertices: the complete one (all
four triples) and the one-short variant (any three).  Their Turán
numbers compose, together with the full lower levels, into the least
family size forcing a 4-window trace of 2^4 - 1 resp. 2^4 - 2.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import NamedTuple

from .constructions import ex3_k4_seed, max_cancellative_seed
from .search import (
    DEFAULT_BUDGET_NODES,
    DEFAULT_BUDGET_SECS,
    _SEARCH_GROUND_CAP,
    SearchResult,
    _CountedState,
    _UniformCapState,
    _build_uniform_window_state,
    _candidate_masks,
    _no_seed,
    _solve_state,
)
from .setcore import (
    FamilyError,
    SetFamily,
    arrows,
    elements_of,
    is_downset,
    kset_masks,
    level,
    trace_size,
)


class Pattern(Enum):
    """Triple patterns on k+1 vertices: all k-sets, or one short of all."""

    K_COMPLETE = "k4"
    K_MINUS = "k4minus"

    def window_limit(self, k: int) -> int:
        """Most k-sets a (k+1)-window may span while staying pattern-free."""
        return k if self is Pattern.K_COMPLETE else k - 1

    def forced_trace(self, k: int) -> int:
        """Trace level a (k+1)-window reaches once the pattern appears
        inside a down-set."""
        full = 1 << (k + 1)
        return full - 1 if self is Pattern.K_COMPLETE else full - 2


class PatternCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int, int] | None  # (H1, H2, H3) masks when violated


def _require_uniform(h: SetFamily, l: int) -> None:
    bad = [set(elements_of(m)) for m in h.members if m.bit_count() != l]
    if bad:
        raise FamilyError(f"expected a {l}-uniform family, offending members {bad}")


def is_cancellative(h: SetFamily, l: int) -> PatternCheck:
    """No edges H1, H2 meeting in l-1 points with H1 ^ H2 inside a third
    edge.  The witness triple, when present, is the first in canonical
    scan order (members sorted by mask)."""
    _require_uniform(h, l)
    ms = h.members
    for i, h1 in enumerate(ms):
        for h2 in ms[i + 1 :]:
            if (h1 & h2).bit_count() != l - 1:
                continue
            d = h1 ^ h2
            for h3 in ms:
                if d & h3 == d:
                    return PatternCheck(False, (h1, h2, h3))
    return PatternCheck(True, None)


def is_unionfree(h: SetFamily, l: int) -> PatternCheck:
    """No three distinct edges with F1 ^ F2 inside F3; strictly stronger
    than cancellative (the intersection size is unconstrained)."""
    _require_uniform(h, l)
    ms = h.members
    for i, f1 in enumerate(ms):
        for f2 in ms[i + 1 :]:
            d = f1 ^ f2
            if d.bit_count() > l:
                continue
            for f3 in ms:
                if d & f3 == d:
                    # f3 cannot equal f1 or f2: d leaves both
                    return PatternCheck(False, (f1, f2, f3))
    return PatternCheck(True, None)


def violation_trace_window(fam: SetFamily, l: int) -> int | None:
    """Window certifying a big trace out of a cancellativity breach.

    Looks for F1, F2 at level l meeting in l-1 points whose symmetric
    difference belongs to the down-set (equivalently, lies inside some
    member).  Their union Y then carries, besides the two full power
    sets 2^F1 and 2^F2, the extra pair F1 ^ F2, so the trace reaches
    3 * 2^(l-1) + 1.  The bound is recounted before returning; None when
    no qualifying pair exists.
    """
    if not is_downset(fam):
        raise FamilyError("expected a down-set")
    target = 3 * (1 << (l - 1)) + 1
    lv = level(fam, l).members
    for i, f1 in enumerate(lv):
        for f2 in lv[i + 1 :]:
            if (f1 & f2).bit_count() != l - 1:
                continue
            if (f1 ^ f2) not in fam:
                continue
            y = f1 | f2
            if trace_size(fam, y) >= target:
                return y
    return None


def pattern_free(h: SetFamily, k: int, pattern: Pattern) -> bool:
    """True iff no k+1 vertices span more k-sets than the pattern allows."""
    _require_uniform(h, k)
    if h.n < k + 1:
        return len(h) <= pattern.window_limit(k)
    limit = pattern.window_limit(k)
    ms = h.members
    for w in kset_masks(h.n, k + 1):
        if sum(1 for m in ms if m & w == m) > limit:
            return False
    return True


class ArrowPatternVerdict(NamedTuple):
    arrow_holds: bool
    pattern_free: bool


def arrow_vs_pattern(fam: SetFamily, k: int, pattern: Pattern) -> ArrowPatternVerdict:
    """Both sides of the equivalence for down-sets with members of size
    at most k: some (k+1)-window reaches the pattern's trace level iff
    the k-level is not pattern-free."""
    oversize = [set(elements_of(m)) for m in fam.members if m.bit_count() > k]
    if oversize:
        raise FamilyError(f"members larger than {k}: {oversize}")
    if not is_downset(fam):
        raise FamilyError("expected a down-set")
    if fam.n < k + 1:
        raise FamilyError(f"need n >= {k + 1} for (k+1)-windows")
    holds = arrows(fam, k + 1, pattern.forced_trace(k))
    free = pattern_free(level(fam, k), k, pattern)
    return ArrowPatternVerdict(holds, free)


# ---------------------------------------------------------------------------
# extremal searches


class _CancellativeState(_CountedState):
    """Incremental cancellative feasibility for l >= 3, with the
    averaging bound (the property survives deleting a vertex), M from
    the same search on n-1 points.  The moves are the base ones
    (``_set_status``, ``_block``, ``_unblock``), which keep ``free`` and
    ``inbits``.

    Bookkeeping: ``diffs`` counts symmetric differences of chosen pairs
    meeting in l-1 points (future edges must avoid covering them) and
    ``cov2`` counts 2-subsets covered by chosen edges (new co-(l-1)
    pairs must not have their difference already covered).
    ``blocked[i]`` counts the 2-subsets of i in ``diffs`` plus the chosen
    partners of i (edges meeting it in l-1 points) whose difference with
    i is in ``cov2``.
    """

    def __init__(self, n: int, l: int):
        super().__init__(n, _candidate_masks(n, [l]))
        self.blocked = [0] * len(self.masks)
        self.diffs: dict[int, int] = {}
        self.cov2: dict[int, int] = {}
        # pair_subsets[i]: the 2-subsets of candidate i; with_pair[d]: the
        # candidates containing the pair d
        self.with_pair = {d: [] for d in kset_masks(n, 2)}
        self.pair_subsets = [[] for _ in self.masks]
        for d, row in self.with_pair.items():
            for i, m in enumerate(self.masks):
                if d & m == d:
                    row.append(i)
                    self.pair_subsets[i].append(d)
        # partners[i]: the candidates meeting i in l-1 points;
        # pair_partners[d]: the (candidate, partner) pairs differing in d
        self.partners = [[] for _ in self.masks]
        # (keyed by every pair: at n = l there are no partners at all)
        self.pair_partners = {d: [] for d in self.with_pair}
        for i, e in enumerate(self.masks):
            for j, f in enumerate(self.masks):
                if (e & f).bit_count() == l - 1:
                    self.partners[i].append(j)
                    self.pair_partners[e ^ f].append((i, j))

    @staticmethod
    def sub_queries(n: int, l: int):
        return ((n - 1, l),) if n - 1 >= l else ()

    def try_add_group(self, i: int):
        if self.status[i] or self.blocked[i]:
            return None
        e = self.masks[i]
        status, masks, diffs, cov2 = self.status, self.masks, self.diffs, self.cov2
        for j in self.partners[i]:
            if status[j] == 1:
                d = e ^ masks[j]
                diffs[d] = diffs.get(d, 0) + 1
                if diffs[d] == 1:
                    for g in self.with_pair[d]:
                        self._block(g)
        for d in self.pair_subsets[i]:
            cov2[d] = cov2.get(d, 0) + 1
            if cov2[d] == 1:
                for g, f in self.pair_partners[d]:
                    if status[f] == 1:
                        self._block(g)
        self._set_status(i, 1)
        for g in self.partners[i]:
            if e ^ masks[g] in cov2:
                self._block(g)
        return [i]

    def undo_add_group(self, adds) -> None:
        (i,) = adds
        e = self.masks[i]
        status, masks, diffs, cov2 = self.status, self.masks, self.diffs, self.cov2
        for g in self.partners[i]:
            if e ^ masks[g] in cov2:
                self._unblock(g)
        self._set_status(i, 0)
        for d in self.pair_subsets[i]:
            if cov2[d] == 1:
                del cov2[d]
                for g, f in self.pair_partners[d]:
                    if status[f] == 1:
                        self._unblock(g)
            else:
                cov2[d] -= 1
        for j in self.partners[i]:
            if status[j] == 1:
                d = e ^ masks[j]
                if diffs[d] == 1:
                    del diffs[d]
                    for g in self.with_pair[d]:
                        self._unblock(g)
                else:
                    diffs[d] -= 1


def _build_cancellative_state(n: int, l: int) -> _CancellativeState:
    return _CancellativeState(n, l)


def max_cancellative(
    n: int,
    l: int,
    budget_nodes: int = DEFAULT_BUDGET_NODES,
    budget_secs: float = DEFAULT_BUDGET_SECS,
    use_symmetry: bool = True,
) -> SearchResult:
    """Exact maximum size of a cancellative l-graph on [n] (l in {2, 3});
    expected to match prod floor((n+i)/l) in the supported range.  Every
    level starts from that construction, ``max_cancellative_seed``."""
    if l not in (2, 3):
        raise FamilyError(f"cancellative search supports l in {{2, 3}}, got l={l}")
    if not l <= n <= _SEARCH_GROUND_CAP:
        raise FamilyError(f"need l <= n <= {_SEARCH_GROUND_CAP}, got n={n}")
    if l == 2:
        # triangle-free == cancellative for graphs: cap 2 edges per 3-window
        build, cls, args = _build_uniform_window_state, _UniformCapState, (n, 2, 3, 2)
    else:
        build, cls, args = _build_cancellative_state, _CancellativeState, (n, l)
    return _solve_state(
        build,
        args,
        sub_queries=cls.sub_queries,
        witness=SetFamily.from_masks,
        recheck=lambda w, *_: is_cancellative(w, l).ok,
        seed=lambda n, *_: max_cancellative_seed(n, l),
        budget_nodes=budget_nodes,
        budget_secs=budget_secs,
        use_symmetry=use_symmetry,
    )


def ex3(
    n: int,
    pattern: Pattern,
    budget_nodes: int = DEFAULT_BUDGET_NODES,
    budget_secs: float = DEFAULT_BUDGET_SECS,
    use_symmetry: bool = True,
) -> SearchResult:
    """Exact Turán number: most triples on [n] with every 4-window
    spanning at most the pattern's limit.  Values at these sizes are
    computed data, not published constants.  For K4 every level starts
    from Turán's construction (``ex3_k4_seed``); K4-minus starts empty."""
    if not 4 <= n <= _SEARCH_GROUND_CAP:
        raise FamilyError(f"need 4 <= n <= {_SEARCH_GROUND_CAP}, got n={n}")
    return _solve_state(
        _build_uniform_window_state,
        (n, 3, 4, pattern.window_limit(3)),
        sub_queries=_UniformCapState.sub_queries,
        witness=SetFamily.from_masks,
        recheck=lambda w, *_: pattern_free(w, 3, pattern),
        seed=(lambda n, *_: ex3_k4_seed(n)) if pattern is Pattern.K_COMPLETE else _no_seed,
        budget_nodes=budget_nodes,
        budget_secs=budget_secs,
        use_symmetry=use_symmetry,
    )


def forcing_size_from_turan(n: int, k: int, pattern: Pattern, **search_kw) -> int:
    """Least size forcing a (k+1)-window trace at the pattern's level,
    composed as 1 + sum_{l<k} C(n,l) + (Turán number of the pattern)."""
    if k != 3:
        raise FamilyError("only k=3 is supported (triple patterns)")
    ex = ex3(n, pattern, **search_kw)
    if not ex.proved_optimal:
        raise FamilyError("Turán search hit its budget; composition would be unproven")
    return 1 + sum(comb(n, i) for i in range(k)) + ex.optimum
