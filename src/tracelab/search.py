"""Exact extremal search: largest family size under a trace ceiling.

Three query modes share one branch-and-bound engine:

* ``full-downset``: largest down-set on [n] (members of size < a) such
  that no a-set carries a trace of size >= b.  One less than the least
  size forcing such a trace.
* ``tilde-complete``: largest complete pair/triple family such that no
  4-set carries >= c members across the two levels.
* ``antichain``: largest antichain with no (k+1)-set shattered
  (trace of size 2^(k+1)).

The engine branches on candidate sets with incremental per-window
membership counts.  Symmetry is exploited by orbital branching: at a
node whose chosen and excluded candidates are stabilized by a
permutation group G of the ground set, either a representative e goes
in, or its entire G-orbit goes out.  Disabling symmetry changes node
counts, never optima.  Returned witnesses are re-verified through the
plain trace-counting path and canonicalized under relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from time import perf_counter
from typing import Callable, Protocol

from ._perm import CANON_CAP, apply_perm, canonical_masks, mask_stabilizer
from .constructions import TildeFamily, hookarrow, tilde_to_json_obj
from .setcore import (
    FamilyError,
    SetFamily,
    arrows,
    family_to_json_obj,
    is_antichain,
    is_downset,
)

MODE_DOWNSET = "full-downset"
MODE_TILDE = "tilde-complete"
MODE_ANTICHAIN = "antichain"

_SEARCH_GROUND_CAP = 20  # exhaustive search only attempted up to here
_STABILIZER_CAP = 50_000  # explicit stabilizer groups stay below this size

DEFAULT_BUDGET_NODES = 10**8
DEFAULT_BUDGET_SECS = 300.0

# the keys ArrowQuery.to_json_obj emits, per mode
_COMMON_KEYS = frozenset({"n", "a", "b", "mode", "budget_nodes", "budget_secs"})
_QUERY_KEYS = {
    MODE_DOWNSET: _COMMON_KEYS,
    MODE_TILDE: _COMMON_KEYS | {"c"},
    MODE_ANTICHAIN: _COMMON_KEYS | {"k"},
}


@dataclass(frozen=True)
class ArrowQuery:
    """A search problem statement plus resource limits.

    ``b`` is the forbidden level: families whose every window count
    stays strictly below ``b`` are feasible.  In tilde mode ``c`` plays
    that role for hook counts, in antichain mode ``k`` fixes the window
    size k+1 and ceiling 2^(k+1).
    """

    n: int
    a: int = 4
    b: int | None = None
    mode: str = MODE_DOWNSET
    c: int | None = None
    k: int | None = None
    budget_nodes: int = DEFAULT_BUDGET_NODES
    budget_secs: float = DEFAULT_BUDGET_SECS
    use_symmetry: bool = True

    @classmethod
    def downset(cls, n: int, a: int, b: int, **kw) -> "ArrowQuery":
        return cls(n=n, a=a, b=b, mode=MODE_DOWNSET, **kw)

    @classmethod
    def tilde(cls, n: int, c: int, **kw) -> "ArrowQuery":
        return cls(n=n, a=4, c=c, mode=MODE_TILDE, **kw)

    @classmethod
    def antichain(cls, n: int, k: int, **kw) -> "ArrowQuery":
        return cls(n=n, a=k + 1, b=1 << (k + 1), mode=MODE_ANTICHAIN, k=k, **kw)

    def validate(self) -> None:
        if self.mode not in (MODE_DOWNSET, MODE_TILDE, MODE_ANTICHAIN):
            raise FamilyError(f"unknown search mode {self.mode!r}")
        if self.n > _SEARCH_GROUND_CAP:
            raise FamilyError(f"exhaustive search capped at n <= {_SEARCH_GROUND_CAP}")
        if self.mode == MODE_DOWNSET:
            if self.b is None:
                raise FamilyError("down-set query needs the forbidden trace level b")
            if not 1 <= self.a <= self.n:
                raise FamilyError(f"need 1 <= a <= n, got a={self.a}, n={self.n}")
            if self.b < 2:
                raise FamilyError(f"b={self.b} makes even the singleton family infeasible")
            if self.b > (1 << self.a):
                raise FamilyError(
                    f"b={self.b} exceeds 2^a={1 << self.a}: the constraint is vacuous"
                )
        elif self.mode == MODE_TILDE:
            if self.c is None or not 1 <= self.c <= 10:
                raise FamilyError(f"tilde query needs 1 <= c <= 10, got {self.c}")
            if self.n < 4:
                raise FamilyError("tilde query needs n >= 4 for 4-windows")
        else:
            if self.k is None or self.k < 0 or self.k + 1 > self.n:
                raise FamilyError(f"antichain query needs 0 <= k <= n-1, got k={self.k}")

    def to_json_obj(self) -> dict:
        obj = {
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "mode": self.mode,
            "budget_nodes": self.budget_nodes,
            "budget_secs": self.budget_secs,
        }
        if self.mode == MODE_TILDE:
            obj["c"] = self.c
        if self.mode == MODE_ANTICHAIN:
            obj["k"] = self.k
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ArrowQuery":
        """Inverse of :meth:`to_json_obj`.  Keys that method never emits for
        the query's mode are rejected rather than silently ignored."""
        if not isinstance(obj, dict):
            raise FamilyError(f"query must be a JSON object, got {type(obj).__name__}")
        mode = obj.get("mode", MODE_DOWNSET)
        if not isinstance(mode, str) or mode not in _QUERY_KEYS:
            raise FamilyError(f"unknown search mode {mode!r}")
        unknown = sorted(set(obj) - _QUERY_KEYS[mode])
        if unknown:
            raise FamilyError(f"unknown query keys for mode {mode!r}: {unknown}")
        try:
            kw = {
                "budget_nodes": int(obj.get("budget_nodes", DEFAULT_BUDGET_NODES)),
                "budget_secs": float(obj.get("budget_secs", DEFAULT_BUDGET_SECS)),
            }
            n = int(obj["n"])
            if mode == MODE_TILDE:
                c = obj.get("c", obj.get("b"))
                return cls.tilde(n, int(c), **kw)
            if mode == MODE_ANTICHAIN:
                return cls.antichain(n, int(obj["k"]), **kw)
            return cls.downset(n, int(obj.get("a", 4)), int(obj["b"]), **kw)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FamilyError):
                raise
            raise FamilyError(f"bad query object {obj!r}: {exc}") from exc


@dataclass
class SearchResult:
    """Certified answer: extremal value, witness family, statistics."""

    optimum: int
    witness: "SetFamily | TildeFamily"
    proved_optimal: bool
    nodes: int
    elapsed: float

    def to_json_obj(self) -> dict:
        if isinstance(self.witness, TildeFamily):
            wit = tilde_to_json_obj(self.witness)
        else:
            wit = family_to_json_obj(self.witness)
        return {
            "optimum": self.optimum,
            "proved_optimal": self.proved_optimal,
            "witness": wit,
            "nodes": self.nodes,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


# ---------------------------------------------------------------------------
# budgets


class _BudgetExhausted(Exception):
    pass


class _Budget:
    __slots__ = ("limit", "deadline", "nodes")

    def __init__(self, node_limit: int, seconds: float | None):
        self.limit = node_limit
        self.deadline = None if seconds is None else perf_counter() + seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetExhausted
        if (
            self.nodes & 255 == 0
            and self.deadline is not None
            and perf_counter() > self.deadline
        ):
            raise _BudgetExhausted


# ---------------------------------------------------------------------------
# the state protocol


class _ConstraintState(Protocol):
    """What the search engine reads from a constraint state.

    Candidates are the indices ``0 .. len(masks)-1``; ``masks[i]`` is the
    candidate's bitmask over ``nbits`` ground elements, ``cards[i]`` its
    size, ``by_card[c]`` the candidates of size c in ascending mask order
    and ``idx_of`` the inverse of ``masks``.  ``status[i]`` is 0 while
    candidate i is undecided, 1 once it is in and 2 once it is out.  A
    state with ``feasible_root`` false admits no family at all.

    Every move has an exact inverse: ``undo_add_group(adds)`` restores the
    state that ``try_add_group`` found when it returned ``adds``, and
    ``unmark_out(i)`` undoes ``mark_out(i)``; the engine undoes moves in
    reverse order.  ``try_add_group(i)`` puts i in together with whatever
    else the constraint forces, or returns None and changes nothing when
    i cannot be added in the current subtree.  ``pick_first()`` is the
    next candidate to branch on, None when none is left.
    ``bound_remaining()`` is never below the largest number of candidates
    that can still be added (the subtree optimum).
    ``all_in_candidates()`` returns the candidates that together give the
    subtree optimum when taking all of them is feasible, and None when
    there is no such shortcut.  With symmetry on, the engine assumes the
    root state is invariant under every relabeling of the ground set.
    """

    nbits: int
    masks: list[int]
    cards: list[int]
    by_card: dict[int, list[int]]
    idx_of: dict[int, int]
    status: list[int]
    feasible_root: bool

    def try_add_group(self, i: int) -> list[int] | None: ...

    def undo_add_group(self, adds: list[int]) -> None: ...

    def mark_out(self, i: int) -> None: ...

    def unmark_out(self, i: int) -> None: ...

    def pick_first(self) -> int | None: ...

    def bound_remaining(self) -> int: ...

    def all_in_candidates(self) -> list[int] | None: ...


# ---------------------------------------------------------------------------
# window-capacity constraint state


class _CapState:
    """Candidate sets under per-window membership caps.

    Windows are fixed masks; a candidate contributes to every window
    containing it.  ``prereqs`` encode shadow closure (a set may only be
    chosen once its one-smaller subsets are in); choosing a candidate
    auto-adds missing prerequisites.  All mutations have exact inverses.
    """

    def __init__(self, nbits, masks, windows, cap, init_counts, prereqs):
        self.nbits = nbits
        self.masks = list(masks)
        self.cards = [m.bit_count() for m in self.masks]
        self.windows = list(windows)
        self.cap = cap
        self.cnt = list(init_counts)
        self.idx_of = {m: i for i, m in enumerate(self.masks)}
        self.cand_windows = [[] for _ in self.masks]
        self.window_cands = [[] for _ in self.windows]
        for wi, w in enumerate(self.windows):
            row = self.window_cands[wi]
            for ci, m in enumerate(self.masks):
                if m & w == m:
                    self.cand_windows[ci].append(wi)
                    row.append(ci)
        self.prereq = [tuple(p) for p in prereqs]
        self.children = [[] for _ in self.masks]
        for ci, ps in enumerate(self.prereq):
            for p in ps:
                self.children[p].append(ci)
        m = len(self.masks)
        self.status = [0] * m   # 0 undecided, 1 in, 2 out
        self.blocked = [0] * m  # number of cap-full windows containing it
        self.dead = [0] * m     # number of excluded prerequisites
        self.feasible_root = all(c <= cap for c in self.cnt)
        self.resid = sum(cap - c for c in self.cnt)
        cards_present = sorted(set(self.cards))
        self.card_list_desc = cards_present[::-1]
        self.by_card = {c: [] for c in cards_present}
        for i, c in enumerate(self.cards):
            self.by_card[c].append(i)
        # window weight per cardinality: minimum over candidates (uniform in
        # practice); used for the aggregate-capacity bound
        self.weight = {
            c: min((len(self.cand_windows[i]) for i in idxs), default=0)
            for c, idxs in self.by_card.items()
        }
        self.avail = {c: 0 for c in cards_present}
        self.avail_total = 0
        if self.feasible_root:
            for wi, cval in enumerate(self.cnt):
                if cval == cap:
                    for ci in self.window_cands[wi]:
                        self.blocked[ci] += 1
            for i in range(m):
                if self.blocked[i] == 0:
                    self.avail[self.cards[i]] += 1
                    self.avail_total += 1

    # -- counted-candidate bookkeeping ------------------------------------

    def _counted(self, i) -> bool:
        return self.status[i] == 0 and self.blocked[i] == 0 and self.dead[i] == 0

    def _put(self, arr, i, value) -> None:
        """``arr[i] = value`` for ``arr`` one of status, blocked or dead,
        keeping the counted-candidate totals in step.  ``_counted`` is
        inlined: this runs several times per search node."""
        status, blocked, dead = self.status, self.blocked, self.dead
        was = status[i] == 0 and blocked[i] == 0 and dead[i] == 0
        arr[i] = value
        if was != (status[i] == 0 and blocked[i] == 0 and dead[i] == 0):
            d = -1 if was else 1
            self.avail[self.cards[i]] += d
            self.avail_total += d

    # -- moves --------------------------------------------------------------

    def _closure(self, i) -> list[int] | None:
        """i plus its transitively missing prerequisites; None if any is out."""
        adds = []
        stack = [i]
        seen = set()
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            st = self.status[j]
            if st == 1:
                continue
            if st == 2:
                return None
            adds.append(j)
            stack.extend(self.prereq[j])
        return adds

    def try_add_group(self, i) -> list[int] | None:
        """Choose candidate i together with missing prerequisites; None if
        jointly infeasible (then it stays infeasible in this subtree)."""
        adds = self._closure(i)
        if adds is None:
            return None
        delta: dict[int, int] = {}
        for j in adds:
            for w in self.cand_windows[j]:
                delta[w] = delta.get(w, 0) + 1
        cap = self.cap
        cnt = self.cnt
        for w, d in delta.items():
            if cnt[w] + d > cap:
                return None
        for j in adds:
            self._put(self.status, j, 1)
        for w, d in delta.items():
            old = cnt[w]
            new = old + d
            cnt[w] = new
            self.resid -= d
            if new == cap and old < cap:
                blocked = self.blocked
                for j2 in self.window_cands[w]:
                    self._put(blocked, j2, blocked[j2] + 1)
        return adds

    def undo_add_group(self, adds) -> None:
        delta: dict[int, int] = {}
        for j in adds:
            for w in self.cand_windows[j]:
                delta[w] = delta.get(w, 0) + 1
        cap = self.cap
        cnt = self.cnt
        for w, d in delta.items():
            old = cnt[w]
            new = old - d
            cnt[w] = new
            self.resid += d
            if old == cap and new < cap:
                blocked = self.blocked
                for j2 in self.window_cands[w]:
                    self._put(blocked, j2, blocked[j2] - 1)
        for j in adds:
            self._put(self.status, j, 0)

    def mark_out(self, i) -> None:
        self._put(self.status, i, 2)
        dead = self.dead
        for t in self.children[i]:
            self._put(dead, t, dead[t] + 1)

    def unmark_out(self, i) -> None:
        dead = self.dead
        for t in self.children[i]:
            self._put(dead, t, dead[t] - 1)
        self._put(self.status, i, 0)

    # -- queries ------------------------------------------------------------

    def pick_first(self) -> int | None:
        """Highest-cardinality counted candidate, smallest mask first."""
        for c in self.card_list_desc:
            if self.avail[c]:
                for i in self.by_card[c]:
                    if self._counted(i):
                        return i
        return None

    def bound_remaining(self) -> int:
        """Upper bound on how many more candidates can still be chosen."""
        budget = self.resid
        total = 0
        for c in sorted(self.avail, key=lambda cc: self.weight[cc]):
            n_avail = self.avail[c]
            if not n_avail:
                continue
            w = self.weight[c]
            take = n_avail if w == 0 else min(n_avail, budget // w)
            total += take
            budget -= take * w
            if budget <= 0:
                break
        return total

    def all_in_candidates(self) -> list[int] | None:
        """If every counted candidate has its prerequisites chosen and all
        of them fit together, the subtree optimum is 'take them all'."""
        counted = []
        status = self.status
        for c in self.card_list_desc:
            if not self.avail[c]:
                continue
            for i in self.by_card[c]:
                if self._counted(i):
                    for p in self.prereq[i]:
                        if status[p] != 1:
                            return None
                    counted.append(i)
        if not counted:
            return []
        delta: dict[int, int] = {}
        for j in counted:
            for w in self.cand_windows[j]:
                delta[w] = delta.get(w, 0) + 1
        cnt = self.cnt
        cap = self.cap
        for w, d in delta.items():
            if cnt[w] + d > cap:
                return None
        return counted


# ---------------------------------------------------------------------------
# branch-and-bound driver


class _Searcher:
    """Depth-first maximizer over a constraint state with orbital branching.

    ``exclude_first_cards``: at candidates of these cardinalities the
    orbit-exclusion child is explored before inclusion (finds strong
    incumbents made of lower levels early).
    """

    def __init__(
        self,
        state: _ConstraintState,
        budget: _Budget,
        best0: int = -1,
        exclude_first_cards=frozenset(),
        use_symmetry: bool = True,
    ):
        self.state = state
        self.budget = budget
        self.best = best0
        self.best_sel: list[int] | None = None
        self.chosen: list[int] = []
        self.exclude_first_cards = frozenset(exclude_first_cards)
        self.use_symmetry = use_symmetry

    def run(self) -> bool:
        """Returns True when the tree was fully explored."""
        if not self.state.feasible_root:
            return True
        try:
            self._dfs("FULL" if self.use_symmetry else None)
            return True
        except _BudgetExhausted:
            return False

    def _unwind(self, trail) -> None:
        for step, payload in reversed(trail):
            if step == "i":
                del self.chosen[-len(payload):]
                self.state.undo_add_group(payload)
            else:
                for j in reversed(payload):
                    self.state.unmark_out(j)

    def _pick(self, group):
        st = self.state
        e = st.pick_first()
        if e is None:
            return None, ()
        if group is None:
            return e, (e,)
        if group == "FULL":
            card = st.cards[e]
            orb = [j for j in st.by_card[card] if st.status[j] == 0]
            return e, orb
        mask = st.masks[e]
        idx_of = st.idx_of
        orbset = {e}
        for perm in group:
            orbset.add(idx_of[apply_perm(perm, mask)])
        orb = sorted(j for j in orbset if st.status[j] == 0)
        return e, orb

    def _stabilize(self, group, e):
        if group is None:
            return None
        st = self.state
        mask = st.masks[e]
        if group == "FULL":
            inside = mask.bit_count()
            size = factorial(inside) * factorial(st.nbits - inside)
            if size > _STABILIZER_CAP:
                return None
            perms = mask_stabilizer(mask, st.nbits)
        else:
            perms = [p for p in group if apply_perm(p, mask) == mask]
        return perms if len(perms) > 1 else None

    def _dfs(self, group) -> None:
        st = self.state
        budget = self.budget
        chosen = self.chosen
        trail = []
        try:
            while True:
                budget.tick()
                cur = len(chosen)
                if cur > self.best:
                    self.best = cur
                    self.best_sel = list(chosen)
                if cur + st.bound_remaining() <= self.best:
                    return
                allin = st.all_in_candidates()
                if allin is not None:
                    if cur + len(allin) > self.best:
                        self.best = cur + len(allin)
                        self.best_sel = chosen + allin
                    return
                e, orb = self._pick(group)
                if e is None:
                    return
                if st.cards[e] in self.exclude_first_cards:
                    outs = tuple(j for j in orb if st.status[j] == 0)
                    for j in outs:
                        st.mark_out(j)
                    self._dfs(group)
                    for j in reversed(outs):
                        st.unmark_out(j)
                    adds = st.try_add_group(e)
                    if adds is None:
                        # orbit-free families were covered above; any family
                        # meeting the orbit needs e, which cannot be added
                        return
                    chosen.extend(adds)
                    trail.append(("i", adds))
                    group = self._stabilize(group, e)
                else:
                    adds = st.try_add_group(e)
                    if adds is not None:
                        chosen.extend(adds)
                        self._dfs(self._stabilize(group, e))
                        del chosen[-len(adds):]
                        st.undo_add_group(adds)
                    outs = tuple(j for j in orb if st.status[j] == 0)
                    for j in outs:
                        st.mark_out(j)
                    trail.append(("o", outs))
        finally:
            self._unwind(trail)


# ---------------------------------------------------------------------------
# problem builders
#
# Module-level functions, called through a module-global name at call
# time, so that wrapping a name (bench/tracer.py does, to time state
# builds) reaches every search that uses it.


def _combo_masks(nbits: int, size: int) -> list[int]:
    out = []
    for combo in combinations(range(nbits), size):
        w = 0
        for b in combo:
            w |= 1 << b
        out.append(w)
    return out


def _candidate_masks(nbits: int, cards) -> list[int]:
    masks = []
    for card in sorted(cards):
        masks.extend(_combo_masks(nbits, card))
    masks.sort(key=lambda m: (m.bit_count(), m))
    return masks


def _shadow_prereqs(masks: list[int]) -> list[tuple[int, ...]]:
    """Indices of the one-smaller subsets, where those are candidates."""
    idx_of = {m: i for i, m in enumerate(masks)}
    out = []
    for m in masks:
        ps = []
        b = m
        while b:
            low = b & -b
            sub = m ^ low
            j = idx_of.get(sub)
            if j is not None:
                ps.append(j)
            b ^= low
        out.append(tuple(ps))
    return out


def _build_downset_state(k: int, a: int, b: int) -> _CapState:
    """Subtree state once the singleton level is fixed to a k-prefix.

    Ground set shrinks to [k]; every a-window of it already holds the
    empty set plus its own singletons, so candidates (sizes 2..a-1) may
    occupy at most b - 2 - min(k, a) further slots per window.
    """
    cap = b - 2
    if k >= a:
        windows = _combo_masks(k, a)
        init = [a] * len(windows)
    elif k >= 1:
        windows = [(1 << k) - 1]
        init = [k]
    else:
        windows, init = [], []
    cards = [c for c in range(2, a) if c <= k]
    masks = _candidate_masks(k, cards) if k else []
    return _CapState(max(k, 1), masks, windows, cap, init, _shadow_prereqs(masks))


def _build_tilde_state(n: int, c: int) -> _CapState:
    masks = _candidate_masks(n, [2, 3])
    windows = _combo_masks(n, 4)
    return _CapState(n, masks, windows, c - 1, [0] * len(windows), _shadow_prereqs(masks))


def _build_uniform_window_state(n: int, card: int, win: int, cap: int) -> _CapState:
    """card-sets under 'at most cap inside any win-window' (no closure)."""
    masks = _candidate_masks(n, [card])
    windows = _combo_masks(n, win)
    return _CapState(n, masks, windows, cap, [0] * len(windows), [()] * len(masks))


class _AntichainState:
    """Antichains under a distinct-projection ceiling per (k+1)-window.

    Candidates are all subsets of [n].  Adding F is allowed when F is
    incomparable with everything chosen and no window would see its
    2^(k+1)-th distinct projection.
    """

    def __init__(self, n: int, k: int):
        self.nbits = n
        self.masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
        self.cards = [m.bit_count() for m in self.masks]
        self.idx_of = {m: i for i, m in enumerate(self.masks)}
        self.by_card = {}
        for i, c in enumerate(self.cards):
            self.by_card.setdefault(c, []).append(i)
        self.card_list_desc = sorted(self.by_card, reverse=True)
        self.windows = _combo_masks(n, k + 1)
        self.cap = (1 << (k + 1)) - 1
        self.seen = [dict() for _ in self.windows]  # projection -> multiplicity
        self.status = [0] * len(self.masks)
        # bitmask over candidate indices of strictly comparable candidates
        comp = [0] * len(self.masks)
        for i, mi in enumerate(self.masks):
            for j in range(i + 1, len(self.masks)):
                mj = self.masks[j]
                if mi != mj and (mi & mj == mi or mi & mj == mj):
                    comp[i] |= 1 << j
                    comp[j] |= 1 << i
        self.comp = comp
        self.chosen_bits = 0
        self.feasible_root = True

    def _addable(self, i: int) -> bool:
        if self.status[i] != 0 or self.comp[i] & self.chosen_bits:
            return False
        m = self.masks[i]
        cap = self.cap
        for wi, w in enumerate(self.windows):
            seen = self.seen[wi]
            if (m & w) not in seen and len(seen) >= cap:
                return False
        return True

    def try_add_group(self, i: int):
        if not self._addable(i):
            return None
        m = self.masks[i]
        for wi, w in enumerate(self.windows):
            p = m & w
            seen = self.seen[wi]
            seen[p] = seen.get(p, 0) + 1
        self.status[i] = 1
        self.chosen_bits |= 1 << i
        return [i]

    def undo_add_group(self, adds) -> None:
        (i,) = adds
        m = self.masks[i]
        for wi, w in enumerate(self.windows):
            p = m & w
            seen = self.seen[wi]
            if seen[p] == 1:
                del seen[p]
            else:
                seen[p] -= 1
        self.status[i] = 0
        self.chosen_bits &= ~(1 << i)

    def mark_out(self, i: int) -> None:
        self.status[i] = 2

    def unmark_out(self, i: int) -> None:
        self.status[i] = 0

    def pick_first(self):
        for c in self.card_list_desc:
            for i in self.by_card[c]:
                if self.status[i] == 0 and self._addable(i):
                    return i
        return None

    def bound_remaining(self) -> int:
        return sum(1 for i in range(len(self.masks)) if self.status[i] == 0 and self._addable(i))

    def all_in_candidates(self):
        return None


def _build_antichain_state(n: int, k: int) -> _AntichainState:
    return _AntichainState(n, k)


# ---------------------------------------------------------------------------
# solving


def _solve_state(
    build: Callable[..., _ConstraintState],
    args: tuple,
    *,
    best0,
    exclude_first_cards,
    budget,
    use_symmetry,
):
    """Maximize over the state ``build(*args)``.  Returns (best, masks|None, completed)."""
    state = build(*args)
    searcher = _Searcher(
        state,
        budget,
        best0=best0,
        exclude_first_cards=exclude_first_cards,
        use_symmetry=use_symmetry,
    )
    completed = searcher.run()
    sel = None if searcher.best_sel is None else [state.masks[j] for j in searcher.best_sel]
    return searcher.best, sel, completed


def _canonicalize(masks, n: int) -> tuple[int, ...]:
    if n <= CANON_CAP:
        return canonical_masks(masks, n)
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


# ---------------------------------------------------------------------------
# public search operations


def max_family(q: ArrowQuery) -> SearchResult:
    """Largest down-set on [n] (member sizes < a) with no a-window trace
    of size >= b; equals the forcing threshold minus one.

    The down-set restriction is lossless: compression turns any family
    avoiding the trace level into a down-set of the same size, and a
    member of size >= a would already fill a full a-window.
    """
    q.validate()
    if q.mode != MODE_DOWNSET:
        raise FamilyError(f"max_family needs mode {MODE_DOWNSET!r}")
    t0 = perf_counter()
    budget = _Budget(q.budget_nodes, q.budget_secs)
    n, a, b = q.n, q.a, q.b
    best_total = 1
    best_masks: list[int] = [0]
    proved = True
    for k in range(n, -1, -1):
        cap_k = 1 + k + sum(comb(k, c) for c in range(2, a))
        if cap_k <= best_total:
            continue
        got, sel, comp = _solve_state(
            _build_downset_state,
            (k, a, b),
            best0=best_total - 1 - k,
            exclude_first_cards=frozenset(c for c in range(3, a)),
            budget=budget,
            use_symmetry=q.use_symmetry,
        )
        if sel is not None and 1 + k + len(sel) > best_total:
            best_total = 1 + k + len(sel)
            best_masks = [0] + [1 << j for j in range(k)] + sel
        if not comp:
            proved = False
            break
    witness = SetFamily.from_masks(n, _canonicalize(best_masks, n))
    if len(witness) != best_total or not is_downset(witness) or arrows(witness, a, b):
        raise RuntimeError("witness failed independent re-verification")
    return SearchResult(best_total, witness, proved, budget.nodes, perf_counter() - t0)


def max_tilde(q: ArrowQuery) -> SearchResult:
    """Largest complete pair/triple family on [n] in which every 4-set
    carries fewer than c members across both levels."""
    q.validate()
    if q.mode != MODE_TILDE:
        raise FamilyError(f"max_tilde needs mode {MODE_TILDE!r}")
    t0 = perf_counter()
    budget = _Budget(q.budget_nodes, q.budget_secs)
    n, c = q.n, q.c
    got, sel, comp = _solve_state(
        _build_tilde_state,
        (n, c),
        best0=-1,
        exclude_first_cards=frozenset((3,)),
        budget=budget,
        use_symmetry=q.use_symmetry,
    )
    masks = _canonicalize(sel or [], n)
    g2 = SetFamily.from_masks(n, [m for m in masks if m.bit_count() == 2])
    g3 = SetFamily.from_masks(n, [m for m in masks if m.bit_count() == 3])
    witness = TildeFamily(n, g2, g3)
    witness.require_complete()
    if len(witness) != max(got, 0) or hookarrow(witness, c):
        raise RuntimeError("witness failed independent re-verification")
    return SearchResult(len(witness), witness, comp, budget.nodes, perf_counter() - t0)


def max_antichain(q: ArrowQuery) -> SearchResult:
    """Largest antichain on [n] in which no (k+1)-set is fully shattered
    (every (k+1)-window trace stays below 2^(k+1))."""
    q.validate()
    if q.mode != MODE_ANTICHAIN:
        raise FamilyError(f"max_antichain needs mode {MODE_ANTICHAIN!r}")
    if q.n > 7:
        raise FamilyError("antichain search enumerates all subsets; capped at n <= 7")
    t0 = perf_counter()
    budget = _Budget(q.budget_nodes, q.budget_secs)
    got, sel, comp = _solve_state(
        _build_antichain_state,
        (q.n, q.k),
        best0=-1,
        exclude_first_cards=frozenset(),
        budget=budget,
        use_symmetry=q.use_symmetry,
    )
    masks = _canonicalize(sel or [], q.n)
    witness = SetFamily.from_masks(q.n, masks)
    if (
        len(witness) != max(got, 0)
        or not is_antichain(witness)
        or (len(witness) and arrows(witness, q.k + 1, 1 << (q.k + 1)))
    ):
        raise RuntimeError("witness failed independent re-verification")
    return SearchResult(len(witness), witness, comp, budget.nodes, perf_counter() - t0)


def run_query(q: ArrowQuery) -> SearchResult:
    """Dispatch a query to the matching search operation."""
    if q.mode == MODE_TILDE:
        return max_tilde(q)
    if q.mode == MODE_ANTICHAIN:
        return max_antichain(q)
    return max_family(q)


def decide_arrow(n: int, m: int, a: int, b: int, **kw) -> bool | None:
    """Does every family of m sets on [n] have an a-window trace of size
    >= b?  None when the underlying search hit its budget."""
    res = max_family(ArrowQuery.downset(n, a, b, **kw))
    if not res.proved_optimal:
        return None
    return res.optimum < m


def crosscheck_mtilde(n: int, c: int, **kw) -> bool | None:
    """Verify that the two extremal searches differ by exactly n+1:
    stripped pair/triple optimum plus the empty set and n singletons
    equals the all-sizes down-set optimum at forbidden level c+5."""
    rt = max_tilde(ArrowQuery.tilde(n, c, **kw))
    rf = max_family(ArrowQuery.downset(n, 4, c + 5, **kw))
    if not (rt.proved_optimal and rf.proved_optimal):
        return None
    return rf.optimum == rt.optimum + n + 1
