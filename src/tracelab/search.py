"""Exact extremal search: largest family size under a trace ceiling.

Five searches share one branch-and-bound engine: the three query modes
below, and the cancellative and ex3 searches of
:mod:`tracelab.cancellative_turan`.

* ``full-downset``: largest down-set on [n] (members of size < a) such
  that no a-set carries a trace of size >= b.  One less than the least
  size forcing such a trace.  One search over the sets of size 0..a-1;
  the empty set is chosen before it starts.
* ``tilde-complete``: largest complete pair/triple family such that no
  4-set carries >= c members across the two levels.
* ``antichain``: largest antichain with no (k+1)-set shattered
  (trace of size 2^(k+1)).

All five are certified in one place, ``_solve_state``: it runs the
search under the query's budget, lists the witness in the canonical
member order (by cardinality, then mask; not relabeled) and re-checks
it through the search's own independent predicate before it returns.

The engine branches on candidate sets, and every constraint state
speaks one protocol: the state is a few ints.  Two are bitsets over
the candidates: ``inbits``, the chosen ones, and ``free``, those still
addable (undecided and not ruled out by the moves made: the *counted*
ones).  The others hold what the chosen sets show: the window-cap
states pack every window count into one int, the antichain state one
bit per projection seen on each window and, packed the same way, how
many each window has seen, the cancellative state the pair differences
and the covered pairs.  A move only goes forward:
``try_add_group(i)`` adds i with what it forces or changes nothing,
and ``mark_out(bits)`` excludes the candidates of ``bits``.  The
engine takes ``snapshot()`` before each child's move and hands it to
``restore`` after that child's subtree; nothing is undone move by
move.  All else the engine reads derives from the ints: the next
candidate to branch on, its counted orbit, the counts per size, the
incumbent and U.  The bound for antichain and cancellative
states is the number of counted candidates; window-cap states pack
them into the free window room.  Every search chains a second bound,
read only where the first fails to prune
(``_CountedState.reach``): over U, each vertex v splits a family F
into F - v, its members avoiding v, at most M, the optimum of a
deletion sub-query on n-1 points, and its link at v, at most the
degree of v in U; summed over v, the members avoiding v also give the
averaging bound of Katona, Nemetz and Simonovits.  The bound holds
because F - v is a family of the same search on n-1 points: a down-set
under the same trace ceiling, a triple system or graph avoiding the
same pattern, a cancellative family, a complete pair/triple family
under the same 4-window cap, an antichain with no shattered
(k+1)-set.  Only an antichain's link is again a family of its own
search, so only there is it capped by the same optimum (L); every
other link is bounded by its degree alone.  Where the sub-query's
tree is tiny (tilde with c <= 2, antichain with k = 0) the chain only
adds nodes, and none is declared.  Each search thus declares at most
one sub-query, the same search on n-1 points, and its levels form a
chain.  ``_solve_state`` runs that chain bottom up, one level after
another, each once per query, on a share of the query's budget that
shrinks with its depth, so a result's ``nodes`` includes them; the
search on n points always runs, last.  Each level's state is built
only when its turn comes.  Each level also
starts from a known construction on its points, the seed of
:mod:`tracelab.constructions` named after its public search, when that
is larger than its other first incumbent.  A seed is re-checked like a
witness and refused (RuntimeError) unless it passes; it only raises
the incumbent, so ``proved_optimal`` still rests on the exhausted
tree.  Symmetry is
exploited by orbital branching: at a node whose chosen and excluded
candidates are stabilized by a permutation group G of the ground set,
either a representative e goes in, or its entire G-orbit goes out, in
one ``mark_out``.  The group is all of S_n at the root, then a
stabilizer (``mask_stabilizer``, which yields its permutations afresh
on each pass and gives none past its cap, and the search then drops
symmetry below that node).  Disabling symmetry
changes node counts, never optima.

The engine branches on a largest counted candidate.  Where the
vertex-deletion bound runs, it takes one that contains the first vertex
of least degree in U, where that bound's link term is smallest (fail
first); elsewhere, and where no such candidate exists, the one of
smallest mask.  Either child split, "e in" or "e's orbit out", covers
every family for any choice of e, so the order changes node counts and
witnesses, never an optimum or ``proved_optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf, isfinite
from time import perf_counter
from typing import Callable, Iterable

from ._perm import apply_perm, mask_stabilizer
from .constructions import (
    TildeFamily,
    antichain_seed,
    hookarrow,
    max_family_seed,
    max_tilde_seed,
    tilde_to_json_obj,
)
from .setcore import (
    FamilyError,
    SetFamily,
    _canon_key,
    arrows,
    family_to_json_obj,
    is_antichain,
    is_downset,
    kset_masks,
    submasks,
)

MODE_DOWNSET = "full-downset"
MODE_TILDE = "tilde-complete"
MODE_ANTICHAIN = "antichain"
_MODES = (MODE_DOWNSET, MODE_TILDE, MODE_ANTICHAIN)

_SEARCH_GROUND_CAP = 20  # exhaustive search only attempted up to here

DEFAULT_BUDGET_NODES = 10**8
DEFAULT_BUDGET_SECS = 300.0


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
        # b only where validate() passes: 1 << (k+1) fails for k < -1 and
        # exhausts memory for a huge k
        b = 1 << (k + 1) if 0 <= k < n <= _SEARCH_GROUND_CAP else None
        return cls(n=n, a=k + 1, b=b, mode=MODE_ANTICHAIN, k=k, **kw)

    def validate(self) -> None:
        if self.mode not in _MODES:
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
        # a query that validates round-trips: the parser must accept its
        # JSON form with the c or k its mode may not read, so a field the
        # mode ignores or contradicts is refused in the parser's words
        obj = self.to_json_obj()
        obj.update((key, getattr(self, key)) for key in "ck" if getattr(self, key) is not None)
        ArrowQuery.from_json_obj(obj)

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
    def from_json_obj(cls, obj: dict, *, name=repr) -> "ArrowQuery":
        """Inverse of :meth:`to_json_obj`: a query reads exactly the keys
        that method emits for its mode.  Any other key is rejected rather
        than silently ignored, and so are values it would not emit: numbers
        other than JSON integers (``budget_secs`` may be any JSON number),
        and in tilde and antichain mode an ``a`` or ``b`` other than the one
        the mode implies.  The CLI reads its search flags with this parser
        too.  ``name`` spells a key in an error (the CLI passes
        ``lambda k: "--" + k``, giving ``mode 'antichain' does not read
        --c`` or ``mode 'tilde-complete' needs --c``); it changes no
        accepted input."""
        if not isinstance(obj, dict):
            raise FamilyError(f"query must be a JSON object, got {type(obj).__name__}")
        mode = obj.get("mode", MODE_DOWNSET)
        if not isinstance(mode, str) or mode not in _MODES:
            raise FamilyError(f"unknown search mode {mode!r}")

        def get(key, default=None, kinds=(int,)):
            if key not in obj and default is None:
                raise FamilyError(f"mode {mode!r} needs {name(key)}")
            val = obj.get(key, default)
            if isinstance(val, bool) or not isinstance(val, kinds):
                kind = "a number" if float in kinds else "an integer"
                raise FamilyError(f"query key {name(key)} must be {kind}, got {val!r}")
            return val

        try:
            secs = float(get("budget_secs", DEFAULT_BUDGET_SECS, (int, float)))
        except OverflowError:  # a JSON integer beyond the float range
            secs = inf
        kw = {"budget_nodes": get("budget_nodes", DEFAULT_BUDGET_NODES), "budget_secs": secs}
        n = get("n")
        if mode == MODE_DOWNSET:
            q = cls.downset(n, get("a", 4), get("b"), **kw)
        elif mode == MODE_TILDE:
            q = cls.tilde(n, get("c"), **kw)
        else:
            q = cls.antichain(n, get("k"), **kw)
        emitted = q.to_json_obj()
        unread = [key for key in obj if key not in emitted]
        if unread:
            raise FamilyError(f"mode {mode!r} does not read {', '.join(map(name, unread))}")
        for key in ("a", "b"):
            if key in obj and (type(obj[key]), obj[key]) != (type(emitted[key]), emitted[key]):
                raise FamilyError(
                    f"mode {mode!r} sets {name(key)} to {emitted[key]!r}, got {obj[key]!r}"
                )
        return q


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

    def __init__(self, node_limit: int, seconds: float):
        """``seconds`` must be a finite number >= 0, and ``node_limit`` an
        int >= 0."""
        if not isinstance(node_limit, int) or node_limit < 0:
            raise FamilyError(f"budget_nodes must be an integer >= 0, got {node_limit!r}")
        if not (isfinite(seconds) and seconds >= 0):
            raise FamilyError(f"budget_secs must be a finite number >= 0, got {seconds!r}")
        self.limit = node_limit
        self.deadline = perf_counter() + seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetExhausted
        if self.nodes & 255 == 0 and perf_counter() > self.deadline:
            raise _BudgetExhausted


# ---------------------------------------------------------------------------
# the state contract and its counted-candidate core


class _CountedState:
    """What the search engine reads from a constraint state, and the
    bookkeeping every state shares.  Every search, a query's own or a
    level of its sub-query chain, builds one state and runs over it.

    Candidates are the indices ``0 .. len(masks)-1``, in the canonical
    member order (by size, then mask); ``masks[i]`` is the candidate's
    bitmask over ``nbits`` ground elements, ``cards[i]`` its size and
    ``idx_of`` the inverse of ``masks``.  The state as built is
    feasible, so every state admits a family; a state may choose
    candidates while it is built (the down-set's empty set).

    One protocol serves every state: the whole state is a few ints.
    Two bitsets over the candidate indices are common to all of them
    (``bits[i]`` is candidate i's bit, ``card_bits[c]`` the bits of size
    c, ``vbits[v]`` those of the candidates holding vertex v):
    ``inbits`` holds the chosen candidates and ``free`` the
    *counted* ones, undecided and not ruled out by the moves made in the
    current subtree.  A candidate that is not counted never becomes
    counted deeper in the subtree, so the state keeps no record of the
    excluded ones.  Each state class adds the ints its constraint needs,
    and its ``snapshot()`` returns them all as a tuple; ``restore(s)``
    sets them back, which undoes every move made since ``s`` was taken.
    The two moves only go forward: ``try_add_group(i)`` puts i in
    together with whatever else the constraint forces and returns True,
    or returns False and changes nothing when i cannot be added in the
    current subtree; ``mark_out(bits)`` excludes the candidates of
    ``bits``, and ``free`` stays exact for any set of them.  Everything
    else the engine reads derives from the ints.  ``bound_remaining()`` is
    never below the largest number of candidates that can still be added
    (the subtree optimum); by default it is the number of counted
    candidates.

    ``pick_first()`` is the candidate the engine branches on, or None
    when ``free`` is empty.  As the index order is by size, then mask,
    the counted candidates of the top size are the bits of ``free`` of
    the size of its top bit.  The pick is the lowest of them inside
    ``lean``, or the lowest of them when none is.  ``lean`` holds the
    bits of the candidates that contain the vertex the last ``reach()``
    found with the least degree (the first such vertex); it is -1, all
    candidates, in a state without that bound, so there the pick is the
    highest-cardinality counted candidate with the smallest mask.  The
    engine calls ``reach()`` on every node it opens and branches on, so
    ``lean`` is never stale when read.

    The vertex-deletion bound.  While ``has_reach`` is True, ``reach()``
    is a second bound that the engine chains after
    ``bound_remaining()``: the most candidates, chosen ones included,
    that a family of the subtree can hold.  It serves states whose
    family F on [n] splits at each vertex v into F - v (the members
    avoiding v), a family of the same search on n-1 points, and the
    link F(v) = {S - v : v in S in F}: ex3, triangle-free, cancellative,
    tilde, antichains and down-sets.  Every family of the subtree lies
    inside U = ``free | inbits``, the chosen and counted candidates.
    Let ``d_v`` be the number of members of U that contain v, M the
    optimum of the deletion sub-query on n-1 points and L a cap on the
    link's size, which only the antichain search has (there L = M;
    ``_AntichainState`` says why).
    Then |F(v)| <= d_v, and F(v)'s empty set is the member {v}, which
    ``d_v`` already counts, so for every v

        |F| = |F - v| + |F(v)| <= min(M, |U| - d_v) + min(L, d_v),

    and, as each member avoids at least n - k vertices (k the largest
    candidate size), (n - k)|F| <= sum_v min(M, |U| - d_v)
    (Katona, Nemetz, Simonovits, "On a graph problem of Turán", 1964).
    The antichain state's full candidate makes n - k = 0; there the
    average runs with 1 (``_AntichainState`` says why).
    ``reach()`` is the lesser of the least per-vertex bound and the
    average.  It also sets ``lean`` to the candidates at the first
    vertex of least ``d_v``, where the link term is smallest.  A state class declares
    the sub-query that gives M as a pure function of its builder
    arguments: ``sub_query(*args)`` is its builder arguments, or None
    for a state without the bound.  ``start_averaging(M)`` turns the
    bound on once it is solved, with the link bounded by ``d_v`` alone.
    The ``nodes`` of such a search include the sub-query's.  With
    symmetry on, the engine assumes the root state is invariant under
    every relabeling of the ground set.
    """

    has_reach = False
    lean = -1

    def __init__(self, nbits: int, masks: list[int]):
        self.nbits = nbits
        self.masks = list(masks)
        self.cards = [m.bit_count() for m in self.masks]
        self.idx_of = {m: i for i, m in enumerate(self.masks)}
        self.bits = [1 << i for i in range(len(self.masks))]
        self.card_bits: dict[int, int] = {}
        for bit, c in zip(self.bits, self.cards):
            self.card_bits[c] = self.card_bits.get(c, 0) | bit
        self.vbits = [
            sum(bit for bit, m in zip(self.bits, self.masks) if m >> v & 1)
            for v in range(nbits)
        ]
        self.free = (1 << len(self.masks)) - 1
        self.inbits = 0

    # -- moves (snapshot, restore and try_add_group are the subclass's) ----

    def mark_out(self, bits: int) -> None:
        self.free &= ~bits

    # -- queries ------------------------------------------------------------

    def pick_first(self) -> int | None:
        """Highest-cardinality counted candidate, smallest mask first,
        among those inside ``lean`` if any is."""
        free = self.free
        if not free:
            return None
        top = free & self.card_bits[self.cards[free.bit_length() - 1]]
        low = top & self.lean or top
        return (low & -low).bit_length() - 1

    def bound_remaining(self) -> int:
        return self.free.bit_count()

    @staticmethod
    def sub_query(*args) -> tuple | None:
        """The builder arguments of the sub-query a state built from
        ``args`` needs for its bound; none by default."""
        return None

    def start_averaging(self, sub_optimum: int) -> None:
        """Turn the vertex-deletion bound on, with M = ``sub_optimum``."""
        self.has_reach = True
        self.sub_optimum = sub_optimum
        # no cap: d_v never exceeds the number of candidates
        self.link_cap = len(self.masks)
        # the fewest vertices a member avoids; the antichain state's full
        # candidate avoids none, every other member at least one
        self.spare = self.nbits - self.cards[-1] or 1

    def reach(self) -> int:
        """Most candidates, chosen ones included, that a family of this
        subtree can hold: the bound above."""
        u = self.free | self.inbits
        size = u.bit_count()
        m, link = self.sub_optimum, self.link_cap
        total = 0
        best = size
        least = size + 1
        for vb in self.vbits:
            d = (u & vb).bit_count()
            if d < least:
                least, lean = d, vb
            rest = size - d
            if rest > m:
                rest = m
            total += rest
            rest += d if d < link else link
            if rest < best:
                best = rest
        self.lean = lean
        # a sum of 0: no member of U avoids a vertex (U is {[n]} or
        # empty), and |U| bounds the family
        return min(total // self.spare or size, best)


# ---------------------------------------------------------------------------
# window-capacity constraint state


class _CapState(_CountedState):
    """The sets of the sizes ``cards`` on [n], under 'at most ``cap``
    chosen candidates inside any ``win``-window', closed downward within
    ``cards``.

    The state derives its structure from these four values.  The windows
    are the ``win``-subsets of [n], ``windows[w]`` the w-th of them, and
    ``window_bits[w]`` the bits of the candidates inside it.
    ``below_bits[i]`` holds every candidate strictly inside i and
    ``child_bits[i]`` the candidates one element larger than i.  Choosing
    i adds the undecided members of ``below_bits[i]`` with it, so a chosen
    set's candidate subsets are always chosen; an excluded member makes
    the add fail.  With one size, as in the uniform states, ``below_bits``
    is empty and the constraint is the window cap alone.  With size 0
    among ``cards``, the empty set is candidate 0 and lies in every
    window; a subclass may choose it when it is built.

    The window counts live in one int, ``packed``: window w's count is
    the ``width``-bit field at bit w * ``width``, stored biased by
    2^(width-1) - 1 - cap, so the field's top bit (in ``high``) is set
    exactly when the window holds more than ``cap``.  2^(width-1)
    exceeds both ``cap`` and the most candidates a window holds, so the
    bias is never negative and no count carries into the next field.
    ``inc[i]`` has a 1 in the field of every window containing i, and
    ``full`` the top bits of the windows at ``cap``.  ``resid`` is the
    total free room over all windows; ``bound_remaining`` packs the
    counted candidates into it, lightest window weight first.

    A candidate is counted while it is undecided, in no full window and
    without an excluded one-smaller subset: ``mark_out(bits)`` clears
    each member i of ``bits`` and its ``child_bits[i]`` from ``free``,
    and an add clears the candidates of each window it fills.  An add
    whose closure holds a candidate that is not counted fails at once:
    it is out, or a full window or an excluded subset of it lies in
    ``below_bits`` of the added set.  Every other add sums its members'
    ``inc`` into a copy of ``packed`` and fails if a top bit is set, so
    a failed add changes nothing.  The snapshot adds ``packed``,
    ``full`` and ``resid`` to the two common bitsets.
    """

    def __init__(self, n, cards, win, cap):
        super().__init__(n, _candidate_masks(n, cards))
        masks, bits, idx_of = self.masks, self.bits, self.idx_of
        self.cap = cap
        self.width = width = max(cap, sum(comb(win, c) for c in cards)).bit_length() + 1
        self.windows = list(kset_masks(n, win))
        self.inc = inc = [0] * len(masks)
        self.window_bits = []
        for w, window in enumerate(self.windows):
            one, wbits = 1 << w * width, 0
            for s in submasks(window):
                if s in idx_of:
                    j = idx_of[s]
                    wbits |= bits[j]
                    inc[j] |= one
            self.window_bits.append(wbits)
        # one-smaller subsets come first in index order, so below_bits[j]
        # is complete when a set one larger reads it
        self.below_bits = [0] * len(masks)
        self.child_bits = [0] * len(masks)
        for i, m in enumerate(masks):
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                if m ^ low in idx_of:
                    j = idx_of[m ^ low]
                    self.below_bits[i] |= bits[j] | self.below_bits[j]
                    self.child_bits[j] |= bits[i]
        ones = sum(1 << w * width for w in range(len(self.windows)))
        self.ones, self.high = ones, ones << width - 1
        self.packed = ones * ((1 << width - 1) - 1 - cap)
        self.full = (self.packed + ones) & self.high
        if cap == 0:  # every window starts full
            for wbits in self.window_bits:
                self.free &= ~wbits
        self.n_windows = [x.bit_count() for x in inc]
        self.resid = cap * len(self.windows)
        # every c-set lies in C(n-c, win-c) windows: (bits of the size,
        # that weight), lightest first, is the greedy order of
        # bound_remaining
        self.by_weight = sorted(
            ((cbits, self.n_windows[(cbits & -cbits).bit_length() - 1])
             for cbits in self.card_bits.values()),
            key=lambda cw: cw[1],
        )

    # -- moves --------------------------------------------------------------

    def snapshot(self) -> tuple:
        return self.free, self.inbits, self.packed, self.full, self.resid

    def restore(self, s: tuple) -> None:
        self.free, self.inbits, self.packed, self.full, self.resid = s

    def try_add_group(self, i) -> bool:
        """Choose candidate i together with the undecided candidates inside
        it; False if one of those is not counted, or a window would pass
        ``cap`` (then i stays unaddable in this subtree)."""
        free = self.free
        group = self.below_bits[i] & ~self.inbits | self.bits[i]
        if group & ~free:
            return False
        inc, n_windows = self.inc, self.n_windows
        packed, resid = self.packed, self.resid
        rest = group
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            packed += inc[j]
            resid -= n_windows[j]
        if packed & self.high:
            return False
        full = (packed + self.ones) & self.high
        # the windows this add filled: their candidates leave free
        filled = full ^ self.full
        free ^= group
        width, window_bits = self.width, self.window_bits
        while filled:
            low = filled & -filled
            filled ^= low
            free &= ~window_bits[low.bit_length() // width - 1]
        self.packed, self.full, self.free, self.resid = packed, full, free, resid
        self.inbits |= group
        return True

    def mark_out(self, bits) -> None:
        free, child_bits = self.free & ~bits, self.child_bits
        while bits:
            low = bits & -bits
            bits ^= low
            free &= ~child_bits[low.bit_length() - 1]
        self.free = free

    # -- queries ------------------------------------------------------------

    def bound_remaining(self) -> int:
        """Upper bound on how many more candidates can still be chosen."""
        budget = self.resid
        total = 0
        free = self.free
        for cbits, w in self.by_weight:
            n_free = (free & cbits).bit_count()
            if not n_free:
                continue
            take = n_free if w == 0 else min(n_free, budget // w)
            total += take
            budget -= take * w
            if budget <= 0:
                break
        return total


class _UniformCapState(_CapState):
    """A ``_CapState`` of one size ``card``, carrying the averaging bound
    with M from the same search on n-1 points."""

    def __init__(self, n, card, win, cap):
        super().__init__(n, (card,), win, cap)

    @staticmethod
    def sub_query(n, card, win, cap):
        # with fewer points than a window there is no window to cap
        return (n - 1, card, win, cap) if n - 1 >= max(card, win) else None


class _TildeState(_CapState):
    """Complete pair/triple families on [n] (each chosen triple's pairs
    chosen too) with at most c - 1 members in every 4-window, carrying
    the vertex-deletion bound.  F - v is again a complete pair/triple
    family on n-1 points under the same 4-window cap, so M is the
    optimum of the query (n-1, c); the link is bounded by d_v alone.
    For c <= 2 the optimum is 0 or 1 and the chain only adds nodes, so
    it declares none; from c = 3 on it pays."""

    def __init__(self, n, c):
        super().__init__(n, (2, 3), 4, c - 1)

    @staticmethod
    def sub_query(n, c):
        # a tilde query needs a 4-window
        return (n - 1, c) if n - 1 >= 4 and c >= 3 else None


class _DownsetState(_CapState):
    """Down-sets on [n] with members of size 0..a-1 and every a-window
    trace below b, carrying the vertex-deletion bound.

    A down-set's trace on a window is its members inside that window, so
    each window holds at most b - 1 candidates.  Every nonempty down-set
    holds the empty set, candidate 0, and the state chooses it when it
    is built.  F - v is such a down-set on n-1 points, so M is the
    optimum of the query (n-1, a, b); the link is bounded by d_v alone.
    """

    def __init__(self, n, a, b):
        super().__init__(n, range(a), a, b - 1)
        self.try_add_group(0)

    @staticmethod
    def sub_query(n, a, b):
        # with n-1 < a points there is no window to cap; b = 2 leaves
        # no candidate addable
        return (n - 1, a, b) if n - 1 >= a >= 2 and b >= 3 else None


# ---------------------------------------------------------------------------
# branch-and-bound driver


class _Searcher:
    """Depth-first maximizer over a constraint state with orbital branching.

    A node is opened (``_open``: ticked, recorded if it is a new
    incumbent, and bounded) by its parent right after the move that
    makes it, and a ``_dfs`` frame is entered only for a node the bound
    leaves open.  The incumbent is ``best_bits``, the state's
    ``inbits`` when it was recorded.

    A frame takes a snapshot of the state before each child's move and
    restores it once that child's subtree is done; it does not restore
    on exit, because its caller does.  A budget stop restores nothing:
    the search is over, and only the incumbent is read after it.

    The state's ``reach()``, while it has one, is read only at nodes
    that its own ``bound_remaining`` leaves open.  The searcher holds it
    as a bound method; the state holds no reference back, so a finished
    state is freed without the cyclic collector.
    """

    def __init__(self, state: _CountedState, budget: _Budget, use_symmetry: bool = True):
        self.state = state
        self.budget = budget
        self.best = -1
        self.best_bits = 0
        self.use_symmetry = use_symmetry
        self.reach = state.reach if state.has_reach else None

    def run(self) -> bool:
        """Returns True when the tree was fully explored."""
        try:
            if self._open():
                self._dfs("FULL" if self.use_symmetry else None)
            return True
        except _BudgetExhausted:
            return False

    def _open(self) -> bool:
        """Tick the node the state stands at, record it when it is a new
        incumbent, and tell whether its bound leaves it open."""
        self.budget.tick()
        inbits = self.state.inbits
        cur = inbits.bit_count()
        if cur > self.best:
            self.best = cur
            self.best_bits = inbits
        if cur + self.state.bound_remaining() <= self.best:
            return False
        return self.reach is None or self.reach() > self.best

    def _pick(self, group):
        """The candidate e to branch on, the bits of its counted orbit
        under ``group``, and the permutations of an explicit ``group``
        that fix e's mask (None otherwise).  A candidate that is not
        counted never becomes counted deeper in the subtree, so the
        orbit leaves out the members that are not."""
        st = self.state
        e = st.pick_first()
        if e is None:
            return None, 0, None
        if group is None:
            return e, st.bits[e], None
        if group == "FULL":
            return e, st.card_bits[st.cards[e]] & st.free, None
        mask = st.masks[e]
        idx_of, bits = st.idx_of, st.bits
        orbit, fixed = bits[e], []
        for perm in group:
            image = apply_perm(perm, mask)
            if image == mask:
                fixed.append(perm)
            else:
                orbit |= bits[idx_of[image]]
        return e, orbit & st.free, fixed

    def _stabilize(self, group, e, fixed):
        """e's stabilizer in ``group``: ``fixed``, or under "FULL" the
        stabilizer of e's mask; None when it is trivial or past the cap."""
        if group == "FULL":
            fixed = mask_stabilizer(self.state.masks[e], self.state.nbits)
        return fixed if fixed is not None and len(fixed) > 1 else None

    def _dfs(self, group) -> None:
        """Explore an open node; its parent has already opened it."""
        st = self.state
        while True:
            e, orbit, fixed = self._pick(group)
            if e is None:
                return
            here = st.snapshot()
            if st.try_add_group(e):
                if self._open():
                    self._dfs(self._stabilize(group, e, fixed))
                st.restore(here)
            st.mark_out(orbit)
            # the state stands at the last child, made in place: open it
            if not self._open():
                return


# ---------------------------------------------------------------------------
# problem builders
#
# Module-level functions, called through a module-global name at call
# time, so that wrapping a name (bench/tracer.py does, to time state
# builds) reaches every search that uses it.


def _candidate_masks(nbits: int, cards) -> list[int]:
    masks = []
    for card in sorted(cards):
        masks.extend(kset_masks(nbits, card))
    masks.sort(key=_canon_key)
    return masks


def _build_downset_state(n: int, a: int, b: int) -> _DownsetState:
    """Down-sets on [n] with members of size 0..a-1 and no a-window trace
    of size >= b; the empty set is chosen."""
    return _DownsetState(n, a, b)


def _build_tilde_state(n: int, c: int) -> _TildeState:
    """Complete pair/triple families on [n] with fewer than c members in
    every 4-window."""
    return _TildeState(n, c)


def _build_uniform_window_state(n: int, card: int, win: int, cap: int) -> _UniformCapState:
    """card-sets under 'at most cap inside any win-window'; one size, so
    no set has a candidate inside it and the cap is the only constraint."""
    return _UniformCapState(n, card, win, cap)


class _AntichainState(_CountedState):
    """Antichains under a distinct-projection ceiling per (k+1)-window,
    carrying the vertex-deletion bound for k >= 1.

    Candidates are all subsets of [n].  Adding F is allowed when F is
    incomparable with everything chosen and no window would see its
    2^(k+1)-th distinct projection.  ``comp_bits[i]`` holds the
    candidates strictly comparable with i.  The windows are the
    (k+1)-subsets of [n]; window w owns the ``field``-bit field of
    ``seen`` at bit w * ``field`` (``field`` = 2^(k+1)), one bit per
    projection onto it, set once a chosen set has that projection.
    ``proj[i]`` holds candidate i's projection bit in every field, and
    ``by_proj[s]`` the candidates whose projection bit is bit s.

    ``count`` packs the number of projections each window has seen into
    the same fields, biased by 2^(field-1) - (field-1), so a field's top
    bit (in ``high``) turns on exactly when its window has seen
    field - 1 projections: one hole.  The bias plus field stays below
    2^field, so no count carries into the next field.  An add clears
    the comparable candidates from ``free`` and sets the added set's
    projection bits in ``seen``.  It shows at most one new projection
    per window, so it folds each field of the new bits onto the field's
    base bit (``low`` holds each field's bits below its top) and adds
    the result to ``count``; only the windows whose top bit it turned on
    are visited, and the candidates with their missing projection are
    cleared.  No window is ever shattered, as those candidates leave
    ``free`` once it has one hole.  The snapshot adds ``seen`` and
    ``count`` to the two common bitsets.

    The bound.  F - v, the members avoiding v, is an antichain on n-1
    points with no shattered (k+1)-set, as F's traces include its own.
    So is the link F(v) = {S - v : v in S in F}: if S - v is inside
    T - v then S is inside T, and F(v)'s trace on a window avoiding v
    lies inside F's.  So M = L = the optimum of the query (n-1, k): the
    sub-query is declared once, and ``start_averaging`` sets L = M.  This
    is the only search with a link cap.  The full candidate
    [n] avoids no vertex, so n - k, the fewest vertices a member avoids,
    is 0 here; every other member avoids at least one, so
    sum_v |F - v| >= |F| for every F but {[n]} (``spare`` is 1), and
    where no member of U avoids a vertex, U is {[n]} or empty and
    ``reach()`` reads |U|.  For k = 0 the optimum is 1 and the chain
    only adds nodes, so it declares none.

    For k = n - 1 the one window is [n], and no antichain shatters it
    (that takes both the empty set and [n]), so the query is Sperner's
    problem; (n-1, k) is no query, but (n-1, n-2), whose one window is
    [n-1], is vacuous the same way and has the same optimum, the Sperner
    number on n-1 points, so it is declared instead.  This starts
    at n = 4: the (3, 2) -> (2, 1) chain only adds nodes.
    """

    def __init__(self, n: int, k: int):
        super().__init__(n, _candidate_masks(n, range(n + 1)))
        masks, bits, idx_of = self.masks, self.bits, self.idx_of
        top = (1 << n) - 1
        self.windows = list(kset_masks(n, k + 1))
        self.field = field = 1 << (k + 1)
        self.seen = 0
        # a window's projections are its submasks: the candidates with
        # projection p onto it are p plus any set outside it
        self.proj = proj = [0] * len(masks)
        self.by_proj = []
        for w, window in enumerate(self.windows):
            outside = list(submasks(top ^ window))
            for t, p in enumerate(submasks(window)):
                slot, pbits = 1 << w * field + t, 0
                for r in outside:
                    j = idx_of[p | r]
                    proj[j] |= slot
                    pbits |= bits[j]
                self.by_proj.append(pbits)
        self.comp_bits = []
        for i, m in enumerate(masks):
            cbits = 0
            for r in submasks(m):
                cbits |= bits[idx_of[r]]
            for r in submasks(top ^ m):
                cbits |= bits[idx_of[m | r]]
            self.comp_bits.append(cbits ^ bits[i])
        ones = sum(1 << w * field for w in range(len(self.windows)))
        self.high = ones << field - 1
        self.low = ones * ((1 << field - 1) - 1)
        self.count = ones * ((1 << field - 1) - (field - 1))

    @staticmethod
    def sub_query(n, k):
        # an antichain query needs a (k+1)-window, so k = n - 1 takes the
        # vacuous (n-1, n-2) instead; k = 0 needs no bound
        if n - 1 >= k + 1 and k >= 1:
            return (n - 1, k)
        return (n - 1, n - 2) if k == n - 1 >= 3 else None

    def start_averaging(self, sub_optimum: int) -> None:
        """The bound with L = M: the link is again such an antichain."""
        super().start_averaging(sub_optimum)
        self.link_cap = sub_optimum

    def snapshot(self) -> tuple:
        return self.free, self.inbits, self.seen, self.count

    def restore(self, s: tuple) -> None:
        self.free, self.inbits, self.seen, self.count = s

    def try_add_group(self, i: int) -> bool:
        bit = self.bits[i]
        free = self.free
        if not free & bit:
            return False
        seen = self.seen
        new = self.proj[i] & ~seen
        self.seen = seen = seen | new
        free &= ~(bit | self.comp_bits[i])
        field, low, high = self.field, self.low, self.high
        # a field's top bit in high where its new bits are nonzero, moved
        # to the field's base bit
        count = self.count
        self.count = grown = count + ((((new & low) + low | new) & high) >> field - 1)
        filled = (grown ^ count) & high
        by_proj, mask = self.by_proj, (1 << field) - 1
        while filled:
            top = filled & -filled
            filled ^= top
            base = top.bit_length() - field
            hole = ~seen >> base & mask
            free &= ~by_proj[base + hole.bit_length() - 1]
        self.free = free
        self.inbits |= bit
        return True


def _build_antichain_state(n: int, k: int) -> _AntichainState:
    return _AntichainState(n, k)


# ---------------------------------------------------------------------------
# solving

# share of a level's node and time budget that each level below it may spend
_SUB_SHARE = 3 / 4


def _no_seed(*level) -> None:
    return None


def _solve_state(
    build: Callable[..., _CountedState],
    args: tuple,
    *,
    sub_query: Callable[..., tuple | None] = _CountedState.sub_query,
    witness: Callable,
    recheck: Callable[..., bool],
    seed: Callable[..., Iterable[int] | None] = _no_seed,
    budget_nodes: int,
    budget_secs: float,
    use_symmetry: bool,
) -> SearchResult:
    """Maximize over the state ``build(*args)`` and certify the answer.

    ``sub_query`` is the state class's declaration: the builder
    arguments of the sub-query on n-1 points that a state built from
    given arguments needs for its bound, or None.  Followed from
    ``args`` until it gives None, it lists the query's levels, a chain.
    One loop runs them bottom up, each once and the query last; it
    builds a level's state only when that level's turn comes.  All
    share one node count, so ``nodes`` includes them.  A level d points
    below the query may tick nodes up to ``_SUB_SHARE``**d of
    ``budget_nodes`` (rounded down at each step) and run until
    ``_SUB_SHARE``**d of ``budget_secs`` has passed since the start, so
    the query's own search always has the rest.  When the level below
    proved, its optimum turns the bound on, and the first incumbent is
    what the state chose when it was built.  Otherwise the candidates
    the level below chose, a family of the same search on the first n-1
    points, are the first incumbent.

    ``seed(*level)`` gives the masks of a known construction on a
    level's points, or None.  Every mask must be a candidate, and the
    seed must pass the same re-check as a witness; otherwise this raises
    RuntimeError, because a seed that is not feasible would let the
    bound prune the true optimum.  A level starts from the seed when it
    has more members than the first incumbent above.  A seed only raises
    the incumbent: ``proved_optimal`` still means that the search
    exhausted its tree.

    A level's witness is ``witness(n, masks)``: ``masks`` are the chosen
    ones, in the canonical member order.  It is kept only if it has one
    member per mask and ``recheck(witness, *level)``, with the level's
    own arguments, accepts it; otherwise this raises RuntimeError.  A level that ends
    on its seed's own members returns the seed's witness, so each
    returned family is re-checked once.
    """
    t0 = perf_counter()
    budget = _Budget(budget_nodes, budget_secs)
    chain = [args]
    while (sub := sub_query(*chain[-1])) is not None:
        chain.append(sub)
    # the level below: its result and its chosen candidate masks
    result = chosen = None
    for depth, level in reversed(list(enumerate(chain))):
        budget.limit = budget_nodes
        for _ in range(depth):
            budget.limit = int(budget.limit * _SUB_SHARE)
        budget.deadline = t0 + budget_secs * _SUB_SHARE**depth
        state = build(*level)
        start = state.inbits
        if result is not None and result.proved_optimal:
            state.start_averaging(result.optimum)
        elif result is not None:
            start = _bits_of(state, chosen)
        masks = seed(*level)
        seeded = None
        if masks is not None:
            seeded = _bits_of(state, masks)
            seed_wit = _certify(state, _masks_of(state, seeded), witness, recheck, level, "seed")
            if seeded.bit_count() > start.bit_count():
                start = seeded
        searcher = _Searcher(state, budget, use_symmetry=use_symmetry)
        searcher.best, searcher.best_bits = start.bit_count(), start
        # a lower level that ran out of nodes may have left none to tick
        completed = budget.nodes <= budget.limit and searcher.run()
        chosen = _masks_of(state, searcher.best_bits)
        if searcher.best_bits == seeded:  # the seed's witness, re-checked above
            wit = seed_wit
        else:
            wit = _certify(state, chosen, witness, recheck, level)
        result = SearchResult(len(wit), wit, completed, budget.nodes, perf_counter() - t0)
    return result


def _bits_of(state: _CountedState, masks) -> int:
    """The candidate bits of a family's masks; a mask that is not a
    candidate raises RuntimeError."""
    bits = 0
    for m in masks:
        if m not in state.idx_of:
            raise RuntimeError(f"member {m:#b} is not a candidate of this search")
        bits |= state.bits[state.idx_of[m]]
    return bits


def _masks_of(state: _CountedState, bits: int) -> list[int]:
    """The masks of the candidates ``bits``, in index order."""
    return [m for m, bit in zip(state.masks, state.bits) if bits & bit]


def _certify(
    state: _CountedState, chosen: list[int], witness, recheck, level: tuple, what="witness"
):
    """The witness of the chosen candidate masks, re-checked;
    RuntimeError if it fails."""
    wit = witness(state.nbits, _canonicalize(chosen))
    if len(wit) != len(chosen) or not recheck(wit, *level):
        raise RuntimeError(f"{what} failed independent re-verification")
    return wit


def _canonicalize(masks) -> tuple[int, ...]:
    """Witness masks in the canonical member order; no relabeling."""
    return tuple(sorted(masks, key=_canon_key))


def _limits(q: ArrowQuery) -> dict:
    """A query's budgets and symmetry switch, as ``_solve_state`` keywords."""
    return {
        "budget_nodes": q.budget_nodes,
        "budget_secs": q.budget_secs,
        "use_symmetry": q.use_symmetry,
    }


# ---------------------------------------------------------------------------
# public search operations


def max_family(q: ArrowQuery) -> SearchResult:
    """Largest down-set on [n] (member sizes < a) with no a-window trace
    of size >= b; equals the forcing threshold minus one.

    The down-set restriction is lossless: compression turns any family
    avoiding the trace level into a down-set of the same size, and a
    member of size >= a would already fill a full a-window.  One search
    over the sets of size 0..a-1 decides the singletons with the rest;
    the empty set is chosen before it starts.  The deletion queries of
    its bound, (n-1, a, b) down to a points, run first
    (``_DownsetState``), and their nodes count in the result's.  Every level starts from
    ``max_family_seed``, the partite family, where b > 3 * 2^(a-2).
    """
    q.validate()
    if q.mode != MODE_DOWNSET:
        raise FamilyError(f"max_family needs mode {MODE_DOWNSET!r}")
    return _solve_state(
        _build_downset_state,
        (q.n, q.a, q.b),
        sub_query=_DownsetState.sub_query,
        **_limits(q),
        witness=SetFamily.from_masks,
        recheck=lambda w, n, a, b: is_downset(w) and not arrows(w, a, b),
        seed=max_family_seed,
    )


def _tilde_witness(n: int, masks) -> TildeFamily:
    g2 = SetFamily.from_masks(n, [m for m in masks if m.bit_count() == 2])
    g3 = SetFamily.from_masks(n, [m for m in masks if m.bit_count() == 3])
    return TildeFamily(n, g2, g3)


def max_tilde(q: ArrowQuery) -> SearchResult:
    """Largest complete pair/triple family on [n] in which every 4-set
    carries fewer than c members across both levels; for c = 5..8 the
    search starts from ``max_tilde_seed``.  The deletion queries of its
    bound, (n-1, c) down to 4 points, run first (``_TildeState``), and
    their nodes count in the result's."""
    q.validate()
    if q.mode != MODE_TILDE:
        raise FamilyError(f"max_tilde needs mode {MODE_TILDE!r}")
    return _solve_state(
        _build_tilde_state,
        (q.n, q.c),
        sub_query=_TildeState.sub_query,
        **_limits(q),
        witness=_tilde_witness,
        recheck=lambda w, n, c: w.complete and not hookarrow(w, c),
        seed=max_tilde_seed,
    )


def max_antichain(q: ArrowQuery) -> SearchResult:
    """Largest antichain on [n] in which no (k+1)-set is fully shattered
    (every (k+1)-window trace stays below 2^(k+1)).  For k >= 1 the
    deletion queries of its bound, (n-1, k) down to k+1 points, run
    first (``_AntichainState``), and their nodes count in the
    result's.  Every level starts from ``antichain_seed``, the layer of
    the min(k, n//2)-sets.  The state holds all 2^n subsets and is built
    outside the node budget, so n is capped at 9."""
    q.validate()
    if q.mode != MODE_ANTICHAIN:
        raise FamilyError(f"max_antichain needs mode {MODE_ANTICHAIN!r}")
    if q.n > 9:
        raise FamilyError("antichain search enumerates all subsets; capped at n <= 9")
    return _solve_state(
        _build_antichain_state,
        (q.n, q.k),
        sub_query=_AntichainState.sub_query,
        **_limits(q),
        witness=SetFamily.from_masks,
        recheck=lambda w, n, k: is_antichain(w) and not arrows(w, k + 1, 1 << (k + 1)),
        seed=antichain_seed,
    )


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
