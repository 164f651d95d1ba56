"""Set families on small ground sets, stored as bitmasks.

The ground set is [n] = {1, ..., n} with n <= 64.  A subset of [n] is a
machine word (``int``) whose bit ``i-1`` records membership of element
``i``; every public interface speaks 1-indexed elements, masks are the
internal currency.  A :class:`SetFamily` is a deduplicated, canonically
ordered tuple of such words.

Core vocabulary implemented here: traces ``{F & Y}``, the arrow test
"some a-set carries a trace of size >= b", links and deletions, level
slices, shadows, down-set and antichain predicates, and the two
serialization formats (plain text and JSON).

The arrow test and :func:`max_trace_over_ksets` share one bit-parallel
walk: one bitset of members per element, transposed from the members'
8-byte words in C, and the k-windows walked depth first in increasing
mask order with each prefix's members kept split into trace classes, so
a window costs a few big-int ANDs instead of a set of |fam| traces.  The
walk returns at the first window whose trace reaches its stop level:
2^k for the maximum (no trace is larger, and the first window to reach
it is the smallest-mask witness), b for the arrow test.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple

MAX_GROUND = 64
# refuse to enumerate more k-subsets than this in a single trace scan
_WINDOW_SCAN_CAP = 2_000_000


class FamilyError(ValueError):
    """Invalid input to a set-family operation or a violated contract."""


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask of a collection of 1-indexed elements of [n]."""
    m = 0
    for e in elements:
        if isinstance(e, bool) or not isinstance(e, int):
            raise FamilyError(f"element {e!r} is not an integer")
        if not 1 <= e <= n:
            raise FamilyError(f"element {e} outside ground set [1..{n}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-indexed elements of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def kset_masks(n: int, k: int) -> Iterator[int]:
    """The k-subsets of [n] as masks, in the lexicographic order of their
    element tuples (the order of ``itertools.combinations``)."""
    for combo in combinations([1 << b for b in range(n)], k):
        yield sum(combo)


def submasks(mask: int) -> Iterator[int]:
    """All 2^|mask| submasks of ``mask`` (including 0 and mask itself)."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def _canon_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of subsets of [n], canonically ordered.

    ``members`` is sorted by (cardinality, numeric mask value); this
    ordering fixes all tie-breaking in witnesses and serialization.
    Instances are immutable values: every operation builds a new family.
    What is derived from the members alone (the member set, whether the
    family is a down-set) is computed on first use and kept on the object,
    so it is computed at most once per family object.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise FamilyError(f"ground-set size {self.n} outside [1..{MAX_GROUND}]")
        limit = 1 << self.n
        prev_key = (-1, -1)
        for m in self.members:
            if not 0 <= m < limit:
                raise FamilyError(f"member mask {m:#x} has bits outside [1..{self.n}]")
            # the canonical key, inline: a call per member costs a third more
            key = (m.bit_count(), m)
            if key <= prev_key:
                raise FamilyError("members not in canonical order / contain duplicates")
            prev_key = key

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        # stable sorts: by mask, then by size, is the (size, mask) order
        return cls(n, tuple(sorted(sorted(set(masks)), key=int.bit_count)))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls.from_masks(n, (mask_of(s, n) for s in sets))

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        return cls(n, ())

    @classmethod
    def power_family(cls, n: int) -> "SetFamily":
        """All 2^n subsets of [n] (n <= 20 to keep this sane)."""
        if n > 20:
            raise FamilyError("power family only materialized for n <= 20")
        return cls.from_masks(n, range(1 << n))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def _is_downset(self) -> bool:
        return _closed_down(self._member_set)

    def sets(self) -> list[tuple[int, ...]]:
        """Members as tuples of 1-indexed elements, canonical order."""
        return [elements_of(m) for m in self.members]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = ", ".join("{" + ",".join(map(str, elements_of(m))) + "}" for m in self.members[:8])
        tail = ", ..." if len(self.members) > 8 else ""
        return f"SetFamily(n={self.n}, [{shown}{tail}], size={len(self.members)})"


class TraceMax(NamedTuple):
    max: int
    witness: int  # bitmask of a maximizing k-set, smallest mask among ties


def _check_element(fam: SetFamily, i: int) -> int:
    if not 1 <= i <= fam.n:
        raise FamilyError(f"element {i} outside ground set [1..{fam.n}]")
    return 1 << (i - 1)


def trace(fam: SetFamily, y: int) -> SetFamily:
    """The trace of ``fam`` on the set with mask ``y``: {F & y}, deduplicated."""
    if not 0 <= y < (1 << fam.n):
        raise FamilyError(f"trace set {y:#x} has bits outside [1..{fam.n}]")
    return SetFamily.from_masks(fam.n, (m & y for m in fam.members))


def trace_size(fam: SetFamily, y: int) -> int:
    """|trace(fam, y)| without building the family."""
    return len({m & y for m in fam.members})


# per bit of a byte, translate() tables that map each byte to that bit:
# as an ASCII digit for int(..., 2), and as 0/1 for itertools.compress
_DIGITS = [bytes(48 + (v >> i & 1) for v in range(256)) for i in range(8)]
_FLAGS = [bytes(v >> i & 1 for v in range(256)) for i in range(8)]


def _element_lanes(members: tuple[int, ...], n: int, table: list[bytes]) -> Iterator[bytes]:
    """For e = 0..n-1, one byte per member, in the order given: bit e of
    the member's mask, translated by ``table[e % 8]``.

    The masks are packed once, in C, into 8-byte little-endian words
    (every mask fits, as ``MAX_GROUND`` is 64).  Element e's lane is the
    strided slice of byte e // 8 of every word, translated; each is made
    when asked for, so a caller that takes them one at a time holds one
    lane at a time.
    """
    words = struct.pack(f"<{len(members)}Q", *members)
    for e in range(n):
        yield words[e >> 3 :: 8].translate(table[e & 7])


def _trace_walk(fam: SetFamily, k: int, stop: int) -> TraceMax:
    """The k-windows in increasing mask order, until one has a trace of
    size >= ``stop``: that window, or else the first window of largest
    trace, with its size.  See :func:`max_trace_over_ksets`."""
    n = fam.n
    if not 1 <= k <= n:
        raise FamilyError(f"window size {k} outside [1..{n}]")
    if comb(n, k) > _WINDOW_SCAN_CAP:
        raise FamilyError(f"refusing to scan C({n},{k}) windows")
    members = fam.members
    # bit j of cols[e] is set when member j contains element e+1; the words
    # go in last member first, since int(..., 2) reads its top digit first
    cols = [int(d, 2) for d in _element_lanes(members[::-1], n, _DIGITS)] if members else [0] * n
    best, best_y = -1, 0
    # (trace classes of the prefix, prefix mask, elements left to add, the
    # prefix's lowest element); each added element is below the one before
    stack = [([(1 << len(members)) - 1] if members else [], 0, k, n)]
    while stack:
        classes, y, left, low = stack.pop()
        if left == 1:
            for e in range(low):
                col = cols[e]
                size = len(classes)
                for c in classes:
                    a = c & col
                    if a and a != c:
                        size += 1
                if size > best:
                    best, best_y = size, y | 1 << e
                    if size >= stop:
                        return TraceMax(best, best_y)
            continue
        # pushed last-first, so the windows are visited in increasing mask order
        for e in reversed(range(left - 1, low)):
            col = cols[e]
            split = []
            for c in classes:
                a = c & col
                if a:
                    split.append(a)
                if a != c:
                    split.append(c ^ a)
            stack.append((split, y | 1 << e, left - 1, e))
    return TraceMax(best, best_y)


def max_trace_over_ksets(fam: SetFamily, k: int) -> TraceMax:
    """Maximum trace size over all k-subsets of [n], with the smallest
    maximizing mask as witness.

    Bit-parallel over the members: ``cols[e]`` has bit j set when member j
    contains element e+1, each column read off the members' byte lanes by
    one ``int(..., 2)``.  The k-sets are walked depth first in increasing
    mask order: the largest element first, ascending, then each next
    element below the one before it, ascending.  Each prefix Y carries its
    members split into trace classes (members with equal ``F & Y``), each
    class a member bitset.  Adding element e splits every class with
    ``& cols[e]``; at the last element the trace size is the number of
    classes plus the number that split, counted without building them.

    No trace exceeds 2^k, so the walk stops at the first window that
    reaches it; as the windows come in mask order, that window is the
    smallest maximizing mask.  Otherwise every window is visited, and a
    tie keeps the window visited first, which again is the smallest mask.

    Cost: building the columns is a few C-level passes over |fam| bytes
    per element.  Each window visited takes one AND of |fam|-bit integers
    per class of its prefix, at most min(|fam|, 2^(k-1)) classes, and
    each inner prefix pays the same to split; a family with a shattered
    k-set stops at the first one, the others pay all C(n, k) windows.
    Small k is cheap whatever |fam| is; when both k and |fam| are large
    the classes run into the hundreds and building one set of |fam|
    traces per window can be faster.
    """
    return _trace_walk(fam, k, 1 << k)


def arrows(fam: SetFamily, a: int, b: int) -> bool:
    """True iff some a-set Y has |trace(fam, Y)| >= b.

    The walk of :func:`max_trace_over_ksets` with b as its stop level: it
    returns at the first a-set, in mask order, whose trace reaches b, and
    visits all C(n, a) only when none does.
    """
    if b < 1:
        raise FamilyError(f"trace target b={b} must be >= 1")
    return _trace_walk(fam, a, b).max >= b


def link(fam: SetFamily, i: int) -> SetFamily:
    """{F - {i} : i in F}."""
    bit = _check_element(fam, i)
    return SetFamily.from_masks(fam.n, (m ^ bit for m in fam.members if m & bit))


def delete(fam: SetFamily, i: int) -> SetFamily:
    """{F : i not in F}."""
    bit = _check_element(fam, i)
    return SetFamily.from_masks(fam.n, (m for m in fam.members if not m & bit))


def link_avoiding(fam: SetFamily, i: int, j: int) -> SetFamily:
    """{F - {i} : i in F, j not in F} -- the link of i among j-avoiders."""
    bi, bj = _check_element(fam, i), _check_element(fam, j)
    if i == j:
        raise FamilyError("link_avoiding needs two distinct elements")
    return SetFamily.from_masks(
        fam.n, (m ^ bi for m in fam.members if m & bi and not m & bj)
    )


def level(fam: SetFamily, l: int) -> SetFamily:
    """Members of size exactly l."""
    if not 0 <= l <= fam.n:
        raise FamilyError(f"level {l} outside [0..{fam.n}]")
    return SetFamily(fam.n, tuple(m for m in fam.members if m.bit_count() == l))


def shadow(fam3: SetFamily) -> SetFamily:
    """All 2-subsets of the members of a 3-uniform family."""
    masks = set()
    for m in fam3.members:
        if m.bit_count() != 3:
            raise FamilyError(f"shadow input has non-triple member {elements_of(m)}")
        b = m
        while b:
            low = b & -b
            masks.add(m ^ low)
            b ^= low
    return SetFamily.from_masks(fam3.n, masks)


def _closed_down(masks: frozenset[int] | set[int]) -> bool:
    """True iff every one-element deletion of a member of ``masks`` is in
    ``masks``: the down-set scan, one set lookup per (member, element)."""
    for m in masks:
        b = m
        while b:
            low = b & -b
            if m ^ low not in masks:
                return False
            b ^= low
    return True


def is_downset(fam: SetFamily) -> bool:
    """Closed under taking subsets, checked via one-element deletions.
    The scan runs once per family object and its result is kept on it."""
    return fam._is_downset


def is_antichain(fam: SetFamily) -> bool:
    """No member strictly contains another."""
    ms = fam.members
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            # canonical order => |a| <= |b|; a strictly inside b iff a == a & b
            if a != b and a & b == a:
                return False
    return True


def down_closure(fam: SetFamily) -> SetFamily:
    """Smallest down-set containing ``fam``."""
    big = [m for m in fam.members if m.bit_count() > 20]
    if big:
        raise FamilyError(
            f"closure of a {max(m.bit_count() for m in big)}-element member is too large"
        )
    masks: set[int] = set()
    for m in fam.members:
        masks.update(submasks(m))
    return SetFamily.from_masks(fam.n, masks)


@dataclass(frozen=True)
class PartitionStructure:
    """Disjoint classes Z_1..Z_r of [n] together with the family of
    class-incidence patterns, a family on ground set [r]."""

    classes: tuple[int, ...]  # element masks, pairwise disjoint, nonempty
    aux: SetFamily

    def __post_init__(self) -> None:
        seen = 0
        for z in self.classes:
            if z == 0:
                raise FamilyError("empty partition class")
            if z & seen:
                raise FamilyError("partition classes overlap")
            seen |= z
        if self.aux.n != max(len(self.classes), 1):
            raise FamilyError("aux ground set must be [r]")

    @property
    def r(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(z.bit_count() for z in self.classes)


# ---------------------------------------------------------------------------
# serialization


def family_to_text(fam: SetFamily) -> str:
    """Text format: first line ``n=<int>``, then one member per line as
    comma-separated ascending 1-indexed elements; the empty set is ``-``."""
    lines = [f"n={fam.n}"]
    for m in fam.members:
        lines.append("-" if m == 0 else ",".join(map(str, elements_of(m))))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> SetFamily:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise FamilyError("family text must start with an 'n=<int>' line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise FamilyError(f"bad ground-set size in {lines[0]!r}") from exc
    masks = []
    for ln in lines[1:]:
        if ln == "-":
            masks.append(0)
            continue
        try:
            elems = [int(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise FamilyError(f"bad set line {ln!r}") from exc
        masks.append(mask_of(elems, n))
    return SetFamily.from_masks(n, masks)


def family_to_json_obj(fam: SetFamily) -> dict:
    return {"n": fam.n, "sets": [list(elements_of(m)) for m in fam.members]}


def family_from_json_obj(obj: dict, key: str = "sets") -> SetFamily:
    """The family listed under ``obj[key]`` on the ground set [``obj["n"]``].
    ``n`` and every element must be JSON integers (not booleans), and the
    family and each of its members JSON lists; nothing is converted."""
    if not isinstance(obj, dict) or "n" not in obj or key not in obj:
        raise FamilyError(f"family JSON must be an object with the keys 'n' and {key!r}")
    n, sets = obj["n"], obj[key]
    if isinstance(n, bool) or not isinstance(n, int):
        raise FamilyError(f"family JSON key 'n' must be an integer, got {n!r}")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise FamilyError(f"family JSON key {key!r} must be a list of element lists")
    return SetFamily.from_sets(n, sets)


def family_to_json(fam: SetFamily) -> str:
    return json.dumps(family_to_json_obj(fam), separators=(",", ":"))


def parse_json(text: str, what: str):
    """The JSON value in ``text``.  Text that does not parse, or that nests
    deeper than the parser can follow, raises FamilyError naming ``what``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FamilyError(f"{what} does not parse: {exc}") from exc


def family_from_json(text: str) -> SetFamily:
    return family_from_json_obj(parse_json(text, "family JSON"))
