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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
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
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise FamilyError(f"ground-set size {self.n} outside [1..{MAX_GROUND}]")
        limit = 1 << self.n
        prev_key = None
        for m in self.members:
            if not 0 <= m < limit:
                raise FamilyError(f"member mask {m:#x} has bits outside [1..{self.n}]")
            key = _canon_key(m)
            if prev_key is not None and key <= prev_key:
                raise FamilyError("members not in canonical order / contain duplicates")
            prev_key = key

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        return cls(n, tuple(sorted(set(masks), key=_canon_key)))

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


def max_trace_over_ksets(fam: SetFamily, k: int) -> TraceMax:
    """Maximum trace size over all k-subsets of [n], with the smallest
    maximizing mask as witness."""
    if not 1 <= k <= fam.n:
        raise FamilyError(f"window size {k} outside [1..{fam.n}]")
    from math import comb

    if comb(fam.n, k) > _WINDOW_SCAN_CAP:
        raise FamilyError(f"refusing to scan C({fam.n},{k}) windows")
    members = fam.members
    best = 0
    best_y = None
    for combo in combinations(range(fam.n), k):
        y = 0
        for b in combo:
            y |= 1 << b
        size = len({m & y for m in members})
        if size > best or (size == best and (best_y is None or y < best_y)):
            best = size
            best_y = y
    return TraceMax(best, best_y if best_y is not None else 0)


def arrows(fam: SetFamily, a: int, b: int) -> bool:
    """True iff some a-set Y has |trace(fam, Y)| >= b."""
    if b < 1:
        raise FamilyError(f"trace target b={b} must be >= 1")
    return max_trace_over_ksets(fam, a).max >= b


def link(fam: SetFamily, i: int) -> SetFamily:
    """{F - {i} : i in F}."""
    bit = _check_element(fam, i)
    return SetFamily.from_masks(fam.n, (m ^ bit for m in fam.members if m & bit))


def delete(fam: SetFamily, i: int) -> SetFamily:
    """{F : i not in F}."""
    bit = _check_element(fam, i)
    return SetFamily.from_masks(fam.n, (m for m in fam.members if not m & bit))


def pair_link(fam: SetFamily, i: int, j: int) -> SetFamily:
    """{F - {i,j} : {i,j} subset of F}."""
    bi, bj = _check_element(fam, i), _check_element(fam, j)
    if i == j:
        raise FamilyError("pair link needs two distinct elements")
    both = bi | bj
    return SetFamily.from_masks(fam.n, (m ^ both for m in fam.members if m & both == both))


def pair_delete(fam: SetFamily, i: int, j: int) -> SetFamily:
    """{F : F disjoint from {i,j}}."""
    bi, bj = _check_element(fam, i), _check_element(fam, j)
    if i == j:
        raise FamilyError("pair delete needs two distinct elements")
    both = bi | bj
    return SetFamily.from_masks(fam.n, (m for m in fam.members if not m & both))


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


def is_downset(fam: SetFamily) -> bool:
    """Closed under taking subsets; checked via single-element deletions."""
    for m in fam.members:
        b = m
        while b:
            low = b & -b
            if (m ^ low) not in fam:
                return False
            b ^= low
    return True


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


def family_from_json_obj(obj: dict) -> SetFamily:
    try:
        n = int(obj["n"])
        sets = obj["sets"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FamilyError(f"bad family JSON object: {obj!r}") from exc
    return SetFamily.from_sets(n, sets)


def family_to_json(fam: SetFamily) -> str:
    return json.dumps(family_to_json_obj(fam), separators=(",", ":"))


def family_from_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyError(f"family JSON does not parse: {exc}") from exc
    return family_from_json_obj(obj)
