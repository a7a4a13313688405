"""Finitely generated abelian groups in invariant factor form.

A group is ``Z^f ⊕ Z/d1 ⊕ ... ⊕ Z/ds`` with 2 <= d1 | d2 | ... | ds.
Elements carry separate free and torsion coordinate tuples, with
torsion coordinates always reduced into [0, dj).  Membership questions
are answered exactly by lifting to integer linear systems: subgroup
membership becomes a Diophantine system, semigroup membership an
integer feasibility problem with non-negative coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import CapExceededError, InternalError
from .linalg import (
    IntMatrix,
    LinearSystem,
    Vector,
    ilp_feasible,
    smith_normal_form,
    solve_diophantine,
)

ENUMERATE_LINKS_CAP = 10


class AbelianGroup(Record):
    """Invariant factor presentation of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def coords(self) -> int:
        return self.free_rank + len(self.torsion)

    def element(self, free: Iterable[int] = (), torsion: Iterable[int] = ()) -> "GroupElement":
        free = tuple(int(c) for c in free)
        tors = tuple(int(c) for c in torsion)
        if len(free) != self.free_rank or len(tors) != len(self.torsion):
            raise ValueError("coordinate count does not match the group")
        tors = tuple(c % d for c, d in zip(tors, self.torsion))
        return GroupElement(self, free, tors)

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.free_rank, (0,) * len(self.torsion))

    def generators(self) -> tuple["GroupElement", ...]:
        """Standard generators: free basis vectors, then torsion basis vectors."""
        gens = []
        for i in range(self.free_rank):
            gens.append(self.element(tuple(1 if j == i else 0 for j in range(self.free_rank)),
                                     (0,) * len(self.torsion)))
        for i in range(len(self.torsion)):
            gens.append(self.element((0,) * self.free_rank,
                                     tuple(1 if j == i else 0 for j in range(len(self.torsion)))))
        return tuple(gens)


class GroupElement(Record):
    group: AbelianGroup
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def lift(self) -> Vector:
        return self.free + self.torsion

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.free) and all(c == 0 for c in self.torsion)

    def _require_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise ValueError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_group(other)
        return self.group.element(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self) -> "GroupElement":
        return self.group.element(tuple(-a for a in self.free), tuple(-a for a in self.torsion))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        return self.group.element(tuple(k * a for a in self.free), tuple(k * a for a in self.torsion))

    __rmul__ = __mul__


class ElementCollection(Record):
    """Finite indexed collection of elements of one group."""

    group: AbelianGroup
    elements: tuple[GroupElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for e in self.elements:
            if e.group != self.group:
                raise ValueError("collection mixes elements of different groups")

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def take(self, indices: Iterable[int]) -> tuple[GroupElement, ...]:
        return tuple(self.elements[i] for i in indices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.elements)))


class CokernelMap(Record):
    """A cokernel Z^m / col-span(A) in normal form, with its projection.

    The projection matrix sends ambient coordinates to normal form
    coordinates: first the free ones, then one row per torsion factor
    (to be read modulo that factor).
    """

    group: AbelianGroup
    projection: IntMatrix

    def project(self, vec: Sequence[int]) -> GroupElement:
        y = self.projection.apply(tuple(vec))
        f = self.group.free_rank
        return self.group.element(y[:f], y[f:])


def group_from_cokernel(a: IntMatrix) -> CokernelMap:
    """Normal form of Z^rows(A) modulo the column span of A.

    >>> cok = group_from_cokernel(IntMatrix([[1, 0], [1, 2]]))
    >>> (cok.group.free_rank, cok.group.torsion)
    (0, (2,))
    """
    snf = smith_normal_form(a)
    m = a.rows
    diag = list(snf.diagonal) + [0] * (m - min(m, a.cols))
    free_rows = [i for i in range(m) if diag[i] == 0]
    torsion_rows = [i for i in range(m) if diag[i] >= 2]
    group = AbelianGroup(len(free_rows), tuple(diag[i] for i in torsion_rows))
    proj = IntMatrix(tuple(snf.u.row(i) for i in free_rows + torsion_rows), cols=m)
    return CokernelMap(group, proj)


def _relation_columns(group: AbelianGroup) -> list[Vector]:
    """Columns spanning the lifted relations of the normal form."""
    f, s = group.free_rank, len(group.torsion)
    cols = []
    for j, d in enumerate(group.torsion):
        col = [0] * (f + s)
        col[f + j] = d
        cols.append(tuple(col))
    return cols


def _lifted_matrix(gens: Sequence[GroupElement], group: AbelianGroup) -> IntMatrix:
    cols = [g.lift() for g in gens] + _relation_columns(group)
    return IntMatrix.from_columns(cols, rows=group.coords)


def subgroup_membership(target: GroupElement, gens: Sequence[GroupElement]) -> bool:
    """Is target an integer combination of the generators?"""
    group = target.group
    for g in gens:
        if g.group != group:
            raise ValueError("generators belong to a different group")
    mat = _lifted_matrix(gens, group)
    return solve_diophantine(mat, target.lift()).solvable


def semigroup_membership(
    target: GroupElement, gens: Sequence[GroupElement]
) -> tuple[bool, Optional[Vector]]:
    """Is target a non-negative integer combination of the generators?

    Returns the coefficient vector (one entry per generator) as witness.
    The empty combination is allowed, so zero is always a member.
    """
    group = target.group
    for g in gens:
        if g.group != group:
            raise ValueError("generators belong to a different group")
    return _semigroup_membership_cached(target, tuple(gens))


# generates_full_semigroup and is_admissible pass distinct generator
# values sorted by lift, so index sets with equal value sets share one
# key; repeats come from the subset scans of one collection and from
# collections that share a summand
@lru_cache(maxsize=65536)
def _semigroup_membership_cached(
    target: GroupElement, gens: tuple[GroupElement, ...]
) -> tuple[bool, Optional[Vector]]:
    group = target.group
    r = len(gens)
    s = len(group.torsion)
    mat = _lifted_matrix(gens, group)
    eqs = tuple((mat.row(i), target.lift()[i]) for i in range(group.coords))
    rows = []
    if s:
        # torsion multipliers are unbounded in sign, which can send the
        # branch and bound wandering, so every variable is boxed by
        # _search_radius: coefficients in [0, bound], multipliers in
        # [-bound, bound].  The proven radius is about (n+1)*Delta, Delta
        # the largest minor (see _search_radius); the box relies on the
        # slack of the Hadamard product above Delta to cover it
        bound = _search_radius(target, gens)
        for i in range(r + s):
            unit = tuple(1 if j == i else 0 for j in range(r + s))
            neg = tuple(-c for c in unit)
            rows.append((unit, 0 if i < r else -bound))
            rows.append((neg, -bound))
    else:
        for i in range(r):
            rows.append((tuple(1 if j == i else 0 for j in range(r)), 0))
    ok, witness = ilp_feasible(
        LinearSystem(r + s, equalities=eqs, inequalities=tuple(rows))
    )
    if not ok:
        return False, None
    coeffs = witness[:r]
    check = group.zero()
    for c, g in zip(coeffs, gens):
        check = check + c * g
    if check != target:
        raise InternalError("membership witness does not sum to the target")
    return True, coeffs


def _search_radius(target: GroupElement, gens: Sequence[GroupElement]) -> int:
    """Search box for semigroup membership with torsion: a Hadamard product.

    The lifted system takes the generators and each torsion relation in
    both signs, augmented by the target.  Every minor of it is bounded
    by the product of its row norms, which is returned, so the result
    is at least Delta, the largest absolute minor, without scanning
    minors.  The proven proximity radius is larger, about (n+1)*Delta
    for n variables: some non-negative integer solution, if one exists,
    lies within n*Delta of a vertex of the LP relaxation, whose entries
    are at most Delta (Cook, Gerards, Schrijver and Tardos 1986, Math.
    Prog. 34).  The product covers that radius only through its slack
    above Delta; no bound here proves it does.
    """
    group = target.group
    cols = [g.lift() for g in gens]
    for col in _relation_columns(group):
        cols.append(col)
        cols.append(tuple(-c for c in col))
    lift = target.lift()
    radius = 1
    for i in range(group.coords):
        nsq = sum(col[i] * col[i] for col in cols) + lift[i] * lift[i]
        root = isqrt(nsq)
        if root * root < nsq:
            root += 1
        radius *= max(1, root)
    return radius


def generates_group(coll: ElementCollection, indices: Optional[Iterable[int]] = None) -> bool:
    """Do the chosen elements generate the whole group?"""
    idx = coll.indices if indices is None else sorted(set(indices))
    mat = _lifted_matrix(coll.take(idx), coll.group)
    snf = smith_normal_form(mat)
    if snf.rank < coll.group.coords:
        return False
    return all(d == 1 for d in snf.invariant_factors)


def generates_full_semigroup(coll: ElementCollection, indices: Iterable[int]) -> bool:
    """Does the sub-semigroup spanned by the chosen elements contain all of them?

    True exactly when the chosen elements generate the same semigroup as
    the whole collection.  Only values matter: the chosen elements are
    reduced to their distinct values, each distinct value outside them
    is asked about once, and a value that is zero or equal to a chosen
    value is a member without a search (the empty combination, or one
    copy of that value).  Outside values are asked in the order of
    their first index.
    """
    chosen = set(indices)
    gens = _distinct_values(coll.take(chosen))
    outside = dict.fromkeys(coll[i] for i in coll.indices if i not in chosen)
    return all(_in_semigroup(target, gens) for target in outside)


def _distinct_values(elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    # sorted by lift so that equal generator sets share one memo key
    return tuple(sorted(set(elements), key=GroupElement.lift))


def _in_semigroup(target: GroupElement, values: tuple[GroupElement, ...]) -> bool:
    if target.is_zero or target in values:
        return True
    ok, _ = semigroup_membership(target, values)
    return ok


class AdmissibilityResult(Record):
    admissible: bool
    generates: bool
    failing_index: Optional[int] = None


def is_admissible(coll: ElementCollection) -> AdmissibilityResult:
    """A collection is admissible if it generates the group and stays
    semigroup-generating after removing any single element.

    Equivalently: every element is a non-negative combination of the
    others.  Indices are tested in order and the first failure is
    reported.  As in ``generates_full_semigroup`` the others are reduced
    to their distinct values, and an element that is zero or has an
    equal value elsewhere in the collection passes without a search.
    """
    if not generates_group(coll):
        return AdmissibilityResult(False, False, None)
    for i in coll.indices:
        others = _distinct_values(coll.take(j for j in coll.indices if j != i))
        if not _in_semigroup(coll[i], others):
            return AdmissibilityResult(False, True, i)
    return AdmissibilityResult(True, True, None)


class Link(Record):
    """Certificate that one element is a strictly positive combination
    of a support set of other elements."""

    target: int
    support: frozenset[int]
    coefficients: tuple[int, ...]  # aligned with sorted(support), all >= 1


def is_link(
    coll: ElementCollection, target: int, support: Iterable[int]
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Is coll[target] a combination of the support with all coefficients >= 1?

    The empty support is a link exactly for the zero element.  The
    strictly positive constraint is reduced to plain semigroup
    membership by first subtracting one copy of every support element.
    The residue is asked about the distinct support values; in the
    witness each value's coefficient goes to its first support index.
    """
    sup = sorted(set(support))
    if target in sup:
        raise ValueError("support must not contain the target")
    gens = coll.take(sup)
    residue = coll[target]
    for g in gens:
        residue = residue - g
    values = _distinct_values(gens)
    ok, coeffs = semigroup_membership(residue, values)
    if not ok:
        return False, None
    extra = dict(zip(values, coeffs))
    # dict.pop hands each value's coefficient to its first index only
    return True, tuple(1 + extra.pop(g, 0) for g in gens)


def enumerate_links(coll: ElementCollection) -> tuple[Link, ...]:
    """All links of a collection, smallest supports first.

    Ordered by target index, then support size, then support
    lexicographically.  Guarded by a cap on the collection size since
    the scan is over all support subsets.
    """
    r = len(coll)
    if r > ENUMERATE_LINKS_CAP:
        raise CapExceededError(f"link enumeration needs r <= {ENUMERATE_LINKS_CAP}, got {r}")
    out = []
    for target in coll.indices:
        others = [i for i in coll.indices if i != target]
        for size in range(r):
            for sup in combinations(others, size):
                ok, coeffs = is_link(coll, target, sup)
                if ok:
                    out.append(Link(target, frozenset(sup), coeffs))
    return tuple(out)


class DirectSum(Record):
    """External direct sum of two groups with its embeddings."""

    group: AbelianGroup
    _cok: CokernelMap
    _left: AbelianGroup
    _right: AbelianGroup

    def embed_left(self, e: GroupElement) -> GroupElement:
        if e.group != self._left:
            raise ValueError("element not in the left summand")
        vec = e.lift() + (0,) * self._right.coords
        return self._cok.project(vec)

    def embed_right(self, e: GroupElement) -> GroupElement:
        if e.group != self._right:
            raise ValueError("element not in the right summand")
        vec = (0,) * self._left.coords + e.lift()
        return self._cok.project(vec)


def direct_sum_collection(left: ElementCollection, right: ElementCollection) -> ElementCollection:
    """Concatenate two collections inside the direct sum of their groups."""
    ds = direct_sum(left.group, right.group)
    elems = tuple(ds.embed_left(a) for a in left) + tuple(ds.embed_right(b) for b in right)
    return ElementCollection(ds.group, elems)


def direct_sum(left: AbelianGroup, right: AbelianGroup) -> DirectSum:
    """Direct sum renormalized to a single invariant factor chain.

    >>> ds = direct_sum(AbelianGroup(0, (2,)), AbelianGroup(0, (3,)))
    >>> ds.group.torsion
    (6,)
    """
    cols = []
    total = left.coords + right.coords
    for col in _relation_columns(left):
        cols.append(tuple(col) + (0,) * right.coords)
    for col in _relation_columns(right):
        cols.append((0,) * left.coords + tuple(col))
    cok = group_from_cokernel(IntMatrix.from_columns(cols, rows=total))
    return DirectSum(cok.group, cok, left, right)
