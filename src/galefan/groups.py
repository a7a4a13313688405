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
from math import isqrt
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import InternalError
from .fans import _covector_for_pattern, dot
from .linalg import (
    IntMatrix,
    LinearSystem,
    Vector,
    ilp_feasible,
    integer_kernel,
    smith_normal_form,
    solve_diophantine,
)


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

    def combination(
        self, coeffs: Iterable[int], elements: Iterable["GroupElement"]
    ) -> "GroupElement":
        """The sum of c * e over paired coefficients and elements of this group.

        Coordinates are summed as integers and reduced once, at the end.
        """
        total = [0] * self.coords
        for c, e in zip(coeffs, elements, strict=True):
            if e.group != self:
                raise ValueError("element belongs to a different group")
            total = [t + c * x for t, x in zip(total, e.lift())]
        return self.element(total[: self.free_rank], total[self.free_rank :])

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


def _relation_basis(coll: ElementCollection) -> tuple[Vector, ...]:
    """Short basis of the lattice of relations x, sum x_i * coll[i] = 0.

    The kernel of the lifted matrix also carries one multiplier per
    torsion factor; a relation determines them, so cutting the kernel
    basis to the first r coordinates keeps a basis.  That Smith-form
    basis can carry five-digit entries where one-digit ones exist, and
    searches on it are far slower, so while subtracting the nearest
    integer multiple of one basis vector from another shortens it, that
    is done (pairwise Gauss reduction): each step is unimodular, and the
    squared lengths are positive integers that strictly fall.
    """
    r = len(coll)
    kernel = integer_kernel(_lifted_matrix(coll.elements, coll.group))
    basis = [list(vec[:r]) for vec in kernel]
    changed = True
    while changed:
        changed = False
        for b in basis:
            for c in basis:
                cc = sum(x * x for x in c)
                bc = sum(x * y for x, y in zip(b, c))
                if b is not c and 2 * abs(bc) > cc:
                    q = (2 * bc + cc) // (2 * cc)  # the integer nearest bc / cc
                    b[:] = [x - q * y for x, y in zip(b, c)]
                    changed = True
    return tuple(tuple(b) for b in basis)


def _dual_vectors(coll: ElementCollection) -> tuple[Vector, ...]:
    """Gale dual vectors: vector i lists the i-th entries of the relation basis."""
    basis = _relation_basis(coll)
    return tuple(tuple(rel[i] for rel in basis) for i in coll.indices)


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


# generates_full_semigroup, and _in_semigroup_outside on torsion-free
# groups, pass distinct generator values sorted by lift, so index sets
# with equal value sets share one key; repeats come from the subset
# scans of one collection and from collections that share a summand
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
        # [-bound, bound].  The box holds a solution whenever one exists
        # (proved in _search_radius), so it never changes the answer
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
    if group.combination(coeffs, gens) != target:
        raise InternalError("membership witness does not sum to the target")
    return True, coeffs


def _search_radius(target: GroupElement, gens: Sequence[GroupElement]) -> int:
    """Search box for semigroup membership with torsion: (n+1)*H.

    The unknowns are z = (x, t): r coefficients x >= 0 and s torsion
    multipliers t, n = r + s of them, with A z = b for the lifted matrix
    A and the lifted target b.  H is the product over the rows of
    [A | b] of their Euclidean norms (relation columns counted in both
    signs, each norm rounded up, at least 1).  Claim: if some integer z
    solves the system, one has every entry at most (n+1)*H in absolute
    value.

    Proof.  Write P = {z : A z <= b, -A z <= -b, -x <= 0} with
    constraint matrix M.  A square submatrix of M holding a row of A and
    its negation is singular; otherwise expanding along its unit rows
    leaves, up to sign, a minor of A.  So every minor of M is at most
    H by Hadamard's inequality.  P is pointed, since A (0, t) = 0 forces
    t = 0, so a nonempty P has a vertex v, the solution of n independent
    tight rows of M.  By Cramer's rule each entry of v is a quotient of
    two integer determinants whose numerator is, up to sign, a minor of
    [A | b], so |v_k| <= H.  Take an objective w for which v is optimal,
    say the sum of its tight rows.  If P holds an integer point, the
    integer program max {w z : z in P} has an optimum too (its values
    are bounded by w v, and Meyer 1974 gives attainment), and some
    optimal integer z lies within n*Delta of v in every entry, where
    Delta <= H bounds the minors of M (Cook, Gerards, Schrijver and
    Tardos 1986, Math. Prog. 34, Theorem 1).  So |z_k| <= H + n*H.
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
    return (len(gens) + len(group.torsion) + 1) * radius


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


def _in_semigroup_outside(
    coll: ElementCollection, k: int, cone: Iterable[int], dual: tuple[Vector, ...]
) -> bool:
    """Is coll[k], k in cone, a non-negative combination of the elements
    outside the cone?

    Zero, or a value equal to an outside element, answers without a
    search.  A torsion-free group asks ``semigroup_membership`` about
    the distinct outside values.  With torsion the question goes to the
    Gale dual ``dual`` (``_dual_vectors``, read off the short basis of
    ``_relation_basis``; any basis gives the answer, not the speed):
    such a combination is a relation that is -1 at k, 0 on the rest of
    the cone and >= 0 outside it, so it exists exactly when an integer
    covector u has <dual[k], u> = -1, <dual[j], u> = 0 for j in the cone
    other than k, and <dual[j], u> >= 0 elsewhere.  That search needs no
    torsion multipliers and no search box; the relation it yields is
    re-checked as a combination in the group.
    """
    inside = set(cone)
    outside = tuple(i for i in coll.indices if i not in inside)
    target = coll[k]
    if not coll.group.torsion:
        return _in_semigroup(target, _distinct_values(coll.take(outside)))
    if target.is_zero or target in coll.take(outside):
        return True
    zeros = tuple(sorted(inside - {k}))
    u = _covector_for_pattern(dual, k, zeros, outside, 0)
    if u is None:
        return False
    if coll.group.combination((dot(dual[j], u) for j in outside), coll.take(outside)) != target:
        raise InternalError("dual membership certificate does not sum to the target")
    return True


class AdmissibilityResult(Record):
    admissible: bool
    generates: bool
    failing_index: Optional[int] = None


def is_admissible(coll: ElementCollection) -> AdmissibilityResult:
    """A collection is admissible if it generates the group and stays
    semigroup-generating after removing any single element.

    Equivalently: every element is a non-negative combination of the
    others.  Indices are tested in order and the first failure is
    reported.  An element that is zero or has an equal value elsewhere
    in the collection passes without a search.  Otherwise a torsion-free
    group asks about the distinct values of the others, and a group with
    torsion asks the Gale dual ``_dual_vectors`` for an integer covector
    that is -1 on the element's dual vector and >= 0 on all others (see
    ``_in_semigroup_outside``).
    """
    if not generates_group(coll):
        return AdmissibilityResult(False, False, None)
    dual = _dual_vectors(coll) if coll.group.torsion else ()
    for i in coll.indices:
        if not _in_semigroup_outside(coll, i, (i,), dual):
            return AdmissibilityResult(False, True, i)
    return AdmissibilityResult(True, True, None)


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
    residue = coll.group.combination([1] + [-1] * len(sup), coll.take([target, *sup]))
    values = _distinct_values(gens)
    ok, coeffs = semigroup_membership(residue, values)
    if not ok:
        return False, None
    extra = dict(zip(values, coeffs))
    # dict.pop hands each value's coefficient to its first index only
    return True, tuple(1 + extra.pop(g, 0) for g in gens)


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
