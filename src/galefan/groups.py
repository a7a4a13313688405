"""Finitely generated abelian groups in invariant factor form.

A group is ``Z^f ⊕ Z/d1 ⊕ ... ⊕ Z/ds`` with 2 <= d1 | d2 | ... | ds.
Elements carry separate free and torsion coordinate tuples, with
torsion coordinates always reduced into [0, dj).  Membership questions
are answered exactly by lifting to integer linear systems: subgroup
membership becomes a Diophantine system, semigroup membership an
integer feasibility problem with non-negative coefficients.
"""

from __future__ import annotations

from math import isqrt
from operator import index, mod
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import InternalError
from .linalg import (
    IntMatrix,
    LinearSystem,
    Vector,
    _covector_for_pattern,
    _identity,
    _smith,
    dot,
    ilp_feasible,
    solve_diophantine,
)


class AbelianGroup(Record):
    """Invariant factor presentation of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        object.__setattr__(self, "torsion", tuple(map(index, self.torsion)))
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
        free = tuple(map(index, free))
        tors = tuple(map(index, torsion))
        if len(free) != self.free_rank or len(tors) != len(self.torsion):
            raise ValueError("coordinate count does not match the group")
        return GroupElement(self, free, tuple(map(mod, tors, self.torsion)))

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
            if e.group is not self and e.group != self:
                raise ValueError("element belongs to a different group")
            total = [t + c * x for t, x in zip(total, e.lift())]
        return self.element(total[: self.free_rank], total[self.free_rank :])

    def generators(self) -> tuple["GroupElement", ...]:
        """Standard generators: free basis vectors, then torsion basis vectors."""
        f = self.free_rank
        return tuple([self.element(e[:f], e[f:]) for e in _identity(self.coords)])


class GroupElement(Record):
    group: AbelianGroup
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def lift(self) -> Vector:
        return self.free + self.torsion

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

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
            if e.group is not self.group and e.group != self.group:
                raise ValueError("collection mixes elements of different groups")

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def take(self, indices: Iterable[int]) -> tuple[GroupElement, ...]:
        return tuple([self.elements[i] for i in indices])

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
    rows, diag, _ = _smith([[*r, *e] for r, e in zip(a.entries, _identity(a.rows))], a.cols)
    torsion_rows = [i for i, d in enumerate(diag) if d >= 2]
    group = AbelianGroup(a.rows - len(diag), tuple(diag[i] for i in torsion_rows))
    proj = [rows[i][a.cols :] for i in [*range(len(diag), a.rows), *torsion_rows]]  # rows of U
    return CokernelMap(group, IntMatrix(proj, a.rows))


def _relation_columns(group: AbelianGroup) -> list[Vector]:
    """Columns spanning the lifted relations of the normal form."""
    f, n = group.free_rank, group.coords
    return [tuple(d if k == f + j else 0 for k in range(n)) for j, d in enumerate(group.torsion)]


def _lifted_rows(gens: Sequence[GroupElement], group: AbelianGroup) -> list[Vector]:
    if any(g.group != group for g in gens):
        raise ValueError("generators belong to a different group")
    cols = [g.lift() for g in gens] + _relation_columns(group)
    return list(zip(*cols)) if cols else [()] * group.coords


def _lifted_matrix(gens: Sequence[GroupElement], group: AbelianGroup) -> IntMatrix:
    return IntMatrix(_lifted_rows(gens, group), len(gens) + len(group.torsion))


def _generating_kernel(gens: Sequence[GroupElement], group: AbelianGroup) -> Optional[list]:
    """Kernel basis of the lifted matrix, off its Smith form, if gens
    generate the group, else None.

    ``Z^f ⊕ Z/d1 ⊕ ... ⊕ Z/ds`` needs f + s generators (tensor with Z/p,
    p a prime dividing every dj), so fewer are refused without a Smith form.
    """
    if len(gens) < group.coords:
        return None
    _, diag, v = _smith(_lifted_rows(gens, group), len(gens) + len(group.torsion))
    return v[group.coords:] if diag == [1] * group.coords else None


def _relation_basis(coll: ElementCollection) -> Optional[tuple[Vector, ...]]:
    """Short basis of the lattice of relations x, sum x_i * coll[i] = 0,
    or None when the collection does not generate its group.

    The generation test's Smith form also spans the kernel of the lifted
    matrix, which carries one multiplier per torsion factor; a relation
    determines them, so cutting that basis to the first r coordinates
    keeps a basis.  It can carry five-digit entries where one-digit ones
    exist, and searches on it are far slower, so while subtracting the
    nearest integer multiple of one basis vector from another shortens
    it, that is done (pairwise Gauss reduction): each step is
    unimodular, and the squared lengths are positive integers that
    strictly fall.
    """
    kernel = _generating_kernel(coll.elements, coll.group)
    if kernel is None:
        return None
    basis = [col[: len(coll)] for col in kernel]
    norms = [dot(b, b) for b in basis]
    changed = True
    while changed:
        changed = False
        for i, b in enumerate(basis):
            for j, c in enumerate(basis):
                cc = norms[j]
                bc = dot(b, c)
                if i != j and 2 * abs(bc) > cc:
                    q = (2 * bc + cc) // (2 * cc)  # the integer nearest bc / cc
                    b[:] = [x - q * y for x, y in zip(b, c)]
                    norms[i] = dot(b, b)
                    changed = True
    return tuple(tuple(b) for b in basis)


def subgroup_membership(target: GroupElement, gens: Sequence[GroupElement]) -> bool:
    """Is target an integer combination of the generators?"""
    group = target.group
    mat = _lifted_matrix(gens, group)
    return solve_diophantine(mat, target.lift()).solvable


def semigroup_membership(
    target: GroupElement, gens: Sequence[GroupElement]
) -> tuple[bool, Optional[Vector]]:
    """Is target a non-negative integer combination of the generators?

    Returns the coefficient vector (one entry per generator) as witness.
    The empty combination is allowed, so zero is always a member.  Equal
    questions build equal integer systems, which ``ilp_feasible`` solves once.
    """
    group = target.group
    r = len(gens)
    s = len(group.torsion)
    eqs = tuple(zip(_lifted_rows(gens, group), target.lift()))
    if s:
        # torsion multipliers are unbounded in sign, which can send the
        # branch and bound wandering, so every variable is boxed by
        # _search_radius: coefficients in [0, bound], multipliers in
        # [-bound, bound].  The box holds a solution whenever one exists
        # (proved in _search_radius), so it never changes the answer
        bound = _search_radius(target, gens)
        rows = []
        for i, unit in enumerate(_identity(r + s)):
            rows.append((unit, 0 if i < r else -bound))
            rows.append(([-c for c in unit], -bound))
    else:
        rows = [(unit, 0) for unit in _identity(r)]
    ok, witness = ilp_feasible(LinearSystem(r + s, eqs, tuple(rows)))
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
    return _generating_kernel(coll.take(idx), coll.group) is not None


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
    # sorted by lift: equal value sets build equal systems, one memo entry
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
    search.  Otherwise the question goes to the Gale dual ``dual`` (read
    off the short basis of ``_relation_basis``; any basis gives the
    answer, not the speed): such a combination is a relation that is -1
    at k, 0 on the rest of the cone and >= 0 outside it, so it exists
    exactly when an integer covector u has <dual[k], u> = -1,
    <dual[j], u> = 0 for j in the cone other than k, and <dual[j], u> >= 0
    elsewhere.  That search needs no torsion multipliers and no search
    box; the relation it yields is re-checked as a combination in the
    group.  One rule picks the route: a torsion-free group whose
    relations have rank above |cone| + 1 asks ``semigroup_membership``
    about the distinct outside values instead.  At or below that rank the
    dual search leaves at most one unknown, whether or not outside values
    repeat, so it asks no LP: the cone minus k is independent in every
    caller, and a dual[k] in the span of its rows makes the equalities
    inconsistent, which the elimination refuses.
    """
    inside = set(cone)
    outside = tuple([i for i in coll.indices if i not in inside])
    target, values = coll[k], coll.take(outside)
    if target.is_zero or target in values:
        return True
    if not coll.group.torsion and len(dual[k]) > len(inside) + 1:
        return semigroup_membership(target, _distinct_values(values))[0]
    zeros = tuple(sorted(inside - {k}))
    u = _covector_for_pattern(dual, k, zeros, outside, 0)
    if u is None:
        return False
    if coll.group.combination([dot(dual[j], u) for j in outside], values) != target:
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
    in the collection passes without a search.  Every group reads its
    relations off ``_relation_basis``, the one Smith form of the lifted
    matrix.  Each element then asks the Gale dual for an integer
    covector that is -1 on its dual vector and >= 0 on all others; a
    torsion-free group with relations of rank above 2 asks about the
    distinct values of the others instead (see ``_in_semigroup_outside``).
    """
    return _admissibility(coll, _relation_basis(coll))


def _admissibility(
    coll: ElementCollection, relations: Optional[tuple[Vector, ...]]
) -> AdmissibilityResult:
    # relations: _relation_basis(coll), None when coll does not generate
    if relations is None:
        return AdmissibilityResult(False, False, None)
    dual = tuple(zip(*relations)) if relations else ((),) * len(coll)
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
    total = left.coords + right.coords
    cols = [col + (0,) * right.coords for col in _relation_columns(left)]
    cols += [(0,) * left.coords + col for col in _relation_columns(right)]
    cok = group_from_cokernel(IntMatrix.from_columns(cols, rows=total))
    return DirectSum(cok.group, cok, left, right)
