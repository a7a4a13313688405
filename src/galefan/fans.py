"""Vector configurations, simplicial fans and Demazure roots.

Cones are index sets into a fixed configuration of lattice vectors, so
a fan is a finite combinatorial object.  All geometric predicates
(strict convexity, separation of cones, root existence) reduce to exact
rational LP or integer feasibility problems.

A covector e is a Demazure root of a fan when (R1) it pairs to -1 with
exactly one ray and non-negatively with all others, and (R2) every cone
on which e vanishes stays in the fan after adjoining the distinguished
ray.  A cone is connected with a facet by a root when the root is
non-positive on the cone and cuts out exactly that facet; a fan all of
whose nonzero cones are connected with some facet is called strongly
regular here.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from operator import index
from typing import AbstractSet, Iterable, Optional, Sequence

from ._record import Record
from .errors import (
    DegenerateConfigurationError,
    InternalError,
    InvalidFanError,
    InvalidRootError,
    check_search,
)
from .linalg import (
    IntMatrix,
    LinearSystem,
    Vector,
    _covector_for_pattern,
    _rank,
    _smith,
    dot,
    integer_kernel,
    lp_feasible,
    matrix_rank,
)

Cone = frozenset


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


def primitivize(v: Sequence[int]) -> Vector:
    """Divide a nonzero vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(c // g for c in v)


class VectorConfiguration(Record):
    """Finite ordered family of integer vectors spanning Q^rank."""

    rank: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        vecs = tuple([tuple(map(index, v)) for v in self.vectors])
        object.__setattr__(self, "rank", index(self.rank))
        object.__setattr__(self, "vectors", vecs)
        for v in vecs:
            if len(v) != self.rank:
                raise ValueError("vector length does not match rank")
            if not any(v):
                raise DegenerateConfigurationError("configuration contains a zero vector")
        if _rank(vecs, self.rank) < self.rank:
            raise DegenerateConfigurationError("vectors do not span the ambient space")

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> Vector:
        return self.vectors[i]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.vectors)))

    def column_matrix(self, indices: Optional[Iterable[int]] = None) -> IntMatrix:
        idx = self.indices if indices is None else tuple(indices)
        return IntMatrix.from_columns([self.vectors[i] for i in idx], rows=self.rank)


def cone_key(c: Cone) -> tuple:
    return (len(c), tuple(sorted(c)))


class SimplicialFan(Record):
    """Set of cones (index sets) over a configuration; the zero cone is
    always present.

    A fan is validated once, here: a cone family that breaks the fan
    axioms or ray conventions raises ``InvalidFanError`` with the full
    ``validate_fan`` report, so every consumer may rely on the axioms.
    """

    config: VectorConfiguration
    cones: frozenset[Cone]

    def __post_init__(self):
        normal = {frozenset(map(index, c)) for c in self.cones}
        normal.add(frozenset())
        for c in normal:
            for i in c:
                if not 0 <= i < len(self.config):
                    raise ValueError(f"cone index {i} out of range")
        object.__setattr__(self, "cones", frozenset(normal))
        report = validate_fan(self)
        if not report.valid:
            raise InvalidFanError(report)

    def sorted_cones(self) -> tuple[Cone, ...]:
        return tuple(sorted(self.cones, key=cone_key))

    def nonzero_cones(self) -> tuple[Cone, ...]:
        return tuple(c for c in self.sorted_cones() if c)

    @property
    def rays(self) -> tuple[int, ...]:
        return tuple(sorted(i for c in self.cones if len(c) == 1 for i in c))


def one_skeleton_fan(config: VectorConfiguration) -> SimplicialFan:
    return SimplicialFan(config, frozenset(frozenset((i,)) for i in config.indices))


class DemazureRoot(Record):
    covector: Vector
    distinguished_ray: int

    def __post_init__(self):
        object.__setattr__(self, "covector", tuple(map(index, self.covector)))
        object.__setattr__(self, "distinguished_ray", index(self.distinguished_ray))


class FanViolation(Record):
    code: str
    indices: tuple
    message: str


class FanReport(Record):
    valid: bool
    violations: tuple[FanViolation, ...] = ()


def is_strictly_convex(config: VectorConfiguration, indices: Iterable[int]) -> bool:
    """Does some covector take strictly positive values on all chosen vectors?

    The empty set gives the zero cone, which is strictly convex.
    """
    return _separated(config, frozenset(indices), frozenset())


def is_regular_cone(config: VectorConfiguration, indices: Iterable[int]) -> bool:
    """Are the chosen vectors part of a basis of the ambient lattice?"""
    idx = sorted(set(indices))  # the empty cone has the empty Smith diagonal
    return _smith(config.column_matrix(idx).entries, len(idx))[1] == [1] * len(idx)


def _is_simplicial(config: VectorConfiguration, cone: Cone) -> bool:
    return len(cone) <= config.rank and matrix_rank(config.column_matrix(cone)) == len(cone)


def cones_meet_in_common_face(
    config: VectorConfiguration, left: Iterable[int], right: Iterable[int]
) -> bool:
    """Do the two simplicial cones intersect exactly in a common face?

    They do exactly when some covector vanishes on the shared
    generators, is positive on the rest of the left cone and negative on
    the rest of the right cone.  When the generators of both cones carry
    at most one linear relation, its sign pattern decides with no LP
    (see ``_separated``); otherwise an LP searches for the covector.
    """
    li = frozenset(left)
    ri = frozenset(right)
    for idx, name in ((li, "left index set"), (ri, "right index set")):
        if not _is_simplicial(config, idx):
            raise ValueError(f"{name} does not span a simplicial cone")
    return _separated(config, li, ri)


def _separated(config: VectorConfiguration, li: frozenset, ri: frozenset) -> bool:
    """Is some covector 0 on li & ri, >= 1 on the rest of li and <= -1 on
    the rest of ri?  On simplicial cones, that is cones_meet_in_common_face.

    By Motzkin's transposition theorem there is none exactly when some
    linear relation c among the vectors of li | ri is >= 0 on li - ri,
    <= 0 on ri - li and nonzero on one of them.  So the space K of those
    relations decides two cases with no LP: when K = 0 the covector
    exists, and when K is a line the sign pattern of its spanning
    relation, up to sign, decides.  Only dim K >= 2 asks the LP.
    """
    shared = li & ri
    union = sorted(li | ri)
    columns = config.column_matrix(union)
    nullity = len(union) - matrix_rank(columns)
    if nullity == 0:
        return True
    if nullity == 1:
        (c,) = integer_kernel(columns)
        signed = [x if i in li else -x for i, x in zip(union, c) if i not in shared]
        # a certificate needs every signed entry of one weak sign, not all 0
        return not any(signed) or max(signed) > 0 > min(signed)
    eqs = tuple((config[i], 0) for i in sorted(shared))
    ins = tuple((config[i], 1) for i in sorted(li - shared)) + tuple(
        (tuple(-c for c in config[j]), 1) for j in sorted(ri - shared)
    )
    ok, _ = lp_feasible(LinearSystem(config.rank, equalities=eqs, inequalities=ins))
    return ok


def _numbered(cone: Iterable[int]) -> str:
    # messages number rays from 1, as the JSON interchange does
    return str([i + 1 for i in sorted(cone)])


def validate_fan(fan: SimplicialFan) -> FanReport:
    """Check the fan axioms and ray conventions, reporting every violation.

    Separation is checked only between inclusion-maximal simplicial
    cones: faces of two simplicial cones that meet in a common face
    meet in a common face too, and two faces of one simplicial cone
    always do.  A ``bad-intersection`` violation therefore names a pair
    of maximal cones, and the fan is valid exactly when every pair of
    its simplicial cones meets in a common face.  A pair whose rays
    carry at most one linear relation, as neighbours across a facet do,
    needs no LP (see ``_separated``).
    """
    config = fan.config
    violations: list[FanViolation] = []
    prims = {}
    for i in config.indices:
        v = config[i]
        if not is_primitive(v):
            violations.append(
                FanViolation("nonprimitive-ray", (i,), f"ray {i + 1} is not primitive")
            )
        prims[i] = primitivize(v)
    for i, j in combinations(config.indices, 2):
        if prims[i] == prims[j]:
            violations.append(
                FanViolation(
                    "duplicate-ray-direction",
                    (i, j),
                    f"rays {i + 1} and {j + 1} span the same ray",
                )
            )
    declared = set(fan.rays)
    for i in config.indices:
        if i not in declared:
            violations.append(
                FanViolation(
                    "missing-ray-cone", (i,), f"index {i + 1} has no one-dimensional cone"
                )
            )
    simplicial = []
    for c in fan.nonzero_cones():
        if _is_simplicial(config, c):
            simplicial.append(c)
        else:
            violations.append(
                FanViolation(
                    "dependent-cone", tuple(sorted(c)), f"cone {_numbered(c)} is not simplicial"
                )
            )
    # face closure
    for c in fan.nonzero_cones():
        for i in sorted(c):
            if c - {i} not in fan.cones:
                violations.append(
                    FanViolation(
                        "not-face-closed",
                        tuple(sorted(c)),
                        f"facet of {_numbered(c)} missing ray {i + 1} is absent",
                    )
                )
    maximal = [c for c in simplicial if not any(c < d for d in simplicial)]
    for a, b in combinations(maximal, 2):
        if not _separated(config, a, b):
            violations.append(
                FanViolation(
                    "bad-intersection",
                    (tuple(sorted(a)), tuple(sorted(b))),
                    f"cones {_numbered(a)} and {_numbered(b)} do not meet in a common face",
                )
            )
    return FanReport(not violations, tuple(violations))


class SuitabilityResult(Record):
    suitable: bool
    witnesses: Optional[tuple[Vector, ...]] = None
    failing_index: Optional[int] = None


def is_suitable(config: VectorConfiguration) -> SuitabilityResult:
    """For each vector, find an integer covector pairing to -1 with it
    and non-negatively with all the others."""
    witnesses = []
    for i in config.indices:
        others = tuple([j for j in config.indices if j != i])
        w = _covector_for_pattern(config.vectors, i, (), others, 0)
        if w is None:
            return SuitabilityResult(False, None, i)
        witnesses.append(w)
    return SuitabilityResult(True, tuple(witnesses), None)


def _extends_by(fan: SimplicialFan, zeros: AbstractSet[int], rho: int) -> bool:
    # condition (R2): every cone inside the zero set stays a cone with rho
    return all((c | {rho}) in fan.cones for c in fan.cones if c <= zeros)


def is_demazure_root(fan: SimplicialFan, root: DemazureRoot) -> bool:
    """Check conditions (R1) and (R2) for a covector against a fan."""
    e = root.covector
    rho = root.distinguished_ray
    if len(e) != fan.config.rank or rho not in fan.config.indices:
        return False
    pair = {i: dot(fan.config[i], e) for i in fan.config.indices}
    if pair[rho] != -1:
        return False
    if any(pair[j] < 0 for j in fan.config.indices if j != rho):
        return False
    return _extends_by(fan, {i for i in fan.config.indices if pair[i] == 0}, rho)


def roots_in_box(fan: SimplicialFan, bound: int) -> tuple[DemazureRoot, ...]:
    """All Demazure roots with sup-norm at most the bound.

    Output is ordered by covector, then ray.  The scan visits all
    (2*bound+1)^rank covectors of the box; past ``SEARCH_CAP`` of them
    it raises CapExceededError before scanning.
    """
    if bound < 0:
        raise ValueError("negative bound")
    n = fan.config.rank
    if n:
        size = "(2*%d+1)^%d" % (bound, n)
        # a bound past the cap is refused before its power is formed
        check_search("root scan of %s covectors", size, bound, exact=False)
        check_search("root scan of %s covectors", size, (2 * bound + 1) ** n)
    out = []
    for e in product(range(-bound, bound + 1), repeat=n):
        pair = [dot(v, e) for v in fan.config.vectors]
        negatives = [i for i, p in enumerate(pair) if p < 0]
        # (R1): exactly one negative pairing, and it is -1
        if len(negatives) != 1 or pair[negatives[0]] != -1:
            continue
        zeros = {i for i, p in enumerate(pair) if p == 0}
        if _extends_by(fan, zeros, negatives[0]):
            out.append(DemazureRoot(tuple(e), negatives[0]))
    return tuple(out)


def root_connecting(
    fan: SimplicialFan, cone: Iterable[int], facet: Iterable[int]
) -> tuple[bool, Optional[DemazureRoot]]:
    """Is the cone connected with the given facet by some root of the fan?

    Such a root pairs to -1 with the ray missing from the facet,
    vanishes on the facet, and is non-negative elsewhere.  The search
    enumerates the possible zero sets among the remaining rays, from the
    largest down, checks condition (R2) combinatorially for each, and
    then asks an integer feasibility question for the covector.  Larger
    zero sets leave fewer unknowns, and whether a root exists does not
    depend on the order; the root returned has a largest zero set.
    """
    sigma = frozenset(map(index, cone))
    tau = frozenset(map(index, facet))
    if sigma not in fan.cones or tau not in fan.cones:
        raise ValueError("cone or facet not in the fan")
    if not (tau < sigma and len(sigma - tau) == 1):
        raise ValueError("second argument is not a facet of the first")
    (rho,) = sigma - tau
    others = [i for i in fan.config.indices if i not in sigma]
    check_search("root zero-set search of %s zero sets", "2^%d" % len(others), 1 << len(others))
    for size in range(len(others), -1, -1):
        for zs in combinations(others, size):
            zeros = tau | set(zs)
            if not _extends_by(fan, zeros, rho):
                continue
            positives = tuple(j for j in others if j not in zeros)
            e = _covector_for_pattern(
                fan.config.vectors, rho, tuple(sorted(zeros)), positives, 1
            )
            if e is not None:
                root = DemazureRoot(e, rho)
                if not is_demazure_root(fan, root):
                    raise InternalError(f"covector {e} fails the root conditions")
                return True, root
    return False, None


class StrongRegularityResult(Record):
    strongly_regular: bool
    certificate: tuple[tuple[Cone, Cone, DemazureRoot], ...] = ()
    failing_cone: Optional[Cone] = None


def is_strongly_regular(fan: SimplicialFan) -> StrongRegularityResult:
    """Is every nonzero cone connected with one of its facets by a root?

    The certificate lists one (cone, facet, root) triple per nonzero
    cone.
    """
    cert = []
    for c in fan.nonzero_cones():
        for i in sorted(c):
            ok, root = root_connecting(fan, c, c - {i})
            if ok:
                cert.append((c, c - {i}, root))
                break
        else:
            return StrongRegularityResult(False, (), c)
    return StrongRegularityResult(True, tuple(cert), None)


def he_connected_pairs(
    fan: SimplicialFan, root: DemazureRoot
) -> tuple[tuple[Cone, Cone], ...]:
    """All (facet, cone) pairs connected by a given root.

    A cone is in such a pair iff it contains the distinguished ray and
    the root vanishes on its other rays; the facet is obtained by
    dropping the distinguished ray.
    """
    if not is_demazure_root(fan, root):
        raise InvalidRootError(
            f"covector {list(root.covector)} with ray {root.distinguished_ray + 1}"
            " is not a root of the fan"
        )
    rho = root.distinguished_ray
    return tuple(
        (c - {rho}, c)
        for c in fan.nonzero_cones()
        if rho in c and all(dot(fan.config[i], root.covector) == 0 for i in c - {rho})
    )


def one_skeleton_strongly_regular(config: VectorConfiguration) -> bool:
    """Strong regularity of the fan consisting of the rays alone.

    With one or two rays this always holds.  With at least three rays
    it holds exactly when the rays generate a strictly convex cone and
    each of them is an extreme ray of it: integrality then upgrades the
    supporting covectors to roots, while a non-extreme or non-pointed
    family leaves some ray with no admissible covector.  Only
    extremality is tested, one LP per ray (a covector vanishing on the
    ray and >= 1 on the others): with r >= 3 rays the r covectors sum to
    one that is >= r - 1 on every ray, so the cone is then pointed.
    Raises ``InvalidFanError`` when the rays alone do not form a fan.
    """
    one_skeleton_fan(config)
    rays = frozenset(config.indices)
    return len(rays) <= 2 or all(_separated(config, rays, frozenset({i})) for i in config.indices)
