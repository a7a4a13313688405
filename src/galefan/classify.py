"""Maximal fans, generating-set combinatorics, and pair classification.

The maximal fan of a generating collection consists of the cones whose
complementary elements still generate the full semigroup; its subfans
with the complete ray set correspond bijectively to connected families
of generating subcollections.  Classification predicates (affine,
complete, quasiaffine, product splitting, rank-one sign types, and the
repeated-value shapes coming from semisimple group actions) are decided
exactly from the collection.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ._record import Record
from .errors import CapExceededError, InternalError, InvalidFanError, NotAdmissibleError
from .fans import (
    SimplicialFan,
    VectorConfiguration,
    cone_key,
    is_regular_cone,
    validate_fan,
)
from .gale import inverse_gale_transform
from .groups import (
    ElementCollection,
    GroupElement,
    _distinct_values,
    _in_semigroup,
    _lifted_matrix,
    enumerate_links,
    generates_full_semigroup,
    generates_group,
    is_admissible,
    semigroup_membership,
)
from .linalg import LinearSystem, determinant, IntMatrix, integer_kernel, lp_feasible

ENUMERATE_GSETS_CAP = 4


class GSet(Record):
    """Family of index subsets, each generating the full semigroup.

    The complete index set is always required as a member.
    """

    collection: ElementCollection
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        full = frozenset(range(len(self.collection)))
        object.__setattr__(self, "members", frozenset(frozenset(m) for m in self.members))
        if full not in self.members:
            raise ValueError("the full collection must be a member")
        for m in self.members:
            if not m <= full:
                raise ValueError("member indices out of range")
            if not generates_full_semigroup(self.collection, m):
                raise ValueError(
                    "member %s does not generate the full semigroup"
                    % [i + 1 for i in sorted(m)]
                )

    def sorted_members(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.members, key=cone_key))


def _require_admissible(coll: ElementCollection) -> None:
    adm = is_admissible(coll)
    if not adm.admissible:
        if not adm.generates:
            raise NotAdmissibleError("collection does not generate its group")
        raise NotAdmissibleError(
            "element %d is not a non-negative combination of the others"
            % (adm.failing_index + 1)
        )


def build_maximal_fan(coll: ElementCollection) -> SimplicialFan:
    """Largest strongly regular fan attached to an admissible collection.

    Rays come from the inverse Gale transform; the cones are exactly the
    index sets whose complements generate the full semigroup.  That test
    is antitone, so the subset scan prunes any superset of a failure.
    A candidate all of whose facets are cones needs one membership
    question: the complement of a facet generates the full semigroup,
    so the candidate's complement does exactly when it contains the
    element the facet dropped, for which the largest index is taken.
    Regularity of every cone (which implies strict convexity) and the
    fan axioms are re-verified and discrepancies raise, since the theory
    promises them.
    """
    _require_admissible(coll)
    config = inverse_gale_transform(coll)
    r = len(coll)
    indices = set(range(r))
    cones: list[frozenset[int]] = [frozenset()]
    level = [frozenset()]
    while level:
        prev = set(level)
        candidates = sorted(
            {base | {j} for base in prev for j in indices - base}, key=cone_key
        )
        level = []
        for cand in candidates:
            # antitone pruning: every facet of a cone must itself be a cone
            if any(cand - {k} not in prev for k in cand):
                continue
            rest = _distinct_values(coll.take(indices - cand))
            if _in_semigroup(coll[max(cand)], rest):
                level.append(cand)
        cones.extend(level)
    for cone in cones:
        if not is_regular_cone(config, cone):
            raise InternalError("cone %s is not regular" % [i + 1 for i in sorted(cone)])
    fan = SimplicialFan(config, frozenset(cones))
    report = validate_fan(fan)
    if not report.valid:
        raise InternalError(
            "maximal fan fails validation: %s"
            % "; ".join(v.message for v in report.violations)
        )
    return fan


def gset_from_subfan(
    coll: ElementCollection, fan: SimplicialFan, maximal: SimplicialFan
) -> GSet:
    """Generating-set family of a subfan of the maximal fan.

    The member attached to a cone is the complementary index set.  The
    fan must live on the maximal fan's configuration, use every ray, and
    contain only maximal-fan cones.
    """
    if fan.config != maximal.config:
        raise ValueError("fan and maximal fan have different configurations")
    if len(coll) != len(fan.config):
        raise ValueError("collection size does not match the configuration")
    if not set(fan.cones) <= set(maximal.cones):
        raise ValueError("not a subfan of the maximal fan")
    if fan.rays != fan.config.indices:
        raise ValueError("subfan must use the full ray set")
    full = frozenset(range(len(coll)))
    members = frozenset(full - cone for cone in fan.cones)
    return GSet(coll, members)


def subfan_from_gset(gset: GSet, config: VectorConfiguration) -> SimplicialFan:
    """Fan whose cones are the complements of the family's members.

    Inverse to gset_from_subfan.  The resulting cone family must be a
    valid fan; otherwise the fan report is raised.
    """
    r = len(gset.collection)
    if len(config) != r:
        raise ValueError("configuration size does not match the collection")
    full = frozenset(range(r))
    cones = frozenset(full - m for m in gset.members)
    fan = SimplicialFan(config, cones)
    report = validate_fan(fan)
    if not report.valid:
        raise InvalidFanError(report)
    return fan


class ConnectednessResult(Record):
    connected: bool
    violation: Optional[tuple] = None


def is_connected_gset(gset: GSet) -> ConnectednessResult:
    """Check the three closure conditions of a connected family.

    (C1) every co-singleton is a member; (C2) members are closed under
    adding indices; (C3) every proper member admits a link whose removal
    rule holds throughout the family.  The first violated condition is
    reported as ('C1', i), ('C2', (member, i)) or ('C3', member).
    """
    coll = gset.collection
    r = len(coll)
    full = frozenset(range(r))
    members = gset.members
    for i in range(r):
        if full - {i} not in members:
            return ConnectednessResult(False, ("C1", i))
    for member in sorted(members, key=cone_key):
        for i in sorted(full - member):
            if member | {i} not in members:
                return ConnectednessResult(False, ("C2", (tuple(sorted(member)), i)))
    links = enumerate_links(coll)
    for member in sorted(members, key=cone_key):
        if member == full:
            continue
        if not any(
            link.target not in member
            and link.support <= member
            and _is_family_link(members, link.target, link.support)
            for link in links
        ):
            return ConnectednessResult(False, ("C3", tuple(sorted(member))))
    return ConnectednessResult(True, None)


def _is_family_link(members, target: int, support: frozenset[int]) -> bool:
    # removal rule: whenever support+target sits inside a member, the
    # member without the target must also belong to the family
    needed = support | {target}
    for b in members:
        if needed <= b and b - {target} not in members:
            return False
    return True


def enumerate_connected_gsets(coll: ElementCollection) -> tuple[GSet, ...]:
    """All connected families of generating subcollections.

    Exhaustive over the subset lattice, so the collection size is hard
    capped.  Families that cannot satisfy (C1) make the result empty.
    """
    r = len(coll)
    if r > ENUMERATE_GSETS_CAP:
        raise CapExceededError(
            "gset enumeration supports at most %d elements" % ENUMERATE_GSETS_CAP
        )
    full = frozenset(range(r))
    generating = [
        frozenset(s)
        for k in range(r + 1)
        for s in combinations(range(r), k)
        if generates_full_semigroup(coll, s)
    ]
    mandatory = {full} | {full - {i} for i in range(r)}
    if not mandatory <= set(generating):
        return ()
    optional = sorted((g for g in set(generating) - mandatory), key=cone_key)
    found = []
    for mask in range(1 << len(optional)):
        members = set(mandatory)
        for k, g in enumerate(optional):
            if mask >> k & 1:
                members.add(g)
        # cheap upward-closure filter before the full check
        if any(m | {i} not in members for m in members for i in full - m):
            continue
        gs = GSet(coll, frozenset(members))
        if is_connected_gset(gs).connected:
            found.append(gs)
    found.sort(key=lambda g: (len(g.members), tuple(cone_key(m) for m in g.sorted_members())))
    return tuple(found)


class ClassificationReport(Record):
    affine: bool
    complete: bool
    quasiaffine: bool
    product_parts: tuple[tuple[int, ...], ...]
    rank_one_type: Optional[int]
    type2_regular_locus: Optional[bool]
    semisimple_shape: bool


def _value_index_groups(coll: ElementCollection) -> tuple[tuple[int, ...], ...]:
    groups: dict[GroupElement, list[int]] = {}
    for i, e in enumerate(coll):
        groups.setdefault(e, []).append(i)
    return tuple(tuple(v) for v in sorted(groups.values()))


def _is_complete_pair(coll: ElementCollection) -> bool:
    group = coll.group
    if group.torsion:
        return False
    value_groups = _value_index_groups(coll)
    if len(value_groups) != group.free_rank:
        return False
    if any(len(g) < 2 for g in value_groups):
        return False
    values = [coll[g[0]].free for g in value_groups]
    mat = IntMatrix.from_columns(values, rows=group.free_rank)
    return determinant(mat) in (1, -1)


def _positively_spans(coll: ElementCollection) -> bool:
    f = coll.group.free_rank
    if f == 0:
        return True
    r = len(coll)
    nonneg = tuple((tuple(1 if j == i else 0 for j in range(r)), 0) for i in range(r))
    for j in range(f):
        for sign in (1, -1):
            target = [0] * f
            target[j] = sign
            eqs = tuple(
                (tuple(coll[i].free[row] for i in range(r)), target[row]) for row in range(f)
            )
            ok, _ = lp_feasible(LinearSystem(r, equalities=eqs, inequalities=nonneg))
            if not ok:
                return False
    return True


def _finest_product_partition(coll: ElementCollection) -> tuple[tuple[int, ...], ...]:
    """Finest index partition splitting the pair into a direct sum.

    A part is admissible for the split (closed) when every relation
    among the elements restricts to a relation on the part; checking a
    basis of the relation lattice suffices.  Closed sets are closed
    under complement and intersection, so the finest split is unique:
    the part of i is the intersection of all closed sets containing i.
    """
    r = len(coll)
    kernel = integer_kernel(_lifted_matrix(coll.elements, coll.group))
    relations = [vec[:r] for vec in kernel]
    zero = coll.group.zero()

    def part_closed(mask: int) -> bool:
        for rel in relations:
            acc = zero
            for i in range(r):
                if mask >> i & 1 and rel[i]:
                    acc = acc + rel[i] * coll[i]
            if not acc.is_zero:
                return False
        return True

    atoms = [(1 << r) - 1] * r
    for mask in range(1, (1 << r) - 1):
        if part_closed(mask):
            for i in range(r):
                if mask >> i & 1:
                    atoms[i] &= mask
    parts = {tuple(i for i in range(r) if atom >> i & 1) for atom in atoms}
    return tuple(sorted(parts))


def _rank_one_type(coll: ElementCollection) -> tuple[Optional[int], Optional[bool]]:
    group = coll.group
    if group.free_rank != 1 or group.torsion:
        return None, None
    vals = [e.free[0] for e in coll]
    has_pos = any(v > 0 for v in vals)
    has_neg = any(v < 0 for v in vals)
    if has_pos and has_neg:
        return 1, None
    if has_neg:
        # flip the sign convention so that the positives dominate
        vals = [-v for v in vals]
    if 0 in vals:
        return 3, None
    r = len(coll)
    locus = True
    for k in range(1, r + 1):
        for s in combinations(range(r), k):
            if generates_group(coll, s) and not generates_full_semigroup(coll, s):
                locus = False
                break
        if not locus:
            break
    return 2, locus


def classify_pair(coll: ElementCollection) -> ClassificationReport:
    """Geometric classification of an admissible pair.

    Affine means trivial group; complete means a torsion-free group
    whose distinct values form a basis, each repeated at least twice;
    quasiaffine means the free parts positively span the rational
    vector space.  The finest product split, the rank-one sign type
    (with the regular-locus test for all-positive collections), and
    the repeated-value shape flag round out the report.
    """
    _require_admissible(coll)
    rank_one, locus = _rank_one_type(coll)
    return ClassificationReport(
        affine=coll.group.is_trivial,
        complete=_is_complete_pair(coll),
        quasiaffine=_positively_spans(coll),
        product_parts=_finest_product_partition(coll),
        rank_one_type=rank_one,
        type2_regular_locus=locus,
        semisimple_shape=semisimple_shape(coll).is_shape,
    )


class ShapeReport(Record):
    is_shape: bool
    value_groups: tuple[tuple[int, ...], ...]
    coincides_with_maximal: Optional[bool]
    gset: Optional[GSet]


def semisimple_shape(coll: ElementCollection) -> ShapeReport:
    """Repeated-value shape test.

    The collection has the shape when it splits into value groups of
    multiplicity at least two whose distinct values generate the group.
    The attached family consists of all subcollections meeting every
    value group; the shape coincides with the maximal object exactly
    when no single value may be dropped without losing the semigroup.
    """
    value_groups = _value_index_groups(coll)
    if any(len(g) < 2 for g in value_groups):
        return ShapeReport(False, value_groups, None, None)
    firsts = [g[0] for g in value_groups]
    if not generates_group(coll, firsts):
        return ShapeReport(False, value_groups, None, None)
    r = len(coll)
    members = []
    for k in range(len(value_groups), r + 1):
        for s in combinations(range(r), k):
            chosen = set(s)
            if all(chosen & set(g) for g in value_groups):
                members.append(frozenset(s))
    gset = GSet(coll, frozenset(members))
    values = [coll[i] for i in firsts]
    coincides = True
    for i in range(len(values)):
        others = tuple(values[j] for j in range(len(values)) if j != i)
        ok, _ = semigroup_membership(values[i], others)
        if ok:
            coincides = False
            break
    return ShapeReport(True, value_groups, coincides, gset)


def is_big_open_subfan(fan: SimplicialFan, maximal: SimplicialFan) -> bool:
    """Subfan with the full ray set (complement of codimension >= 2)."""
    if fan.config != maximal.config:
        raise ValueError("fans have different configurations")
    return set(fan.cones) <= set(maximal.cones) and fan.rays == maximal.rays
