"""Maximal fans, generating-set combinatorics, and pair classification.

The maximal fan of a generating collection consists of the cones whose
complementary elements still generate the full semigroup; its subfans
with the complete ray set correspond bijectively to connected families
of generating subcollections.  Classification predicates (affine,
complete, quasiaffine, product splitting, rank-one sign types, and the
repeated-value shapes coming from semisimple group actions) are decided
exactly from the collection and its Gale dual.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import gcd, prod
from typing import Optional

from ._record import Record
from .errors import (
    InternalError,
    InvalidFanError,
    NotAdmissibleError,
    NotGeneratingError,
    check_search,
)
from .fans import (
    SimplicialFan,
    VectorConfiguration,
    _numbered,
    cone_key,
    is_regular_cone,
    is_strictly_convex,
)
from .gale import _configuration, configs_equivalent
from .groups import (
    ElementCollection,
    GroupElement,
    _admissibility,
    _in_semigroup_outside,
    _relation_basis,
    generates_full_semigroup,
    generates_group,
    is_link,
    semigroup_membership,
)


class GSet(Record):
    """Family of index subsets, each generating the full semigroup.

    The collection must generate its group (``NotGeneratingError``
    otherwise), and the complete index set is always required as a
    member.
    """

    collection: ElementCollection
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        if not generates_group(self.collection):
            raise NotGeneratingError("collection does not generate its group")
        full = frozenset(range(len(self.collection)))
        object.__setattr__(self, "members", frozenset(frozenset(m) for m in self.members))
        if full not in self.members:
            raise ValueError("the full collection must be a member")
        for m in self.members:
            if not m <= full:
                raise ValueError("member indices out of range")
            if not generates_full_semigroup(self.collection, m):
                raise ValueError(f"member {_numbered(m)} does not generate the full semigroup")

    def sorted_members(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.members, key=cone_key))


def _admissible_configuration(coll: ElementCollection) -> VectorConfiguration:
    # is_admissible, then inverse_gale_transform, on one Smith form; an
    # element with a zero dual vector fails admissibility before the rays
    # are built, so the error names that element
    relations = _relation_basis(coll)
    adm = _admissibility(coll, relations)
    if not adm.generates:
        raise NotAdmissibleError("collection does not generate its group")
    if not adm.admissible:
        raise NotAdmissibleError(
            "element %d is not a non-negative combination of the others"
            % (adm.failing_index + 1)
        )
    return _configuration(coll, relations)


def build_maximal_fan(coll: ElementCollection) -> SimplicialFan:
    """Largest strongly regular fan attached to an admissible collection.

    Rays come from the inverse Gale transform, read off the Smith form
    that also decides admissibility (``_admissible_configuration``).
    The cones are exactly the index sets whose complements generate the
    full semigroup.  That test is antitone, so the subset scan prunes
    any superset of a failure.
    A candidate all of whose facets are cones needs one membership
    question: the complement of a facet generates the full semigroup,
    so the candidate's complement does exactly when it contains the
    element the facet dropped, for which the largest index is taken.
    The question is ``_in_semigroup_outside``: it asks for an integer
    covector on the rays that is -1 on that element's ray, 0 on the rest
    of the candidate and >= 0 on the other rays (Gale duality: the rays
    are the relation lattice, printed in the short basis of
    ``_relation_basis``), or, for a torsion-free group whose relations
    have rank above the candidate's size plus one, about the distinct
    values of the complement.  Regularity of every maximal cone (which
    implies regularity and strict convexity of every cone, each being a
    face of a maximal one) and the fan axioms are re-verified and
    discrepancies raise, since the theory promises them.
    """
    config = _admissible_configuration(coll)
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
            if _in_semigroup_outside(coll, max(cand), cand, config.vectors):
                level.append(cand)
        cones.extend(level)
    coneset = set(cones)
    for cone in cones:
        maximal = all(cone | {j} not in coneset for j in indices - cone)
        if maximal and not is_regular_cone(config, cone):
            raise InternalError(f"cone {_numbered(cone)} is not regular")
    try:
        return SimplicialFan(config, frozenset(cones))
    except InvalidFanError as exc:
        raise InternalError(
            "maximal fan fails validation: %s"
            % "; ".join(v.message for v in exc.report.violations)
        ) from exc


def gset_from_subfan(
    coll: ElementCollection, fan: SimplicialFan, maximal: SimplicialFan
) -> GSet:
    """Generating-set family of a subfan of the maximal fan.

    The member attached to a cone is the complementary index set.  The
    fan must live on the maximal fan's configuration (up to a unimodular
    change of basis, so rays printed in another basis of the relations
    are accepted) and contain only maximal-fan cones.
    """
    if not configs_equivalent(fan.config, maximal.config):
        raise ValueError("fan and maximal fan have different configurations")
    if len(coll) != len(fan.config):
        raise ValueError("collection size does not match the configuration")
    if not set(fan.cones) <= set(maximal.cones):
        raise ValueError("not a subfan of the maximal fan")
    full = frozenset(range(len(coll)))
    members = frozenset(full - cone for cone in fan.cones)
    return GSet(coll, members)


def subfan_from_gset(gset: GSet, config: VectorConfiguration) -> SimplicialFan:
    """Fan whose cones are the complements of the family's members.

    Inverse to gset_from_subfan.  A cone family that is not a fan
    raises ``InvalidFanError`` with the fan report.
    """
    r = len(gset.collection)
    if len(config) != r:
        raise ValueError("configuration size does not match the collection")
    full = frozenset(range(r))
    return SimplicialFan(config, frozenset(full - m for m in gset.members))


class ConnectednessResult(Record):
    connected: bool
    violation: Optional[tuple] = None


def is_connected_gset(gset: GSet) -> ConnectednessResult:
    """Check the three closure conditions of a connected family.

    (C1) every co-singleton is a member; (C2) members are closed under
    adding indices; (C3) every proper member admits a link whose removal
    rule holds throughout the family.  The first violated condition is
    reported as ('C1', i), ('C2', (member, i)) or ('C3', member).

    A link of a member is a target outside it that is a combination of
    a support inside it with every coefficient >= 1 (``is_link``); its
    removal rule asks that a member holding support and target stays a
    member without the target.  Each member's link is looked for on
    demand: targets ascending, supports by size and lexicographically,
    the removal rule before the integer search, and the first link
    found passes the member.  Supports range over a member's subsets,
    so (C3) refuses more than ``SEARCH_CAP`` (target, support) pairs.
    """
    violation = _violation(gset.collection, gset.members)
    return ConnectednessResult(violation is None, violation)


def _violation(coll: ElementCollection, members) -> Optional[tuple]:
    # the violation that is_connected_gset reports, or None
    r = len(coll)
    full = frozenset(range(r))
    for i in range(r):
        if full - {i} not in members:
            return ("C1", i)
    ordered = sorted(members, key=cone_key)
    for member in ordered:
        for i in sorted(full - member):
            if member | {i} not in members:
                return ("C2", (tuple(sorted(member)), i))
    pairs = sum((r - len(m)) << len(m) for m in members)
    check_search("(C3) link search of %s (target, support) pairs", "sum (%d-|m|)*2^|m|" % r, pairs)

    def removal_rule_holds(target: int, support: tuple[int, ...]) -> bool:
        needed = {target, *support}
        return all(b - {target} in members for b in members if needed <= b)

    for member in ordered:
        inside = sorted(member)
        if member != full and not any(
            removal_rule_holds(target, support) and is_link(coll, target, support)[0]
            for target in sorted(full - member)
            for size in range(len(inside) + 1)
            for support in combinations(inside, size)
        ):
            return ("C3", tuple(inside))
    return None


def enumerate_connected_gsets(coll: ElementCollection) -> tuple[GSet, ...]:
    """All connected families of generating subcollections.

    Exhaustive over the 2^r subsets, then over the families of the
    generating ones, each count checked first against ``SEARCH_CAP``;
    families that cannot satisfy (C1) make the result empty.
    """
    r = len(coll)
    check_search("G-set subset scan of %s subsets", "2^%d" % r, 1 << r)
    if not generates_group(coll):
        raise NotGeneratingError("collection does not generate its group")
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
    check_search("G-set family scan of %s families", "2^%d" % len(optional), 1 << len(optional))
    found = []
    for mask in range(1 << len(optional)):
        members = frozenset(mandatory | {g for k, g in enumerate(optional) if mask >> k & 1})
        if _violation(coll, members) is None:
            found.append(GSet(coll, members))
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


def _finest_product_partition(
    coll: ElementCollection, relations: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Finest index partition splitting the pair into a direct sum.

    A part is admissible for the split (closed) when every relation
    among the elements restricts to a relation on the part; checking
    ``relations``, a basis of the relation lattice, suffices.  Closed
    sets are closed under complement and intersection, so the finest
    split is unique: the part of i is the intersection of all closed
    sets containing i.  Only unions of classes are scanned, so each
    class has one atom.  When a_i and a_j have parallel nonzero free
    parts, p*a_i - q*a_j is torsion of some order n, and a set holding i
    but not j cuts the relation n*p*e_i - n*q*e_j to n*p*a_i, not zero.
    So a class is a primitive free part up to sign, a torsion value
    (equal values differ by a relation) or one zero element.
    """
    r, lines = len(coll), {}
    for i, e in enumerate(coll):
        g = gcd(*e.free)
        line = max(tuple(c // g for c in e.free), tuple(-c // g for c in e.free)) if g else e
        lines.setdefault(i if e.is_zero else line, []).append(i)
    classes = [sum(1 << i for i in g) for g in lines.values()]

    def part_closed(mask: int) -> bool:
        part = [i for i in range(r) if mask >> i & 1]
        return all(
            coll.group.combination([rel[i] for i in part], coll.take(part)).is_zero
            for rel in relations
        )

    check_search("product split scan of %s unions", "2^%d-2" % len(classes), (1 << len(classes)) - 2)
    atoms = [(1 << r) - 1] * len(classes)
    for pick in range(1, (1 << len(classes)) - 1):
        mask = sum(m for k, m in enumerate(classes) if pick >> k & 1)
        if part_closed(mask):
            atoms = [atom & mask if pick >> k & 1 else atom for k, atom in enumerate(atoms)]
    parts = {tuple(i for i in range(r) if atom >> i & 1) for atom in atoms}
    return tuple(sorted(parts))


def _rank_one_type(coll: ElementCollection) -> tuple[Optional[int], Optional[bool]]:
    group = coll.group
    if group.free_rank != 1 or group.torsion:
        return None, None
    vals = [e.free[0] for e in coll]
    if any(v > 0 for v in vals) and any(v < 0 for v in vals):
        return 1, None
    if 0 in vals:
        return 3, None
    # both tests read only the set D of distinct values: one index each.
    # If s generates Z but misses some value, the missed u of least |u| is
    # missed by D - {u} too, which holds s: a sum for u uses only smaller
    # values, all made by s.  So only the co-singletons D - {v} are tested
    firsts = [g[0] for g in _value_index_groups(coll)]
    locus = not any(
        generates_group(coll, s) and not generates_full_semigroup(coll, s)
        for s in ([j for j in firsts if j != i] for i in firsts)
    )
    return 2, locus


def classify_pair(coll: ElementCollection) -> ClassificationReport:
    """Geometric classification of an admissible pair.

    Affine means trivial group.  Complete means a torsion-free group
    with f distinct values, each repeated at least twice, that generate
    it (f values generate Z^f exactly when they form a basis).
    Quasiaffine means the free parts positively span the rational
    vector space: a relation among the elements with every coefficient
    >= 1 exists, that is, a covector >= 1 on every ray of the Gale dual,
    so the rays are strictly convex.  The dual's rays also carry the
    relation basis that the finest product split checks.  The rank-one
    sign type (with the regular-locus test for all-positive
    collections) and the repeated-value shape flag round out the report.
    """
    config = _admissible_configuration(coll)
    rank_one, locus = _rank_one_type(coll)
    value_groups = _value_index_groups(coll)
    shape = _has_shape(coll, value_groups)
    group = coll.group
    return ClassificationReport(
        affine=group.is_trivial,
        complete=not group.torsion and len(value_groups) == group.free_rank and shape,
        quasiaffine=is_strictly_convex(config, config.indices),
        product_parts=_finest_product_partition(coll, tuple(zip(*config.vectors))),
        rank_one_type=rank_one,
        type2_regular_locus=locus,
        semisimple_shape=shape,
    )


class ShapeReport(Record):
    is_shape: bool
    value_groups: tuple[tuple[int, ...], ...]
    coincides_with_maximal: Optional[bool]
    gset: Optional[GSet]


def _has_shape(coll: ElementCollection, value_groups: tuple[tuple[int, ...], ...]) -> bool:
    # every value repeated, and one index per value generates the group
    return all(len(g) >= 2 for g in value_groups) and generates_group(
        coll, [g[0] for g in value_groups]
    )


def semisimple_shape(coll: ElementCollection) -> ShapeReport:
    """Repeated-value shape test.

    The collection has the shape when it splits into value groups of
    multiplicity at least two whose distinct values generate the group.
    The attached family consists of all subcollections meeting every
    value group, built as the unions of one nonempty subset per group,
    so the time is proportional to the family's size; the shape
    coincides with the maximal object exactly when no single value may
    be dropped without losing the semigroup.
    """
    value_groups = _value_index_groups(coll)
    if not _has_shape(coll, value_groups):
        return ShapeReport(False, value_groups, None, None)
    sizes = [len(g) for g in value_groups]
    members = prod((1 << k) - 1 for k in sizes)
    check_search("shape G-set of %s members", "*".join("(2^%d-1)" % k for k in sizes), members)
    choices = [[s for k in range(1, len(g) + 1) for s in combinations(g, k)] for g in value_groups]
    gset = GSet(coll, frozenset(frozenset(chain(*pick)) for pick in product(*choices)))
    values = [coll[g[0]] for g in value_groups]
    coincides = not any(
        semigroup_membership(v, values[:i] + values[i + 1 :])[0] for i, v in enumerate(values)
    )
    return ShapeReport(True, value_groups, coincides, gset)


def is_big_open_subfan(fan: SimplicialFan, maximal: SimplicialFan) -> bool:
    """Subfan with the full ray set (complement of codimension >= 2).

    The configurations must agree up to a unimodular change of basis;
    every fan has a cone for each ray, so the ray sets always agree.
    """
    if not configs_equivalent(fan.config, maximal.config):
        raise ValueError("fans have different configurations")
    return set(fan.cones) <= set(maximal.cones)
