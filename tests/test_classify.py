import random
import re
import sys
from itertools import combinations

import pytest

from galefan import (
    AbelianGroup,
    CapExceededError,
    DegenerateConfigurationError,
    ElementCollection,
    GSet,
    InvalidFanError,
    NotAdmissibleError,
    NotGeneratingError,
    SimplicialFan,
    VectorConfiguration,
    build_maximal_fan,
    canonical_form,
    classify_pair,
    direct_sum_collection,
    enumerate_connected_gsets,
    generates_full_semigroup,
    generates_group,
    gset_from_subfan,
    inverse_gale_transform,
    is_admissible,
    is_big_open_subfan,
    is_connected_gset,
    integer_kernel,
    IntMatrix,
    is_strictly_convex,
    is_strongly_regular,
    pairs_equivalent,
    root_connecting,
    roots_in_box,
    semisimple_shape,
    subfan_from_gset,
)
import galefan
from galefan.classify import _finest_product_partition, _rank_one_type
from galefan.groups import _lifted_matrix

from conftest import admissible_catalog, all_full_ray_subfans, random_collection
from oracles import positively_spans_by_signed_units, relations_of, shape_members_by_subset_filter

Z = AbelianGroup(1, ())
TRIV = AbelianGroup(0, ())
Z3 = AbelianGroup(0, (3,))
ZZ = AbelianGroup(2, ())


def ints(*vals):
    return ElementCollection(Z, tuple(Z.element((v,)) for v in vals))


def ints2(*vals):
    return ElementCollection(ZZ, tuple(ZZ.element(v) for v in vals))


def cyc3(*vals):
    return ElementCollection(Z3, tuple(Z3.element((), (v,)) for v in vals))


def test_maximal_fan_projective_plane():
    fan = build_maximal_fan(ints(1, 1, 1))
    assert len(fan.cones) == 7
    full = frozenset({0, 1, 2})
    assert full not in fan.cones
    assert all(frozenset(c) in fan.cones for c in [(0, 1), (0, 2), (1, 2)])
    assert canonical_form(fan.config).vectors == ((1, 0), (0, 1), (-1, -1))
    assert is_strongly_regular(fan).strongly_regular


def test_maximal_fan_cyclic_examples():
    fan = build_maximal_fan(cyc3(1, 1))
    assert fan.sorted_cones() == (frozenset(), frozenset({0}), frozenset({1}))
    assert canonical_form(fan.config).vectors == ((1, 0), (2, 3))

    fan2 = build_maximal_fan(cyc3(1, 2))
    assert fan2.sorted_cones() == (frozenset(), frozenset({0}), frozenset({1}))
    assert canonical_form(fan2.config).vectors == ((1, 0), (1, 3))


def test_maximal_fan_weighted_space():
    fan = build_maximal_fan(ints(1, 1, 2, 3))
    assert len(fan.cones) == 12
    assert frozenset({0, 1}) not in fan.cones
    assert frozenset({1, 2, 3}) in fan.cones
    assert frozenset({0, 2, 3}) in fan.cones
    assert frozenset({0, 1, 2}) not in fan.cones


def test_maximal_fan_rejects_bad_input():
    with pytest.raises(NotAdmissibleError, match="generate"):
        build_maximal_fan(ints(2, 4))
    with pytest.raises(NotAdmissibleError, match="element 1 "):
        build_maximal_fan(ints(1, 2))


def _pair_with_and_without_torsion() -> tuple[ElementCollection, ElementCollection]:
    # P1 x P1, and the same pair with a Z/2 part
    zz, zt = AbelianGroup(2, ()), AbelianGroup(1, (2,))
    free = ElementCollection(zz, tuple(zz.element(v) for v in [(1, 0), (1, 0), (0, 1), (0, 1)]))
    tors = ElementCollection(
        zt, tuple(zt.element(f, t) for f, t in [((1,), (0,)), ((1,), (0,)), ((0,), (1,)), ((0,), (1,))])
    )
    return free, tors


def test_each_entry_point_builds_one_smith_form_of_the_lifted_matrix(monkeypatch):
    # generation and the relations come off one Smith form of the pair's
    # lifted matrix, counted at _smith, the routine that builds every
    # Smith form; is_admissible reads the relations for every group
    lifted, bases = [], []
    smith, basis = galefan.linalg._smith, galefan.groups._relation_basis

    def recording_smith(rows, n):
        lifted.append((tuple(map(tuple, rows)), n))
        return smith(rows, n)

    def recording_basis(coll):
        bases.append(coll)
        return basis(coll)

    for name, module in list(sys.modules.items()):
        if name.startswith("galefan.") and hasattr(module, "_smith"):
            monkeypatch.setattr(module, "_smith", recording_smith)
    monkeypatch.setattr(galefan.groups, "_relation_basis", recording_basis)
    for coll in _pair_with_and_without_torsion():
        matrix = _lifted_matrix(coll.elements, coll.group)
        for entry in (build_maximal_fan, classify_pair, inverse_gale_transform, is_admissible):
            lifted.clear()
            bases.clear()
            entry(coll)
            assert lifted.count((matrix.entries, matrix.cols)) == 1, (entry.__name__, coll.group)
        assert len(bases) == 1


def test_route_rule_reads_only_the_relation_rank(monkeypatch):
    # Z (1, 1, 2, 2, 3): the relations have rank 4, so a candidate of
    # size 3 or more asks the Gale dual, whether or not its complement
    # repeats a value, and a smaller one that needs a search asks about
    # the distinct values of its complement; the fan asks no LP either way
    lifted, lps = [], []
    membership, lp = galefan.groups.semigroup_membership, galefan.linalg.lp_feasible

    def recording_membership(target, gens):
        lifted.append(gens)
        return membership(target, gens)

    def recording_lp(system):
        lps.append(system)
        return lp(system)

    monkeypatch.setattr(galefan.groups, "semigroup_membership", recording_membership)
    for name, module in list(sys.modules.items()):
        if name.startswith("galefan.") and getattr(module, "lp_feasible", None) is lp:
            monkeypatch.setattr(module, "lp_feasible", recording_lp)
    galefan.linalg.ilp_feasible.cache_clear()
    fan = build_maximal_fan(ints(1, 1, 2, 2, 3))
    assert len(fan.cones) == 24 and len(lifted) == 8 and lps == []


def test_maximal_fan_checks_regularity_on_maximal_cones(monkeypatch):
    # the faces of a regular cone are regular, so the maximal cones suffice
    checked = []
    regular = galefan.classify.is_regular_cone

    def recording(config, cone):
        checked.append(cone)
        return regular(config, cone)

    monkeypatch.setattr(galefan.classify, "is_regular_cone", recording)
    for coll in (ints(1, 1, 1), *_pair_with_and_without_torsion()):
        checked.clear()
        fan = build_maximal_fan(coll)
        maximal = {c for c in fan.cones if not any(c < d for d in fan.cones)}
        assert sorted(checked, key=sorted) == sorted(maximal, key=sorted)
        assert len(maximal) == (3 if len(coll) == 3 else 4)


def test_maximal_fan_membership_is_complement_generation():
    for coll in admissible_catalog():
        fan = build_maximal_fan(coll)
        r = len(coll)
        indices = set(range(r))
        from itertools import combinations

        for k in range(r + 1):
            for sub in combinations(range(r), k):
                cone = frozenset(sub)
                expected = generates_full_semigroup(coll, indices - cone)
                assert (cone in fan.cones) == expected


def test_maximal_fan_matches_all_values_rule(covector_answers):
    # build_maximal_fan asks one membership question per candidate cone,
    # with torsion through the covector search on the rays; the referee
    # asks generates_full_semigroup about every value outside the
    # complement of every index subset, with no pruning
    from itertools import combinations

    from conftest import random_element

    rng = random.Random(11)
    seen = set()
    built = 0
    while built < 40:
        group = AbelianGroup(rng.choice((0, 1, 1, 2)), rng.choice([(), (2,), (3,), (2, 2), (6,)]))
        r = rng.randint(group.free_rank + 1, 5)
        elems = [random_element(rng, group, height=2) for _ in range(r)]
        if r > 1 and rng.random() < 0.5:
            elems[rng.randrange(r)] = elems[rng.randrange(r)]
        if rng.random() < 0.5:
            # doubled values make free parts admissible far more often
            elems = elems[:3] * 2
            rng.shuffle(elems)
        if rng.random() < 0.3:
            # no positive relation among non-negative free parts: a
            # membership relation must leave some outside element out
            elems = [group.element(map(abs, e.free), e.torsion) for e in elems]
        coll = ElementCollection(group, tuple(elems))
        covector_answers.clear()
        try:
            fan = build_maximal_fan(coll)
        except NotAdmissibleError:
            continue
        built += 1
        if group.torsion and group.free_rank:
            seen.update(covector_answers)
        indices = set(coll.indices)
        expected = {
            frozenset(sub)
            for k in range(len(coll) + 1)
            for sub in combinations(coll.indices, k)
            if generates_full_semigroup(coll, indices - set(sub))
        }
        assert fan.cones == expected, coll
    # the covector search itself, not only a shortcut, said yes and no
    assert seen == {True, False}
    # without relations only the empty collection is admissible: its
    # dual has rank 0 and its fan is the zero cone
    empty = ElementCollection(TRIV, ())
    assert build_maximal_fan(empty).cones == frozenset({frozenset()})
    zt = AbelianGroup(2, (2,))
    free = ElementCollection(zt, (zt.element((1, 0), (1,)), zt.element((0, 1), (0,))))
    with pytest.raises(NotAdmissibleError):
        build_maximal_fan(free)


def test_gset_round_trip():
    for coll in admissible_catalog():
        maximal = build_maximal_fan(coll)
        gset = gset_from_subfan(coll, maximal, maximal)
        assert subfan_from_gset(gset, maximal.config).cones == maximal.cones
        for fan in all_full_ray_subfans(maximal):
            gs = gset_from_subfan(coll, fan, maximal)
            assert subfan_from_gset(gs, maximal.config).cones == fan.cones


def test_gset_validation():
    coll = ints(1, 1, 1)
    full = frozenset({0, 1, 2})
    with pytest.raises(ValueError, match="full collection"):
        GSet(coll, frozenset({frozenset({0, 1})}))
    with pytest.raises(ValueError, match="out of range"):
        GSet(coll, frozenset({full, frozenset({7})}))
    with pytest.raises(ValueError, match="does not generate"):
        GSet(ints(0, 1, 1), frozenset({full, frozenset({0})}))
    # 2 and 2 generate the full semigroup of their values, but not Z
    with pytest.raises(NotGeneratingError, match="does not generate its group"):
        GSet(ints(2, 2), frozenset({frozenset({0}), frozenset({1}), frozenset({0, 1})}))


def _sheared(fan):
    # the same fan with its rays under the unimodular map (x, y, ...) -> (x + y, y, ...)
    vecs = tuple((v[0] + v[1],) + tuple(v[1:]) for v in fan.config.vectors)
    return SimplicialFan(VectorConfiguration(fan.config.rank, vecs), fan.cones)


def test_gset_from_subfan_guards():
    coll = ints(1, 1, 1)
    maximal = build_maximal_fan(coll)
    moved = _sheared(maximal)
    assert moved.config != maximal.config
    assert gset_from_subfan(coll, moved, maximal) == gset_from_subfan(coll, maximal, maximal)
    other = build_maximal_fan(ints(1, 1))
    with pytest.raises(ValueError, match="configurations"):
        gset_from_subfan(coll, other, maximal)
    with pytest.raises(ValueError, match="size"):
        gset_from_subfan(ints(1, 1), maximal, maximal)
    # (1,1,2,3): the maximal fan leaves out the cone of the two weight-1 rays
    weighted = ints(1, 1, 2, 3)
    weighted_max = build_maximal_fan(weighted)
    alien = SimplicialFan(
        weighted_max.config, frozenset({frozenset({i}) for i in range(4)} | {frozenset({0, 1})})
    )
    with pytest.raises(ValueError, match="subfan"):
        gset_from_subfan(weighted, alien, weighted_max)
    # a family without every ray is no fan, so it never reaches the guard
    with pytest.raises(InvalidFanError) as info:
        SimplicialFan(maximal.config, frozenset({frozenset({0}), frozenset({1})}))
    assert [v.code for v in info.value.report.violations] == ["missing-ray-cone"]


def test_subfan_from_gset_rejects_non_fans():
    # dropping a ray member leaves a two-dimensional cone without a face
    coll = ints(1, 1, 1)
    full = frozenset({0, 1, 2})
    gs = GSet(coll, frozenset({full, frozenset({0, 1}), frozenset({0, 2})}))
    with pytest.raises(InvalidFanError):
        subfan_from_gset(gs, build_maximal_fan(coll).config)


def test_connectedness_conditions():
    coll = ints(1, 1, 1)
    full = frozenset({0, 1, 2})
    pairs = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    singles = [frozenset({i}) for i in range(3)]

    maximal = GSet(coll, frozenset([full] + pairs + singles))
    assert is_connected_gset(maximal).connected

    missing_c1 = GSet(coll, frozenset({full}))
    res = is_connected_gset(missing_c1)
    assert not res.connected and res.violation == ("C1", 0)

    skeleton = GSet(coll, frozenset([full] + pairs))
    res2 = is_connected_gset(skeleton)
    assert not res2.connected and res2.violation == ("C3", (0, 1))

    one_single = GSet(coll, frozenset([full] + pairs + [frozenset({0})]))
    res3 = is_connected_gset(one_single)
    assert not res3.connected and res3.violation[0] == "C3"

    two_singles = GSet(coll, frozenset([full] + pairs + singles[:2]))
    assert is_connected_gset(two_singles).connected


def test_connectedness_c2():
    coll = ints(1, 1, 1, 1)
    full = frozenset(range(4))
    triples = [full - {i} for i in range(4)]
    gs = GSet(coll, frozenset([full] + triples + [frozenset({0})]))
    res = is_connected_gset(gs)
    assert not res.connected and res.violation == ("C2", ((0,), 1))


def test_connectedness_check_keeps_the_link_cap():
    # (C1) and (C2) hold, so (C3) is reached: the members of size >= 6 of
    # 11 elements have 511,104 (target, support) pairs, past the cap
    coll = ints(*[1] * 11)
    full = frozenset(range(11))
    members = frozenset(frozenset(s) for k in range(6, 12) for s in combinations(range(11), k))
    message = "(C3) link search of sum (11-|m|)*2^|m| = 511104 (target, support) pairs"
    with pytest.raises(CapExceededError, match=re.escape(message + " exceeds the cap of 500000")):
        is_connected_gset(GSet(coll, members))
    # a family that fails (C1) is answered before the cap is looked at
    assert is_connected_gset(GSet(coll, frozenset({full}))).violation == ("C1", 0)


SEARCHES = {
    # search: (call on the maximal fan of Z (1,1,1) and its G-set, message);
    # a cap of 3 is below each count, and where the search asks integer
    # questions, its input makes it ask them
    "roots": (
        lambda fan, gset: roots_in_box(fan, 1),
        "root scan of (2*1+1)^2 = 9 covectors exceeds the cap of 3",
    ),
    "root zero sets": (
        lambda fan, gset: root_connecting(fan, frozenset({0}), frozenset()),
        "root zero-set search of 2^2 = 4 zero sets exceeds the cap of 3",
    ),
    "pair bijections": (
        lambda fan, gset: pairs_equivalent(ints(1, 2, 3), ints(1, 2, 3)),
        "pair bijection search of 3! = 6 bijections exceeds the cap of 3",
    ),
    "G-set subsets": (
        lambda fan, gset: enumerate_connected_gsets(ints(2, 3, 5)),
        "G-set subset scan of 2^3 = 8 subsets exceeds the cap of 3",
    ),
    "(C3) links": (
        lambda fan, gset: is_connected_gset(gset),
        "(C3) link search of sum (3-|m|)*2^|m| = 24 (target, support) pairs exceeds the cap of 3",
    ),
    "shape G-set": (
        lambda fan, gset: semisimple_shape(ints(2, 3, 2, 3)),
        "shape G-set of (2^2-1)*(2^2-1) = 9 members exceeds the cap of 3",
    ),
    "product split": (
        lambda fan, gset: _finest_product_partition(ints2((1, 0), (0, 1), (1, 1)), ((1, 1, -1),)),
        "product split scan of 2^3-2 = 6 unions exceeds the cap of 3",
    ),
}


@pytest.mark.parametrize("search", SEARCHES)
def test_every_search_refuses_past_the_cap_before_an_integer_question(monkeypatch, search):
    call, message = SEARCHES[search]
    fan = build_maximal_fan(ints(1, 1, 1))
    gset = gset_from_subfan(ints(1, 1, 1), fan, fan)
    asked = []
    monkeypatch.setattr(galefan.errors, "SEARCH_CAP", 3)
    for module in (galefan.linalg, galefan.groups):
        monkeypatch.setattr(module, "ilp_feasible", lambda system: asked.append(system))
    with pytest.raises(CapExceededError, match=re.escape(message)):
        call(fan, gset)
    assert asked == []


def test_gset_enumeration_checks_its_families_after_its_subsets(monkeypatch):
    # Z (1,1,1,1): 2^4 subsets pass a cap of 16, and 10 optional members
    # make 2^10 families
    monkeypatch.setattr(galefan.errors, "SEARCH_CAP", 16)
    message = "G-set family scan of 2^10 = 1024 families exceeds the cap of 16"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        enumerate_connected_gsets(ints(1, 1, 1, 1))


def test_a_count_too_long_to_print_is_named_by_its_formula():
    # 2^15000-1 has 4,516 digits, past the interpreter's limit for printing
    message = "shape G-set of (2^15000-1) members exceeds the cap of 500000"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        semisimple_shape(ints(*[1] * 15000))


def test_enumerate_connected_gsets_triple():
    gsets = enumerate_connected_gsets(ints(1, 1, 1))
    assert len(gsets) == 4
    sizes = sorted(len(g.members) for g in gsets)
    assert sizes == [6, 6, 6, 7]
    full_lattice = max(gsets, key=lambda g: len(g.members))
    assert len(full_lattice.members) == 7


def test_enumerate_connected_gsets_small():
    gsets = enumerate_connected_gsets(cyc3(1, 1))
    assert len(gsets) == 1
    assert gsets[0].members == frozenset(
        {frozenset({0, 1}), frozenset({0}), frozenset({1})}
    )
    with pytest.raises(CapExceededError):
        enumerate_connected_gsets(ints(1, 1, 1, 1, 1))
    with pytest.raises(NotGeneratingError, match="does not generate its group"):
        enumerate_connected_gsets(ints(2, 2))


def test_gsets_biject_with_strongly_regular_subfans():
    for coll in [ints(1, 1, 1), cyc3(1, 1), ints(1, 1, 2)]:
        maximal = build_maximal_fan(coll)
        gsets = enumerate_connected_gsets(coll)
        sr_fans = [
            fan
            for fan in all_full_ray_subfans(maximal)
            if is_strongly_regular(fan).strongly_regular
        ]
        assert len(gsets) == len(sr_fans)
        fan_cones = {fan.cones for fan in sr_fans}
        for gs in gsets:
            assert subfan_from_gset(gs, maximal.config).cones in fan_cones


def test_classify_affine():
    report = classify_pair(ElementCollection(TRIV, (TRIV.zero(), TRIV.zero())))
    assert report.affine and report.quasiaffine and not report.complete
    assert report.product_parts == ((0,), (1,))
    assert report.rank_one_type is None
    assert report.semisimple_shape


def test_classify_complete():
    assert classify_pair(ints(1, 1)).complete
    zz = AbelianGroup(2, ())
    coll = ElementCollection(
        zz, (zz.element((1, 0)), zz.element((1, 0)), zz.element((0, 1)), zz.element((0, 1)))
    )
    report = classify_pair(coll)
    assert report.complete and not report.affine and not report.quasiaffine
    assert report.product_parts == ((0, 1), (2, 3))
    assert not classify_pair(ints(1, 1, 2)).complete
    assert not classify_pair(ints(1, 1, -1, -1)).complete
    assert not classify_pair(cyc3(1, 1)).complete


def test_classify_quasiaffine():
    assert classify_pair(ints(1, 1, -1, -1)).quasiaffine
    assert classify_pair(ints(1, -1, 2, -2)).quasiaffine
    assert not classify_pair(ints(1, 1)).quasiaffine
    assert not classify_pair(ints(1, 1, 2, 3)).quasiaffine
    # torsion-only pairs have nothing to span
    assert classify_pair(cyc3(1, 1)).quasiaffine


def test_positive_spanning_matches_the_signed_unit_lps():
    # strict convexity of the Gale dual's rays, one LP at free rank >= 2,
    # against 2f LPs; every admissible pair generates and has no zero ray
    rng = random.Random(4242)
    seen = set()
    for _ in range(3000):
        group = AbelianGroup(rng.randint(0, 3), rng.choice([(), (2,), (3,)]))
        coll = random_collection(rng, group, rng.randint(0, 7), height=rng.choice((1, 2, 3)))
        if not generates_group(coll):
            continue
        try:
            config = inverse_gale_transform(coll)
        except DegenerateConfigurationError:
            continue
        got = is_strictly_convex(config, config.indices)
        assert got == positively_spans_by_signed_units(coll), coll
        seen.add((group.free_rank, got))
    assert seen == {(0, True)} | {(f, a) for f in (1, 2, 3) for a in (True, False)}


def test_quasiaffinity_of_rank_one_pairs_asks_no_lp(monkeypatch, clear_ilp_memo):
    # free rank 1: the rays carry one relation, and its signs decide
    def no_lp(system):
        raise AssertionError("an LP was asked")

    clear_ilp_memo()
    for name, module in list(sys.modules.items()):
        if name.startswith("galefan.") and hasattr(module, "lp_feasible"):
            monkeypatch.setattr(module, "lp_feasible", no_lp)
    assert classify_pair(ints(1, 1, -1, -1)).quasiaffine
    assert not classify_pair(ints(1, 1, 2, 3)).quasiaffine


def test_classify_rank_one_types():
    assert classify_pair(ints(1, 1, -1, -1)).rank_one_type == 1
    r2 = classify_pair(ints(1, 1, 2, 3))
    assert r2.rank_one_type == 2 and r2.type2_regular_locus is False
    r2b = classify_pair(ints(2, 2, 3, 3))
    assert r2b.rank_one_type == 2 and r2b.type2_regular_locus is True
    flipped = classify_pair(ints(-1, -1, -2, -3))
    assert flipped.rank_one_type == 2 and flipped.type2_regular_locus is False
    r3 = classify_pair(ints(0, 1, 1))
    assert r3.rank_one_type == 3 and r3.type2_regular_locus is None
    assert classify_pair(cyc3(1, 1)).rank_one_type is None
    zz = AbelianGroup(2, ())
    coll = ElementCollection(
        zz, (zz.element((1, 0)), zz.element((1, 0)), zz.element((0, 1)), zz.element((0, 1)))
    )
    assert classify_pair(coll).rank_one_type is None


def brute_regular_locus(coll):
    """Referee: the regular-locus scan over every index subset."""
    r = len(coll)
    return not any(
        generates_group(coll, s) and not generates_full_semigroup(coll, s)
        for k in range(1, r + 1)
        for s in combinations(range(r), k)
    )


def test_rank_one_locus_matches_the_full_index_scan():
    # the locus asks about the co-singletons of the distinct values: up to
    # 7 of 1..15 here, of either sign, with repeats
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        sign = rng.choice((1, -1))
        values = rng.sample(range(1, 16), rng.randint(1, 7))
        values += [rng.choice(values) for _ in range(rng.randint(0, 2))]
        rng.shuffle(values)
        coll = ints(*[sign * v for v in values])
        kind, locus = _rank_one_type(coll)
        assert kind == 2 and locus == brute_regular_locus(coll)
        seen.add((sign, locus))
    assert seen == {(s, a) for s in (1, -1) for a in (True, False)}


def test_rank_one_locus_asks_at_most_one_semigroup_question_per_value(monkeypatch):
    # Z (1,1,2,4,6,8) has d = 5 distinct values; every subset holding 1
    # generates both the group and the semigroup
    asked = []
    real = galefan.groups.semigroup_membership

    def counted(target, gens):
        asked.append(target)
        return real(target, gens)

    monkeypatch.setattr(galefan.groups, "semigroup_membership", counted)
    assert _rank_one_type(ints(1, 1, 2, 4, 6, 8)) == (2, True)
    assert 0 < len(asked) <= 5


def test_classify_product_parts():
    assert classify_pair(ints(1, 1)).product_parts == ((0, 1),)
    assert classify_pair(ints(1, 1, 1)).product_parts == ((0, 1, 2),)
    zt = AbelianGroup(1, (2,))
    coll = ElementCollection(
        zt,
        (
            zt.element((1,), (0,)),
            zt.element((1,), (0,)),
            zt.element((0,), (1,)),
            zt.element((0,), (1,)),
        ),
    )
    assert classify_pair(coll).product_parts == ((0, 1), (2, 3))
    # interleaved order still splits into the same parts
    zz = AbelianGroup(2, ())
    mixed = ElementCollection(
        zz, (zz.element((1, 0)), zz.element((0, 1)), zz.element((1, 0)), zz.element((0, 1)))
    )
    assert classify_pair(mixed).product_parts == ((0, 2), (1, 3))


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for k in range(len(p)):
            yield p[:k] + [[first] + p[k]] + p[k + 1:]
        yield [[first]] + p


def brute_finest_partition(coll):
    """Referee: the set partition with the most closed parts, found by
    scanning all partitions; also checks that it is the only one."""
    group, r = coll.group, len(coll)
    f = group.free_rank
    cols = [e.lift() for e in coll]
    for j, d in enumerate(group.torsion):
        cols.append(tuple(d if k == f + j else 0 for k in range(group.coords)))
    relations = [v[:r] for v in integer_kernel(IntMatrix.from_columns(cols, rows=group.coords))]

    def closed(part):
        for rel in relations:
            acc = group.zero()
            for i in part:
                acc = acc + rel[i] * coll[i]
            if not acc.is_zero:
                return False
        return True

    best, count = [], 0
    for p in set_partitions(list(range(r))):
        if not all(closed(part) for part in p):
            continue
        if len(p) > count:
            best, count = [p], len(p)
        elif len(p) == count:
            best.append(p)
    assert len(best) == 1
    return tuple(sorted(tuple(sorted(part)) for part in best[0]))


def test_product_partition_matches_brute_force():
    rng = random.Random(2024)
    chains = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4)]
    split = 0
    for _ in range(150):
        group = AbelianGroup(rng.randint(0, 3), rng.choice(chains))
        coll = random_collection(rng, group, rng.randint(1, 6), height=rng.choice((1, 2, 3)))
        got = _finest_product_partition(coll, relations_of(coll))
        assert got == brute_finest_partition(coll)
        split += len(got) > 1
    assert split > 20


def test_product_split_of_many_values_on_one_line_scans_nothing():
    # nineteen distinct values of Z are one class: their 2^19-2 unions
    # would pass the cap, and no union is scanned
    coll = ints(*range(1, 20))
    assert _finest_product_partition(coll, relations_of(coll)) == (tuple(range(19)),)


def test_classify_rejects_non_admissible():
    with pytest.raises(NotAdmissibleError):
        classify_pair(ints(1, 2))
    with pytest.raises(NotAdmissibleError):
        classify_pair(ints(2, 4))


def test_semisimple_shape_cases():
    rep = semisimple_shape(ints(2, 2, 3, 3))
    assert rep.is_shape and rep.coincides_with_maximal is True
    assert rep.value_groups == ((0, 1), (2, 3))
    assert rep.gset is not None and is_connected_gset(rep.gset).connected

    rep2 = semisimple_shape(ints(1, 1, 2, 2))
    assert rep2.is_shape and rep2.coincides_with_maximal is False

    rep3 = semisimple_shape(ints(1, 1, 2, 3))
    assert not rep3.is_shape and rep3.gset is None
    assert rep3.coincides_with_maximal is None

    rep4 = semisimple_shape(ints(1, 1))
    assert rep4.is_shape and rep4.coincides_with_maximal is True
    assert rep4.gset.members == frozenset({frozenset({0}), frozenset({1}), frozenset({0, 1})})


def test_semisimple_shape_torsion():
    z22 = AbelianGroup(0, (2, 2))
    a, b, c = (
        z22.element((), (1, 0)),
        z22.element((), (0, 1)),
        z22.element((), (1, 1)),
    )
    coll = ElementCollection(z22, (a, a, b, b, c, c))
    rep = semisimple_shape(coll)
    assert rep.is_shape
    assert len(rep.gset.members) == 27
    assert rep.coincides_with_maximal is False
    assert is_connected_gset(rep.gset).connected


def test_shape_members_match_the_subset_filter():
    rng = random.Random(909)
    groups = [
        Z,
        AbelianGroup(2, ()),
        AbelianGroup(0, (2,)),
        AbelianGroup(0, (4,)),
        AbelianGroup(1, (2,)),
        AbelianGroup(0, (2, 2)),
    ]
    shapes = torsion = zeros = 0
    for _ in range(300):
        group = rng.choice(groups)
        values = {group.zero()} if rng.random() < 0.4 else set()
        for _ in range(rng.randint(1, 4)):
            values.add(
                group.element(
                    [rng.randint(-2, 2) for _ in range(group.free_rank)],
                    [rng.randrange(d) for d in group.torsion],
                )
            )
        elements = []
        for v in values:
            elements += [v] * rng.choice((1, 2, 2, 3))
        if len(elements) > 8:
            continue
        rng.shuffle(elements)
        coll = ElementCollection(group, tuple(elements))
        rep = semisimple_shape(coll)
        if not rep.is_shape:
            assert rep.gset is None
            continue
        assert rep.gset.members == shape_members_by_subset_filter(coll)
        shapes += 1
        torsion += bool(group.torsion)
        zeros += any(e.is_zero for e in coll)
    assert shapes >= 40 and torsion >= 20 and zeros >= 10


def test_shape_gset_members_hit_every_value_group():
    rep = semisimple_shape(ints(1, 1, 2, 2))
    for member in rep.gset.members:
        assert member & {0, 1} and member & {2, 3}
    # and every hitting set is present
    assert len(rep.gset.members) == 9


def test_is_big_open_subfan():
    coll = ints(1, 1, 1)
    maximal = build_maximal_fan(coll)
    assert is_big_open_subfan(maximal, maximal)
    assert is_big_open_subfan(_sheared(maximal), maximal)
    sub = SimplicialFan(
        maximal.config,
        frozenset({frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1})}),
    )
    assert is_big_open_subfan(sub, maximal)
    assert not is_big_open_subfan(maximal, sub)
    other = build_maximal_fan(ints(1, 1))
    with pytest.raises(ValueError):
        is_big_open_subfan(other, maximal)


def test_product_of_maximal_fans():
    left = ints(1, 1)
    right = ints(1, 1)
    both = direct_sum_collection(left, right)
    fan = build_maximal_fan(both)
    lf = build_maximal_fan(left)
    rf = build_maximal_fan(right)
    shift = len(left)
    want = {
        frozenset(lc) | frozenset(i + shift for i in rc)
        for lc in lf.cones
        for rc in rf.cones
    }
    assert fan.cones == frozenset(want)
    assert len(fan.cones) == 9


def test_product_cones_for_mixed_groups():
    rng = random.Random(77)
    catalog = admissible_catalog()
    for _ in range(6):
        left = rng.choice(catalog)
        right = rng.choice(catalog)
        if len(left) + len(right) > 6:
            continue
        both = direct_sum_collection(left, right)
        fan = build_maximal_fan(both)
        lf = build_maximal_fan(left)
        rf = build_maximal_fan(right)
        shift = len(left)
        want = {
            frozenset(lc) | frozenset(i + shift for i in rc)
            for lc in lf.cones
            for rc in rf.cones
        }
        assert fan.cones == frozenset(want)
