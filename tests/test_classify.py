import random

import pytest

from galefan import (
    AbelianGroup,
    CapExceededError,
    ElementCollection,
    GSet,
    InvalidFanError,
    NotAdmissibleError,
    SimplicialFan,
    VectorConfiguration,
    build_maximal_fan,
    canonical_form,
    classify_pair,
    direct_sum_collection,
    enumerate_connected_gsets,
    generates_full_semigroup,
    gset_from_subfan,
    is_big_open_subfan,
    is_connected_gset,
    integer_kernel,
    IntMatrix,
    is_strongly_regular,
    semisimple_shape,
    subfan_from_gset,
)
from galefan.classify import _finest_product_partition

from conftest import admissible_catalog, all_full_ray_subfans, random_collection

Z = AbelianGroup(1, ())
TRIV = AbelianGroup(0, ())
Z3 = AbelianGroup(0, (3,))


def ints(*vals):
    return ElementCollection(Z, tuple(Z.element((v,)) for v in vals))


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


def test_maximal_fan_matches_all_values_rule():
    # build_maximal_fan asks one membership question per candidate cone;
    # the referee asks generates_full_semigroup about every value outside
    # the complement of every index subset, with no pruning
    from itertools import combinations

    from conftest import random_element

    rng = random.Random(11)
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
        coll = ElementCollection(group, tuple(elems))
        try:
            fan = build_maximal_fan(coll)
        except NotAdmissibleError:
            continue
        built += 1
        indices = set(coll.indices)
        expected = {
            frozenset(sub)
            for k in range(len(coll) + 1)
            for sub in combinations(coll.indices, k)
            if generates_full_semigroup(coll, indices - set(sub))
        }
        assert fan.cones == expected, coll


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


def test_gset_from_subfan_guards():
    coll = ints(1, 1, 1)
    maximal = build_maximal_fan(coll)
    other = build_maximal_fan(ints(1, 1))
    with pytest.raises(ValueError, match="configurations"):
        gset_from_subfan(coll, other, maximal)
    with pytest.raises(ValueError, match="size"):
        gset_from_subfan(ints(1, 1), maximal, maximal)
    alien = SimplicialFan(maximal.config, frozenset({frozenset({0, 1, 2})}))
    with pytest.raises(ValueError, match="subfan"):
        gset_from_subfan(coll, alien, maximal)
    no_ray = SimplicialFan(
        maximal.config, frozenset({frozenset({0}), frozenset({1})})
    )
    with pytest.raises(ValueError, match="ray set"):
        gset_from_subfan(coll, no_ray, maximal)


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
    chains = [(), (2,), (3,), (6,), (2, 2), (2, 4)]
    split = 0
    for _ in range(150):
        group = AbelianGroup(rng.randint(0, 2), rng.choice(chains))
        coll = random_collection(rng, group, rng.randint(1, 6), height=rng.choice((1, 2)))
        got = _finest_product_partition(coll)
        assert got == brute_finest_partition(coll)
        split += len(got) > 1
    assert split > 20


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
    sub = SimplicialFan(
        maximal.config,
        frozenset({frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1})}),
    )
    assert is_big_open_subfan(sub, maximal)
    missing_ray = SimplicialFan(maximal.config, frozenset({frozenset({0}), frozenset({1})}))
    assert not is_big_open_subfan(missing_ray, maximal)
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
