import itertools
import random

import pytest

from galefan import (
    AbelianGroup,
    CapExceededError,
    DegenerateConfigurationError,
    DemazureRoot,
    ElementCollection,
    FanReport,
    FanViolation,
    InvalidFanError,
    InvalidRootError,
    SimplicialFan,
    VectorConfiguration,
    build_maximal_fan,
    cone_key,
    cones_meet_in_common_face,
    direct_sum_collection,
    is_admissible,
    is_demazure_root,
    is_primitive,
    is_regular_cone,
    is_strictly_convex,
    is_strongly_regular,
    matrix_rank,
    one_skeleton_fan,
    one_skeleton_strongly_regular,
    primitivize,
    root_connecting,
    roots_in_box,
    validate_fan,
)
import galefan.fans as fans_module
import galefan.linalg as linalg_module
from galefan.fans import dot

from conftest import admissible_catalog, random_config, random_generating_collection
from oracles import root_connecting_ascending


def fan_of(config, *cones):
    return SimplicialFan(config, frozenset(frozenset(c) for c in cones))


def report_of(config, *cones):
    # a cone family that is not a fan raises at construction, carrying its report
    try:
        return validate_fan(fan_of(config, *cones))
    except InvalidFanError as exc:
        return exc.report


def projective_plane():
    config = VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1)))
    return fan_of(config, (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


def affine_plane():
    config = VectorConfiguration(2, ((1, 0), (0, 1)))
    return fan_of(config, (0,), (1,), (0, 1))


def test_primitive_helpers():
    assert is_primitive((2, 3))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0))
    assert primitivize((2, -4)) == (1, -2)
    assert primitivize((0, 5)) == (0, 1)
    with pytest.raises(ValueError):
        primitivize((0, 0))


def test_configuration_validation():
    with pytest.raises(DegenerateConfigurationError):
        VectorConfiguration(2, ((1, 0), (0, 0)))
    with pytest.raises(DegenerateConfigurationError):
        VectorConfiguration(2, ((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        VectorConfiguration(2, ((1, 0, 0), (0, 1, 0)))
    config = VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1)))
    assert len(config) == 3 and config.indices == (0, 1, 2)


def test_fan_normalization():
    config = VectorConfiguration(2, ((1, 0), (0, 1)))
    fan = SimplicialFan(config, frozenset({frozenset({0}), frozenset({1})}))
    assert frozenset() in fan.cones
    with pytest.raises(ValueError):
        SimplicialFan(config, frozenset({frozenset({5})}))
    assert affine_plane().rays == (0, 1)
    keys = [cone_key(c) for c in projective_plane().sorted_cones()]
    assert keys == sorted(keys)


def test_strict_convexity():
    config = VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1), (1, 1)))
    assert is_strictly_convex(config, [])
    assert is_strictly_convex(config, [0])
    assert is_strictly_convex(config, [0, 1])
    assert is_strictly_convex(config, [0, 1, 3])
    assert not is_strictly_convex(config, [0, 1, 2])
    line = VectorConfiguration(1, ((1,), (-1,)))
    assert not is_strictly_convex(line, [0, 1])


def test_regular_cones():
    config = VectorConfiguration(2, ((1, 0), (0, 1), (1, 2), (0, 2)))
    assert is_regular_cone(config, [])
    assert is_regular_cone(config, [0, 1])
    assert is_regular_cone(config, [1, 2])
    # index 2 sublattice
    assert not is_regular_cone(config, [0, 2])
    # imprimitive single ray
    assert not is_regular_cone(config, [3])
    # too many vectors for a simplicial cone
    assert not is_regular_cone(config, [0, 1, 2])


def test_cones_meet_in_common_face():
    config = VectorConfiguration(2, ((1, 0), (0, 1), (1, 1), (2, -1)))
    assert cones_meet_in_common_face(config, [0, 1], [0, 3])
    assert cones_meet_in_common_face(config, [0], [1])
    assert cones_meet_in_common_face(config, [1, 2], [2])
    # ray inside the first cone
    assert not cones_meet_in_common_face(config, [0, 1], [2])
    # overlapping two-dimensional cones
    assert not cones_meet_in_common_face(config, [0, 1], [2, 3])
    assert cones_meet_in_common_face(config, [0, 1], [0, 1])
    line = VectorConfiguration(2, ((1, 0), (-1, 0), (0, 1)))
    with pytest.raises(ValueError):
        cones_meet_in_common_face(line, [0, 1], [2])


def test_validate_good_fans():
    assert validate_fan(projective_plane()).valid
    assert validate_fan(affine_plane()).valid
    config = VectorConfiguration(2, ((1, 0), (0, 1), (-1, 2)))
    assert validate_fan(one_skeleton_fan(config)).valid


def codes(report):
    return sorted({v.code for v in report.violations})


def test_validate_fan_violations():
    bad_ray = VectorConfiguration(2, ((2, 0), (0, 1)))
    report = report_of(bad_ray, (0,), (1,))
    assert not report.valid and codes(report) == ["nonprimitive-ray"]

    dup = VectorConfiguration(2, ((1, 0), (2, 0), (0, 1)))
    report = report_of(dup, (0,), (1,), (2,))
    assert "nonprimitive-ray" in codes(report)
    assert "duplicate-ray-direction" in codes(report)
    assert any(v.code == "duplicate-ray-direction" and v.indices == (0, 1) for v in report.violations)

    missing = projective_plane()
    report = report_of(missing.config, (0,), (1,))
    assert any(v.code == "missing-ray-cone" and v.indices == (2,) for v in report.violations)

    dependent = VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1)))
    report = report_of(dependent, (0,), (1,), (2,), (0, 1, 2))
    assert "dependent-cone" in codes(report)

    gap = VectorConfiguration(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    report = report_of(gap, (0,), (1,), (2,), (0, 1, 2))
    assert codes(report) == ["not-face-closed"]
    assert sum(v.code == "not-face-closed" for v in report.violations) == 3

    overlap = VectorConfiguration(2, ((1, 0), (0, 1), (1, 1)))
    report = report_of(overlap, (0,), (1,), (2,), (0, 1))
    assert codes(report) == ["bad-intersection"]
    # only the maximal cones are paired: (2,) against (0, 1), not (0,) or (1,)
    assert [v.indices for v in report.violations] == [((2,), (0, 1))]


def all_pairs_separation_failures(config, cones):
    """Reference: every pair of simplicial cones, maximal or not."""
    simplicial = [
        c
        for c in sorted(cones | {frozenset()}, key=cone_key)
        if matrix_rank(config.column_matrix(sorted(c))) == len(c)
    ]
    return {
        (a, b)
        for i, a in enumerate(simplicial)
        for b in simplicial[i + 1:]
        if not cones_meet_in_common_face(config, a, b)
    }


def test_maximal_cone_separation_matches_all_pairs():
    rng = random.Random(47)
    seen = {"valid": 0, "bad-intersection": 0, "unclosed": 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(n, n + 3), bound=2)
        r = len(config)
        cones = {frozenset(rng.sample(range(r), rng.randint(1, min(r, n + 1))))
                 for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.6:
            cones = {frozenset(f) for c in cones for k in range(len(c) + 1)
                     for f in itertools.combinations(sorted(c), k)}
        if rng.random() < 0.7:
            cones |= {frozenset((i,)) for i in range(r)}
        report = report_of(config, *cones)
        failures = all_pairs_separation_failures(config, cones)
        others = set(codes(report)) - {"bad-intersection"}
        want = others | ({"bad-intersection"} if failures else set())
        assert set(codes(report)) == want
        assert report.valid == (not want)
        for v in report.violations:
            if v.code == "bad-intersection":
                assert tuple(frozenset(c) for c in v.indices) in failures
        seen["valid"] += report.valid
        seen["bad-intersection"] += bool(failures)
        seen["unclosed"] += "not-face-closed" in others and bool(failures)
    assert all(seen.values()), seen


# the cones [1, 2] and [1, 4] overlap: (1, 1) lies inside the first
OVERLAPPING = (
    VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1), (1, 1))),
    ((0,), (1,), (2,), (3,), (0, 1), (0, 3)),
)


def test_a_fan_is_validated_when_it_is_made():
    config, cones = OVERLAPPING
    with pytest.raises(InvalidFanError) as info:
        fan_of(config, *cones)
    assert info.value.report == FanReport(
        False,
        (
            FanViolation(
                "bad-intersection",
                ((0, 1), (0, 3)),
                "cones [1, 2] and [1, 4] do not meet in a common face",
            ),
        ),
    )
    assert str(info.value) == "invalid fan: cones [1, 2] and [1, 4] do not meet in a common face"
    # without the cone [1, 2] it is a fan, and a fan's report is the valid one
    assert validate_fan(fan_of(config, *cones[:4], cones[5])) == FanReport(True)


def test_suitability():
    res = is_suitable_config(((1, 0), (2, 3)))
    assert res.suitable
    for i, w in enumerate(res.witnesses):
        config = VectorConfiguration(2, ((1, 0), (2, 3)))
        assert dot(config[i], w) == -1
        for j in config.indices:
            if j != i:
                assert dot(config[j], w) >= 0

    assert is_suitable_config(((1, 0), (0, 1))).suitable
    bad = is_suitable_config(((2,),), rank=1)
    assert not bad.suitable and bad.failing_index == 0 and bad.witnesses is None
    twice = is_suitable_config(((1,), (1,)), rank=1)
    assert not twice.suitable


def is_suitable_config(vectors, rank=2):
    from galefan import is_suitable

    return is_suitable(VectorConfiguration(rank, tuple(vectors)))


def test_demazure_root_membership():
    fan = projective_plane()
    assert is_demazure_root(fan, DemazureRoot((-1, 0), 0))
    assert is_demazure_root(fan, DemazureRoot((1, -1), 1))
    assert not is_demazure_root(fan, DemazureRoot((-1, -1), 0))
    assert not is_demazure_root(fan, DemazureRoot((-2, 0), 0))
    assert not is_demazure_root(fan, DemazureRoot((-1, 0), 1))
    assert not is_demazure_root(fan, DemazureRoot((-1,), 0))
    # same covector fails once the needed cone is removed
    chipped = SimplicialFan(
        fan.config,
        frozenset({frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 2}), frozenset({1, 2})}),
    )
    assert validate_fan(chipped).valid
    assert not is_demazure_root(chipped, DemazureRoot((-1, 0), 0))


def test_roots_in_box():
    roots = roots_in_box(projective_plane(), 1)
    assert len(roots) == 6
    covs = {r.covector for r in roots}
    assert covs == {(-1, 0), (1, 0), (0, -1), (0, 1), (-1, 1), (1, -1)}
    for r in roots:
        assert dot(projective_plane().config[r.distinguished_ray], r.covector) == -1

    assert len(roots_in_box(affine_plane(), 1)) == 4
    # a wider box only frees the non-distinguished coordinate
    assert len(roots_in_box(affine_plane(), 2)) == 6

    with pytest.raises(ValueError):
        roots_in_box(affine_plane(), -1)
    with pytest.raises(InvalidFanError):
        fan_of(VectorConfiguration(2, ((2, 0), (0, 1))), (0,), (1,))


def test_roots_in_box_scan_cap(monkeypatch):
    # the box of bound b in rank n holds (2b+1)^n covectors
    monkeypatch.setattr(fans_module, "ROOTS_SCAN_CAP", 25)
    assert len(roots_in_box(affine_plane(), 2)) == 6
    with pytest.raises(CapExceededError, match=r"\(2\*3\+1\)\^2 = 49 covectors exceeds the cap of 25"):
        roots_in_box(affine_plane(), 3)


def test_root_connecting():
    fan = projective_plane()
    ok, root = root_connecting(fan, frozenset({0, 1}), frozenset({1}))
    assert ok and root.distinguished_ray == 0
    assert dot(fan.config[1], root.covector) == 0
    with pytest.raises(ValueError):
        root_connecting(fan, frozenset({0, 1, 2}), frozenset({0, 1}))
    with pytest.raises(ValueError):
        root_connecting(fan, frozenset({0, 1}), frozenset({2}))

    skeleton = one_skeleton_fan(fan.config)
    ok2, root2 = root_connecting(skeleton, frozenset({0}), frozenset())
    assert not ok2 and root2 is None


def test_is_strongly_regular():
    res = is_strongly_regular(projective_plane())
    assert res.strongly_regular and res.failing_cone is None
    assert len(res.certificate) == len(projective_plane().nonzero_cones())
    for cone, facet, root in res.certificate:
        assert facet < cone and len(cone - facet) == 1
        assert is_demazure_root(projective_plane(), root)
        (rho,) = cone - facet
        assert root.distinguished_ray == rho
        assert all(dot(projective_plane().config[i], root.covector) == 0 for i in facet)

    assert is_strongly_regular(affine_plane()).strongly_regular

    skeleton = one_skeleton_fan(projective_plane().config)
    res2 = is_strongly_regular(skeleton)
    assert not res2.strongly_regular
    assert res2.failing_cone in skeleton.nonzero_cones()


def connects(fan, cone, facet, root) -> bool:
    # (R1) and (R2) from the definition: -1 on the ray missing from the
    # facet, 0 on the facet, >= 0 elsewhere, and every cone inside the
    # zero set stays a cone together with that ray
    (rho,) = cone - facet
    pairing = [dot(v, root.covector) for v in fan.config.vectors]
    zeros = {i for i, p in enumerate(pairing) if p == 0}
    return (
        root.distinguished_ray == rho
        and pairing[rho] == -1
        and all(p >= 0 for i, p in enumerate(pairing) if i != rho)
        and facet <= zeros
        and all(c | {rho} in fan.cones for c in fan.cones if c <= zeros)
    )


def small_fans(rng, count):
    """Maximal fans of small admissible pairs, each also with a random
    nonempty set of its maximal cones of dimension >= 2 removed (every
    ray stays a cone of a fan)."""
    groups = [AbelianGroup(1, ()), AbelianGroup(0, (2,)), AbelianGroup(0, (3,)),
              AbelianGroup(1, (2,)), AbelianGroup(2, ())]
    colls = admissible_catalog()
    while len(colls) < count:
        coll = random_generating_collection(rng, rng.choice(groups), rng.randint(3, 5), height=2)
        if coll is not None and is_admissible(coll).admissible:
            colls.append(coll)
    out = []
    for coll in colls:
        fan = build_maximal_fan(coll)
        out.append(fan)
        tops = [c for c in fan.sorted_cones() if len(c) > 1 and not any(c < d for d in fan.cones)]
        if not tops:
            continue
        drop = set(rng.sample(tops, rng.randint(1, len(tops))))
        out.append(SimplicialFan(fan.config, frozenset(c for c in fan.cones if c not in drop)))
    return out


def test_root_search_from_largest_zero_set_keeps_every_verdict():
    # the largest-first search against the smallest-first referee: the
    # same verdict on every (cone, facet), so the same failing cone and
    # certificate facets, and a root with a zero set at least as large
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for fan in small_fans(rng, 40):
        first_facets = {}
        for c in fan.nonzero_cones():
            for i in sorted(c):
                ok, root = root_connecting(fan, c, c - {i})
                ref = root_connecting_ascending(fan, c, c - {i})
                assert ok == (ref is not None) and ok == (root is not None)
                if ok:
                    assert connects(fan, c, c - {i}, root)
                    assert connects(fan, c, c - {i}, ref)
                    zeros = sum(dot(v, root.covector) == 0 for v in fan.config.vectors)
                    assert zeros >= sum(dot(v, ref.covector) == 0 for v in fan.config.vectors)
                    first_facets.setdefault(c, c - {i})
        res = is_strongly_regular(fan)
        failing = [c for c in fan.nonzero_cones() if c not in first_facets]
        assert res.strongly_regular == (not failing)
        assert res.failing_cone == (failing[0] if failing else None)
        assert {c: f for c, f, _ in res.certificate} == (first_facets if not failing else {})
        seen[res.strongly_regular] += 1
    assert seen[True] and seen[False]


def test_strong_regularity_of_small_maximal_fans_needs_no_lp(monkeypatch):
    # Z(1,1,1), Z/2(1,1) + Z/3(1,1) and Z/4(1,1) + Z/2(1,1): every root
    # pattern of their maximal fans leaves at most one unknown
    def ones(free_rank, torsion, r):
        group = AbelianGroup(free_rank, torsion)
        one = group.element((1,) * free_rank, (1,) * len(torsion))
        return ElementCollection(group, (one,) * r)

    fans = [
        build_maximal_fan(ones(1, (), 3)),
        build_maximal_fan(direct_sum_collection(ones(0, (2,), 2), ones(0, (3,), 2))),
        build_maximal_fan(direct_sum_collection(ones(0, (4,), 2), ones(0, (2,), 2))),
    ]

    def no_lp(system):
        raise AssertionError("an LP was asked")

    fans_module._covector_for_pattern.cache_clear()
    monkeypatch.setattr(linalg_module, "lp_feasible", no_lp)
    for fan in fans:
        assert is_strongly_regular(fan).strongly_regular


def test_revalidating_small_maximal_fans_needs_no_lp(monkeypatch):
    # Z(1,1,1), Z(1,1,1,1), Z(1,1,2,3) and Z/2(1,1) + Z(1,1,1): the rays
    # of every pair of maximal cones carry at most one linear relation,
    # so its sign pattern decides separation of the 3, 6, 1 and 12 pairs
    # whose union is not simplicial
    z, z2 = AbelianGroup(1, ()), AbelianGroup(0, (2,))

    def ints(*values):
        return ElementCollection(z, tuple(z.element((v,)) for v in values))

    halves = ElementCollection(z2, (z2.element((), (1,)),) * 2)
    fans = [
        build_maximal_fan(ints(1, 1, 1)),
        build_maximal_fan(ints(1, 1, 1, 1)),
        build_maximal_fan(ints(1, 1, 2, 3)),
        build_maximal_fan(direct_sum_collection(halves, ints(1, 1, 1))),
    ]

    def no_lp(system):
        raise AssertionError("an LP was asked")

    monkeypatch.setattr(fans_module, "lp_feasible", no_lp)
    monkeypatch.setattr(linalg_module, "lp_feasible", no_lp)
    for fan in fans:
        assert SimplicialFan(fan.config, fan.cones).cones == fan.cones


def test_he_connected_pairs():
    fan = projective_plane()
    pairs = he_pairs(fan, (-1, 1), 0)
    assert pairs == ((frozenset(), frozenset({0})), (frozenset({2}), frozenset({0, 2})))
    pairs2 = he_pairs(fan, (-1, 0), 0)
    assert pairs2 == ((frozenset(), frozenset({0})), (frozenset({1}), frozenset({0, 1})))
    with pytest.raises(InvalidRootError):
        he_pairs(fan, (-1, -1), 0)


def he_pairs(fan, covector, rho):
    from galefan import he_connected_pairs

    return he_connected_pairs(fan, DemazureRoot(covector, rho))


def test_one_skeleton_strong_regularity_branches():
    # one or two rays: always strongly regular
    assert one_skeleton_strongly_regular(VectorConfiguration(1, ((1,),)))
    assert one_skeleton_strongly_regular(VectorConfiguration(2, ((1, 0), (0, 1))))
    # not strictly convex
    assert not one_skeleton_strongly_regular(VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1))))
    # convex but one ray is not extreme
    assert not one_skeleton_strongly_regular(VectorConfiguration(2, ((1, 0), (0, 1), (1, 1))))
    # convex with every ray extreme
    assert one_skeleton_strongly_regular(
        VectorConfiguration(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    )


def test_one_skeleton_classifier_matches_definition():
    rng = random.Random(31)
    seen_true = seen_false = 0
    for _ in range(40):
        config = random_config(rng, rng.randint(2, 3), rng.randint(3, 4), distinct_rays=True)
        fast = one_skeleton_strongly_regular(config)
        slow = is_strongly_regular(one_skeleton_fan(config)).strongly_regular
        assert fast == slow
        seen_true += fast
        seen_false += not fast
    assert seen_true and seen_false
