"""Acceptance checks for the whole package.

One test per acceptance criterion; each prints a single pass/fail line
and asserts the criterion.  All comparisons are exact; every test stays
well under a minute on ordinary hardware.
"""

import random
from itertools import combinations

import pytest

from galefan.errors import DegenerateConfigurationError

from conftest import (
    admissible_catalog,
    all_full_ray_subfans,
    brute_semigroup_membership,
    mitm_work,
    random_config,
    random_element,
    random_generating_collection,
)
from oracles import c3_by_link_list, coefficient_bound, cones_meet_by_gale_duality
from galefan import (
    AbelianGroup,
    ElementCollection,
    GSet,
    InvalidFanError,
    SimplicialFan,
    VectorConfiguration,
    build_maximal_fan,
    canonical_form,
    classify_pair,
    cones_meet_in_common_face,
    configs_equivalent,
    direct_sum_collection,
    enumerate_connected_gsets,
    generates_full_semigroup,
    gset_from_subfan,
    inverse_gale_transform,
    is_admissible,
    is_connected_gset,
    is_strongly_regular,
    is_suitable,
    lattice_gale_transform,
    linear_gale_transform,
    matrix_rank,
    one_skeleton_fan,
    one_skeleton_strongly_regular,
    pairs_equivalent,
    semigroup_membership,
    semisimple_shape,
    subfan_from_gset,
)

Z = AbelianGroup(1, ())

# brute-force work cap for the membership cross-oracle; instances whose
# meet-in-the-middle cost exceeds it are redrawn (a handful per thousand)
MEMBERSHIP_WORK_CAP = 50_000


def ints(*vals):
    return ElementCollection(Z, tuple(Z.element((v,)) for v in vals))


@pytest.fixture
def report(capsys):
    def _report(name: str, ok: bool, detail: str = ""):
        line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line = f"{line} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_gale_transform_example(report):
    config = VectorConfiguration(2, ((1, 0), (1, 2)))
    group, coll = lattice_gale_transform(config)
    ok = group == AbelianGroup(0, (2,))
    ok = ok and tuple(e.torsion for e in coll) == ((1,), (1,))
    ok = ok and tuple(e.free for e in coll) == ((), ())
    dim, duals = linear_gale_transform(config)
    ok = ok and dim == 0 and duals == ((), ())
    report("gale-example", ok, "Z/2 with two unit classes, zero-dimensional dual")


def test_projective_space_reconstruction(report):
    ok = True
    for n in range(1, 5):
        coll = ints(*([1] * (n + 1)))
        fan = build_maximal_fan(coll)
        basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        standard = VectorConfiguration(n, tuple(basis) + ((-1,) * n,))
        ok = ok and configs_equivalent(fan.config, standard)
        full = frozenset(range(n + 1))
        expected = frozenset(
            frozenset(c)
            for size in range(n + 1)
            for c in combinations(range(n + 1), size)
        )
        ok = ok and fan.cones == expected and full not in fan.cones
        ok = ok and classify_pair(coll).complete
    report("projective-spaces", ok, "n = 1..4 fans and completeness")


def test_cyclic_group_ray_examples(report):
    z3 = AbelianGroup(0, (3,))
    ok = True
    for vals, rays in (((1, 1), ((1, 0), (2, 3))), ((1, 2), ((1, 0), (1, 3)))):
        coll = ElementCollection(z3, tuple(z3.element((), (v,)) for v in vals))
        fan = build_maximal_fan(coll)
        ok = ok and configs_equivalent(fan.config, VectorConfiguration(2, rays))
        ok = ok and fan.cones == frozenset(
            {frozenset(), frozenset({0}), frozenset({1})}
        )
    report("cyclic-ray-pairs", ok, "order-3 pairs give ray-only fans")


def test_weighted_projective_excluded_cone(report):
    fan = build_maximal_fan(ints(1, 1, 2, 3))
    subsets = [frozenset(c) for size in range(5) for c in combinations(range(4), size)]
    expected = frozenset(s for s in subsets if not frozenset({0, 1}) <= s)
    ok = fan.cones == expected
    missing_2dim = {s for s in subsets if len(s) == 2 and s not in fan.cones}
    ok = ok and missing_2dim == {frozenset({0, 1})}
    report("weighted-1123", ok, "only the weight-1 index pair is excluded")


@pytest.mark.slow
def test_suitability_matches_dual_admissibility(report):
    rng = random.Random(501)
    checked = agree = suitable_seen = 0
    while checked < 500:
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(n, 6))
        checked += 1
        s = is_suitable(config).suitable
        _, dual = lattice_gale_transform(config)
        agree += s == is_admissible(dual).admissible
        suitable_seen += s
    ok = agree == checked and 0 < suitable_seen < checked
    report(
        "suitable-vs-admissible",
        ok,
        f"{agree}/{checked} agree, {suitable_seen} suitable",
    )


@pytest.mark.slow
def test_membership_oracle_agreement(report):
    rng = random.Random(601)
    torsions = [(), (2,), (3,), (4,), (5,), (6,), (2, 2)]
    kept = skipped = agree = members = 0
    while kept < 1000:
        group = AbelianGroup(rng.randint(0, 2), rng.choice(torsions))
        gens = tuple(random_element(rng, group) for _ in range(rng.randint(0, 4)))
        target = random_element(rng, group)
        bound = coefficient_bound(target, gens) if gens else 0
        if mitm_work(bound, len(gens)) > MEMBERSHIP_WORK_CAP:
            skipped += 1
            continue
        kept += 1
        ok, witness = semigroup_membership(target, gens)
        agree += ok == brute_semigroup_membership(target, gens)
        members += ok
        if ok:
            total = group.zero()
            for c, g in zip(witness, gens):
                total = total + c * g
            agree -= total != target
    ok = agree == kept and 0 < members < kept
    report(
        "membership-oracle",
        ok,
        f"{agree}/{kept} agree ({members} members, {skipped} over work cap)",
    )


def test_separation_oracle_agreement(report):
    rng = random.Random(701)
    checked = agree = meets = 0
    while checked < 300:
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(max(n, 2), 6))
        k = len(config)
        left = frozenset(rng.sample(range(k), rng.randint(0, min(3, k))))
        right = frozenset(rng.sample(range(k), rng.randint(0, min(3, k))))
        if matrix_rank(config.column_matrix(sorted(left))) < len(left):
            continue
        if matrix_rank(config.column_matrix(sorted(right))) < len(right):
            continue
        checked += 1
        primal = cones_meet_in_common_face(config, left, right)
        agree += primal == cones_meet_by_gale_duality(config, left, right)
        meets += primal
    ok = agree == checked and 0 < meets < checked
    report("separation-oracles", ok, f"{agree}/{checked} agree, {meets} meet")


def test_one_skeleton_counterexample(report):
    coll = ints(1, 1, 1)
    full = frozenset(range(3))
    skeleton_gset = GSet(coll, frozenset([full] + [full - {i} for i in range(3)]))
    res = is_connected_gset(skeleton_gset)
    ok = not res.connected and res.violation[0] == "C3"

    maximal = build_maximal_fan(coll)
    skeleton = subfan_from_gset(skeleton_gset, maximal.config)
    ok = ok and skeleton.cones == one_skeleton_fan(maximal.config).cones
    ok = ok and not is_strongly_regular(skeleton).strongly_regular

    full_gset = gset_from_subfan(coll, maximal, maximal)
    ok = ok and is_connected_gset(full_gset).connected
    ok = ok and is_strongly_regular(maximal).strongly_regular
    report("skeleton-counterexample", ok, "co-singleton family fails C3 and rigidity")


def test_connectedness_agrees_with_the_link_list(report):
    # families holding every co-singleton and upward closed, so (C1) and
    # (C2) hold and (C3) decides each: the co-singletons alone, and with
    # the members above one more generating subset.  Small families fail
    # (C3) most often, and entries in [-1, 1] repeat values, which gives
    # links; the groups with a free part and torsion give failures with
    # torsion, so Z+Z/2 is drawn twice as often
    rng = random.Random(3)
    groups = [
        AbelianGroup(1, ()),
        AbelianGroup(2, ()),
        AbelianGroup(0, (2,)),
        AbelianGroup(0, (3,)),
        AbelianGroup(0, (2, 2)),
    ] + [AbelianGroup(1, (2,))] * 2
    pairs = families = failures = torsion_families = torsion_failures = 0
    ok = True
    while pairs < 40:
        group = rng.choice(groups)
        r = rng.randint(3, 5)
        coll = random_generating_collection(rng, group, r, height=1)
        if coll is None or not is_admissible(coll).admissible:
            continue
        pairs += 1
        full = frozenset(range(r))
        generating = [
            frozenset(s)
            for k in range(1, r - 1)
            for s in combinations(range(r), k)
            if generates_full_semigroup(coll, s)
        ]
        base = frozenset([full] + [full - {i} for i in range(r)])
        closures = {base} | {base | {m for m in generating if g <= m} for g in generating}
        for members in closures:
            gset = GSet(coll, members)
            res = is_connected_gset(gset)
            ok = ok and res == c3_by_link_list(gset)
            families += 1
            failures += not res.connected
            if group.torsion:
                torsion_families += 1
                torsion_failures += not res.connected
    ok = ok and failures >= 20 and torsion_failures >= 3
    report(
        "connectedness-referee",
        ok,
        f"{families} families of {pairs} pairs, {failures} fail C3; "
        f"with torsion {torsion_families} and {torsion_failures}",
    )


def test_gset_subfan_bijection(report):
    pairs = 0
    ok = True
    for coll in admissible_catalog():
        maximal = build_maximal_fan(coll)
        regular = [
            fan
            for fan in all_full_ray_subfans(maximal)
            if is_strongly_regular(fan).strongly_regular
        ]
        images = {gset_from_subfan(coll, fan, maximal).members for fan in regular}
        families = {g.members for g in enumerate_connected_gsets(coll)}
        ok = ok and images == families and len(images) == len(regular)
        pairs += 1
    ok = ok and pairs >= 20
    report("gset-bijection", ok, f"{pairs} pairs, both directions exhaustive")


def test_maximal_fan_maximality(report):
    pairs = 0
    ok = True
    for coll in admissible_catalog():
        maximal = build_maximal_fan(coll)
        config = maximal.config
        k = len(config)
        mandatory = {frozenset()} | {frozenset({i}) for i in range(k)}
        candidates = [
            frozenset(idx)
            for size in range(2, k + 1)
            for idx in combinations(range(k), size)
            if matrix_rank(config.column_matrix(list(idx))) == size
        ]
        ok = ok and is_strongly_regular(maximal).strongly_regular
        for mask in range(1 << len(candidates)):
            chosen = [c for b, c in enumerate(candidates) if mask >> b & 1]
            cones = set(mandatory) | set(chosen)
            if any(c - {i} not in cones for c in chosen for i in c):
                continue
            try:
                fan = SimplicialFan(config, frozenset(cones))
            except InvalidFanError:
                continue
            if is_strongly_regular(fan).strongly_regular:
                # every rigid fan on the full ray set sits inside the
                # maximal one, so no proper rigid extension exists
                ok = ok and fan.cones <= maximal.cones
        pairs += 1
    ok = ok and pairs >= 20
    report("maximal-fan-maximality", ok, f"{pairs} pairs, all fans on full ray set")


def test_one_skeleton_classifier_agreement(report):
    rng = random.Random(111)
    checked = agree = regular_seen = 0
    while checked < 200:
        n = rng.randint(2, 3)
        config = random_config(rng, n, rng.randint(n, 6), distinct_rays=True)
        checked += 1
        fast = one_skeleton_strongly_regular(config)
        slow = is_strongly_regular(one_skeleton_fan(config)).strongly_regular
        agree += fast == slow
        regular_seen += fast

    branches = True
    pointed = VectorConfiguration(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    branches = branches and one_skeleton_strongly_regular(pointed)
    plane = VectorConfiguration(2, ((-1, -1), (1, 0), (0, 1)))
    branches = branches and not one_skeleton_strongly_regular(plane)
    line = VectorConfiguration(1, ((1,), (-1,)))
    branches = branches and one_skeleton_strongly_regular(line)
    for config in (pointed, plane, line):
        fast = one_skeleton_strongly_regular(config)
        slow = is_strongly_regular(one_skeleton_fan(config)).strongly_regular
        branches = branches and fast == slow

    ok = agree == checked and 0 < regular_seen < checked and branches
    report(
        "one-skeleton-classifier",
        ok,
        f"{agree}/{checked} agree plus pointed, plane, line branches",
    )


def test_two_torsion_semisimple_shapes(report):
    ok = True
    for m in (1, 2, 3):
        group = AbelianGroup(0, (2,) * m)
        elems = []
        for i in range(m):
            gen = group.element((), tuple(1 if j == i else 0 for j in range(m)))
            elems += [gen, gen]
        coll = ElementCollection(group, tuple(elems))
        shape = semisimple_shape(coll)
        ok = ok and shape.is_shape and shape.coincides_with_maximal
        ok = ok and classify_pair(coll).quasiaffine
        ok = ok and len(shape.gset.members) == 3**m
    ok = ok and not semisimple_shape(ints(1, 1, 2, 3)).is_shape
    report("two-torsion-shapes", ok, "doubled generators of (Z/2)^m, m = 1..3")


def test_transform_round_trips(report):
    rng = random.Random(1301)
    configs = config_hits = 0
    while configs < 500:
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(n, 6))
        configs += 1
        _, pair = lattice_gale_transform(config)
        back = inverse_gale_transform(pair)
        config_hits += canonical_form(back) == canonical_form(config)

    torsions = [(), (2,), (3,), (4,), (2, 2), (6,)]
    pairs = pair_hits = 0
    while pairs < 100:
        group = AbelianGroup(rng.randint(0, 2), rng.choice(torsions))
        r = rng.randint(max(1, group.free_rank), 5)
        if not group.torsion and r == group.free_rank:
            continue  # no relations, so the dual configuration collapses
        coll = random_generating_collection(rng, group, r)
        if coll is None:
            continue
        try:
            config = inverse_gale_transform(coll)
        except DegenerateConfigurationError:
            # an element outside every relation has no dual ray
            continue
        pairs += 1
        _, back = lattice_gale_transform(config)
        pair_hits += pairs_equivalent(back, coll)

    ok = config_hits == configs and pair_hits == pairs
    report(
        "round-trips",
        ok,
        f"{config_hits}/{configs} configurations, {pair_hits}/{pairs} pairs",
    )


@pytest.mark.slow
def test_product_fan_law(report):
    catalog = admissible_catalog()
    combos = [
        (a, b) for a in catalog for b in catalog if len(a) + len(b) <= 6
    ]
    chosen = random.Random(1401).sample(combos, 20)
    ok = True
    for left, right in chosen:
        summed = direct_sum_collection(left, right)
        fan_left = build_maximal_fan(left)
        fan_right = build_maximal_fan(right)
        fan_sum = build_maximal_fan(summed)
        shift = len(left)
        expected = frozenset(
            ca | frozenset(i + shift for i in cb)
            for ca in fan_left.cones
            for cb in fan_right.cones
        )
        ok = ok and fan_sum.cones == expected
        ra, rb = fan_left.config.rank, fan_right.config.rank
        block = VectorConfiguration(
            ra + rb,
            tuple(v + (0,) * rb for v in fan_left.config.vectors)
            + tuple((0,) * ra + w for w in fan_right.config.vectors),
        )
        ok = ok and canonical_form(fan_sum.config) == canonical_form(block)
    report("product-law", ok, f"{len(chosen)} direct sums match product fans")
