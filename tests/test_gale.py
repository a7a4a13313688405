import random

import pytest

from galefan import (
    AbelianGroup,
    CapExceededError,
    DegenerateConfigurationError,
    ElementCollection,
    NotGeneratingError,
    VectorConfiguration,
    canonical_form,
    cones_meet_in_common_face,
    configs_equivalent,
    generates_group,
    inverse_gale_transform,
    lattice_gale_transform,
    linear_gale_transform,
    pairs_equivalent,
)
from galefan.linalg import IntMatrix, matrix_rank

from conftest import random_config, random_generating_collection, random_group
from oracles import cones_meet_by_gale_duality, determinant, pairs_equivalent_by_permutations


def ints(*vals):
    z = AbelianGroup(1, ())
    return ElementCollection(z, tuple(z.element((v,)) for v in vals))


def cyc(n, *vals):
    g = AbelianGroup(0, (n,))
    return ElementCollection(g, tuple(g.element((), (v,)) for v in vals))


def test_lattice_transform_examples():
    g, coll = lattice_gale_transform(VectorConfiguration(2, ((1, 0), (1, 2))))
    assert (g.free_rank, g.torsion) == (0, (2,))
    assert [e.torsion for e in coll] == [(1,), (1,)]

    g2, coll2 = lattice_gale_transform(VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1))))
    assert (g2.free_rank, g2.torsion) == (1, ())
    assert [e.free for e in coll2] == [(1,), (1,), (1,)]

    g3, coll3 = lattice_gale_transform(VectorConfiguration(2, ((1, 0), (0, 1))))
    assert g3.is_trivial and all(e.is_zero for e in coll3)

    g4, coll4 = lattice_gale_transform(VectorConfiguration(1, ((2,),)))
    assert (g4.free_rank, g4.torsion) == (0, (2,))
    assert coll4[0].torsion == (1,)


def test_lattice_transform_always_generates():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(n, 6), primitive=False)
        group, coll = lattice_gale_transform(config)
        assert len(coll) == len(config)
        assert group.free_rank == len(config) - config.rank
        assert generates_group(coll)


def test_config_round_trip():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(max(n, 2), 6), primitive=False)
        _, coll = lattice_gale_transform(config)
        back = inverse_gale_transform(coll)
        assert back.rank == config.rank
        assert configs_equivalent(config, back)


def test_collection_round_trip():
    rng = random.Random(47)
    done = 0
    while done < 80:
        group = random_group(rng)
        r = max(1, group.coords + rng.randint(0, 2))
        coll = random_generating_collection(rng, group, r)
        if coll is None:
            continue
        try:
            config = inverse_gale_transform(coll)
        except DegenerateConfigurationError:
            # a basis has no relations, so its dual configuration collapses
            continue
        done += 1
        group2, coll2 = lattice_gale_transform(config)
        assert group2 == group
        assert pairs_equivalent(coll, coll2)


def test_inverse_transform_examples():
    back = inverse_gale_transform(ints(1, 1, 1))
    assert back.vectors == ((-1, -1), (1, 0), (0, 1))
    assert configs_equivalent(back, VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1))))
    with pytest.raises(NotGeneratingError):
        inverse_gale_transform(ints(2, 4))


def test_linear_transform():
    dim, duals = linear_gale_transform(VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1))))
    assert dim == 1 and duals == ((1,), (1,), (1,))
    rng = random.Random(53)
    for _ in range(80):
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(max(n, 2), 6), primitive=False)
        dim, duals = linear_gale_transform(config)
        assert dim == len(config) - config.rank
        assert all(len(w) == dim for w in duals)
        # rational dual dimension agrees with the free rank of the lattice dual
        group, _ = lattice_gale_transform(config)
        assert dim == group.free_rank


def test_canonical_form():
    assert canonical_form(VectorConfiguration(2, ((1, 0), (-1, 3)))).vectors == ((1, 0), (2, 3))
    rng = random.Random(59)
    for _ in range(100):
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(max(n, 2), 5), primitive=False)
        canon = canonical_form(config)
        assert canonical_form(canon).vectors == canon.vectors
        assert configs_equivalent(config, canon)


def random_unimodular(rng, n):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(tuple(tuple(r) for r in rows))


def test_equivalence_is_unimodular_invariance():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(max(n, 2), 5), primitive=False)
        u = random_unimodular(rng, config.rank)
        assert determinant(u) in (1, -1)
        moved = VectorConfiguration(
            config.rank, tuple(tuple(u.apply(v)) for v in config.vectors)
        )
        assert configs_equivalent(config, moved)
        assert canonical_form(config).vectors == canonical_form(moved).vectors


def test_equivalence_counterexamples():
    a = VectorConfiguration(2, ((1, 0), (2, 3)))
    b = VectorConfiguration(2, ((1, 0), (1, 3)))
    assert not configs_equivalent(a, b)
    assert not configs_equivalent(a, VectorConfiguration(2, ((1, 0), (2, 3), (0, 1))))
    assert not configs_equivalent(
        VectorConfiguration(1, ((1,),)), VectorConfiguration(2, ((1, 0), (0, 1)))
    )
    # reordering is only an equivalence when some unimodular map realizes it
    c = VectorConfiguration(2, ((1, 0), (1, 2), (1, 1)))
    d = VectorConfiguration(2, ((1, 1), (1, 2), (1, 0)))
    assert not configs_equivalent(c, d)
    assert configs_equivalent(
        VectorConfiguration(2, ((1, 0), (1, 2))), VectorConfiguration(2, ((1, 2), (1, 0)))
    )


def test_pairs_equivalent_positive_cases():
    assert pairs_equivalent(ints(1, 1, 2), ints(2, 1, 1))
    assert pairs_equivalent(ints(1, 2), ints(-1, -2))
    assert pairs_equivalent(cyc(3, 1, 1), cyc(3, 2, 2))
    assert pairs_equivalent(cyc(4, 1, 1, 2), cyc(4, 3, 3, 2))
    zz = AbelianGroup(2, ())
    e1, e2 = zz.element((1, 0)), zz.element((0, 1))
    left = ElementCollection(zz, (e1, e2))
    right = ElementCollection(zz, (e1 + e2, e2))
    assert pairs_equivalent(left, right)


def test_pairs_equivalent_negative_cases():
    assert not pairs_equivalent(ints(1, 2), ints(1, -2))
    assert not pairs_equivalent(ints(1, 1, 2, 3), ints(1, 1, 2, 2))
    assert not pairs_equivalent(cyc(3, 1, 2), cyc(3, 1, 1))
    assert not pairs_equivalent(ints(1, 2), cyc(3, 1, 2))
    assert not pairs_equivalent(ints(1, 2), ints(1, 2, 3))
    # only one side generates
    assert not pairs_equivalent(ints(1, 2), ints(2, 4))


def test_pairs_equivalent_guards():
    with pytest.raises(NotGeneratingError):
        pairs_equivalent(ints(2, 4), ints(2, 6))
    with pytest.raises(CapExceededError):
        pairs_equivalent(ints(*range(1, 11)), ints(*range(1, 11)))


def test_pairs_equivalent_under_automorphisms():
    rng = random.Random(67)
    done = 0
    while done < 60:
        if rng.random() < 0.5:
            group = AbelianGroup(rng.randint(1, 2), ())
        else:
            group = AbelianGroup(0, (rng.choice([2, 3, 4, 5, 6]),))
        coll = random_generating_collection(rng, group, rng.randint(1, 4))
        if coll is None:
            continue
        done += 1
        if group.free_rank:
            u = random_unimodular(rng, group.free_rank)
            moved = tuple(group.element(u.apply(e.free)) for e in coll)
        else:
            d = group.torsion[0]
            unit = rng.choice([k for k in range(1, d) if _coprime(k, d)])
            moved = tuple(group.element((), (unit * e.torsion[0],)) for e in coll)
        perm = list(moved)
        rng.shuffle(perm)
        assert pairs_equivalent(coll, ElementCollection(group, tuple(perm)))


def test_pairs_equivalent_matches_the_permutation_search():
    # the right side is an automorphic image of the left one, shuffled,
    # with one element redrawn half of the time
    rng = random.Random(73)
    groups = [
        AbelianGroup(1, ()),
        AbelianGroup(2, ()),
        AbelianGroup(0, (4,)),
        AbelianGroup(0, (5,)),
        AbelianGroup(0, (6,)),
        AbelianGroup(1, (2,)),
    ]
    answers = []
    while len(answers) < 120:
        group = rng.choice(groups)
        left = random_generating_collection(rng, group, rng.randint(1, 6), height=2)
        if left is None:
            continue
        f = group.free_rank
        u = random_unimodular(rng, f) if f else None
        d = group.torsion[0] if group.torsion else 1
        unit = rng.choice([k for k in range(1, d + 1) if _coprime(k, d)])
        shear = rng.randint(0, 1)
        moved = []
        for e in left:
            free = u.apply(e.free) if f else ()
            tors = [unit * e.torsion[0] + (shear * e.free[0] if f else 0)] if group.torsion else []
            moved.append(group.element(free, tors))
        if rng.random() < 0.5:
            moved[rng.randrange(len(moved))] = group.element(
                [rng.randint(-2, 2) for _ in range(f)], [rng.randrange(t) for t in group.torsion]
            )
        rng.shuffle(moved)
        right = ElementCollection(group, tuple(moved))
        if not generates_group(right):
            continue
        expected = pairs_equivalent_by_permutations(left, right)
        assert pairs_equivalent(left, right) == expected, (left, right)
        answers.append(expected)
    assert answers.count(True) >= 40 and answers.count(False) >= 30


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def test_separation_agrees_with_gale_side():
    rng = random.Random(71)
    checked = both_true = both_false = 0
    while checked < 80:
        n = rng.randint(1, 3)
        config = random_config(rng, n, rng.randint(max(n, 2), 5))
        k = len(config)
        left = frozenset(rng.sample(range(k), rng.randint(0, min(3, k))))
        right = frozenset(rng.sample(range(k), rng.randint(0, min(3, k))))
        if matrix_rank(config.column_matrix(sorted(left))) < len(left):
            continue
        if matrix_rank(config.column_matrix(sorted(right))) < len(right):
            continue
        checked += 1
        primal = cones_meet_in_common_face(config, left, right)
        dual = cones_meet_by_gale_duality(config, left, right)
        assert primal == dual
        both_true += primal
        both_false += not primal
    assert both_true and both_false
