import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import galefan.groups as groups
from galefan import (
    AbelianGroup,
    AdmissibilityResult,
    ElementCollection,
    IntMatrix,
    VectorConfiguration,
    direct_sum,
    direct_sum_collection,
    generates_full_semigroup,
    generates_group,
    group_from_cokernel,
    integer_kernel,
    is_admissible,
    is_link,
    lattice_gale_transform,
    row_hermite_form,
    semigroup_membership,
    smith_normal_form,
    subgroup_membership,
)

from galefan.groups import _in_semigroup_outside, _lifted_matrix, _relation_basis

from conftest import (
    TORSION_CHAINS,
    admissible_catalog,
    brute_semigroup_membership,
    mitm_work,
    random_collection,
    random_element,
    random_group,
)
from oracles import coefficient_bound, relations_of


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1, ())
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))
    g = AbelianGroup(1, (2, 4))
    assert g.coords == 3 and not g.is_trivial
    assert AbelianGroup(0, ()).is_trivial


def test_torsion_coordinates_are_reduced():
    g = AbelianGroup(0, (3,))
    assert g.element((), (5,)).torsion == (2,)
    assert g.element((), (-1,)).torsion == (2,)
    assert (g.element((), (2,)) + g.element((), (2,))).torsion == (1,)
    with pytest.raises(ValueError):
        g.element((1,), (0,))


def test_element_arithmetic():
    rng = random.Random(2)
    for _ in range(200):
        g = random_group(rng)
        a, b, c = (random_element(rng, g) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + g.zero() == a
        assert (a - a).is_zero
        assert 3 * a == a + a + a
        assert -1 * a == -a
        assert len(a.lift()) == g.coords


def test_standard_generators_generate():
    rng = random.Random(4)
    for _ in range(50):
        g = random_group(rng)
        coll = ElementCollection(g, g.generators())
        assert generates_group(coll)


def test_cokernel_examples():
    cok = group_from_cokernel(IntMatrix(((1, 0), (1, 2))))
    assert (cok.group.free_rank, cok.group.torsion) == (0, (2,))
    cok2 = group_from_cokernel(IntMatrix(((2, 0), (0, 3))))
    assert (cok2.group.free_rank, cok2.group.torsion) == (0, (6,))
    cok3 = group_from_cokernel(IntMatrix.from_columns([], rows=2))
    assert (cok3.group.free_rank, cok3.group.torsion) == (2, ())
    cok4 = group_from_cokernel(IntMatrix(((2,), (0,))))
    assert (cok4.group.free_rank, cok4.group.torsion) == (1, (2,))


def test_cokernel_projection_is_homomorphism():
    rng = random.Random(9)
    for _ in range(100):
        n, m = rng.randint(1, 3), rng.randint(0, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(n)))
        cok = group_from_cokernel(a)
        # columns of the presentation die in the quotient
        for j in range(m):
            assert cok.project(a.col(j)).is_zero
        x = [rng.randint(-5, 5) for _ in range(n)]
        y = [rng.randint(-5, 5) for _ in range(n)]
        s = [u + v for u, v in zip(x, y)]
        assert cok.project(x) + cok.project(y) == cok.project(s)
        # invariant factors match the nontrivial part of the SNF
        snf = smith_normal_form(a)
        want_torsion = tuple(d for d in snf.diagonal if d >= 2)
        assert cok.group.torsion == want_torsion
        assert cok.group.free_rank == n - snf.rank


def test_subgroup_membership():
    rng = random.Random(13)
    for _ in range(150):
        g = random_group(rng)
        gens = [random_element(rng, g) for _ in range(rng.randint(0, 3))]
        combo = g.zero()
        for e in gens:
            combo = combo + rng.randint(-3, 3) * e
        assert subgroup_membership(combo, gens)
    z = AbelianGroup(1, ())
    one, two = z.element((1,)), z.element((2,))
    assert not subgroup_membership(one, [two])
    assert subgroup_membership(z.zero(), [])
    assert not subgroup_membership(one, [])
    zz = AbelianGroup(2, ())
    assert not subgroup_membership(zz.element((1, 1)), [zz.element((1, 0))])
    z4 = AbelianGroup(0, (4,))
    assert not subgroup_membership(z4.element((), (1,)), [z4.element((), (2,))])
    assert subgroup_membership(z4.element((), (2,)), [z4.element((), (3,))])


def test_subgroup_membership_rejects_foreign_generators():
    z = AbelianGroup(1, ())
    z2 = AbelianGroup(0, (2,))
    with pytest.raises(ValueError):
        subgroup_membership(z.element((1,)), [z2.element((), (1,))])


def test_semigroup_membership_known_cases():
    z = AbelianGroup(1, ())
    e = z.element
    ok, coeffs = semigroup_membership(e((5,)), [e((2,)), e((3,))])
    assert ok and 2 * coeffs[0] + 3 * coeffs[1] == 5
    assert semigroup_membership(e((-1,)), [e((1,))]) == (False, None)
    assert semigroup_membership(e((1,)), [e((2,)), e((4,))]) == (False, None)
    ok0, coeffs0 = semigroup_membership(z.zero(), [])
    assert ok0 and coeffs0 == ()
    assert semigroup_membership(e((1,)), []) == (False, None)
    z3 = AbelianGroup(0, (3,))
    ok3, c3 = semigroup_membership(z3.element((), (1,)), [z3.element((), (2,))])
    assert ok3 and c3[0] % 3 == 2
    zz = AbelianGroup(2, ())
    assert semigroup_membership(zz.element((1, 1)), [zz.element((1, 0))]) == (False, None)


def test_semigroup_witnesses_are_valid():
    rng = random.Random(17)
    hits = 0
    for _ in range(200):
        g = random_group(rng)
        gens = [random_element(rng, g, height=3) for _ in range(rng.randint(1, 3))]
        target = random_element(rng, g, height=6)
        ok, coeffs = semigroup_membership(target, gens)
        if not ok:
            assert coeffs is None
            continue
        hits += 1
        assert len(coeffs) == len(gens)
        assert all(c >= 0 for c in coeffs)
        total = g.zero()
        for c, e in zip(coeffs, gens):
            total = total + c * e
        assert total == target
    assert hits > 20


def test_semigroup_membership_matches_brute_force():
    rng = random.Random(19)
    checked = 0
    while checked < 120:
        g = random_group(rng)
        gens = [random_element(rng, g, height=3) for _ in range(rng.randint(0, 3))]
        target = random_element(rng, g, height=5)
        if gens and mitm_work(coefficient_bound(target, gens), len(gens)) > 200_000:
            continue
        checked += 1
        ok, _ = semigroup_membership(target, gens)
        assert ok == brute_semigroup_membership(target, gens)


def test_finite_semigroup_membership_is_subgroup_membership():
    # in a finite group -g = (ord g - 1) g, so a set generates the same
    # semigroup as subgroup: subgroup membership referees the semigroup
    # answers on decide's torsion chains
    rng = random.Random(29)
    chains = [chain for chain in TORSION_CHAINS if chain]
    members = 0
    for turn in range(40):
        g = AbelianGroup(0, chains[turn % len(chains)])
        gens = [random_element(rng, g) for _ in range(rng.randint(1, 3))]
        target = random_element(rng, g)
        ok, coeffs = semigroup_membership(target, gens)
        assert ok == subgroup_membership(target, gens)
        if ok:
            members += 1
            assert all(c >= 0 for c in coeffs)
            assert sum((c * e for c, e in zip(coeffs, gens)), g.zero()) == target
    assert 0 < members < 40


def test_coefficient_bound_positive():
    z = AbelianGroup(1, (2,))
    t = z.element((3,), (1,))
    gens = [z.element((1,), (0,)), z.element((0,), (1,))]
    assert coefficient_bound(t, gens) >= 3


def test_generates_group_cases():
    z = AbelianGroup(1, ())
    coll = ElementCollection(z, (z.element((2,)), z.element((3,))))
    assert generates_group(coll)
    assert not generates_group(coll, [0])
    assert not generates_group(ElementCollection(z, (z.element((2,)), z.element((4,)))))
    z4 = AbelianGroup(0, (4,))
    assert not generates_group(ElementCollection(z4, (z4.element((), (2,)),)))
    assert generates_group(ElementCollection(z4, (z4.element((), (3,)),)))
    zz = AbelianGroup(2, ())
    assert not generates_group(ElementCollection(zz, (zz.element((1, 0)),)))
    triv = AbelianGroup(0, ())
    assert generates_group(ElementCollection(triv, ()))
    # Z^300 + Z/2 needs 301 generators, and 300 standard ones fall short
    big = AbelianGroup(300, (2,))
    units = [big.element(tuple(int(i == j) for j in range(300)), (0,)) for i in range(300)]
    assert not generates_group(ElementCollection(big, tuple(units)))


def test_generates_full_semigroup_cases():
    z = AbelianGroup(1, ())
    coll = ElementCollection(z, (z.element((1,)), z.element((2,))))
    assert generates_full_semigroup(coll, [0, 1])
    assert generates_full_semigroup(coll, [0])
    assert not generates_full_semigroup(coll, [1])
    assert not generates_full_semigroup(coll, [])


def test_admissible_catalog_and_counterexamples():
    for coll in admissible_catalog():
        res = is_admissible(coll)
        assert res.admissible and res.generates and res.failing_index is None
    z = AbelianGroup(1, ())
    res = is_admissible(ElementCollection(z, (z.element((1,)), z.element((2,)))))
    assert not res.admissible and res.generates and res.failing_index == 0
    res2 = is_admissible(ElementCollection(z, (z.element((2,)), z.element((4,)))))
    assert not res2.admissible and not res2.generates
    # mirror pair: fails at the negative element
    res3 = is_admissible(ElementCollection(z, (z.element((1,)), z.element((-1,)))))
    assert not res3.admissible and res3.generates and res3.failing_index == 0


def _raw_generates(coll, chosen):
    gens = coll.take(sorted(chosen))
    return all(semigroup_membership(coll[i], gens)[0] for i in coll.indices if i not in chosen)


def _raw_admissibility(coll):
    if not generates_group(coll):
        return False, False, None
    for i in coll.indices:
        ok, _ = semigroup_membership(coll[i], coll.take(j for j in coll.indices if j != i))
        if not ok:
            return False, True, i
    return True, True, None


def test_distinct_value_rule_matches_raw_membership(covector_answers):
    # the distinct-value reduction, the zero / equal-value shortcut and
    # the covector search on the Gale dual, against one membership
    # search per outside index on the raw generators, over every index
    # subset; r <= 5 is drawn and doubling reaches 6 (the raw searches
    # of a drawn r = 6 take seconds each).  Collections without
    # relations (a rank-0 dual) are drawn and also appended.  Torsion-free
    # draws, most of them with a repeated value, reach the dual route
    # with and without repeats among the outside values
    rng = random.Random(1)
    colls = []
    for _ in range(50):
        group = AbelianGroup(rng.randint(0, 2), rng.choice([(2,), (6,), (2, 4)]))
        r = rng.randint(1, 5)
        elems = [random_element(rng, group, height=2) for _ in range(r)]
        if rng.random() < 0.5:
            elems[rng.randrange(r)] = group.zero()
        if r > 1:
            elems[rng.randrange(r)] = elems[rng.randrange(r)]
        if rng.random() < 0.3:
            elems = elems[: (r + 1) // 2] * 2
        rng.shuffle(elems)
        colls.append(ElementCollection(group, tuple(elems)))
    for _ in range(30):
        group = AbelianGroup(rng.randint(1, 3))
        r = rng.randint(2, 5)
        elems = [random_element(rng, group, height=2) for _ in range(r)]
        if rng.random() < 0.8:
            i, j = rng.sample(range(r), 2)
            elems[i] = elems[j]
        colls.append(ElementCollection(group, tuple(elems)))
    zt, zzt = AbelianGroup(1, (6,)), AbelianGroup(2, (2,))
    colls += [
        ElementCollection(zt, (zt.element((2,), (3,)),)),
        ElementCollection(zzt, (zzt.element((1, 1), (1,)), zzt.element((0, 1), (0,)))),
    ]
    seen = set()
    for coll in colls:
        covector_answers.clear()
        relations = relations_of(coll)
        dual = tuple(tuple(rel[i] for rel in relations) for i in coll.indices)
        for k in range(len(coll) + 1):
            for chosen in combinations(coll.indices, k):
                got = generates_full_semigroup(coll, chosen)
                assert got == _raw_generates(coll, chosen), (coll, chosen)
                seen.add(("generates", got))
                cone = set(coll.indices) - set(chosen)
                gens = coll.take(chosen)
                for i in cone:
                    want = semigroup_membership(coll[i], gens)[0]
                    assert _in_semigroup_outside(coll, i, cone, dual) == want, (coll, i, chosen)
        res = is_admissible(coll)
        want = _raw_admissibility(coll)
        assert (res.admissible, res.generates, res.failing_index) == want, coll
        seen.add(("admissible", want[0], want[1]))
        if not coll.group.torsion:
            seen.update(("torsion-free covector", a) for a in covector_answers)
        elif coll.group.free_rank:
            seen.update(("covector", a) for a in covector_answers)
        if coll.group.torsion and not any(dual):  # every dual vector is empty
            seen.add(("no relations", coll.group.free_rank > 0))
    assert seen == {
        ("generates", True),
        ("generates", False),
        ("admissible", True, True),
        ("admissible", False, True),
        ("admissible", False, False),
        ("covector", True),
        ("covector", False),
        ("torsion-free covector", True),
        ("torsion-free covector", False),
        ("no relations", True),
    }


def test_torsion_free_admissibility_asks_the_dual(monkeypatch):
    # Z^2 with values (1,-1), (1,-2), (1,0), (0,1): the relations have
    # rank 2 and each element's others are distinct, so every question
    # goes to the Gale dual and no lifted membership search is asked
    _, coll = lattice_gale_transform(VectorConfiguration(2, ((1, 0), (0, 1), (-1, -1), (1, 2))))
    assert [e.free for e in coll] == [(1, -1), (1, -2), (1, 0), (0, 1)]

    def refuse(*args):
        raise AssertionError("the lifted membership search was asked")

    monkeypatch.setattr(groups, "semigroup_membership", refuse)
    assert is_admissible(coll) == AdmissibilityResult(False, True, 1)


def test_relation_basis_is_a_shorter_basis_of_the_same_relations():
    # equal Hermite forms of the two bases (as rows) mean equal lattices;
    # the raw basis is the Smith-form kernel cut to the r coordinates.
    # A collection that does not generate gets None; 81 of the 130 draws
    # generate
    rng = random.Random(9)
    compared = 0
    for _ in range(130):
        coll = random_collection(rng, random_group(rng), rng.randint(1, 6))
        r = len(coll)
        basis = _relation_basis(coll)
        assert (basis is not None) == generates_group(coll), coll
        if basis is None:
            continue
        compared += 1
        raw = tuple(v[:r] for v in integer_kernel(_lifted_matrix(coll.elements, coll.group)))
        assert len(basis) == len(raw) and all(len(v) == r for v in basis)
        hermite = [row_hermite_form(IntMatrix(b, cols=r))[1] for b in (raw, basis)]
        assert hermite[0] == hermite[1], coll
        assert sum(c * c for v in basis for c in v) <= sum(c * c for v in raw for c in v)
    assert compared >= 80


def test_admissibility_is_deletion_stability():
    # admissible means every punctured subcollection still spans the semigroup
    for coll in admissible_catalog():
        for i in coll.indices:
            assert generates_full_semigroup(coll, [j for j in coll.indices if j != i])


def test_is_link_cases():
    z = AbelianGroup(1, ())
    coll = ElementCollection(z, (z.element((1,)), z.element((1,)), z.element((2,))))
    ok, coeffs = is_link(coll, 2, [0, 1])
    assert ok and coeffs == (1, 1)
    ok2, coeffs2 = is_link(coll, 2, [0])
    assert ok2 and coeffs2 == (2,)
    assert is_link(coll, 0, [2]) == (False, None)
    assert is_link(coll, 0, []) == (False, None)
    with pytest.raises(ValueError):
        is_link(coll, 1, [1])
    zero_coll = ElementCollection(z, (z.zero(), z.element((1,))))
    assert is_link(zero_coll, 0, [])[0]


def test_link_on_distinct_values_matches_raw_membership():
    # is_link searches on the distinct support values; the referee asks
    # the same residue on the raw, repeated support generators
    rng = random.Random(5)
    seen = set()
    for _ in range(40):
        group = AbelianGroup(rng.randint(0, 1), rng.choice([(2,), (3,)]))
        r = rng.randint(2, 4)
        elems = [random_element(rng, group, height=2) for _ in range(r)]
        elems[rng.randrange(r)] = elems[rng.randrange(r)]
        if rng.random() < 0.5:
            elems[rng.randrange(r)] = elems[rng.randrange(r)]
        coll = ElementCollection(group, tuple(elems))
        for target in coll.indices:
            others = [i for i in coll.indices if i != target]
            for k in range(len(others) + 1):
                for sup in combinations(others, k):
                    gens = coll.take(sup)
                    residue = coll[target]
                    for g in gens:
                        residue = residue - g
                    want = semigroup_membership(residue, gens)[0]
                    ok, coeffs = is_link(coll, target, sup)
                    assert ok == want, (coll, target, sup)
                    seen.add((ok, len(set(gens)) < len(gens)))
                    if ok:
                        assert len(coeffs) == len(sup) and min(coeffs, default=1) >= 1
                        total = group.zero()
                        for c, i in zip(coeffs, sup):
                            total = total + c * coll[i]
                        assert total == coll[target]
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_direct_sum_renormalizes():
    ds = direct_sum(AbelianGroup(0, (2,)), AbelianGroup(0, (3,)))
    assert ds.group.torsion == (6,)
    ds2 = direct_sum(AbelianGroup(1, (2,)), AbelianGroup(0, (4,)))
    assert (ds2.group.free_rank, ds2.group.torsion) == (1, (2, 4))
    ds3 = direct_sum(AbelianGroup(2, ()), AbelianGroup(0, ()))
    assert (ds3.group.free_rank, ds3.group.torsion) == (2, ())


def test_direct_sum_embeddings():
    rng = random.Random(21)
    for _ in range(80):
        left, right = random_group(rng), random_group(rng)
        ds = direct_sum(left, right)
        a, b = random_element(rng, left), random_element(rng, right)
        c, d = random_element(rng, left), random_element(rng, right)
        assert ds.embed_left(a) + ds.embed_left(c) == ds.embed_left(a + c)
        assert ds.embed_right(b) + ds.embed_right(d) == ds.embed_right(b + d)
        # embeddings are injective and the summands only meet at zero
        assert (ds.embed_left(a) == ds.embed_left(c)) == (a == c)
        if not a.is_zero:
            assert ds.embed_left(a) != ds.embed_right(d)


def test_direct_sum_collection_concatenates():
    rng = random.Random(25)
    for _ in range(40):
        left = random_collection(rng, random_group(rng), rng.randint(0, 3))
        right = random_collection(rng, random_group(rng), rng.randint(0, 3))
        both = direct_sum_collection(left, right)
        assert len(both) == len(left) + len(right)
        ds = direct_sum(left.group, right.group)
        assert both.group == ds.group
        for i, e in enumerate(left):
            assert both[i] == ds.embed_left(e)
        for i, e in enumerate(right):
            assert both[len(left) + i] == ds.embed_right(e)


def test_membership_witness_check_survives_python_O():
    import galefan

    script = """
import galefan.groups as groups
from galefan import AbelianGroup, InternalError

assert False, "asserts are live: -O was not applied"
groups.ilp_feasible = lambda system: (True, (0,) * system.n_vars)
z = AbelianGroup(1, ())
try:
    groups.semigroup_membership(z.element((1,)), (z.element((1,)),))
except InternalError:
    print("rejected")
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(galefan.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n"
