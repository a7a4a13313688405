"""Shared random generators for the test suite.

Everything is seeded explicitly so failures reproduce; generators
reject degenerate draws (non-spanning configurations, non-generating
collections) rather than repairing them.
"""

from __future__ import annotations

import random

import pytest

import galefan.groups
import galefan.linalg
from galefan import (
    AbelianGroup,
    ElementCollection,
    VectorConfiguration,
    generates_group,
    matrix_rank,
    primitivize,
)

TORSION_CHAINS = [(), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3)]


@pytest.fixture
def clear_ilp_memo():
    """The function that empties ``ilp_feasible``'s memo.  The memo lives
    for the whole session, so a test that counts or forbids the work of
    a solve clears it first, or a memo hit passes the test vacuously."""
    return galefan.linalg.ilp_feasible.cache_clear


@pytest.fixture
def covector_answers(monkeypatch) -> list:
    """Every answer of the covector search that ``galefan.groups`` asks:
    True when a covector exists."""
    answers = []
    search = galefan.groups._covector_for_pattern

    def recording(*args):
        u = search(*args)
        answers.append(u is not None)
        return u

    monkeypatch.setattr(galefan.groups, "_covector_for_pattern", recording)
    return answers


def random_config(
    rng: random.Random,
    n: int,
    r: int,
    bound: int = 4,
    primitive: bool = True,
    distinct_rays: bool = False,
) -> VectorConfiguration:
    """Spanning configuration of r vectors in rank n."""
    for _ in range(10_000):
        vecs = []
        for _ in range(r):
            v = tuple(rng.randint(-bound, bound) for _ in range(n))
            if all(c == 0 for c in v):
                break
            vecs.append(primitivize(v) if primitive else v)
        if len(vecs) < r:
            continue
        if distinct_rays and len({primitivize(v) for v in vecs}) < r:
            continue
        try:
            return VectorConfiguration(n, tuple(vecs))
        except Exception:
            continue
    raise RuntimeError(f"no spanning configuration found for n={n}, r={r}")


def random_group(rng: random.Random, max_free: int = 2) -> AbelianGroup:
    free = rng.randint(0, max_free)
    torsion = rng.choice(TORSION_CHAINS)
    return AbelianGroup(free, torsion)


def random_element(rng: random.Random, group: AbelianGroup, height: int = 4):
    free = tuple(rng.randint(-height, height) for _ in range(group.free_rank))
    torsion = tuple(rng.randint(0, d - 1) for d in group.torsion)
    return group.element(free, torsion)


def random_collection(
    rng: random.Random, group: AbelianGroup, r: int, height: int = 4
) -> ElementCollection:
    return ElementCollection(
        group, tuple(random_element(rng, group, height) for _ in range(r))
    )


def random_generating_collection(
    rng: random.Random, group: AbelianGroup, r: int, height: int = 4, tries: int = 200
) -> ElementCollection:
    for _ in range(tries):
        coll = random_collection(rng, group, r, height)
        if generates_group(coll):
            return coll
    return None


def admissible_catalog() -> list[ElementCollection]:
    """Hand-picked admissible pairs with at most four elements."""
    Z = AbelianGroup(1, ())
    triv = AbelianGroup(0, ())
    z2 = AbelianGroup(0, (2,))
    z3 = AbelianGroup(0, (3,))
    z4 = AbelianGroup(0, (4,))
    z6 = AbelianGroup(0, (6,))
    z22 = AbelianGroup(0, (2, 2))
    zz = AbelianGroup(2, ())
    zt = AbelianGroup(1, (2,))

    def ints(*vals):
        return ElementCollection(Z, tuple(Z.element((v,)) for v in vals))

    def cyc(group, *vals):
        return ElementCollection(group, tuple(group.element((), (v,)) for v in vals))

    out = [
        ElementCollection(triv, (triv.zero(),)),
        ElementCollection(triv, (triv.zero(), triv.zero())),
        ElementCollection(triv, (triv.zero(),) * 3),
        ints(1, 1),
        ints(1, 1, 1),
        ints(1, 1, 1, 1),
        ints(1, 1, 2),
        ints(1, 1, 2, 3),
        ints(1, 1, 2, 2),
        ints(2, 2, 3, 3),
        ints(1, 1, -1, -1),
        ints(1, -1, 2, -2),
        cyc(z2, 1, 1),
        cyc(z2, 1, 1, 1),
        cyc(z3, 1, 1),
        cyc(z3, 1, 2),
        cyc(z3, 1, 1, 1),
        cyc(z3, 1, 1, 2),
        cyc(z4, 1, 1),
        cyc(z4, 1, 2, 1),
        cyc(z6, 1, 1),
        cyc(z6, 1, 2, 3),
        ElementCollection(
            z22,
            (
                z22.element((), (1, 0)),
                z22.element((), (0, 1)),
                z22.element((), (1, 1)),
            ),
        ),
        ElementCollection(
            zz,
            (
                zz.element((1, 0)),
                zz.element((1, 0)),
                zz.element((0, 1)),
                zz.element((0, 1)),
            ),
        ),
        ElementCollection(
            zt,
            (
                zt.element((1,), (0,)),
                zt.element((1,), (0,)),
                zt.element((0,), (1,)),
                zt.element((0,), (1,)),
            ),
        ),
    ]
    return out


def spanning(config: VectorConfiguration) -> bool:
    return matrix_rank(config.column_matrix()) == config.rank


def all_full_ray_subfans(maximal) -> list:
    """Every subfan of a maximal fan that keeps the whole ray set.

    Enumerates subsets of the higher-dimensional cones and keeps the
    face-closed ones; validity is inherited from the ambient fan.
    """
    from galefan import SimplicialFan

    base = [c for c in maximal.sorted_cones() if len(c) <= 1]
    optional = [c for c in maximal.sorted_cones() if len(c) > 1]
    fans = []
    for mask in range(1 << len(optional)):
        chosen = [c for k, c in enumerate(optional) if mask >> k & 1]
        kept = set(base) | set(chosen)
        if any(c - {i} not in kept for c in chosen for i in c):
            continue
        fans.append(SimplicialFan(maximal.config, frozenset(kept)))
    return fans


def mitm_work(bound: int, r: int) -> int:
    """Cost estimate for the meet-in-the-middle membership search."""
    return (bound + 1) ** ((r + 1) // 2) + (bound + 1) ** (r // 2)


def brute_semigroup_membership(target, gens) -> bool:
    """Exhaustive membership oracle over the coefficient box [0, bound]^r.

    Splits the generators in half and hashes the partial sums of one
    half, so the cost is square-root of the full box scan.
    """
    from oracles import coefficient_bound

    gens = list(gens)
    if not gens:
        return target.is_zero
    bound = coefficient_bound(target, gens)
    half = (len(gens) + 1) // 2
    left_sums = {target.group.zero()}
    for g in gens[:half]:
        left_sums = {s + c * g for s in left_sums for c in range(bound + 1)}
    right_sums = {target.group.zero()}
    for g in gens[half:]:
        right_sums = {s + c * g for s in right_sums for c in range(bound + 1)}
    return any(target - s in left_sums for s in right_sums)
