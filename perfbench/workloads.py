"""Seeded input generation for the benchmark workloads.

Every input is drawn from ``random.Random`` seeded with the workload
name and the seed, so one seed always gives the same inputs.  The
generator runs galefan itself (direct sums, spanning tests, the
summands' maximal fans for the product-law check); that work is part
of set-up, never of a timed operation.

Pairs travel in the CLI's JSON pair shape.  Each fan-* item carries
what the checker needs to judge the answers without trusting them:
the ray count, the direct-sum summands' maximal cones, and the
classification fields that follow from the definitions.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

from galefan import (
    AbelianGroup,
    ElementCollection,
    VectorConfiguration,
    build_maximal_fan,
    direct_sum_collection,
    primitivize,
)
from galefan.errors import DegenerateConfigurationError
from galefan.jsonio import encode_pair

from checks import det

# A piece is (free_rank, torsion, values): an admissible pair with
# element values as flat coordinate lists, free part first.


def _ints(*values):
    return (1, (), [[v] for v in values])


def _trivial(count):
    return (0, (), [[] for _ in range(count)])


def _cyclic(order, *values):
    return (0, (order,), [[v] for v in values])


# Each fan workload cycles through a fixed list of pair shapes, given as
# the summands of a direct sum.  The seed draws every pair's
# presentation (a random automorphism of each summand's free part, the
# order of summands and of elements), so runs with different seeds see
# different inputs of one size mix.  Random shapes made the work per
# run swing by a third between seeds at this run length.
FAN_FREE_SHAPES = [
    [_ints(1, 1, 1), _ints(1, 1)],
    [_ints(1, 1, 1, 1), _trivial(1)],
    [_ints(1, 1), _ints(1, 1), _ints(1, 1)],
    [_ints(1, 1, 2, 3), _trivial(1)],
    [(2, (), [[1, 0], [1, 0], [0, 1], [0, 1], [1, 1]])],
    [_ints(1, 1, 2, 2, 3)],
]
FAN_TORSION_SHAPES = [
    [_cyclic(2, 1, 1), _cyclic(3, 1, 1)],
    [_cyclic(3, 1, 2), _ints(1, 1)],
    [_cyclic(2, 1, 1), _ints(1, 1, 1)],
    [_cyclic(6, 1, 2, 3), _ints(1, 1)],
    [_cyclic(4, 1, 1), _cyclic(2, 1, 1)],
    [(1, (2,), [[1, 1], [1, 0], [-1, 0], [-1, 1]])],
]
UNIMODULAR_2 = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                ((1, 0), (1, 1)), ((-1, 0), (0, 1)), ((1, -1), (0, 1))]
TORSION_CHAINS = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3)]
ROOT_BOUND = 1
# decide: ("config", rank) or ("member", free rank, generator count).
# Within a class the vector count r and the torsion chain are dealt in
# turn rather than drawn, so every run holds nearly the same size mix
# (a turn whose draw repeats an earlier input is skipped); the seed
# draws the coordinates.  Rank 1 is left out: with r <= 6 it has
# only 126 distinct primitive configurations (every vector is +-1), too
# few for a stream that never repeats.  Rank 3 draws coordinates from
# [-2, 2] so that one operation stays near a second at most.
DECIDE_MIX = [
    ("config", 2), ("member", 1, 1), ("config", 2), ("member", 0, 1),
    ("config", 2), ("member", 1, 2), ("config", 3), ("member", 0, 2),
    ("config", 2), ("member", 1, 3), ("config", 2), ("member", 0, 3),
]
CONFIG_BOUND = {2: 4, 3: 2}


def _collection(free_rank, torsion, values) -> ElementCollection:
    group = AbelianGroup(free_rank, tuple(torsion))
    return ElementCollection(
        group, tuple(group.element(v[:free_rank], v[free_rank:]) for v in values)
    )


def _value_groups(values) -> list[list[int]]:
    seen: dict[tuple, list[int]] = {}
    for i, v in enumerate(values):
        seen.setdefault(tuple(v), []).append(i)
    return sorted(seen.values())


def _expected_classification(coll: ElementCollection) -> dict:
    """Fields of ``classify pair`` that follow from the definitions alone."""
    group = coll.group
    values = [list(e.free) + list(e.torsion) for e in coll]
    vgroups = _value_groups(values)
    complete = (
        not group.torsion
        and len(vgroups) == group.free_rank
        and all(len(g) >= 2 for g in vgroups)
        and abs(det([values[g[0]][: group.free_rank] for g in vgroups])) == 1
    )
    out = {"affine": group.free_rank == 0 and not group.torsion, "complete": complete}
    out["rank_one_type"] = None
    if group.free_rank == 1 and not group.torsion:
        signs = {(v[0] > 0) - (v[0] < 0) for v in values}
        out["rank_one_type"] = 1 if {1, -1} <= signs else 3 if 0 in signs else 2
    return out


def _pair_item(coll: ElementCollection, parts=()) -> dict:
    item = {
        "r": len(coll),
        "pair": encode_pair(coll),
        "bound": ROOT_BOUND,
        "classify": _expected_classification(coll),
    }
    if parts:
        # product law: cones of the sum are unions of the summands' cones
        item["parts"] = [
            {"size": len(p), "cones": [sorted(c) for c in build_maximal_fan(p).cones]}
            for p in parts
        ]
    return item


def _present(rng: random.Random, piece) -> ElementCollection:
    """The piece under a random automorphism of its free part, elements
    in random order.  Torsion values are kept: multiplying them by a unit
    changes the integer search boxes, and with them the cost of a pair,
    by more than a run can average out."""
    free_rank, chain, values = piece
    if free_rank == 1:
        sign = rng.choice((1, -1))
        values = [[sign * v[0]] + v[1:] for v in values]
    elif free_rank == 2:
        m = rng.choice(UNIMODULAR_2)
        values = [[m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]] + v[2:]
                  for v in values]
    values = list(values)
    rng.shuffle(values)
    return _collection(free_rank, chain, values)


def _shape_item(rng: random.Random, shape) -> dict:
    pieces = [_present(rng, piece) for piece in shape]
    rng.shuffle(pieces)
    if len(pieces) == 1:
        return _pair_item(pieces[0])
    total = pieces[0]
    for piece in pieces[1:]:
        total = direct_sum_collection(total, piece)
    return _pair_item(total, pieces)


def _element_values(rng: random.Random, free_rank: int, torsion, count: int, height: int):
    return [
        [rng.randint(-height, height) for _ in range(free_rank)]
        + [rng.randrange(d) for d in torsion]
        for _ in range(count)
    ]


def fan_items(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` pairs for a fan-* workload, cycling through its shapes."""
    rng = random.Random(f"{workload}:{seed}")
    shapes = FAN_TORSION_SHAPES if workload == "fan-torsion" else FAN_FREE_SHAPES
    return [_shape_item(rng, shapes[k % len(shapes)]) for k in range(count)]


def _random_config(rng: random.Random, n: int, r: int, bound: int) -> VectorConfiguration:
    while True:
        vecs = []
        for _ in range(r):
            v = tuple(rng.randint(-bound, bound) for _ in range(n))
            if any(v):
                vecs.append(primitivize(v))
        if len(vecs) < r:
            continue
        try:
            return VectorConfiguration(n, tuple(vecs))
        except DegenerateConfigurationError:
            continue


def decide_items(seed: int, count: int) -> list[dict]:
    """Distinct configurations and membership queries, in the cycled mix.

    No input repeats, so galefan's memo caches never answer a whole
    operation from an earlier one.
    """
    rng = random.Random(f"decide:{seed}")
    seen = set()
    items = []
    dealt = Counter()
    while len(items) < count:
        slot = DECIDE_MIX[len(items) % len(DECIDE_MIX)]
        turn = dealt[slot]
        dealt[slot] += 1
        if slot[0] == "config":
            n = slot[1]
            r = n + turn % (7 - n)
            config = _random_config(rng, n, r, CONFIG_BOUND[n])
            key = (config.rank, config.vectors)
            item = {"kind": "config", "rank": n, "vectors": [list(v) for v in config.vectors]}
        else:
            free_rank, k = slot[1], slot[2]
            chain = TORSION_CHAINS[turn % len(TORSION_CHAINS)]
            gens = _element_values(rng, free_rank, chain, k, 4)
            target = _element_values(rng, free_rank, chain, 1, 4)[0]
            key = (chain, json.dumps([gens, target]))
            item = {
                "kind": "member",
                "group": {"free_rank": free_rank, "torsion": list(chain)},
                "gens": gens,
                "target": target,
            }
        if key not in seen:
            seen.add(key)
            items.append(item)
    return items


def known_failure_items() -> list[dict]:
    """Pairs on which an operation overran the deadline at the seed commit."""
    z2 = _collection(*_cyclic(2, 1, 1))
    z3 = _collection(*_cyclic(3, 1, 1, 1))
    return [_pair_item(direct_sum_collection(z2, z3), (z2, z3))]


def main(argv: list[str]) -> None:
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    if workload == "decide":
        items, cycle = decide_items(seed, count), len(DECIDE_MIX)
    elif workload == "known-failures":
        items, cycle = known_failure_items(), 1
    else:
        items = fan_items(workload, seed, count)
        cycle = len(FAN_TORSION_SHAPES if workload == "fan-torsion" else FAN_FREE_SHAPES)
    sys.stdout.write(json.dumps({"items": items, "cycle": cycle}))


if __name__ == "__main__":
    main(sys.argv[1:])
