"""Answer checks that trust nothing the timed call produced.

Each ``check_*`` function returns None for a verified answer and a
one-line description of the first problem otherwise.  They use plain
integer arithmetic only and never import galefan, so a defect in the
program cannot also hide itself in its own check.  Indices in CLI
answers are 1-based, as on the wire.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd


def _dot(v, w) -> int:
    return sum(a * b for a, b in zip(v, w))


def _reduce(value, free_rank, torsion) -> tuple:
    return tuple(value[:free_rank]) + tuple(c % d for c, d in zip(value[free_rank:], torsion))


def _combination(coeffs, gens, free_rank, torsion) -> tuple:
    width = free_rank + len(torsion)
    total = [sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(width)]
    return _reduce(total, free_rank, torsion)


def det(rows) -> int:
    """Determinant by cofactor expansion (the matrices here are at most 6 x 6)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def is_regular(vectors) -> bool:
    """Are the vectors part of a lattice basis (gcd of maximal minors 1)?"""
    k = len(vectors)
    if k == 0:
        return True
    g = 0
    for coords in combinations(range(len(vectors[0])), k):
        g = gcd(g, det([[v[c] for c in coords] for v in vectors]))
        if g == 1:
            return True
    return False


def is_root(vectors, cones: set, covector, ray: int) -> bool:
    """Demazure root conditions (R1) and (R2), 0-based ray, cones as frozensets."""
    pairing = [_dot(v, covector) for v in vectors]
    if pairing[ray] != -1 or any(p < 0 for i, p in enumerate(pairing) if i != ray):
        return False
    zeros = {i for i, p in enumerate(pairing) if p == 0}
    return all(c | {ray} in cones for c in cones if c <= zeros)


def gale_relations_hold(vectors, free_rank, torsion, elements) -> bool:
    """Does sum_i v_i[j] * g_i vanish in the group for every coordinate j?"""
    zero = _reduce([0] * (free_rank + len(torsion)), free_rank, torsion)
    rank = len(vectors[0]) if vectors else 0
    return all(
        _combination([v[j] for v in vectors], elements, free_rank, torsion) == zero
        for j in range(rank)
    )


def _valid_chain(torsion) -> bool:
    return all(d >= 2 for d in torsion) and all(b % a == 0 for a, b in zip(torsion, torsion[1:]))


def member_oracle(free_rank: int, torsion, gens, target) -> bool:
    """Exact semigroup membership for free rank 0 or 1, by finite search.

    With free rank 1, the steps of a non-negative combination can be
    ordered so that every partial sum stays within A of the segment
    [0, t], where A is the largest free part of a generator: while the
    partial sum is above the segment some remaining step is negative,
    and while it is below some remaining step is positive.  So searching
    that window times the torsion part decides membership exactly.
    """
    if free_rank > 1:
        raise ValueError("member_oracle handles free rank 0 or 1")
    gens = [_reduce(g, free_rank, torsion) for g in gens]
    goal = _reduce(target, free_rank, torsion)
    start = _reduce([0] * (free_rank + len(torsion)), free_rank, torsion)
    lo = hi = 0
    if free_rank:
        reach = max((abs(g[0]) for g in gens), default=0)
        lo, hi = min(0, goal[0]) - reach, max(0, goal[0]) + reach
    seen, frontier = {start}, [start]
    while frontier:
        here = frontier.pop()
        for g in gens:
            nxt = _reduce([a + b for a, b in zip(here, g)], free_rank, torsion)
            if free_rank and not lo <= nxt[0] <= hi:
                continue
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return goal in seen


def check_member(req: dict, out: dict):
    f, torsion = req["group"]["free_rank"], req["group"]["torsion"]
    expected = member_oracle(f, torsion, req["gens"], req["target"])
    if out["member"] != expected:
        return f"membership answered {out['member']}, exact search says {expected}"
    if expected:
        w = out["witness"]
        if len(w) != len(req["gens"]) or any(c < 0 for c in w):
            return "membership witness has the wrong length or a negative coefficient"
        if _combination(w, req["gens"], f, torsion) != _reduce(req["target"], f, torsion):
            return "membership witness does not sum to the target"
    return None


def check_config(req: dict, out: dict):
    vectors, n = req["vectors"], req["rank"]
    r = len(vectors)
    if out["suitable"] != out["admissible"]:
        return f"suitable={out['suitable']} but the dual is admissible={out['admissible']}"
    if not out["generates"]:
        return "the Gale dual does not generate its group"
    if out["suitable"]:
        ws = out["witnesses"]
        if len(ws) != r:
            return "wrong number of suitability witnesses"
        for i, w in enumerate(ws):
            pairs = [_dot(v, w) for v in vectors]
            if len(w) != n or pairs[i] != -1 or any(p < 0 for j, p in enumerate(pairs) if j != i):
                return f"suitability witness {i} fails its pairing conditions"
    f, torsion = out["group"]["free_rank"], out["group"]["torsion"]
    if f != r - n or not _valid_chain(torsion) or len(out["dual"]) != r:
        return "Gale dual has the wrong shape"
    if not gale_relations_hold(vectors, f, torsion, out["dual"]):
        return "Gale dual elements violate the configuration's relations"
    return None


def _cones(fan: dict) -> set:
    return {frozenset(i - 1 for i in c) for c in fan["cones"]}


def check_build_max(item: dict, fan: dict):
    pair = item["pair"]
    f, torsion = pair["group"]["free_rank"], pair["group"]["torsion"]
    vectors = fan["config"]["vectors"]
    r = item["r"]
    if len(vectors) != r or fan["config"]["rank"] != r - f:
        return "maximal fan has the wrong number or rank of rays"
    if not gale_relations_hold(vectors, f, torsion, pair["collection"]):
        return "rays are not Gale dual to the pair"
    cones = _cones(fan)
    if frozenset() not in cones or any(frozenset({i}) not in cones for i in range(r)):
        return "maximal fan misses the zero cone or a ray"
    if any(c - {i} not in cones for c in cones for i in c):
        return "maximal fan is not closed under faces"
    if not all(is_regular([vectors[i] for i in sorted(c)]) for c in cones):
        return "maximal fan has a cone that is not regular"
    if "parts" in item:
        # product law: the cones of a direct sum are the unions of summand cones
        expected = {frozenset()}
        shift = 0
        for part in item["parts"]:
            expected = {
                a | frozenset(i + shift for i in b) for a in expected for b in part["cones"]
            }
            shift += part["size"]
        if cones != expected:
            return "direct-sum maximal fan breaks the product law of its summands"
    elif f <= 1:
        # a cone belongs exactly when the other elements still generate
        # every element of the collection as a semigroup
        coll = pair["collection"]
        expected = set()
        for size in range(r + 1):
            for cone in combinations(range(r), size):
                rest = [coll[i] for i in range(r) if i not in cone]
                if all(member_oracle(f, torsion, rest, coll[i]) for i in cone):
                    expected.add(frozenset(cone))
        if cones != expected:
            return "maximal fan cones differ from the generating complements"
    return None


def check_strongly_regular(fan: dict, out: dict):
    vectors = fan["config"]["vectors"]
    cones = _cones(fan)
    if out.get("strongly_regular") is not True or out.get("failing_cone") is not None:
        return "maximal fan reported not strongly regular"
    seen = set()
    for entry in out["certificate"]:
        cone = frozenset(i - 1 for i in entry["cone"])
        facet = frozenset(i - 1 for i in entry["facet"])
        root = entry["root"]
        ray = root["ray"] - 1
        if cone not in cones or cone in seen or not (facet < cone and cone - facet == {ray}):
            return "certificate entry does not name a new cone, its facet and the missing ray"
        if any(_dot(vectors[i], root["covector"]) != 0 for i in facet):
            return "certificate root is not zero on its facet"
        if not is_root(vectors, cones, root["covector"], ray):
            return "certificate root is not a Demazure root of the fan"
        seen.add(cone)
    if seen != cones - {frozenset()}:
        return "certificate does not cover every nonzero cone"
    return None


def check_roots(fan: dict, out: dict, bound: int):
    """The answer must equal an exhaustive scan of the box, root by root."""
    vectors = fan["config"]["vectors"]
    cones = _cones(fan)
    found = [(tuple(root["covector"]), root["ray"] - 1) for root in out["roots"]]
    expected = []
    for covector in product(range(-bound, bound + 1), repeat=fan["config"]["rank"]):
        negative = [i for i, v in enumerate(vectors) if _dot(v, covector) < 0]
        if len(negative) == 1 and is_root(vectors, cones, covector, negative[0]):
            expected.append((covector, negative[0]))
    if found != expected:
        return f"roots differ from the exhaustive scan ({len(found)} vs {len(expected)})"
    return None


def check_classify(item: dict, out: dict):
    for key, value in item["classify"].items():
        if out.get(key) != value:
            return f"classify {key}={out.get(key)!r}, expected {value!r}"
    parts = [frozenset(i - 1 for i in p) for p in out["product_decomposition"]]
    if sorted(i for p in parts for i in p) != list(range(item["r"])):
        return "product decomposition is not a partition of the indices"
    if "parts" in item:
        bounds, shift = [], 0
        for part in item["parts"]:
            bounds.append(frozenset(range(shift, shift + part["size"])))
            shift += part["size"]
        if any(not any(p <= b for b in bounds) for p in parts):
            return "product decomposition is coarser than the direct sum"
    return None

