"""Reference implementations the tests compare the package against.

None of these is used by the package itself.  They favour the obvious
computation over speed: minors by brute force, rank over Fractions,
matrix products by the definition, and cone separation decided on the
Gale side instead of the primal side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from galefan import IntMatrix, LinearSystem, determinant, linear_gale_transform, lp_feasible
from galefan.groups import _relation_columns


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = b.transpose().entries
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in bt) for r in a.entries),
        cols=b.cols,
    )


def fraction_rank(a: IntMatrix) -> int:
    """Rank over the rationals by Gaussian elimination over Fractions."""
    rows = [[Fraction(e) for e in r] for r in a.entries]
    rank = 0
    col = 0
    while rank < len(rows) and col < a.cols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / prow[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank


def max_minor_bound(a: IntMatrix, b: Sequence[int]) -> int:
    """Largest absolute minor Delta of the augmented matrix [A | b], at least 1."""
    aug = [list(r) + [int(bb)] for r, bb in zip(a.entries, b)]
    m = len(aug)
    n = a.cols + 1 if m else 0
    best = 1
    for order in range(1, min(m, n) + 1):
        for rsel in combinations(range(m), order):
            for csel in combinations(range(n), order):
                sub = IntMatrix(tuple(tuple(aug[i][j] for j in csel) for i in rsel), cols=order)
                val = abs(determinant(sub))
                if val > best:
                    best = val
    return best


def coefficient_bound(target, gens) -> int:
    """Delta of the lifted membership system, the brute-force search radius.

    The system takes the generators and each torsion relation in both
    signs, augmented by the target.  The proven proximity radius is
    about (n+1)*Delta for n variables (Cook, Gerards, Schrijver and
    Tardos 1986), so a brute-force search to radius Delta is a referee
    on the inputs it is run on, not a proof for all inputs.
    """
    group = target.group
    cols = [g.lift() for g in gens]
    for col in _relation_columns(group):
        cols.append(col)
        cols.append(tuple(-c for c in col))
    mat = IntMatrix.from_columns(cols, rows=group.coords)
    return max_minor_bound(mat, target.lift())


def cones_meet_by_gale_duality(config, left, right) -> bool:
    """Separation test on the Gale side.

    The cones on the two index sets meet in a common face iff the dual
    cones spanned by the complementary Gale vectors have a common
    relative interior point, i.e. some strictly positive combinations
    of the two complementary families agree.
    """
    li = set(left)
    ri = set(right)
    dim, duals = linear_gale_transform(config)
    lcomp = [i for i in config.indices if i not in li]
    rcomp = [i for i in config.indices if i not in ri]
    nvars = len(lcomp) + len(rcomp)
    eqs = []
    for row in range(dim):
        coeffs = [duals[i][row] for i in lcomp] + [-duals[j][row] for j in rcomp]
        eqs.append((tuple(coeffs), 0))
    ins = tuple(
        (tuple(1 if t == s else 0 for t in range(nvars)), 1) for s in range(nvars)
    )
    ok, _ = lp_feasible(LinearSystem(nvars, equalities=tuple(eqs), inequalities=ins))
    return ok
