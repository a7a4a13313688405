"""Reference implementations the tests compare the package against.

None of these is used by the package itself.  They favour the obvious
computation over speed: determinants by the Leibniz formula, minors by
brute force, rank over Fractions, matrix products by the definition,
the Smith elimination with its row transform kept apart,
cone separation decided on the Gale side instead of the primal side,
positive spanning by one LP per signed unit vector, shape members by
filtering every index subset, pair equivalence by trying every index
permutation, connecting roots by trying zero sets from the smallest
up, condition (C3) of a G-set by listing every link of the
collection before looking at the family, and connected G-sets by
filtering every family of generating subsets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from typing import Sequence

from galefan import (
    ConnectednessResult,
    DemazureRoot,
    GSet,
    IntMatrix,
    LinearSystem,
    NotGeneratingError,
    cone_key,
    generates_full_semigroup,
    generates_group,
    integer_kernel,
    is_link,
    linear_gale_transform,
    lp_feasible,
    row_hermite_form,
)
from galefan.classify import _violation
from galefan.fans import _extends_by
from galefan.linalg import _covector_for_pattern
from galefan.groups import _lifted_matrix, _relation_basis, _relation_columns


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


def _perm_sign(p) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inversions % 2 else 1


def determinant(a: IntMatrix) -> int:
    """Determinant of a square matrix by the Leibniz formula."""
    n = a.rows
    if a.cols != n:
        raise ValueError("determinant of a non-square matrix")
    return sum(_perm_sign(p) * prod(a[i, p[i]] for i in range(n)) for p in permutations(range(n)))


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


def smith_with_separate_transforms(rows, n) -> tuple[list, list[int], list]:
    """The Smith elimination as it was before appended columns: U kept
    as its own list of rows beside D.  Returns the rows of U, the nonzero
    diagonal and the columns of V, with ``_smith``'s pivot order."""
    m = len(rows)
    d = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]  # columns
    k = 0
    while k < min(m, n):
        pivot = next(((i, j) for i in range(k, m) for j in range(k, n) if d[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        d[k], d[i], u[k], u[i] = d[i], d[k], u[i], u[k]
        if j != k:
            for row in d:
                row[k], row[j] = row[j], row[k]
            v[k], v[j] = v[j], v[k]
        while True:
            clean = True
            for i in range(m):
                if i == k or d[i][k] == 0:
                    continue
                q = d[i][k] // d[k][k]
                d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                if d[i][k] != 0:
                    d[i], d[k], u[i], u[k] = d[k], d[i], u[k], u[i]
                    clean = False
            if not clean:
                continue
            for j in range(n):
                if j == k or d[k][j] == 0:
                    continue
                q = d[k][j] // d[k][k]
                for row in d:
                    row[j] -= q * row[k]
                v[j] = [x - q * y for x, y in zip(v[j], v[k])]
                if d[k][j] != 0:
                    for row in d:
                        row[k], row[j] = row[j], row[k]
                    v[k], v[j] = v[j], v[k]
                    clean = False
            if not clean:
                continue
            p = d[k][k]
            bad = next((i for i in range(k + 1, m) if any(x % p for x in d[i][k + 1:])), None)
            if bad is None:
                break
            d[k] = [x + y for x, y in zip(d[k], d[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return u, [d[i][i] for i in range(k)], v


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


def relations_of(coll) -> tuple:
    """A basis of the relations among any collection's elements.

    ``_relation_basis`` refuses a collection that does not generate its
    group; its relations are still spanned by the Smith-form kernel of
    the lifted matrix, cut to the r coordinates of the elements.
    """
    relations = _relation_basis(coll)
    if relations is None:
        r = len(coll)
        relations = tuple(v[:r] for v in integer_kernel(_lifted_matrix(coll.elements, coll.group)))
    return relations


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


def positively_spans_by_signed_units(coll) -> bool:
    """Do the free parts positively span Q^f?  Each of the 2f vectors
    +e_j and -e_j must be a non-negative combination of them, one LP each."""
    f = coll.group.free_rank
    r = len(coll)
    nonneg = tuple((tuple(1 if j == i else 0 for j in range(r)), 0) for i in range(r))
    for j in range(f):
        for sign in (1, -1):
            eqs = tuple(
                (tuple(e.free[row] for e in coll), sign if row == j else 0) for row in range(f)
            )
            ok, _ = lp_feasible(LinearSystem(r, equalities=eqs, inequalities=nonneg))
            if not ok:
                return False
    return True


def shape_members_by_subset_filter(coll) -> frozenset:
    """Every index subset that meets each class of equal values, found
    by filtering all 2^r subsets."""
    classes: dict = {}
    for i, e in enumerate(coll):
        classes.setdefault(e, set()).add(i)
    r = len(coll)
    return frozenset(
        frozenset(s)
        for k in range(r + 1)
        for s in combinations(range(r), k)
        if all(cls & set(s) for cls in classes.values())
    )


def _relation_lattice(elements, group) -> tuple:
    # Hermite form of the lattice of x with sum x_i * elements[i] = 0
    r = len(elements)
    cols = [e.lift() for e in elements] + _relation_columns(group)
    kernel = integer_kernel(IntMatrix.from_columns(cols, rows=group.coords))
    if not kernel:
        return ()
    _, h = row_hermite_form(IntMatrix(tuple(vec[:r] for vec in kernel), cols=r))
    return tuple(row for row in h.entries if any(row))


def pairs_equivalent_by_permutations(left, right) -> bool:
    """Equivalence of two generating collections by brute force.

    An isomorphism carrying left[i] to right[p(i)] exists exactly when
    the relation lattice of left equals that of right reordered by p,
    since each collection presents its group as Z^r modulo its
    relations.  Every index permutation is tried.
    """
    if left.group != right.group or len(left) != len(right):
        return False
    want = _relation_lattice(left.elements, left.group)
    return any(
        _relation_lattice(order, right.group) == want
        for order in set(permutations(right.elements))
    )


def root_connecting_ascending(fan, cone, facet):
    """A root connecting the cone with its facet, or None: zero sets among
    the rays outside the cone are tried from the smallest up, the order
    ``root_connecting`` searched in before it went from the largest down.
    Whether a root exists does not depend on the order."""
    (rho,) = frozenset(cone) - frozenset(facet)
    others = [i for i in fan.config.indices if i not in cone]
    for size in range(len(others) + 1):
        for zs in combinations(others, size):
            zeros = frozenset(facet) | set(zs)
            if not _extends_by(fan, zeros, rho):
                continue
            positives = tuple(j for j in others if j not in zeros)
            e = _covector_for_pattern(fan.config.vectors, rho, tuple(sorted(zeros)), positives, 1)
            if e is not None:
                return DemazureRoot(e, rho)
    return None


def every_link(coll) -> tuple:
    """Every link (target, support) of a collection: coll[target] is a
    combination of the support with all coefficients >= 1.  Ordered by
    target, then support size, then support lexicographically."""
    out = []
    for target in coll.indices:
        others = [i for i in coll.indices if i != target]
        for size in range(len(coll)):
            for sup in combinations(others, size):
                if is_link(coll, target, sup)[0]:
                    out.append((target, frozenset(sup)))
    return tuple(out)


def c3_by_link_list(gset) -> ConnectednessResult:
    """Condition (C3) alone, by its definition: every proper member has a
    link with its target outside and its support inside, whose removal
    rule holds throughout the family (whenever support and target lie in
    a member, that member without the target is a member too).  Every
    link is listed before the family is looked at; the first failing
    member in ``cone_key`` order is reported as ('C3', member)."""
    members = gset.members
    full = frozenset(gset.collection.indices)
    links = every_link(gset.collection)

    def removal_rule_holds(target, support):
        needed = support | {target}
        return all(b - {target} in members for b in members if needed <= b)

    for member in sorted(members, key=cone_key):
        if member != full and not any(
            target not in member and support <= member and removal_rule_holds(target, support)
            for target, support in links
        ):
            return ConnectednessResult(False, ("C3", tuple(sorted(member))))
    return ConnectednessResult(True, None)


def connected_gsets_by_family_scan(coll) -> tuple:
    """Every connected G-set of a collection, sorted as
    ``enumerate_connected_gsets`` sorts them.  Each of the 2^r subsets is
    asked whether it generates the full semigroup; the whole set and the
    co-singletons are mandatory members (none when a co-singleton does
    not generate), and each of the 2^k families of the k other
    generating subsets is checked for (C1)-(C3)."""
    r = len(coll)
    if not generates_group(coll):
        raise NotGeneratingError("collection does not generate its group")
    full = frozenset(range(r))
    generating = {
        frozenset(s)
        for k in range(r + 1)
        for s in combinations(range(r), k)
        if generates_full_semigroup(coll, s)
    }
    mandatory = {full} | {full - {i} for i in range(r)}
    if not mandatory <= generating:
        return ()
    optional = sorted(generating - mandatory, key=cone_key)
    found = []
    for mask in range(1 << len(optional)):
        members = frozenset(mandatory | {g for k, g in enumerate(optional) if mask >> k & 1})
        if _violation(coll, members) is None:
            found.append(GSet(coll, members))
    found.sort(key=lambda g: (len(g.members), tuple(cone_key(m) for m in g.sorted_members())))
    return tuple(found)
