import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galefan import (
    IntMatrix,
    LinearSystem,
    ilp_feasible,
    integer_kernel,
    lp_feasible,
    matrix_rank,
    row_hermite_form,
    smith_normal_form,
    solve_diophantine,
)

import galefan.linalg as linalg_module

from oracles import (
    determinant,
    fraction_rank,
    identity,
    matmul,
    max_minor_bound,
    smith_with_separate_transforms,
)

matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
).map(lambda rows: IntMatrix(tuple(tuple(r) for r in rows)))


def unimodular(mat: IntMatrix) -> bool:
    return mat.rows == mat.cols and determinant(mat) in (1, -1)


def test_matrix_basics():
    a = IntMatrix(((1, 2), (3, 4)))
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert matmul(a, identity(2)).entries == a.entries
    assert a.row(1) == (3, 4)
    assert a.col(0) == (1, 3)
    assert IntMatrix.from_columns([(1, 0), (2, 5)], rows=2).entries == ((1, 2), (0, 5))
    assert (a.rows, a.cols, a[1, 0], a.apply((1, 1))) == (2, 2, 3, (3, 7))
    # an empty matrix takes its width from cols, or 0
    assert (IntMatrix(()).cols, IntMatrix((), 3).cols, IntMatrix((), 3).rows) == (0, 3, 0)
    assert IntMatrix.from_columns([], rows=2) == IntMatrix(((), ()), 0)
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix(((1,), (1, 2)))
    with pytest.raises(ValueError, match="cols does not match row width"):
        IntMatrix(((1, 2),), 3)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(a):
    snf = smith_normal_form(a)
    assert unimodular(snf.u) and unimodular(snf.v)
    d = matmul(matmul(snf.u, a), snf.v)
    assert d.entries == snf.d.entries
    diag = snf.diagonal
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    # invariant factor chain
    assert all(nonzero[i] % nonzero[i - 1] == 0 for i in range(1, len(nonzero)))
    # zeros only after the nonzero prefix
    assert diag[: len(nonzero)] == tuple(nonzero)
    assert snf.rank == matrix_rank(a)


def test_snf_examples():
    assert smith_normal_form(IntMatrix(((1, 0), (1, 2)))).diagonal == (1, 2)
    assert smith_normal_form(IntMatrix(((2, 4), (6, 8)))).diagonal == (2, 4)
    assert smith_normal_form(IntMatrix(((0, 0), (0, 0)))).diagonal == (0, 0)
    assert smith_normal_form(IntMatrix(((6,),))).diagonal == (6,)


def test_smith_carries_appended_columns_like_separate_transforms():
    # the rows [A | I] come back as [D | U] and [A | b] as [D | U*b], with
    # the diagonal and V of the elimination that keeps U apart; about a
    # third of the draws are products with a thin factor, so rank-deficient
    rng = random.Random(25)
    for trial in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        if trial % 3:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        else:
            k = rng.randint(1, min(m, n))
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(r, c)) for c in zip(*right)] for r in left]
        u, diag, v = smith_with_separate_transforms(rows, n)
        eye = [[int(i == j) for j in range(m)] for i in range(m)]
        rows_du, diag_du, v_du = linalg_module._smith([r + e for r, e in zip(rows, eye)], n)
        assert ([r[n:] for r in rows_du], diag_du, v_du) == (u, diag, v)
        for i, r in enumerate(rows_du):
            assert r[:n] == [diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
        b = [rng.randint(-9, 9) for _ in range(m)]
        rows_ub, diag_b, v_b = linalg_module._smith([r + [c] for r, c in zip(rows, b)], n)
        assert (diag_b, v_b) == (diag, v)
        assert [r[n] for r in rows_ub] == [sum(x * y for x, y in zip(r, b)) for r in u]
        # plain rows come back as D alone
        assert linalg_module._smith(rows, n) == ([r[:n] for r in rows_du], diag, v)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_hermite_properties(a):
    u, h = row_hermite_form(a)
    assert unimodular(u)
    assert matmul(u, a).entries == h.entries
    # pivots positive, strictly moving right, entries above reduced
    last = -1
    for i in range(h.rows):
        row = h.row(i)
        pivots = [j for j, x in enumerate(row) if x != 0]
        if not pivots:
            continue
        j = pivots[0]
        assert j > last
        last = j
        assert row[j] > 0
        for k in range(i):
            assert 0 <= h[k, j] < row[j]


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


def test_hermite_is_canonical():
    # multiplying by a unimodular matrix on the left never changes the form
    rng = random.Random(3)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(n)))
        u = random_unimodular(rng, n)
        assert determinant(u) in (1, -1)
        _, h1 = row_hermite_form(a)
        _, h2 = row_hermite_form(matmul(u, a))
        assert h1.entries == h2.entries


def test_hermite_examples():
    _, h = row_hermite_form(IntMatrix(((1, -1), (0, 3))))
    assert h.entries == ((1, 2), (0, 3))
    _, h2 = row_hermite_form(IntMatrix(((1, 1), (0, 2))))
    assert h2.entries == ((1, 1), (0, 2))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_kernel_properties(a):
    kernel = integer_kernel(a)
    assert len(kernel) == a.cols - matrix_rank(a)
    for vec in kernel:
        assert all(sum(a[i, j] * vec[j] for j in range(a.cols)) == 0 for i in range(a.rows))
    if kernel:
        # saturation: the kernel basis spans a primitive sublattice
        span = IntMatrix(tuple(kernel))
        snf = smith_normal_form(span)
        assert all(d == 1 for d in snf.invariant_factors)


def test_diophantine_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(n)))
        x = [rng.randint(-3, 3) for _ in range(m)]
        b = [sum(a[i, j] * x[j] for j in range(m)) for i in range(n)]
        sol = solve_diophantine(a, b)
        assert sol.solvable
        p = sol.particular
        assert all(sum(a[i, j] * p[j] for j in range(m)) == b[i] for i in range(n))
        for vec in sol.kernel_basis:
            y = [p[j] + vec[j] for j in range(m)]
            assert all(sum(a[i, j] * y[j] for j in range(m)) == b[i] for i in range(n))


def test_diophantine_unsolvable():
    sol = solve_diophantine(IntMatrix(((2,),)), (1,))
    assert not sol.solvable
    # rationally solvable but integrally not
    sol2 = solve_diophantine(IntMatrix(((2, 4),)), (3,))
    assert not sol2.solvable
    sol3 = solve_diophantine(IntMatrix(((1, 0), (0, 1), (1, 1))), (1, 1, 3))
    assert not sol3.solvable


def test_matrix_rank_matches_fraction_rank():
    # products of an n x k and a k x m factor have rank at most k, so
    # about half the draws are rank-deficient
    rng = random.Random(11)
    deficient = 0
    for _ in range(400):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        if rng.random() < 0.5:
            k = rng.randint(0, max(0, min(n, m) - 1))
            left = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(n)), cols=k)
            right = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(k)), cols=m)
            a = matmul(left, right)
        else:
            a = IntMatrix(tuple(tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(n)), cols=m)
        want = fraction_rank(a)
        assert matrix_rank(a) == want
        deficient += want < min(n, m)
    assert deficient > 100


def test_max_minor_bound_covers_entries():
    rng = random.Random(7)
    for _ in range(100):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = IntMatrix(tuple(tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(n)))
        b = [rng.randint(-6, 6) for _ in range(n)]
        bound = max_minor_bound(a, b)
        assert bound >= 1
        assert bound >= max((abs(a[i, j]) for i in range(n) for j in range(m)), default=1)
        assert bound >= max((abs(x) for x in b), default=1)


def test_lp_known_cases():
    # x >= 1 and -x >= 0 cannot hold together
    bad = LinearSystem(1, inequalities=(((1,), 1), ((-1,), 0)))
    assert lp_feasible(bad) == (False, None)
    ok, w = lp_feasible(
        LinearSystem(2, equalities=(((1, 1), 1),), inequalities=(((1, 0), 0), ((0, 1), 0)))
    )
    assert ok and w[0] + w[1] == 1 and w[0] >= 0 and w[1] >= 0
    # unbounded direction is still feasible
    ok2, _ = lp_feasible(LinearSystem(2, inequalities=(((1, -1), 3),)))
    assert ok2
    # empty system is feasible at the origin
    ok3, w3 = lp_feasible(LinearSystem(2))
    assert ok3 and w3 == (Fraction(0), Fraction(0))
    # with no unknowns every row reads 0 == rhs or 0 >= rhs
    assert lp_feasible(LinearSystem(0, equalities=(((), 0),))) == (True, ())
    assert lp_feasible(LinearSystem(0, equalities=(((), 1),))) == (False, None)
    for rhs in (-1, 0, 1):
        want = (True, ()) if rhs <= 0 else (False, None)
        assert lp_feasible(LinearSystem(0, inequalities=(((), rhs),))) == want


def brute_force_ilp(system: LinearSystem, radius: int):
    from itertools import product

    for point in product(range(-radius, radius + 1), repeat=system.n_vars):
        if all(
            sum(r * x for r, x in zip(row, point)) == rhs for row, rhs in system.equalities
        ) and all(
            sum(r * x for r, x in zip(row, point)) >= rhs
            for row, rhs in system.inequalities
        ):
            return point
    return None


def test_ilp_agrees_with_brute_force():
    rng = random.Random(23)
    radius = 8
    for _ in range(250):
        n = rng.randint(1, 3)
        eqs = []
        ins = []
        for _ in range(rng.randint(0, 2)):
            eqs.append(
                (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4))
            )
        for _ in range(rng.randint(0, 3)):
            ins.append(
                (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4))
            )
        system = LinearSystem(n, equalities=tuple(eqs), inequalities=tuple(ins))
        ok, witness = ilp_feasible(system)
        brute = brute_force_ilp(system, radius)
        if brute is not None:
            assert ok
        if not ok:
            assert brute is None
        if ok:
            assert all(
                sum(r * x for r, x in zip(row, witness)) == rhs for row, rhs in eqs
            )
            assert all(
                sum(r * x for r, x in zip(row, witness)) >= rhs for row, rhs in ins
            )


def one_unknown_systems(rng, count):
    """Random systems that keep one unknown after the equalities are
    eliminated: n = 1 without equalities, or n = 2-3 with n - 1
    independent ones."""
    out = []
    while len(out) < count:
        n = rng.choice((1, 1, 2, 3))
        eqs = tuple(
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-5, 5)) for _ in range(n - 1)
        )
        if eqs and matrix_rank(IntMatrix(tuple(row for row, _ in eqs), cols=n)) < n - 1:
            continue
        ins = tuple(
            (tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-6, 6))
            for _ in range(rng.randint(0, 4))
        )
        out.append(LinearSystem(n, equalities=eqs, inequalities=ins))
    return out


def satisfies(system, x) -> bool:
    return all(
        sum(r * v for r, v in zip(row, x)) == rhs for row, rhs in system.equalities
    ) and all(sum(r * v for r, v in zip(row, x)) >= rhs for row, rhs in system.inequalities)


def test_ilp_with_one_unknown_agrees_with_brute_force():
    rng = random.Random(59)
    seen = {(n, ok): 0 for n in (1, 2) for ok in (True, False)}
    for system in one_unknown_systems(rng, 400):
        ok, witness = ilp_feasible(system)
        if system.n_vars == 1:
            # the interval's ends are right-hand sides, so this radius is exact
            radius = max([abs(rhs) for _, rhs in system.inequalities] + [0])
            near = [(t,) for t in sorted(range(-radius, radius + 1), key=abs)]
            feasible = [x for x in near if satisfies(system, x)]
            assert ok == bool(feasible)
            # closest to zero; on a tie the interval would hold zero
            assert witness == (feasible[0] if feasible else None)
        else:
            brute = brute_force_ilp(system, 6)
            assert ok or brute is None
            assert not ok or satisfies(system, witness)
        seen[min(system.n_vars, 2), ok] += 1
    assert all(seen.values())


def test_ilp_with_one_unknown_asks_no_lp(monkeypatch, clear_ilp_memo):
    def no_lp(system):
        raise AssertionError("an LP was asked")

    rng = random.Random(61)
    systems = one_unknown_systems(rng, 200)
    want = [ilp_feasible(system) for system in systems]
    # the second round must solve again, not read the first from the memo
    clear_ilp_memo()
    monkeypatch.setattr(linalg_module, "lp_feasible", no_lp)
    assert [ilp_feasible(system) for system in systems] == want


def test_ilp_integer_gaps():
    # 1 <= 5x - 5y <= 4 has rational but no integer points
    strip = LinearSystem(2, inequalities=(((5, -5), 1), ((-5, 5), -4)))
    assert lp_feasible(strip)[0]
    assert ilp_feasible(strip) == (False, None)
    # parity obstruction through an equality
    par = LinearSystem(2, equalities=(((2, 2), 3),))
    assert ilp_feasible(par) == (False, None)
    # equality forcing plus bounds
    ok, w = ilp_feasible(
        LinearSystem(2, equalities=(((1, 1), 7),), inequalities=(((1, 0), 3), ((0, 1), 3)))
    )
    assert ok and sorted(w) == [3, 4]


@pytest.mark.parametrize(
    "rows",
    [
        (((-3, 1), -12), ((-3, -4), -3), ((4, 3), 7), ((4, -3), 1)),
        (((4, -1), 5), ((-5, -3), 2), ((3, 5), -9)),
    ],
)
def test_branch_and_bound_exhausts_a_bounded_region_without_integer_points(
    rows, clear_ilp_memo
):
    # two unknowns, no row forced tight, a rational point but no integer
    # one: only an exhausted branch and bound search can answer "no"
    system = LinearSystem(2, inequalities=rows)
    assert lp_feasible(system)[0]
    # no point of the LP region has a coordinate of 6 or more in absolute
    # value, so its integer points lie in the box [-5, 5]^2
    radius = 5
    for j in range(2):
        for sign in (1, -1):
            unit = tuple(sign if i == j else 0 for i in range(2))
            past = LinearSystem(2, inequalities=rows + ((unit, radius + 1),))
            assert not lp_feasible(past)[0]
    assert brute_force_ilp(system, radius) is None
    clear_ilp_memo()
    assert ilp_feasible(system) == (False, None)


def test_ilp_feasible_is_the_one_memo():
    # one memo mechanism: every other function asks its integer questions
    # through ilp_feasible and keeps no cache of its own
    import importlib
    import pkgutil

    import galefan

    memos = {}
    for info in pkgutil.iter_modules(galefan.__path__):
        module = importlib.import_module(f"galefan.{info.name}")
        for value in vars(module).values():
            members = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            memos.update((id(m), m) for m in members if hasattr(m, "cache_info"))
    assert list(memos.values()) == [ilp_feasible]


def test_ilp_witnesses_are_small():
    # the reported witness should sit near the origin, not at the box wall
    ok, w = ilp_feasible(
        LinearSystem(2, equalities=(((1, 0), -1),), inequalities=(((2, 3), 0),))
    )
    assert ok
    assert w[0] == -1 and 0 <= w[1] <= 2
