"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision Python ints and
``fractions.Fraction``; no floating point is used anywhere.  The module
provides the kernels the rest of the package is built on: Smith and row
Hermite normal forms with unimodular transforms, integer kernels and
Diophantine systems, and exact feasibility tests for linear and integer
linear systems.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import CapExceededError, InternalError

Vector = tuple[int, ...]


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[int]], cols: Optional[int] = None):
        rows = tuple(tuple(int(e) for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else int(cols)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if cols:
            height = len(cols[0])
        else:
            height = 0 if rows is None else rows
        return cls(tuple(tuple(c[i] for c in cols) for i in range(height)), cols=len(cols))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.entries, self.cols))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which may set slots
        return IntMatrix, (self.entries, self.cols)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_columns(self.entries, rows=self.cols)

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self.entries)


class SnfResult(Record):
    """Smith decomposition U*A*V = D with U, V unimodular and D diagonal.

    The diagonal is non-negative and forms a divisibility chain
    d1 | d2 | ... with zeros last.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> Vector:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for e in self.diagonal if e != 0)

    @property
    def invariant_factors(self) -> Vector:
        return tuple(e for e in self.diagonal if e != 0)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Compute the Smith normal form of an integer matrix.

    Pivots are chosen as the lexicographically smallest eligible
    position, so the output (including the transforms) is the same on
    every run and platform.
    """
    m, n = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row dst -= q * row src
        d[dst] = [x - q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    k = 0
    while k < min(m, n):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        if pivot[0] != k:
            swap_rows(k, pivot[0])
        if pivot[1] != k:
            swap_cols(k, pivot[1])

        while True:
            clean = True
            for i in range(m):
                if i == k or d[i][k] == 0:
                    continue
                q = d[i][k] // d[k][k]
                addmul_row(i, k, q)
                if d[i][k] != 0:
                    swap_rows(i, k)
                    clean = False
            if not clean:
                continue
            for j in range(n):
                if j == k or d[k][j] == 0:
                    continue
                q = d[k][j] // d[k][k]
                addmul_col(j, k, q)
                if d[k][j] != 0:
                    swap_cols(j, k)
                    clean = False
            if not clean:
                continue
            # pivot must divide the remaining block for the chain property

            bad = None
            p = d[k][k]
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if d[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addmul_row(k, bad, -1)

        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    return SnfResult(IntMatrix(u, cols=m), IntMatrix(d, cols=n), IntMatrix(v, cols=n))


def row_hermite_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (U, H) with U unimodular and H = U*A.  H is the unique
    echelon form over the integers with positive pivots and entries
    above each pivot reduced into [0, pivot).  Columns are scanned left
    to right and are never permuted.
    """
    m, n = a.rows, a.cols
    h = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    p = 0
    for j in range(n):
        if p == m:
            break
        if all(h[i][j] == 0 for i in range(p, m)):
            continue
        while True:
            nz = [i for i in range(p, m) if h[i][j] != 0]
            i0 = min(nz, key=lambda i: (abs(h[i][j]), i))
            if i0 != p:
                h[p], h[i0] = h[i0], h[p]
                u[p], u[i0] = u[i0], u[p]
            done = True
            for i in range(p + 1, m):
                if h[i][j] == 0:
                    continue
                q = h[i][j] // h[p][j]
                h[i] = [x - q * y for x, y in zip(h[i], h[p])]
                u[i] = [x - q * y for x, y in zip(u[i], u[p])]
                if h[i][j] != 0:
                    done = False
            if done:
                break
        if h[p][j] < 0:
            h[p] = [-x for x in h[p]]
            u[p] = [-x for x in u[p]]
        for i in range(p):
            q = h[i][j] // h[p][j]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[p])]
                u[i] = [x - q * y for x, y in zip(u[i], u[p])]
        p += 1
    return IntMatrix(u, cols=m), IntMatrix(h, cols=n)


def integer_kernel(a: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the lattice {x : A x = 0}.

    The basis spans the full kernel lattice (it is saturated): any
    integer kernel vector is an integer combination of the returned
    vectors.
    """
    snf = smith_normal_form(a)
    rank = snf.rank
    return tuple(snf.v.col(j) for j in range(rank, a.cols))


class DiophantineSolution(Record):
    """Solution set of A x = b over the integers.

    ``particular`` is None when the system has no integer solution; the
    kernel basis describes the homogeneous solutions either way.
    """

    particular: Optional[Vector]
    kernel_basis: tuple[Vector, ...]

    @property
    def solvable(self) -> bool:
        return self.particular is not None


def solve_diophantine(a: IntMatrix, b: Sequence[int]) -> DiophantineSolution:
    """Solve A x = b over the integers via the Smith form."""
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    snf = smith_normal_form(a)
    ub = snf.u.apply(tuple(b))
    y = [0] * a.cols
    ok = True
    for i in range(a.rows):
        di = snf.d[i, i] if i < min(a.rows, a.cols) else 0
        if di == 0:
            if ub[i] != 0:
                ok = False
                break
        else:
            if ub[i] % di != 0:
                ok = False
                break
            y[i] = ub[i] // di
    kernel = integer_kernel(a)
    if not ok:
        return DiophantineSolution(None, kernel)
    x = snf.v.apply(y)
    if a.apply(x) != tuple(b):
        raise InternalError("Diophantine solution fails A x = b")
    return DiophantineSolution(tuple(x), kernel)


def _bareiss(a: IntMatrix) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) row echelon elimination.

    Columns without a pivot are skipped, so any shape works.  Returns
    (rank, sign of the row permutation, last pivot).  Every entry still
    in use is an integer minor of the input, so each division is exact;
    the column below a pivot is never read again.  For a square matrix
    of full rank the last pivot is the determinant up to the sign.
    """
    m = [list(r) for r in a.entries]
    rank, sign, prev = 0, 1, 1
    for col in range(a.cols):
        if rank == a.rows:
            break
        piv = next((i for i in range(rank, a.rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        prow = m[rank]
        p = prow[col]
        for i in range(rank + 1, a.rows):
            row = m[i]
            f = row[col]
            for j in range(col + 1, a.cols):
                row[j] = (row[j] * p - f * prow[j]) // prev
        prev = p
        rank += 1
    return rank, sign, prev


def matrix_rank(a: IntMatrix) -> int:
    """Rank over the rationals."""
    return _bareiss(a)[0]


def determinant(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    rank, sign, last = _bareiss(a)
    return sign * last if rank == a.rows else 0


class LinearSystem(Record):
    """Linear constraints over n_vars unknowns.

    ``equalities`` rows mean row . x == rhs, ``inequalities`` rows mean
    row . x >= rhs.  Strict inequalities are not represented; callers
    with homogeneous strict constraints scale them to ">= 1".
    """

    n_vars: int
    equalities: tuple[tuple[Vector, int], ...] = ()
    inequalities: tuple[tuple[Vector, int], ...] = ()

    def __post_init__(self):
        eqs = tuple((tuple(int(c) for c in row), int(rhs)) for row, rhs in self.equalities)
        ins = tuple((tuple(int(c) for c in row), int(rhs)) for row, rhs in self.inequalities)
        for row, _ in eqs + ins:
            if len(row) != self.n_vars:
                raise ValueError("row length mismatch")
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "inequalities", ins)


def lp_feasible(system: LinearSystem) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Exact rational feasibility of a linear system.

    Runs a phase-1 simplex over Fractions with Bland's rule (smallest
    eligible index), so it terminates and is deterministic.  Returns a
    witness satisfying every constraint exactly when feasible.
    """
    n = system.n_vars
    eqs = system.equalities
    ins = system.inequalities
    if not eqs and not ins:
        return True, (Fraction(0),) * n
    if n == 0:
        ok = all(rhs == 0 for _, rhs in eqs) and all(rhs <= 0 for _, rhs in ins)
        return (True, ()) if ok else (False, None)

    # columns: x+ (n) | x- (n) | slacks (len(ins)) | artificials (m)
    q = len(ins)
    ncols = 2 * n + q
    rows = []
    rhs = []
    for row, beta in eqs:
        rows.append(list(row) + [-c for c in row] + [0] * q)
        rhs.append(beta)
    for idx, (row, beta) in enumerate(ins):
        slack = [0] * q
        slack[idx] = -1
        rows.append(list(row) + [-c for c in row] + slack)
        rhs.append(beta)
    m = len(rows)
    tab = []
    for i in range(m):
        r = [Fraction(c) for c in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-c for c in r]
            b = -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(r + art + [b])
    basis = [ncols + i for i in range(m)]
    width = ncols + m

    # phase-1 objective row: z_j = sum of column j over rows (c_B = 1)
    z = [sum(tab[i][j] for i in range(m)) for j in range(width + 1)]
    for i in range(m):
        z[ncols + i] -= 1

    while True:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InternalError("phase-1 objective is unbounded")
        piv = tab[leave][enter]
        tab[leave] = [c / piv for c in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [c - f * p for c, p in zip(tab[i], tab[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [c - f * p for c, p in zip(z, tab[leave])]
        basis[leave] = enter

    if z[width] != 0:
        return False, None
    values = [Fraction(0)] * width
    for i in range(m):
        values[basis[i]] = tab[i][width]
    witness = tuple(values[k] - values[n + k] for k in range(n))
    _check_witness(system, witness)
    return True, witness


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _apriori_box(rows: list[Vector], rhs: list[int]) -> int:
    # standard polynomial bound on the magnitude of some integer solution
    # of an inequality system, via its non-negative standard form
    m = len(rows)
    k = len(rows[0]) if rows else 0
    a = max([abs(e) for row in rows for e in row] + [abs(b) for b in rhs] + [2])
    nprime = 2 * k + m
    return 2 * nprime * (m * a) ** (2 * m + 1)


_ILP_NODE_CAP = 100_000


def ilp_feasible(system: LinearSystem) -> tuple[bool, Optional[Vector]]:
    """Exact feasibility of a linear system over the integers.

    Equalities are eliminated through the Smith form, which also detects
    lattice obstructions.  Remaining inequalities are strengthened by
    row gcds and by converting forced-tight rows to equalities, then
    searched by branch and bound over exact LP relaxations inside an
    a-priori solution box.  Raises CapExceededError if the node budget
    runs out (never observed at the scales this package targets).
    """
    n = system.n_vars
    offset: Vector = (0,) * n
    basis: list[Vector] = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    eqs = [(row, rhs) for row, rhs in system.equalities]
    ineqs = [(row, rhs) for row, rhs in system.inequalities]

    def to_x(t: Sequence[int]) -> Vector:
        return tuple(o + sum(bc[i] * tt for bc, tt in zip(basis, t)) for i, o in enumerate(offset))

    while True:
        if eqs:
            mat = IntMatrix([row for row, _ in eqs], cols=len(basis))
            sol = solve_diophantine(mat, [rhs for _, rhs in eqs])
            if sol.particular is None:
                return False, None
            q = sol.particular
            new_offset = tuple(
                o + sum(bc[i] * qq for bc, qq in zip(basis, q)) for i, o in enumerate(offset)
            )
            new_basis = [
                tuple(sum(bc[i] * kv for bc, kv in zip(basis, kvec)) for i in range(n))
                for kvec in sol.kernel_basis
            ]
            new_ineqs = []
            for row, rhs in ineqs:
                shift = sum(c * qq for c, qq in zip(row, q))
                new_row = tuple(sum(c * kv for c, kv in zip(row, kvec)) for kvec in sol.kernel_basis)
                new_ineqs.append((new_row, rhs - shift))
            offset, basis, ineqs, eqs = new_offset, new_basis, new_ineqs, []
            continue

        k = len(basis)
        cleaned = []
        for row, rhs in ineqs:
            g = gcd(*row)
            if g == 0:
                if rhs > 0:
                    return False, None
                continue
            cleaned.append((tuple(c // g for c in row), _ceil_div(rhs, g)))
        ineqs = cleaned
        if not ineqs:
            return True, to_x((0,) * k)

        base = LinearSystem(k, inequalities=tuple(ineqs))
        ok, _ = lp_feasible(base)
        if not ok:
            return False, None

        tightened = None
        for idx, (row, rhs) in enumerate(ineqs):
            probe = LinearSystem(
                k,
                inequalities=tuple(ineqs[:idx] + [(row, rhs + 1)] + ineqs[idx + 1:]),
            )
            feas, _ = lp_feasible(probe)
            if not feas:
                # every integer point has row . t exactly rhs
                tightened = idx
                break
        if tightened is None:
            break
        row, rhs = ineqs.pop(tightened)
        eqs = [(row, rhs)]

    k = len(basis)
    box = _apriori_box([row for row, _ in ineqs], [rhs for _, rhs in ineqs])
    lows = [-box] * k
    highs = [box] * k
    nodes = 0

    def bound_rows(lo, hi):
        out = []
        for j in range(k):
            unit = tuple(1 if i == j else 0 for i in range(k))
            out.append((unit, lo[j]))
            out.append((tuple(-c for c in unit), -hi[j]))
        return out

    stack = [(lows, highs)]
    while stack:
        lo, hi = stack.pop()
        if any(l > h for l, h in zip(lo, hi)):
            continue
        nodes += 1
        if nodes > _ILP_NODE_CAP:
            raise CapExceededError("integer feasibility search exceeded node cap")
        node_sys = LinearSystem(k, inequalities=tuple(ineqs) + tuple(bound_rows(lo, hi)))
        feas, point = lp_feasible(node_sys)
        if not feas:
            continue
        frac = next((j for j in range(k) if point[j].denominator != 1), None)
        if frac is None:
            t = _shrink_toward_zero(ineqs, [int(p) for p in point])
            x = to_x(t)
            _check_witness(system, x)
            return True, x
        split = point[frac].numerator // point[frac].denominator
        up_lo = list(lo)
        up_lo[frac] = split + 1
        dn_hi = list(hi)
        dn_hi[frac] = split
        stack.append((up_lo, hi))
        stack.append((lo, dn_hi))
    return False, None


def _shrink_toward_zero(ineqs: list[tuple[Vector, int]], t: list[int]) -> Vector:
    """Move an integer witness coordinatewise toward the origin while it
    stays feasible.  Purely cosmetic: keeps reported witnesses small."""
    k = len(t)
    for _ in range(50):
        changed = False
        for j in range(k):
            if t[j] == 0:
                continue
            sgn = 1 if t[j] > 0 else -1
            shift = abs(t[j])
            for row, rhs in ineqs:
                step = row[j] * sgn
                if step <= 0:
                    continue
                slack = sum(c * v for c, v in zip(row, t)) - rhs
                shift = min(shift, slack // step)
                if shift == 0:
                    break
            if shift > 0:
                t[j] -= sgn * shift
                changed = True
        if not changed:
            break
    return tuple(t)


def _check_witness(system: LinearSystem, x: Sequence) -> None:
    # exact re-check of an LP or ILP witness (ints or Fractions)
    for row, rhs in system.equalities:
        if sum(c * v for c, v in zip(row, x)) != rhs:
            raise InternalError("witness violates an equality")
    for row, rhs in system.inequalities:
        if sum(c * v for c, v in zip(row, x)) < rhs:
            raise InternalError("witness violates an inequality")
