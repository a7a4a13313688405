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
from functools import lru_cache
from math import gcd
from operator import index, mod, mul
from typing import Optional, Sequence

from ._record import Record
from .errors import CapExceededError, InternalError

Vector = tuple[int, ...]


def dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(map(mul, v, w))


class IntMatrix(Record):
    """Immutable integer matrix, row-major; an empty one has ``cols`` or 0 columns."""

    entries: tuple[Vector, ...]
    cols: Optional[int] = None

    def __post_init__(self):
        rows = tuple([tuple(map(index, row)) for row in self.entries])
        cols = self.cols
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else index(cols)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "cols", width)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        height = len(cols[0]) if cols else rows or 0
        return cls(tuple(tuple(c[i] for c in cols) for i in range(height)), len(cols))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_columns(self.entries, rows=self.cols)

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple([sum(map(mul, r, vec)) for r in self.entries])


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


def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _smith(rows: Sequence[Sequence[int]], n: int) -> tuple[list, list[int], list]:
    """Smith decomposition U*A*V = D of the first n columns A of these
    rows, on plain lists: the rows after elimination, the nonzero diagonal
    of D (its first rank entries; the rest of D is zero) and the columns
    of V.  Entries past column n never pivot and ride along every row
    operation, so rows [A | I] come back as [D | U] and [A | b] as
    [D | U*b]; plain rows A form no U at all.  Pivots are chosen as the
    lexicographically smallest eligible position, so the output is the
    same on every run and platform.
    """
    m = len(rows)
    d = [list(r) for r in rows]
    v = _identity(n)  # columns
    k = 0
    while k < min(m, n):
        if not d[k][k]:  # else (k, k) is the smallest eligible position
            pivot = next(((i, j) for i in range(k, m) for j in range(k, n) if d[i][j]), None)
            if pivot is None:
                break
            i, j = pivot
            d[k], d[i] = d[i], d[k]
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
                if d[i][k] != 0:
                    d[i], d[k] = d[k], d[i]
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
            # pivot must divide the remaining block for the chain property (a unit does)
            p = d[k][k]
            if p in (1, -1):
                break
            bad = next((i for i in range(k + 1, m) if any(x % p for x in d[i][k + 1 : n])), None)
            if bad is None:
                break
            d[k] = [x + y for x, y in zip(d[k], d[bad])]
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
        k += 1
    return d, [d[i][i] for i in range(k)], v


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Compute the Smith normal form of an integer matrix.

    The elimination is ``_smith``'s on the rows [A | I], which come back
    as [D | U], so the output (including the transforms) is the same on
    every run and platform.
    """
    m, n = a.rows, a.cols
    rows, _, v = _smith([[*r, *e] for r, e in zip(a.entries, _identity(m))], n)
    u, d = IntMatrix([r[n:] for r in rows], m), IntMatrix([r[:n] for r in rows], n)
    return SnfResult(u, d, IntMatrix.from_columns(v, rows=n))


def row_hermite_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (U, H) with U unimodular and H = U*A.  H is the unique
    echelon form over the integers with positive pivots and entries
    above each pivot reduced into [0, pivot).  Columns are scanned left
    to right and are never permuted.  Like ``_smith``, the row
    operations run on the rows [A | I], which come back as [H | U].
    """
    m, n = a.rows, a.cols
    h = [[*r, *e] for r, e in zip(a.entries, _identity(m))]
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
            done = True
            for i in range(p + 1, m):
                if h[i][j] == 0:
                    continue
                q = h[i][j] // h[p][j]
                h[i] = [x - q * y for x, y in zip(h[i], h[p])]
                if h[i][j] != 0:
                    done = False
            if done:
                break
        if h[p][j] < 0:
            h[p] = [-x for x in h[p]]
        for i in range(p):
            q = h[i][j] // h[p][j]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[p])]
        p += 1
    return IntMatrix([r[n:] for r in h], m), IntMatrix([r[:n] for r in h], n)


def integer_kernel(a: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the lattice {x : A x = 0}.

    The basis spans the full kernel lattice (it is saturated): any
    integer kernel vector is an integer combination of the returned
    vectors.
    """
    _, diag, v = _smith(a.entries, a.cols)
    return tuple(map(tuple, v[len(diag):]))


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
    x, kernel = _solve(a.entries, tuple(map(index, b)), a.cols)
    return DiophantineSolution(None if x is None else tuple(x), tuple(map(tuple, kernel)))


def _solve(rows: Sequence[Vector], b: Sequence[int], n: int) -> tuple[Optional[list[int]], list]:
    """A x = b for A with these rows and n columns, off the Smith form of [A | b]: a
    particular solution (None if there is none) and the kernel basis of integer_kernel."""
    rows_ub, diag, v = _smith([[*row, c] for row, c in zip(rows, b)], n)
    ub = [row[n] for row in rows_ub]
    kernel = v[len(diag):]
    if any(ub[len(diag):]) or any(map(mod, ub, diag)):
        return None, kernel
    y = [c // p for c, p in zip(ub, diag)]
    x = [dot(y, row) for row in zip(*v)]  # V y, over the rows of V
    if [dot(row, x) for row in rows] != list(b):
        raise InternalError("Diophantine solution fails A x = b")
    return x, kernel


def matrix_rank(a: IntMatrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination.

    Columns without a pivot are skipped, so any shape works.  Every
    entry still in use is an integer minor of the input, so each
    division is exact; the column below a pivot is never read again.
    """
    return _rank(a.entries, a.cols)


def _rank(entries: Sequence[Vector], cols: int) -> int:
    # matrix_rank of plain integer rows, each of length cols
    m = [list(r) for r in entries]
    rank, prev, rows = 0, 1, len(m)
    for col in range(cols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        p = prow[col]
        for i in range(rank + 1, rows):
            row = m[i]
            f = row[col]
            for j in range(col + 1, cols):
                row[j] = (row[j] * p - f * prow[j]) // prev
        prev = p
        rank += 1
    return rank


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
        eqs = tuple([(tuple(map(index, row)), index(rhs)) for row, rhs in self.equalities])
        ins = tuple([(tuple(map(index, row)), index(rhs)) for row, rhs in self.inequalities])
        object.__setattr__(self, "n_vars", index(self.n_vars))
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
    # Papadimitriou ("On the complexity of integer programming", J. ACM
    # 28(4), 1981): if Ax = b, x >= 0, with A of m rows and n columns and
    # every entry of A and b at most a in absolute value, has an integer
    # solution, it has one with entries at most n (m a)^(2m+1).  The
    # standard form of rows . t >= rhs, rows . t+ - rows . t- - s = rhs, has
    # m rows, n' = 2k + m unknowns and entries at most a (a >= 2 covers the
    # slacks' -1), so some integer solution has |t_j| <= t+_j + t-_j, which
    # is at most 2 n' (m a)^(2m+1)
    m = len(rows)
    k = len(rows[0]) if rows else 0
    a = max([abs(e) for row in rows for e in row] + [abs(b) for b in rhs] + [2])
    nprime = 2 * k + m
    return 2 * nprime * (m * a) ** (2 * m + 1)


_ILP_NODE_CAP = 100_000


# the package's one memo.  perfbench's inputs (seeds 1-4) ask at most 16
# distinct systems per fan command and 39 per fan set-up; decide keeps
# asking new ones (seed 1, first 1,200 items: 2,388 misses, 80 hits), and
# the bound caps its memo at about 1.3 MB
@lru_cache(maxsize=1024)
def ilp_feasible(system: LinearSystem) -> tuple[bool, Optional[Vector]]:
    """Exact feasibility of a linear system over the integers.

    Equalities are eliminated through the Smith form, which also detects
    lattice obstructions: each elimination writes the unknowns as q + K t
    for the solution q and kernel basis K of ``_solve``.  When one
    unknown t is left, every row reads c t >= b, so the answer is an
    integer interval: no LP is asked, and the witness is the point of
    the interval nearest zero.  With more unknowns, each inequality is
    divided by its row gcd, rows forced tight are turned into
    equalities, then the rest is searched by branch and bound over
    exact LP relaxations inside an a-priori solution box.  Raises
    CapExceededError if the node budget runs out; some systems with 3
    to 5 unknowns from admissibility questions, with torsion or on Z,
    dive towards the box wall, where the cap can be minutes of LPs away.
    Answers are memoized by the system, so an equal system is solved
    once: strong regularity meets one root pattern from many cones, and
    fan set-up asks a repeated summand's membership questions again.
    """
    k, eqs, ineqs = system.n_vars, system.equalities, system.inequalities
    stages: list[tuple[list[int], list]] = []  # the (q, K) of each elimination

    def to_x(t: Sequence[int]) -> Vector:
        for q, kernel in reversed(stages):
            t = [o + sum(c[i] * tt for c, tt in zip(kernel, t)) for i, o in enumerate(q)]
        return tuple(t)

    while True:
        if eqs:
            q, kernel = _solve([row for row, _ in eqs], [rhs for _, rhs in eqs], k)
            if q is None:
                return False, None
            stages.append((q, kernel))
            ineqs = [
                (tuple([dot(row, col) for col in kernel]), rhs - dot(row, q)) for row, rhs in ineqs
            ]
            k, eqs = len(kernel), ()
            continue

        if k == 1:
            # each row c t >= b bounds t by b / c, rounded inward, unless c = 0
            lows = [_ceil_div(rhs, c) for (c,), rhs in ineqs if c > 0]
            t = min([max([0] + lows)] + [rhs // c for (c,), rhs in ineqs if c < 0])
            if lows and t < max(lows) or any(rhs > 0 for (c,), rhs in ineqs if not c):
                return False, None
            x = to_x((t,))
            _check_witness(system, x)
            return True, x

        cleaned = []
        for row, rhs in ineqs:
            g = gcd(*row)
            if g == 0:
                if rhs > 0:
                    return False, None
                continue
            cleaned.append((tuple([c // g for c in row]), _ceil_div(rhs, g)))
        ineqs = cleaned
        if not ineqs:
            return True, to_x((0,) * k)

        base = LinearSystem(k, (), tuple(ineqs))
        ok, _ = lp_feasible(base)
        if not ok:
            return False, None

        tightened = None
        for idx, (row, rhs) in enumerate(ineqs):
            probe = LinearSystem(k, (), tuple(ineqs[:idx] + [(row, rhs + 1)] + ineqs[idx + 1:]))
            feas, _ = lp_feasible(probe)
            if not feas:
                # every integer point has row . t exactly rhs
                tightened = idx
                break
        if tightened is None:
            break
        row, rhs = ineqs.pop(tightened)
        eqs = [(row, rhs)]

    box = _apriori_box([row for row, _ in ineqs], [rhs for _, rhs in ineqs])
    lows = [-box] * k
    highs = [box] * k
    nodes = 0

    def bound_rows(lo, hi):
        out = []
        for j, unit in enumerate(_identity(k)):
            out.append((unit, lo[j]))
            out.append(([-c for c in unit], -hi[j]))
        return out

    stack = [(lows, highs)]
    while stack:
        lo, hi = stack.pop()
        nodes += 1
        if nodes > _ILP_NODE_CAP:
            raise CapExceededError("integer feasibility search exceeded node cap")
        node_sys = LinearSystem(k, (), tuple(ineqs) + tuple(bound_rows(lo, hi)))
        feas, point = lp_feasible(node_sys)
        if not feas:
            continue
        frac = next((j for j in range(k) if point[j].denominator != 1), None)
        if frac is None:
            t = _shrink_toward_zero(ineqs, [int(p) for p in point])
            x = to_x(t)
            _check_witness(system, x)
            return True, x
        # lo < point[frac] < hi with integer ends, so neither child is empty
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
        if dot(row, x) != rhs:
            raise InternalError("witness violates an equality")
    for row, rhs in system.inequalities:
        if dot(row, x) < rhs:
            raise InternalError("witness violates an inequality")


def _covector_for_pattern(
    vectors: tuple[Vector, ...],
    rho: int,
    zeros: tuple[int, ...],
    others: tuple[int, ...],
    low: int,
) -> Optional[Vector]:
    """Integer covector with value -1 on vectors[rho], 0 on the zeros and
    at least ``low`` on the others, or None if there is none.

    ``low`` is 1 for a root that cuts out a face, 0 for suitability and
    for semigroup membership read through the Gale dual.  A pattern met
    again builds an equal system, which ``ilp_feasible``'s memo answers.
    """
    eqs = ((vectors[rho], -1), *[(vectors[k], 0) for k in zeros])
    ins = tuple([(vectors[j], low) for j in others])
    ok, e = ilp_feasible(LinearSystem(len(vectors[rho]), eqs, ins))
    return e if ok else None
