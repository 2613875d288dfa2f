"""Exact integer and polynomial linear algebra kernels.

Everything in this module is exact: arbitrary-precision integers,
rationals, integer polynomials and Laurent polynomials.  No floating
point enters any computation.

Ranks and Smith forms start with a sparse elimination of +-1 pivots in
Markowitz order (_eliminate_units), each pivot one invariant factor 1,
and finish the rest with the dense gcd routines (_rank_dense,
_smith_dense).  The elimination is a sequence of unimodular row and
column operations, which keep the rank and the Smith form, and a +-1
pivot keeps every entry an integer.  The dense routines are also the
tests' oracles for the sparse path.

numpy is used only for word-size modular arithmetic inside the
characteristic-polynomial kernel (the Hessenberg passes mod p, the
candidate-root scan and the matrix products that certify an integral
char poly, see char_poly) and to pack the keys of its memo.  Its int64
intermediates are exact at every side: residues are below 2^27, so each
product is below 2^54, and every dot product sums at most 511 such
products before it is reduced mod p (_dot_mod), which stays below 2^63.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "gen_binom",
    "IntMatrix",
    "IntPoly",
    "NotIntegral",
    "LaurentPoly",
    "det_exact",
    "det_fraction",
    "det_ring",
    "rank_exact",
    "smith_normal_form",
    "sparse_columns",
    "char_poly",
    "char_poly_interpolate",
    "char_poly_memo",
    "integer_roots",
    "integer_spectrum",
    "poly_eval",
]


def gen_binom(a: int, b: int) -> int:
    """Binomial coefficient extended to all integer arguments.

    For b >= 0 this is prod_{i<b}(a - i) / b!, which is an integer for
    every integer a (negative upper arguments included).  For b < 0 the
    value is 1 if a == b and 0 otherwise; this boundary convention keeps
    Pascal's rule valid wherever the recursion below needs it, e.g.
    gen_binom(-1, 0) == gen_binom(-1, -1) == 1.
    """
    if b < 0:
        return 1 if a == b else 0
    num = 1
    for i in range(b):
        num *= a - i
    return num // math.factorial(b)


# ---------------------------------------------------------------------------
# matrices


class IntMatrix:
    """Immutable dense integer matrix with optional row/column labels.

    Entries are plain Python ints, so nothing ever overflows.  Zero-row
    and zero-column shapes are allowed (pass ncols for an empty row
    list).  Labels, when present, name the cells indexing each side.
    """

    __slots__ = ("rows", "nrows", "ncols", "row_labels", "col_labels")

    def __init__(self, rows, row_labels=None, col_labels=None, ncols: int | None = None):
        rs = tuple(tuple(map(int, row)) for row in rows)
        self.rows = rs
        self.nrows = len(rs)
        if rs:
            widths = {len(r) for r in rs}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            w = widths.pop()
            if ncols is not None and ncols != w:
                raise ValueError("ncols disagrees with row width")
            self.ncols = w
        else:
            self.ncols = 0 if ncols is None else int(ncols)
        for labels, n, side in ((row_labels, self.nrows, "row"), (col_labels, self.ncols, "col")):
            if labels is not None and len(labels) != n:
                raise ValueError(f"{side} label count mismatch")
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    # -- constructors

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basic queries

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column(self, j: int):
        return tuple(r[j] for r in self.rows)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        r = self.rows
        return all(r[i][j] == r[j][i] for i in range(self.nrows) for j in range(i))

    def max_abs(self) -> int:
        m = 0
        for r in self.rows:
            for v in r:
                av = -v if v < 0 else v
                if av > m:
                    m = av
        return m

    # -- algebra

    def transpose(self) -> "IntMatrix":
        t = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return IntMatrix(t, row_labels=self.col_labels, col_labels=self.row_labels, ncols=self.nrows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        n, k, m = self.nrows, self.ncols, other.ncols
        if n == 0 or m == 0 or k == 0:
            return IntMatrix.zeros(n, m)
        # int64 fast path; the bound guarantees no overflow is possible
        ma, mb = self.max_abs(), other.max_abs()
        if ma and mb and k * ma * mb < 2**62:
            a = np.array(self.rows, dtype=np.int64)
            b = np.array(other.rows, dtype=np.int64)
            c = a @ b
            return IntMatrix(c.tolist(), row_labels=self.row_labels, col_labels=other.col_labels)
        bt = other.transpose().rows
        out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in self.rows]
        return IntMatrix(out, row_labels=self.row_labels, col_labels=other.col_labels, ncols=m)

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * v for v in r] for r in self.rows],
                         self.row_labels, self.col_labels, ncols=self.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                         ncols=self.ncols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                         ncols=self.ncols)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        rl = [self.row_labels[i] for i in row_idx] if self.row_labels else None
        cl = [self.col_labels[j] for j in col_idx] if self.col_labels else None
        return IntMatrix(rows, rl, cl, ncols=len(col_idx))

    def columns_subset(self, col_idx) -> "IntMatrix":
        return self.submatrix(range(self.nrows), col_idx)

    def delete_rows_cols(self, idx) -> "IntMatrix":
        """Principal submatrix with the given rows and columns removed."""
        drop = set(idx)
        keep = [i for i in range(self.nrows) if i not in drop]
        return self.submatrix(keep, keep)

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


def det_exact(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.  Exact."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri, rk = a[i], a[k]
            for j in range(k + 1, n):
                ri[j] = (pkk * ri[j] - aik * rk[j]) // prev
            ri[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def sparse_columns(m: IntMatrix, rows=None) -> list:
    """Columns of m as {row: value} dicts of their nonzero entries,
    restricted to the given rows (renumbered in order) when rows is not
    None."""
    pos = range(m.nrows) if rows is None else rows
    cols = [{} for _ in range(m.ncols)]
    idx = range(m.ncols)
    for r, i in enumerate(pos):
        row = m.rows[i]
        for j in itertools.compress(idx, row):
            cols[j][r] = row[j]
    return cols


def _eliminate_units(m: IntMatrix):
    """(units, rest): m reduced by unit pivots, in Markowitz order.

    On the sparse rows and columns of m, repeatedly take a +-1 entry of
    least cost (r - 1)(c - 1), r and c the nonzero counts of its row and
    column; clear its column by adding integer multiples of its row to
    the others, then drop its row and column.  The heap holds every unit
    entry with its cost when pushed; a popped entry that is no longer a
    unit is skipped, and one whose cost has grown goes back in.  units
    counts the pivots; rest is the dense matrix left on the rows and
    columns that still hold a nonzero entry.

    Each step is a unimodular row operation; the pivot row, alone in
    its column, is then cleared by column operations that change nothing
    else.  So m is equivalent over Z to diag(+-1, ..., +-1) plus rest as
    a block sum, and every entry stays an integer, because the
    multiplier of each row operation is an entry times the pivot.
    """
    cols = sparse_columns(m)
    rows = [{} for _ in range(m.nrows)]
    for j, col in enumerate(cols):
        for i, a in col.items():
            rows[i][j] = a
    heap = [((len(rows[i]) - 1) * (len(col) - 1), i, j)
            for j, col in enumerate(cols) for i, a in col.items() if a == 1 or a == -1]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    units = 0
    while heap:
        cost, r, c = pop(heap)
        row = rows[r]
        p = row.get(c)
        if p != 1 and p != -1:
            continue
        col = cols[c]
        now = (len(row) - 1) * (len(col) - 1)
        if now > cost:
            push(heap, (now, r, c))
            continue
        units += 1
        del row[c], col[r]
        for i, a in col.items():
            # row_i -= a p row_r clears (i, c), as p * p = 1
            f = a * p
            ri = rows[i]
            del ri[c]
            for j, b in row.items():
                cj = cols[j]
                x = ri.get(j, 0) - f * b
                if x:
                    ri[j] = cj[i] = x
                    if x == 1 or x == -1:
                        push(heap, ((len(ri) - 1) * (len(cj) - 1), i, j))
                else:
                    del ri[j], cj[i]
        for j in row:
            del cols[j][r]
        row.clear()
        col.clear()
    live = [i for i, row in enumerate(rows) if row]
    keep = sorted({j for i in live for j in rows[i]})
    rest = IntMatrix([[rows[i].get(j, 0) for j in keep] for i in live], ncols=len(keep))
    return units, rest


def rank_exact(m: IntMatrix) -> int:
    """Rank over Q: the unit pivots of _eliminate_units plus the rank
    of what they leave (_rank_dense).  The elimination is a sequence of
    row and column operations over Z, which keep the rank."""
    units, rest = _eliminate_units(m)
    return units + _rank_dense(rest)


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix.

    _eliminate_units turns m, by unimodular row and column operations,
    into diag(+-1, ..., +-1) plus a rest as a block sum.  Unimodular
    operations keep the Smith form, and 1 divides every factor, so the
    factors are one 1 per unit pivot followed by the factors of the rest
    (_smith_dense).  Boundaries of cubical and simplicial complexes have
    +-1 entries and few nonzeros per column, so the rest is small.
    """
    units, rest = _eliminate_units(m)
    return (1,) * units + _smith_dense(rest)


def _rank_dense(m: IntMatrix) -> int:
    """Rank over Q via integer row echelon with gcd normalization.
    rank_exact's solver for the rest after unit pivots, and the tests'
    oracle for rank_exact."""
    rows = [list(r) for r in m.rows if any(r)]
    ncols = m.ncols
    rank = 0
    top = 0
    for c in range(ncols):
        piv = None
        for i in range(top, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        pv = rows[top][c]
        for i in range(top + 1, len(rows)):
            f = rows[i][c]
            if f:
                g = math.gcd(pv, f)
                m1, m2 = pv // g, f // g
                ri, rt = rows[i], rows[top]
                for j in range(c, ncols):
                    ri[j] = m1 * ri[j] - m2 * rt[j]
                gg = 0
                for v in ri:
                    gg = math.gcd(gg, v)
                if gg > 1:
                    for j in range(c, ncols):
                        ri[j] //= gg
        top += 1
        rank += 1
        if top == len(rows):
            break
    return rank


def _smith_dense(m: IntMatrix) -> tuple[int, ...]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix,
    densely: smith_normal_form's solver for the rest after unit pivots,
    and the tests' oracle for smith_normal_form.

    Gcd-pivot reduction: repeatedly move a smallest nonzero entry of the
    trailing submatrix to the pivot, clear its row and column by exact
    quotient steps, and restore the divisibility chain by folding any
    offending entry back into the pivot row.
    """
    a = [list(r) for r in m.rows]
    nr, nc = len(a), m.ncols
    factors = []
    t = 0
    while t < min(nr, nc):
        # smallest nonzero entry of the trailing block
        best = None
        pos = None
        for i in range(t, nr):
            ri = a[i]
            for j in range(t, nc):
                v = ri[j]
                if v:
                    av = -v if v < 0 else v
                    if best is None or av < best:
                        best, pos = av, (i, j)
                        if av == 1:
                            break
            if best == 1:
                break
        if pos is None:
            break
        i0, j0 = pos
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            moved = False
            for i in range(t + 1, nr):
                v = a[i][t]
                if v:
                    q = v // p
                    if q:
                        ai, at = a[i], a[t]
                        for j in range(t, nc):
                            ai[j] -= q * at[j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        moved = True
            if moved:
                continue
            for j in range(t + 1, nc):
                v = a[t][j]
                if v:
                    q = v // a[t][t]
                    if q:
                        for i in range(t, nr):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
            if moved:
                continue
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            # divisibility repair: every entry below-right must be a
            # multiple of the pivot before we freeze it
            p = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                ai = a[i]
                for j in range(t + 1, nc):
                    if ai[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            at, ab = a[t], a[bad]
            for j in range(t, nc):
                at[j] += ab[j]
        factors.append(a[t][t])
        t += 1
    return tuple(factors)


# ---------------------------------------------------------------------------
# univariate integer polynomials


class IntPoly:
    """Dense univariate polynomial over Z, coefficients ascending in y."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, pairs) -> "IntPoly":
        """Monic polynomial with the given (root, multiplicity) pairs."""
        out = [1]
        for root, mult in pairs:
            for _ in range(mult):
                nxt = [0] * (len(out) + 1)
                for i, c in enumerate(out):
                    nxt[i + 1] += c
                    nxt[i] -= c * root
                out = nxt
        return cls(out)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def strip_valuation(self) -> "IntPoly":
        v = self.valuation()
        return IntPoly(self.coeffs[v:]) if v else self

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def shift(self, k: int) -> "IntPoly":
        return IntPoly((0,) * k + self.coeffs)

    def compose_shift(self, c: int) -> "IntPoly":
        """Taylor shift: the polynomial p(y + c)."""
        if not self.coeffs:
            return self
        res = [self.coeffs[-1]]
        for k in range(len(self.coeffs) - 2, -1, -1):
            nxt = [0] * (len(res) + 1)
            for j, v in enumerate(res):
                nxt[j + 1] += v
                nxt[j] += c * v
            nxt[0] += self.coeffs[k]
            res = nxt
        return IntPoly(res)

    def divide_linear(self, r: int):
        """Synthetic division by (y - r); returns (quotient, remainder)."""
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * r + c
            out.append(acc)
        rem = out.pop() if out else 0
        out.reverse()
        return IntPoly(out), rem

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            term = "y" if i == 1 else (f"y^{i}" if i else "")
            if i and abs(c) == 1:
                coef = "-" if c < 0 else ""
            else:
                coef = str(c)
                if i:
                    coef += "*"
            parts.append(coef + term if term else str(c))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class NotIntegral:
    """Marker result: a Laplacian whose spectrum is not a set of integers.

    Carries the exact characteristic polynomial as the certificate.
    """

    __slots__ = ("charpoly",)

    def __init__(self, charpoly: IntPoly):
        self.charpoly = charpoly

    def __repr__(self):
        return f"NotIntegral({self.charpoly})"

    def __eq__(self, other):
        return isinstance(other, NotIntegral) and self.charpoly == other.charpoly


# ---------------------------------------------------------------------------
# characteristic polynomial (exact, CRT over word-size primes)

_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):  # deterministic below 3.2e9
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """i-th member of a fixed descending list of 27-bit primes."""
    cand = _PRIMES[-1] - 2 if _PRIMES else 134217689
    while len(_PRIMES) <= i:
        while not _is_prime(cand):
            cand -= 2
        _PRIMES.append(cand)
        cand -= 2
    return _PRIMES[i]


# Products of residues below 2^27 are below 2^54, and 511 of them plus a
# residue stay below 2^63, the int64 limit.
_DOT_BLOCK = 511


def _dot_mod(a, b, p: int):
    """(a @ b) % p for int64 arrays of residues mod p < 2^27, exact at
    any inner length: the inner dimension (last of a, first of b) is
    summed in blocks of at most _DOT_BLOCK terms, reduced between
    blocks."""
    k = a.shape[-1]
    if k <= _DOT_BLOCK:
        return (a @ b) % p
    out = (a[..., :_DOT_BLOCK] @ b[:_DOT_BLOCK]) % p
    for s in range(_DOT_BLOCK, k, _DOT_BLOCK):
        out = (out + a[..., s:s + _DOT_BLOCK] @ b[s:s + _DOT_BLOCK]) % p
    return out


def _charpoly_mod(rows, n: int, p: int, pre=None) -> list[int]:
    """char poly of an n x n integer matrix mod p (Hessenberg method)."""
    if pre is not None:
        h = pre % p
    else:
        h = np.array([[e % p for e in r] for r in rows], dtype=np.int64)
    # similarity reduction to upper Hessenberg form
    for k in range(n - 2):
        col = h[k + 1:, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        r = k + 1 + int(nz[0])
        if r != k + 1:
            h[[k + 1, r]] = h[[r, k + 1]]
            h[:, [k + 1, r]] = h[:, [r, k + 1]]
        inv = pow(int(h[k + 1, k]), p - 2, p)
        f = (h[k + 2:, k] * inv) % p
        if f.any():
            h[k + 2:, k:] = (h[k + 2:, k:] - f[:, None] * h[k + 1, k:]) % p
            h[:, k + 1] = (h[:, k + 1] + _dot_mod(h[:, k + 2:], f, p)) % p
    # p_m(y) = (y - h[m-1,m-1]) p_{m-1} - sum_i h[i-1,m-1] (prod subdiag) p_{i-1}
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    for m in range(1, n + 1):
        pm = np.zeros(n + 1, dtype=np.int64)
        pm[1:m + 1] = P[m - 1, 0:m]
        pm[0:m] = (pm[0:m] - int(h[m - 1, m - 1]) * P[m - 1, 0:m]) % p
        if m >= 2:
            beta = np.ones(m - 1, dtype=np.int64)
            acc = 1
            for i in range(m - 1, 0, -1):
                acc = (acc * int(h[i, i - 1])) % p
                beta[i - 1] = acc
            coef = (h[0:m - 1, m - 1] * beta) % p
            if coef.any():
                corr = _dot_mod(coef, P[0:m - 1, 0:m + 1], p)
                pm[0:m + 1] = (pm[0:m + 1] - corr) % p
        P[m] = pm
    return [int(v) for v in P[n]]


# The memo of the innermost active char_poly_memo block, or None.
_MEMO: contextvars.ContextVar = contextvars.ContextVar("char_poly_memo", default=None)


@contextlib.contextmanager
def char_poly_memo():
    """Within the block, char_poly computes each distinct matrix once.

    The memo is keyed on the exact contents of the matrix (_memo_key)
    and is dropped when the block exits, normally or by an exception.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memo_key(m: IntMatrix):
    """Shape plus entries, packed as int8 bytes when every entry fits,
    else as int64 bytes, else the rows themselves."""
    try:
        a = np.array(m.rows, dtype=np.int64)
    except OverflowError:
        return m.shape, "rows", m.rows
    if a.size and (a.min() < -128 or a.max() > 127):
        return m.shape, "int64", a.tobytes()
    return m.shape, "int8", a.astype(np.int8).tobytes()


def char_poly(m: IntMatrix) -> IntPoly:
    """det(yI - m), computed exactly.

    Let R be the largest absolute row sum, so every eigenvalue lies in
    a Gershgorin disc of radius <= R.  The Hessenberg algorithm runs
    modulo the fixed word-size primes p_0 = _prime(0), p_1, ..., and CRT
    recombines the results; the prime budget comes from the rigorous
    bound |c_{n-k}| <= C(n,k) R^k.

    Where the input shows it is cheap, chi is first certified from p_0
    alone as a product of integer linear factors (_split_char_poly).
    Take the integers lam in [-R, R] that are roots of chi mod p_0, with
    their multiplicities m_lam mod p_0.  If the m_lam add up to n and
    M = prod_lam (m - lam I) is zero over Z, then chi = prod (y -
    lam)^m_lam.  Proof: M = 0 means the minimal polynomial divides
    prod (y - lam), so chi = prod (y - lam)^e_lam over Z.  The lam are
    distinct mod p_0 because p_0 > 2R, so unique factorisation in
    F_p0[y] gives e_lam = m_lam.  Every entry of M is at most
    B = prod ||m - lam I||_inf in absolute value, so M is zero once it
    vanishes modulo primes whose product exceeds 2B.

    The certificate is tried only when 2R < p_0 (so every entry fits
    int64), 2R < n^2 (so the scan of the 2R + 1 candidates costs no
    more than one Hessenberg pass), CRT needs more than one prime, and
    the check's (roots - 1) matrix products per prime, times the primes
    2B asks for, are fewer than the CRT primes left.  Otherwise, or when
    the certificate fails (a non-integral spectrum, or a defective
    integer eigenvalue), CRT goes on from the residues mod p_0 already
    computed.

    Inside a char_poly_memo block a matrix seen before is not
    recomputed.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    memo = _MEMO.get()
    if memo is None:
        return _char_poly(m)
    key = _memo_key(m)
    chi = memo.get(key)
    if chi is None:
        chi = memo[key] = _char_poly(m)
    return chi


def _primes_over(x: int) -> list[int]:
    """The fewest leading primes _prime(0), _prime(1), ... whose product
    exceeds x."""
    primes, acc = [], 1
    while acc <= x:
        primes.append(_prime(len(primes)))
        acc *= primes[-1]
    return primes


def _char_poly(m: IntMatrix) -> IntPoly:
    n = m.nrows
    if n == 0:
        return IntPoly([1])
    rows = m.rows
    R = max(sum(abs(v) for v in r) for r in rows)
    if R == 0:
        return IntPoly([0] * n + [1])
    bound = max(gen_binom(n, k) * R**k for k in range(n + 1))
    primes = _primes_over(2 * bound + 1)
    pre = np.array(rows, dtype=np.int64) if m.max_abs() < 2**31 else None
    residues = [_charpoly_mod(rows, n, primes[0], pre=pre)]
    # 2R < p_0 < 2^27 bounds every entry, so pre is set
    if len(primes) > 1 and 2 * R < min(primes[0], n * n):
        chi = _split_char_poly(pre, R, residues[0], primes[0], len(primes) - 1)
        if chi is not None:
            return chi
    residues += [_charpoly_mod(rows, n, p, pre=pre) for p in primes[1:]]
    return _crt(residues, primes)


def _crt(residues, primes) -> IntPoly:
    """The polynomial with the given coefficient residues modulo each
    prime, lifted to the symmetric range."""
    coeffs = []
    for k in range(len(residues[0])):
        x, mod = 0, 1
        for res, p in zip(residues, primes):
            t = (res[k] - x) * pow(mod, -1, p) % p
            x += mod * t
            mod *= p
        coeffs.append(x - mod if x > mod // 2 else x)
    return IntPoly(coeffs)


def _split_char_poly(a, R: int, chi: list, p: int, budget: int):
    """det(yI - a) over Z certified from its residues chi mod p, or None.

    a is an n x n int64 array whose largest absolute row sum is R, with
    2R < p; chi holds det(yI - a) mod p, ascending.  Returns
    prod (y - lam)^m_lam when the roots lam of chi mod p among the
    integers in [-R, R] have multiplicities m_lam adding up to n and
    prod (a - lam I) is zero over Z (char_poly gives the proof).
    Returns None when they do not, or when that check would take budget
    or more matrix products.
    """
    n = a.shape[0]
    cands = np.arange(-R, R + 1, dtype=np.int64)
    x = cands % p
    val = np.zeros_like(x)
    for c in reversed(chi):  # Horner at every candidate at once
        val = (val * x + c) % p
    roots, mults, rem = [], [], chi
    for lam in cands[val == 0].tolist():
        mult = 0
        while len(rem) > 1:  # synthetic division by (y - lam) mod p
            out, acc = [], 0
            for c in reversed(rem):
                acc = (acc * lam + c) % p
                out.append(acc)
            if out.pop():
                break
            rem = out[::-1]
            mult += 1
        roots.append(lam)
        mults.append(mult)
    if sum(mults) != n:
        return None
    diag = np.diagonal(a)
    off = np.abs(a).sum(axis=1) - np.abs(diag)
    B = math.prod(int((off + np.abs(diag - lam)).max()) for lam in roots)
    check = _primes_over(2 * B)
    if (len(roots) - 1) * len(check) >= budget:
        return None
    if not all(_product_vanishes_mod(a, roots, q) for q in check):
        return None
    return IntPoly.from_roots(zip(roots, mults))


def _product_vanishes_mod(a, roots, q: int) -> bool:
    """Whether prod_lam (a - lam I) over the given roots is zero mod q."""
    aq = a % q
    d = np.arange(a.shape[0])
    m = aq.copy()
    m[d, d] = (m[d, d] - roots[0]) % q
    for lam in roots[1:]:
        if not m.any():
            break
        # m (a - lam I); |lam| < 2^26, so lam * m stays below 2^53
        m = (_dot_mod(m, aq, q) - lam * m) % q
    return not m.any()


def char_poly_interpolate(m: IntMatrix) -> IntPoly:
    """det(yI - m) by exact determinants at side+1 points plus Lagrange.

    Slower than char_poly on large sides; kept as the independent
    cross-check route (the two must agree bit for bit).
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    if n == 0:
        return IntPoly([1])
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = IntMatrix([[x * (1 if i == j else 0) - m.rows[i][j] for j in range(n)]
                             for i in range(n)])
        ys.append(det_exact(shifted))
    # Newton's divided differences over Q, then expand
    coefs = [Fraction(y) for y in ys]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]  # prod (y - x_i), expanded
    for i in range(n + 1):
        for d, b in enumerate(basis):
            poly[d] += coefs[i] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for d, b in enumerate(basis):
            nxt[d + 1] += b
            nxt[d] -= b * xs[i]
        basis = nxt
    out = []
    for c in poly:
        if c.denominator != 1:
            raise ArithmeticError("interpolation produced a non-integer coefficient")
        out.append(c.numerator)
    return IntPoly(out)


def integer_roots(chi: IntPoly):
    """Eigenvalue multiset of a symmetric PSD integer matrix, read off
    its characteristic polynomial chi.

    Returns {eigenvalue: multiplicity} when every root of chi is a
    nonnegative integer, or NotIntegral carrying chi otherwise.  After
    the zero roots, candidates lam = 1, 2, ... are tried while lam is at
    most the sum of the roots left (all nonnegative for a PSD matrix),
    and only when lam divides the constant term of the monic quotient
    left, as every integer root of it does.
    """
    eigs: dict[int, int] = {}
    v = chi.valuation()
    if v:
        eigs[0] = v
    rem = IntPoly(chi.coeffs[v:])
    lam = 1
    while rem.degree > 0 and lam <= -rem.coeffs[-2]:
        if rem.coeffs[0] % lam == 0:
            q, r = rem.divide_linear(lam)
            if r == 0:
                eigs[lam] = eigs.get(lam, 0) + 1
                rem = q
                continue
        lam += 1
    if rem.degree > 0:
        return NotIntegral(chi)
    return eigs


def integer_spectrum(m: IntMatrix):
    """Eigenvalue multiset of a symmetric PSD integer matrix:
    integer_roots of its char_poly."""
    if m.nrows != m.ncols:
        raise ValueError("spectrum of a non-square matrix")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    return integer_roots(char_poly(m))


# ---------------------------------------------------------------------------
# ring-generic determinant (for polynomial matrices)


def _expansion_order(cols, n: int) -> list:
    """A permutation of range(n) from a sparsity pattern alone
    (cols[j] = set of rows with a nonzero in column j).

    Greedily take the column that leaves the fewest rows open (touched
    by a taken column, with a nonzero in a column not yet taken), ties
    to the lowest index; return that order reversed.  Expanding in the
    reversed order keeps the last layers, whose minors have the most
    terms, to few row sets: on the reduced weighted Laplacians (k = 2)
    of the 3-balls made of the four facets of the 4-cube through a
    corner and one opposite facet, it took 1.4 to 4.7 times fewer term
    products than the forward order.
    """
    row_cols = [set() for _ in range(n)]
    for j, c in enumerate(cols):
        for i in c:
            row_cols[i].add(j)
    order: list = []
    touched: set = set()
    left = set(range(n))

    def still_open(c):
        rest = left - {c}
        return sum(1 for r in touched | cols[c] if row_cols[r] & rest)

    while left:
        j = min(left, key=lambda c: (still_open(c), c))
        order.append(j)
        touched |= cols[j]
        left.remove(j)
    return order[::-1]


def det_ring(rows):
    """Determinant of a small matrix over a commutative ring.

    Division-free Laplace expansion along the columns: a forward pass
    over the nonzero entries of each column keeps the nonzero minors on
    (row set) x (columns so far), one layer at a time, and drops any row
    set that misses a row with no nonzero entry left.  Rows and columns
    are first reordered by one permutation, chosen from the sparsity
    pattern alone (_expansion_order) so that few rows are open at once;
    a symmetric permutation leaves the determinant unchanged.  Entries
    may be ints, Fractions or LaurentPoly.  Meant for the polynomial
    Laplacian minors, which stay small; as it never divides, it is also
    an independent check on the Bareiss det_exact.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n > 20:
        raise ValueError("det_ring is for small matrices only")
    if any(len(r) != n for r in rows):
        raise ValueError("non-square matrix")
    cols = [{i for i in range(n) if rows[i][j]} for j in range(n)]
    order = _expansion_order(cols, n)
    pos = {r: i for i, r in enumerate(order)}
    # row (new index) -> step after which it has no nonzero entry left
    last = [-1] * n
    for step, j in enumerate(order):
        for r in cols[j]:
            last[pos[r]] = step
    layer = {0: 1}
    closed = sum(1 << i for i in range(n) if last[i] < 0)
    for step, j in enumerate(order):
        # entry (new row index, value, value with the sign flipped)
        entries = [(pos[r], rows[r][j], -rows[r][j]) for r in cols[j]]
        nxt: dict = {}
        for mask, f in layer.items():
            for i, a, neg_a in entries:
                bit = 1 << i
                if mask & bit:
                    continue
                # sign (-1)^(rows of the minor above i + column index)
                odd = ((mask & (bit - 1)).bit_count() + step) & 1
                term = (neg_a if odd else a) * f
                key = mask | bit
                prev = nxt.get(key)
                nxt[key] = term if prev is None else prev + term
        for i, s_last in enumerate(last):
            if s_last == step:
                closed |= 1 << i
        layer = {m: v for m, v in nxt.items() if v and m & closed == closed}
        if not layer:
            break
    full = layer.get((1 << n) - 1)
    return full if full is not None else rows[0][0] * 0


def det_fraction(rows) -> Fraction:
    """Determinant over Q by ordinary Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                ai, ak = a[i], a[k]
                for j in range(k + 1, n):
                    ai[j] -= f * ak[j]
    return det


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with integer coefficients.

    Terms map exponent tuples (one slot per variable, negative allowed)
    to nonzero integer coefficients.  All operands of an arithmetic
    operation must share the same variable tuple.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        cleaned = {}
        if terms:
            width = len(self.vars)
            for exp, coef in terms.items():
                c = int(coef)
                if not c:
                    continue
                e = tuple(int(x) for x in exp)
                if len(e) != width:
                    raise ValueError("exponent arity mismatch")
                cleaned[e] = c
        self.terms = cleaned

    # -- constructors

    @classmethod
    def constant(cls, vars, c: int) -> "LaurentPoly":
        z = (0,) * len(tuple(vars))
        return cls(vars, {z: c} if c else {})

    @classmethod
    def variable(cls, vars, name: str, power: int = 1) -> "LaurentPoly":
        vs = tuple(vars)
        e = [0] * len(vs)
        e[vs.index(name)] = power
        return cls(vs, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars, powers: dict, coef: int = 1) -> "LaurentPoly":
        vs = tuple(vars)
        e = [0] * len(vs)
        for name, p in powers.items():
            e[vs.index(name)] += p
        return cls(vs, {tuple(e): coef})

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == LaurentPoly.constant(self.vars, other)
        return (isinstance(other, LaurentPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- arithmetic

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable tables")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.vars = self.vars
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.vars = self.vars
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly(self.vars)
            r = LaurentPoly.__new__(LaurentPoly)
            r.vars = self.vars
            r.terms = {e: c * other for e, c in self.terms.items()}
            return r
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict = {}
        if len(self.terms) < len(o.terms):
            a, b = self.terms, o.terms
        else:
            a, b = o.terms, self.terms
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.vars = self.vars
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = LaurentPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation / display

    def subs(self, assignment: dict):
        """Evaluate at rational values; exact Fractions throughout."""
        total = Fraction(0)
        vals = [assignment[v] for v in self.vars]
        for e, c in self.terms.items():
            term = Fraction(c)
            for v, p in zip(vals, e):
                if p:
                    fv = Fraction(v)
                    if fv == 0 and p < 0:
                        raise ZeroDivisionError("zero assigned to a variable with negative exponent")
                    term *= fv**p
            total += term
        return total

    def subs_ones(self) -> int:
        return sum(self.terms.values())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, p in zip(self.vars, e):
                if p == 1:
                    factors.append(name)
                elif p:
                    factors.append(f"{name}^{p}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exp": list(e), "coef": str(c)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LaurentPoly":
        return cls(tuple(d["vars"]),
                   {tuple(t["exp"]): int(t["coef"]) for t in d["terms"]})


def poly_eval(p: LaurentPoly, assignment: dict):
    """Evaluate a Laurent polynomial at rational values, exactly."""
    return p.subs(assignment)
