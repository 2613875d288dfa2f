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
The Hessenberg passes of many matrices of one side run stacked, at most
_STACK_ENTRIES = 2^14 entries a stack (or one larger matrix), each layer
with its own prime and pivots; the bounds above hold layer by layer,
since no operation mixes two layers.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import math
from fractions import Fraction
from types import MappingProxyType

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
    "char_polys",
    "char_poly_interpolate",
    "char_poly_memo",
    "integer_roots",
    "integer_spectrum",
    "ring_laplacian",
    "ring_matmul",
    "ring_transpose",
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


_INT_ONLY = frozenset((int,))


def _int_row(row) -> tuple:
    """A row as a tuple of Python ints.  A row of ints is kept as it is:
    scanning the entry types costs half of calling int() on each."""
    t = tuple(row)
    return t if _INT_ONLY.issuperset(map(type, t)) else tuple(map(int, t))


class IntMatrix:
    """Immutable dense integer matrix.

    Entries are plain Python ints, so nothing ever overflows.  Zero-row
    and zero-column shapes are allowed (pass ncols for an empty row
    list).
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rs = tuple(map(_int_row, rows))
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

    # -- constructors

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

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
        return IntMatrix(t, ncols=self.nrows)

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
            return IntMatrix(c.tolist())
        bt = other.transpose().rows
        out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in self.rows]
        return IntMatrix(out, ncols=m)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                         ncols=self.ncols)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return IntMatrix(rows, ncols=len(col_idx))

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

# A stacked Hessenberg pass holds at most this many matrix entries, or
# one matrix when a single one is larger: enough small matrices to share
# numpy's per-call cost, few enough that the stack stays in cache.
_STACK_ENTRIES = 2**14


def _dot_mod(a, b, p, acc=0):
    """(acc + a @ b) % p for int64 arrays of residues below 2^27, exact at
    any inner length: the inner axis (the last of a; the only one of a
    1-D b, else its second to last) is summed in blocks of at most
    _DOT_BLOCK terms, reduced between blocks.  p is a prime, or an array
    of primes, one per layer of a stack, that broadcasts against the
    product; so does acc."""
    k = a.shape[-1]
    if k <= _DOT_BLOCK:
        return (acc + a @ b) % p

    def block(s):
        cut = slice(s, s + _DOT_BLOCK)
        return a[..., cut] @ (b[cut] if b.ndim == 1 else b[..., cut, :])

    for s in range(0, k, _DOT_BLOCK):
        acc = (acc + block(s)) % p
    return acc


def _charpoly_stack(h, p):
    """det(yI - h[b]) mod p[b] for each layer b of a stack, by the
    Hessenberg method; a (B, n + 1) int64 array of ascending coefficients.

    h is a (B, n, n) int64 array whose layer b holds residues mod the
    prime p[b] < 2^27, and is overwritten; p is a (B,) int64 array.
    Every layer takes its own pivots and is reduced mod its own prime,
    so the int64 bounds of _dot_mod hold layer by layer.
    """
    B, n = h.shape[0], h.shape[1]
    primes = p.tolist()
    if len(set(primes)) == 1:
        p1 = p2 = p[:1].reshape(())  # a 0-d array: numpy's cheapest operand
    else:
        p1, p2 = p[:, None], p[:, None, None]
    # similarity reduction to upper Hessenberg form
    for k in range(n - 2):
        piv = h[:, k + 1, k].tolist()
        if 0 in piv:
            # the first nonzero below the diagonal moves up to row k + 1;
            # a layer without one keeps f = 0 and is left unchanged
            r = (h[:, k + 1:, k] != 0).argmax(axis=1)
            swap = np.flatnonzero(r)
            if swap.size:
                pair = np.stack((np.full(swap.size, k + 1), r[swap] + (k + 1)), axis=1)
                layer, back = swap[:, None], pair[:, ::-1]
                h[layer, pair] = h[layer, back]
                h[layer, :, pair] = h[layer, :, back]
                piv = h[:, k + 1, k].tolist()
            if not any(piv):
                continue
        inv = np.array([pow(x, -1, q) if x else 0 for x, q in zip(piv, primes)],
                       dtype=np.int64)
        f = (h[:, k + 2:, k] * inv[:, None]) % p1
        if not np.count_nonzero(f):  # cheaper than f.any() on small arrays
            continue
        rows = h[:, k + 2:, k:]
        rows -= f[:, :, None] * h[:, k + 1, None, k:]
        rows %= p2
        h[:, :, k + 1] = _dot_mod(h[:, :, k + 2:], f[:, :, None], p2,
                                  acc=h[:, :, k + 1, None])[..., 0]
    # p_m(y) = y p_{m-1}(y) + sum_{i<m} h[i,m-1] w_m[i] p_i(y), where
    # w_m[i] = -prod_{i<j<m} h[j,j-1] mod p (so the i = m - 1 term is
    # -h[m-1,m-1] p_{m-1}): w_m is w_{m-1} times h[m-1,m-2], then -1
    P = np.zeros((B, n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    w = np.full((B, n), -1, dtype=np.int64)
    for m in range(1, n + 1):
        if m >= 2:
            s = w[:, :m - 1]
            s *= h[:, m - 1, m - 2, None]
            s %= p1
        coef = (h[:, :m, m - 1] * w[:, :m]) % p1
        pm = P[:, m, :m + 1]
        pm[:, 1:] = P[:, m - 1, :m]
        if np.count_nonzero(coef):
            pm[:] = _dot_mod(coef[:, None, :], P[:, :m, :m + 1], p2, acc=pm[:, None])[:, 0]
    return P[:, n]


def _residues(rows, n: int, p: int, pre=None):
    """An n x n integer matrix mod p as an int64 array, from its int64
    entries pre, or from its rows when pre is None."""
    if pre is not None:
        return pre % p
    return np.array([[e % p for e in r] for r in rows], dtype=np.int64).reshape(n, n)


def _charpoly_mod(rows, n: int, p: int, pre=None) -> list[int]:
    """char poly of an n x n integer matrix mod p: one layer of
    _charpoly_stack."""
    h = _residues(rows, n, p, pre)[None]
    return _charpoly_stack(h, np.array([p], dtype=np.int64))[0].tolist()


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
    else as int64 bytes, else the rows themselves.  The packing is the
    one int64 conversion of the entries; _unpacked reads them back."""
    try:
        a = np.array(m.rows, dtype=np.int64)
    except OverflowError:
        return m.shape, "rows", m.rows
    if a.size and (a.min() < -128 or a.max() > 127):
        return m.shape, "int64", a.tobytes()
    return m.shape, "int8", a.astype(np.int8).tobytes()


def _unpacked(key):
    """The entries packed in a memo key as an n x n int64 array, or None
    for a key that holds the rows."""
    (n, _), kind, data = key
    if kind == "rows":
        return None
    return np.frombuffer(data, dtype=np.int8 if kind == "int8" else np.int64
                         ).astype(np.int64).reshape(n, n)


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

    char_polys computes many char polys at once: matrices of one side
    share stacked Hessenberg passes (_charpoly_stack), at most
    _STACK_ENTRIES = 2^14 entries each, every layer with its own prime
    and its own pivots, so the int64 bounds above hold in each layer.
    char_poly(m) is char_polys([m])[0], a stack of one.

    Inside a char_poly_memo block a matrix seen before is not
    recomputed.
    """
    return char_polys([m])[0]


def char_polys(ms) -> list[IntPoly]:
    """[char_poly(m) for m in ms], computed together.

    Equal matrices are computed once, and inside a char_poly_memo block
    so is every matrix seen before.  The rest go through the p_0 passes,
    the one-prime certificate and CRT (see char_poly) as one batch: each
    stage runs stacked passes over the matrices of one side.  A
    non-square input raises ValueError before any work is done.
    """
    ms = list(ms)
    if any(m.nrows != m.ncols for m in ms):
        raise ValueError("characteristic polynomial of a non-square matrix")
    memo = _MEMO.get()
    known = {} if memo is None else memo
    keys = [_memo_key(m) for m in ms]
    todo = {}
    for key, m in zip(keys, ms):
        if key not in known:
            todo.setdefault(key, m)
    known.update(zip(todo, _char_polys(list(todo.items()))))
    return [known[key] for key in keys]


def _primes_over(x: int) -> list[int]:
    """The fewest leading primes _prime(0), _prime(1), ... whose product
    exceeds x."""
    primes, acc = [], 1
    while acc <= x:
        primes.append(_prime(len(primes)))
        acc *= primes[-1]
    return primes


class _Job:
    """A matrix in char_polys: its side, rows, int64 entries (None
    unless every entry is below 2^31 in absolute value), largest
    absolute row sum R and the CRT primes its coefficient bound asks
    for."""

    __slots__ = ("n", "rows", "pre", "R", "primes")

    def __init__(self, m: IntMatrix, a):
        self.n = n = m.nrows
        self.rows = m.rows
        if a is not None and -2**31 < a.min() and a.max() < 2**31:
            self.pre = a
            self.R = int(np.abs(a).sum(axis=1).max())
        else:
            self.pre = None
            self.R = max(sum(map(abs, r)) for r in m.rows)
        bound = max(gen_binom(n, k) * self.R**k for k in range(n + 1))
        self.primes = _primes_over(2 * bound + 1)


def _char_polys(items) -> list[IntPoly]:
    """char polys of the matrices of (memo key, matrix) pairs with
    distinct keys."""
    out = [None] * len(items)
    jobs = []
    for idx, (key, m) in enumerate(items):
        if m.nrows == 0:
            out[idx] = IntPoly([1])
            continue
        job = _Job(m, _unpacked(key))
        if job.R == 0:
            out[idx] = IntPoly([0] * job.n + [1])
        else:
            jobs.append((idx, job))
    p0 = _prime(0)
    first = _passes([(job, p0) for _, job in jobs])
    crt = []
    for (idx, job), chi in zip(jobs, first):
        # 2R < p_0 < 2^27 bounds every entry, so job.pre is set
        if len(job.primes) > 1 and 2 * job.R < min(p0, job.n ** 2):
            out[idx] = _split_char_poly(job.pre, job.R, chi, p0, len(job.primes) - 1)
        if out[idx] is None:
            crt.append((idx, job, chi))
    rest = iter(_passes([(job, p) for _, job, _ in crt for p in job.primes[1:]]))
    for idx, job, chi in crt:
        out[idx] = _crt([chi] + [next(rest) for _ in job.primes[1:]], job.primes)
    return out


def _passes(pairs) -> list:
    """det(yI - m) mod p, ascending, for each (job, p) pair, in order.
    The pairs of one side run together, in stacked passes of at most
    _STACK_ENTRIES entries or of one matrix."""
    out = [None] * len(pairs)
    sides: dict = {}
    for idx, (job, _) in enumerate(pairs):
        sides.setdefault(job.n, []).append(idx)
    for n, idxs in sides.items():
        step = max(1, _STACK_ENTRIES // (n * n))
        for s in range(0, len(idxs), step):
            part = idxs[s:s + step]
            chunk = [pairs[i] for i in part]
            h = np.stack([_residues(job.rows, n, p, job.pre) for job, p in chunk])
            primes = np.array([p for _, p in chunk], dtype=np.int64)
            for i, chi in zip(part, _charpoly_stack(h, primes).tolist()):
                out[i] = chi
    return out


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


def ring_transpose(rows) -> list:
    """Transpose of a matrix given as a list of rows, over any ring."""
    return [list(col) for col in zip(*rows)]


def ring_matmul(a, b) -> list:
    """Product of two matrices over a commutative ring, each a list of
    rows of ints, Fractions or LaurentPoly.  Zero entries, tested by
    truthiness, are skipped; an empty sum is the zero of a's ring."""
    ncols = len(b[0]) if b else 0
    out = []
    for ar in a:
        zero = ar[0] * 0 if ar else 0
        nz = [(v, b[k]) for k, v in enumerate(ar) if v]
        row = []
        for c in range(ncols):
            acc = zero
            for v, br in nz:
                if br[c]:
                    acc = acc + v * br[c]
            row.append(acc)
        out.append(row)
    return out


def ring_laplacian(n: int, zero, up, down) -> list:
    """up*up^T + down^T*down over a ring, on n cells: `up` is the
    boundary into them (n rows), `down` the boundary out of them (n
    columns), either None when it is zero.  Every entry is a sum
    starting from `zero`, the zero of the ring."""
    out = [[zero] * n for _ in range(n)]
    parts = []
    if up is not None:
        parts.append(ring_matmul(up, ring_transpose(up)))
    if down is not None:
        parts.append(ring_matmul(ring_transpose(down), down))
    for p in parts:
        out = [[x + y for x, y in zip(ro, rp)] for ro, rp in zip(out, p)]
    return out


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

# Bits per exponent slot of a packed monomial; exponents must stay
# below _HALF = 2^(_W - 1) in absolute value.
_W = 32
_HALF = 1 << (_W - 1)
_MASK = (1 << _W) - 1


def _pack(exps) -> int:
    """The exponent vector e as one int, sum of e_i * 2^(_W * i)."""
    return sum(x << (_W * i) for i, x in enumerate(exps))


def _unpack(v: int, width: int) -> tuple:
    """Inverse of _pack for `width` slots, each below _HALF in absolute
    value: the low _W bits of v are e_0 mod 2^_W, read as a signed
    slot, and (v - e_0) >> _W packs the rest."""
    out = []
    for _ in range(width):
        d = v & _MASK
        if d >= _HALF:
            d -= 1 << _W
        out.append(d)
        v = (v - d) >> _W
    return tuple(out)


def _checked(bound: int) -> int:
    """The exponent bound itself, once it is known to be below _HALF."""
    if bound >= _HALF:
        raise OverflowError(f"Laurent exponent bound {bound} reaches 2^{_W - 1}")
    return bound


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with integer coefficients.

    Each monomial is stored as one int: the exponent vector e (one slot
    per variable, negative allowed) packed as sum of e_i * 2^(W i), with
    W = _W = 32 and signed slots.  Multiplying two monomials is then
    one integer addition, and the term dict hashes ints.  Every
    polynomial carries a bound on max |e_i| over its terms: the
    constructor sets it, + and - take the max, * and ** add.  An
    operation whose bound would reach 2^(W-1) raises OverflowError, so
    every slot stays in (-2^(W-1), 2^(W-1)), where this signed-digit
    packing is injective and the sum of two packed monomials is the
    packed sum of their exponents: a product never aliases silently.
    The command line stays far below the bound: its largest exponents
    are q-degrees of colorful spectrum series, below the face cap 3^10;
    weighted cube determinants (side at most 20, entries of bound at
    most 2) stay at most 40, and the conjecture's products (n at most
    6) at most 175.

    `terms` is a read-only view {exponent tuple: coefficient}, decoded
    from the packed keys on each access.  All operands of an arithmetic
    operation must share the same variable tuple.
    """

    __slots__ = ("vars", "_packed", "_bound")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        packed = {}
        bound = 0
        if terms:
            width = len(self.vars)
            for exp, coef in terms.items():
                c = int(coef)
                if not c:
                    continue
                e = tuple(int(x) for x in exp)
                if len(e) != width:
                    raise ValueError("exponent arity mismatch")
                if e:
                    bound = max(bound, max(map(abs, e)))
                packed[_pack(e)] = c
        self._bound = _checked(bound)
        self._packed = packed

    @classmethod
    def _make(cls, vars, packed: dict, bound: int) -> "LaurentPoly":
        r = cls.__new__(cls)
        r.vars = vars
        r._packed = packed
        r._bound = bound
        return r

    # -- constructors

    @classmethod
    def constant(cls, vars, c: int) -> "LaurentPoly":
        c = int(c)
        return cls._make(tuple(vars), {0: c} if c else {}, 0)

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

    @classmethod
    def linear_combination(cls, vars, pairs) -> "LaurentPoly":
        """Sum of c * p over the (p, c) pairs, p a LaurentPoly over
        `vars` and c an int, accumulated in one term dict."""
        vs = tuple(vars)
        out: dict = {}
        get = out.get
        bound = 0
        for p, c in pairs:
            if p.vars != vs:
                raise ValueError("mixed variable tables")
            bound = max(bound, p._bound)
            for e, v in p._packed.items():
                out[e] = get(e, 0) + v * c
        return cls._make(vs, {e: v for e, v in out.items() if v}, bound)

    # -- structure

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient}, decoded from the
        packed monomials."""
        width = len(self.vars)
        return MappingProxyType({_unpack(e, width): c for e, c in self._packed.items()})

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == LaurentPoly.constant(self.vars, other)
        return (isinstance(other, LaurentPoly) and self.vars == other.vars
                and self._packed == other._packed)

    def __hash__(self):
        return hash((self.vars, frozenset(self._packed.items())))

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
        a, b = self._packed, o._packed
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly._make(self.vars, out, max(self._bound, o._bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.vars, {e: -c for e, c in self._packed.items()},
                                 self._bound)

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
            return LaurentPoly._make(self.vars, {e: c * other for e, c in self._packed.items()},
                                     self._bound)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        bound = _checked(self._bound + o._bound)
        if len(self._packed) < len(o._packed):
            a, b = self._packed, o._packed
        else:
            a, b = o._packed, self._packed
        if not a:
            return LaurentPoly(self.vars)
        # the first monomial of a shifts b injectively: no collisions
        it = iter(a.items())
        e1, c1 = next(it)
        out = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        if len(a) == 1:
            return LaurentPoly._make(self.vars, out, bound)
        get = out.get
        for e1, c1 in it:
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._make(self.vars, {e: v for e, v in out.items() if v}, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        _checked(self._bound * k)
        result = LaurentPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def divide_exact(self, d: int) -> "LaurentPoly":
        """self / d for a nonzero int d dividing every coefficient;
        ArithmeticError if one is not divisible."""
        out = {}
        for e, c in self._packed.items():
            q, r = divmod(c, d)
            if r:
                raise ArithmeticError(f"{d} does not divide the coefficient {c}")
            out[e] = q
        return LaurentPoly._make(self.vars, out, self._bound)

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
        return sum(self._packed.values())

    def __str__(self):
        if not self._packed:
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
