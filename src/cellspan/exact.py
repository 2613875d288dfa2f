"""Exact integer and polynomial linear algebra kernels.

Everything in this module is exact: arbitrary-precision integers,
rationals, integer polynomials and Laurent polynomials.  No floating
point enters any computation.

There is one integer matrix type, SparseMatrix: one {row: value} dict
of Python ints per column.  Chain complexes keep their boundaries and
Laplacians this way; ranks, Smith forms and char polys read it
directly.  The dense routines (det_exact, _smith_dense, and the oracles
det_fraction and det_ring) take a plain list of rows.  det_exact is
multimodular: it lifts det by CRT from its residues mod the fewest
leading primes whose product exceeds twice the Hadamard bound
prod_i ||row_i||_2 (see dets_exact).

Ranks and Smith forms start with a sparse elimination of +-1 pivots,
sparsest column first (_eliminate_units), each pivot one invariant
factor 1.  _smith_dense finishes the rows left: the Bareiss echelon
(_Echelon, which also chooses the trees' U and scans their candidates)
gives their rank r and a nonzero r x r minor D, and one diagonalising
pass mod D their factors.  The matrix keeps its factors (_factors), so
rank_exact, their number, and smith_normal_form reduce it once between
them.  The tests check the factors against determinantal divisors.

numpy is used only for word-size modular arithmetic: the eliminations
mod p of det_exact (_det_stack), and inside the char poly kernel (see
char_poly) the products by a large sparse matrix that give its
candidate g, the Hessenberg passes mod p that give its candidate chi,
the candidate-root scans, and the one certificate's products, which
prove an integral char poly from either candidate.  One driver
(_passes) runs the eliminations and the Hessenberg passes on stacks of
_Jobs.  A job keeps one array of its nonzero entries, int64 or, from
2^31, Python ints; each layer of a stack holds its residues mod the
layer's prime, the only place where a matrix becomes an n x n int64
array.  The memo keys on the sparse entries, and every product
reads the nonzeros in ELL form (_ell: the nonzeros of each row as
index and value arrays).  The int64 intermediates are exact at every
side.  Residues are below 2^27, so each product is below 2^54, and
every sum of products adds at most _DOT_BLOCK = 511 of them before it
is reduced mod p, which stays below 2^63: the dense dot products
(_dot_mod) cut their inner axis into blocks of 511, the products by a
stack in ELL form (_ell_mul) reduce after at most 511 terms, and an
elimination reduces its trailing block before its 512th rank-1 update.
_stacks alone groups layers by side: at most _STACK_ENTRIES = 2^14
entries a stack for the Hessenberg passes and the certificate
products, _DET_ENTRIES = 2^20 for the eliminations.  Each layer has
its own prime, pivots and roots; the bounds hold layer by layer, since
no operation mixes two layers.  The certificate products run on column
blocks of the identity of about _BLOCK_ENTRIES = 2^16 entries, so a
matrix certified from g is never an n x n array.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import math
import random
from fractions import Fraction
from types import MappingProxyType

import numpy as np

__all__ = [
    "gen_binom",
    "IntPoly",
    "NotIntegral",
    "LaurentPoly",
    "det_exact",
    "dets_exact",
    "det_fraction",
    "det_ring",
    "rank_exact",
    "smith_normal_form",
    "SparseMatrix",
    "sparse_transpose",
    "char_poly",
    "char_polys",
    "char_poly_interpolate",
    "char_poly_memo",
    "integer_spectrum",
    "nonzero_root_product",
    "outer_sum",
    "gram_sum",
    "scaled_char_polys",
    "ring_matmul",
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


def _int_entry(v) -> int:
    """int(v), refusing a non-string entry that int() would change, such
    as 1.5 or Fraction(1, 2); a decimal string reads as int() reads it."""
    x = int(v)
    if x != v and not isinstance(v, str):
        raise ValueError(f"entry {v} is not an integer")
    return x


def _int_row(row):
    """row if its truthy entries are Python ints and the rest equal 0
    (list.count compares by equality, so 0.0 and False count as zeros),
    else its entries converted by _int_entry: a bad entry raises as
    int() does, a non-integral one ValueError."""
    if type(row) is list or type(row) is tuple:
        vals = list(filter(None, row))
        if _INT_ONLY.issuperset(map(type, vals)) and row.count(0) + len(vals) == len(row):
            return row
    return [_int_entry(v) for v in row]


def _int_columns(rows, ncols: int | None = None) -> list:
    """The {row: value} columns of dense rows whose nonzeros are ints."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError("ragged rows")
    w = widths.pop() if widths else 0 if ncols is None else int(ncols)
    if ncols is not None and ncols != w:
        raise ValueError("ncols disagrees with row width")
    cols = [{} for _ in range(w)]
    for i, row in enumerate(rows):
        for j in itertools.compress(range(w), row):
            cols[j][i] = row[j]
    return cols


class SparseMatrix:
    """Immutable integer matrix stored as sparse columns: `cols` holds
    one {row: value} dict of Python ints per column, with no zero
    values, and `nrows` the row count.  Callers must not mutate the
    dicts; the complexes share them between boundaries.

    It is the one integer matrix type of the package: boundaries of
    chain complexes and their Laplacians are stored this way, and
    rank_exact, smith_normal_form and char_poly take it.  from_rows
    builds one from dense rows and rows() gives them back; det_exact
    and the Smith form of the dense rest take plain lists of rows.
    `_reduced` keeps the invariant factors that rank_exact and
    smith_normal_form both read (_factors), None until first used.
    """

    __slots__ = ("cols", "nrows", "ncols", "_reduced")

    def __init__(self, cols, nrows: int):
        self.cols = cols
        self.nrows = nrows
        self.ncols = len(cols)
        self._reduced = None

    @classmethod
    def from_rows(cls, rows, ncols: int | None = None) -> "SparseMatrix":
        """The matrix of the given rows, every entry converted to a
        Python int, so that numpy and bool entries neither overflow nor
        stay what they were in later products.  ValueError for ragged
        rows or a width other than ncols; an empty row list has width
        ncols, or 0 when ncols is None."""
        rows = [_int_row(row) for row in rows]
        return cls(_int_columns(rows, ncols), len(rows))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> int:
        return self.cols[j].get(i, 0)

    def trace(self) -> int:
        return sum(col.get(j, 0) for j, col in enumerate(self.cols))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        cols = []
        for a, b in zip(self.cols, other.cols):
            c = dict(a)
            for r, v in b.items():
                c[r] = c.get(r, 0) + v
            cols.append({r: v for r, v in c.items() if v})
        return SparseMatrix(cols, self.nrows)

    def rows(self) -> tuple:
        """The dense rows, as a tuple of int tuples."""
        idx = range(self.ncols)
        return tuple(tuple(r.get(j, 0) for j in idx)
                     for r in sparse_transpose(self.cols, self.nrows))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(sparse_transpose(self.cols, self.nrows), self.ncols)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.shape == other.shape
                and self.cols == other.cols)

    def __hash__(self):
        return hash(_memo_key(self))

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols})"


def _eliminate_units(m: SparseMatrix):
    """(units, rest): m reduced by unit pivots, sparsest column first.

    On the sparse rows and columns of m, repeatedly take the column with
    fewest nonzeros that holds a +-1 entry, and in it the unit whose row
    has fewest; clear its column by adding integer multiples of its row
    to the others, then drop its row and column.  The heap holds columns
    with their counts when pushed: a stale count is skipped, a column
    with no unit dropped; a pivot changes only the columns of its row
    and pushes them back, so no unit made by fill-in is missed.  units
    counts the pivots; rest is the list of dense rows of the matrix left
    on the rows and columns that still hold a nonzero.

    Each step is a unimodular row operation; the pivot row, alone in
    its column, is then cleared by column operations that change nothing
    else.  So m is equivalent over Z to diag(+-1, ..., +-1) plus rest as
    a block sum, and every entry stays an integer, because the
    multiplier of each row operation is an entry times the pivot.
    """
    cols = [dict(c) for c in m.cols]
    rows = sparse_transpose(cols, m.nrows)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    units = 0
    while heap:
        n, c = pop(heap)
        col = cols[c]
        if len(col) != n:
            continue
        r = min((i for i, a in col.items() if a == 1 or a == -1),
                key=lambda i: len(rows[i]), default=None)
        if r is None:
            continue
        row = rows[r]
        p = row.pop(c)
        del col[r]
        units += 1
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
                else:
                    del ri[j], cj[i]
        for j in row:
            del cols[j][r]
            if cols[j]:
                push(heap, (len(cols[j]), j))
        row.clear()
        col.clear()
    live = [i for i, row in enumerate(rows) if row]
    keep = sorted({j for i in live for j in rows[i]})
    return units, [[rows[i].get(j, 0) for j in keep] for i in live]


def _factors(m: SparseMatrix) -> tuple[int, ...]:
    """The invariant factors of m, computed on first use and kept by m,
    so rank_exact and smith_normal_form reduce each matrix once, in
    either order and for every complex that shares it: one 1 per unit
    pivot of _eliminate_units, which turns m by unimodular steps into
    diag(+-1, ..., +-1) plus a rest as a block sum, then the factors of
    the rest (_smith_dense); () at once for a matrix with no nonzero."""
    if m._reduced is None:
        units, rest = _eliminate_units(m) if any(m.cols) else (0, [])
        m._reduced = (1,) * units + _smith_dense(rest)
    return m._reduced


def rank_exact(m: SparseMatrix) -> int:
    """Rank over Q of a SparseMatrix: the number of its invariant
    factors (_factors)."""
    return len(_factors(m))


def smith_normal_form(m: SparseMatrix) -> tuple[int, ...]:
    """Positive invariant factors d_1 | d_2 | ... of a SparseMatrix
    (_factors).  Cubical and simplicial boundaries, with +-1 entries and
    few nonzeros per column, leave a small rest after the unit pivots."""
    return _factors(m)


class _Echelon:
    """Fraction-free (Bareiss) echelon form of sparse integer vectors
    ({position: value}) added one at a time and removed in stack order.

    Stored row k has zeros at the pivot positions of rows 0..k-1, and
    each of its entries is, up to sign, a (k+1)-minor of the first k+1
    vectors (Sylvester's identity), so every division below is exact.
    Rows are stored with a positive pivot, which changes only signs.
    """

    def __init__(self):
        self.rows: list = []
        self.pivots: list = []

    def reduce(self, v: dict) -> dict:
        """v reduced by every stored row: an empty dict iff v lies in
        their span.  After d stored rows each entry is, up to sign, the
        (d+1)-minor of the stored vectors and v over the pivot positions
        plus the entry's own; on d+1 vectors of length d+1 the single
        entry left is the determinant up to sign."""
        # Bareiss skips a step whose pivot position v misses by scaling
        # v by p_k / p_(k-1); a run of skipped steps telescopes, so v is
        # kept unscaled and `div` is the pivot of the step before its
        # stage.
        div = 1
        rows = self.rows
        for k, c in enumerate(self.pivots):
            x = v.get(c)
            if not x:
                continue
            rk = rows[k]
            p = rk[c]
            w = dict(v) if p == 1 else {j: p * a for j, a in v.items()}
            for j, a in rk.items():
                y = w.get(j, 0) - x * a
                if y:
                    w[j] = y
                else:
                    del w[j]
            v = w if div == 1 else {j: a // div for j, a in w.items()}
            div = p
        last = self.det()
        if last != div:
            v = {j: a * last // div for j, a in v.items()}
        return v

    def det(self) -> int:
        """The last stored pivot: |det| of the stored vectors over their
        pivot positions (1 when none is stored)."""
        return self.rows[-1][self.pivots[-1]] if self.rows else 1

    def push(self, v: dict) -> None:
        """Store a nonzero vector returned by reduce."""
        c = min(v)
        if v[c] < 0:
            v = {j: -a for j, a in v.items()}
        self.rows.append(v)
        self.pivots.append(c)

    def pop(self) -> None:
        self.rows.pop()
        self.pivots.pop()


def _pivot_columns(b) -> tuple:
    """(picked, D): picked the indices of the lexicographically first
    basis of the column space of a SparseMatrix, from one incremental
    elimination in column order that keeps each column independent of
    those before it, and D > 0 the |det| of the r x r minor of b on the
    picked columns and the echelon's pivot rows (_Echelon.det; 1 when
    r = 0)."""
    ech = _Echelon()
    picked: list = []
    for j, col in enumerate(b.cols):
        v = ech.reduce(col)
        if v:
            ech.push(v)
            picked.append(j)
    return picked, ech.det()


def _smith_dense(rows) -> tuple[int, ...]:
    """Positive invariant factors d_1 | d_2 | ... of a list of integer
    rows: smith_normal_form's solver for the rest after unit pivots.

    Bound: the echelon (_pivot_columns) gives the rank r and D, the |det|
    of an r x r minor, which d_1 ... d_r (the gcd of the r x r minors)
    divides.  The pass runs on residues mod D in [-D/2, D/2], so no entry
    outgrows D, whose bits are at most the Hadamard bound of that minor,
    and on an m x n rest it takes O(min(m, n) max(m, n)^2 log D) steps.
    Unimodular steps mod D give the Smith form over Z/DZ,
    diag(gcd(d_i, D)), which is diag(d_i) for i <= r.

    The pass moves a smallest nonzero entry p of the trailing block (the
    first in row-major order) to (t, t), then subtracts from the first
    row below with a nonzero in column t the multiple of row t by the
    nearest integer to its quotient by p, and swaps the two rows if the
    remainder is nonzero: each remainder is at most |p|/2, so each swap
    at least halves |p|.  Once column t is clear, a nonzero left in row
    t is cleared the same way on the transpose.  Each pivot gives
    gcd(p, D), and D each pivot short of r when the block runs out.
    Then diag(a, b) ~ diag(gcd, lcm) over every pair i < j in turn makes
    the diagonal the divisibility chain, whose first r are the factors:
    more than r pivots can be nonzero mod D, but the chain moves the
    excess into entries equal to D, as diag(2, 3) ~ diag(1, 6) mod 6.
    """
    picked, d = _pivot_columns(SparseMatrix.from_rows(rows))
    h = d // 2
    a = [[(v + h) % d - h for v in row] for row in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    diag = []
    for t in range(min(nr, nc)):
        block = [(abs(v), i, j) for i in range(t, nr) for j, v in enumerate(a[i][t:], t) if v]
        if not block:
            break
        _, i0, j0 = min(block)
        a[t], a[i0] = a[i0], a[t]
        for row in a[t:]:
            row[t], row[j0] = row[j0], row[t]
        while True:
            i = next((i for i in range(t + 1, nr) if a[i][t]), None)
            if i is not None:
                at, ai = a[t], a[i]
                q = (2 * ai[t] + at[t]) // (2 * at[t])
                for j in range(t, nc):
                    ai[j] = (ai[j] - q * at[j] + h) % d - h
                if ai[t]:
                    a[t], a[i] = ai, at
            elif any(a[t][t + 1:]):
                a = [list(c) for c in zip(*a)]
                nr, nc = nc, nr
            else:
                break
        diag.append(math.gcd(a[t][t], d))
    diag += [d] * (len(picked) - len(diag))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(diag[:len(picked)])


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
            for _ in range(mult):  # times (y - root)
                out = [a - root * b for a, b in zip([0] + out, out + [0])]
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

# An ELL product (_ell_mul) gathers about this many int64 entries at a
# time, or one n x n array when that is larger, so that its temporaries
# stay a few such arrays.
_GATHER_ENTRIES = 2**16

# A stacked Hessenberg pass holds at most this many matrix entries, or
# one matrix when a single one is larger: enough small matrices to share
# numpy's per-call cost, few enough that the stack stays in cache.
_STACK_ENTRIES = 2**14

# The certificate products (_products_vanish) run on column blocks of the
# identity of about this many entries, or one column a layer when that is
# larger, so that a large matrix needs no n x n array.
_BLOCK_ENTRIES = 2**16


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


def _memo_key(s: SparseMatrix):
    """Shape plus the nonzero entries of a SparseMatrix, column by
    column with rows ascending: exact, and equal for equal matrices.
    Packed small, since a verify suite keeps hundreds of keys: the
    positions as int32 bytes (int64 from 2^31 entries), the values as
    int8 bytes when all fit, else int64 bytes, else a tuple of the
    ints."""
    pos, val = [], []
    for j, col in enumerate(s.cols):
        for r in sorted(col):
            pos.append(j * s.nrows + r)
            val.append(col[r])
    lo, hi = min(val, default=0), max(val, default=0)
    if -2**7 <= lo and hi < 2**7:
        val = np.array(val, dtype=np.int8).tobytes()
    elif -2**63 <= lo and hi < 2**63:
        val = np.array(val, dtype=np.int64).tobytes()
    else:
        val = tuple(val)
    wide = s.nrows * s.ncols >= 2**31
    return s.shape, np.array(pos, dtype=np.int64 if wide else np.int32).tobytes(), val


def char_poly(m: SparseMatrix) -> IntPoly:
    """det(yI - m), computed exactly, for a square SparseMatrix.

    Let R be the largest absolute row sum, so every eigenvalue lies in
    a Gershgorin disc of radius <= R, and p_0 = _prime(0).  One
    certificate proves an integral char poly (_certify); it takes its
    candidate roots from one of two sources.

    The certificate.  Take the integers lam in [-R, R] that are roots
    of a candidate polynomial mod p_0, and check that P = prod_lam
    (m - lam I) is zero over Z.  Then the minimal polynomial of m
    divides prod (y - lam): m is diagonalisable over Q, each lam an
    eigenvalue of some multiplicity m_lam >= 0.  So for P_k = prod_{t<k}
    (m - lam_t I), tr P_k = sum_{s>=k} m_s prod_{t<k} (lam_s - lam_t): a
    triangular system in the m_s, whose diagonal p_0 > 2R keeps nonzero
    mod p_0.  Back-substitution mod p_0 solves it, and p_0 > n pins each
    m_s in [0, n], so the solution is the one over Z.  Roots of
    multiplicity 0 are dropped.  Every entry of P is at most B =
    prod ||m - lam I||_inf in absolute value, so P is zero once it
    vanishes modulo check primes whose product exceeds 2B; the traces
    come from the same products (_products_vanish).  The factors
    multiply column blocks of the identity, m in ELL form (_ell_mul):
    n nnz(m) multiply-adds a factor, against n^3 densely.  The proof
    holds whatever the candidate; the candidate decides only whether it
    succeeds.

    The rule counts work.  The certificate is tried when 2R < p_0
    (every entry fits int64), n < p_0, 2R < n^2 (the scan of 2R + 1
    candidates costs no more than a Hessenberg pass) and CRT needs more
    than one prime; its products run when (roots - 1) |check primes|
    n nnz(m) < (CRT primes - 1) n^3 (_worth_certifying).

    The candidates.  When n^2 > _STACK_ENTRIES (n > 128) and 2R + 1 < n,
    one fixed rule, the first is the least generator g of s_j = u^T m^j
    v mod p_0 for j < 2 min(n, 2R + 1), u and v from a generator with a
    fixed seed, by Berlekamp-Massey (Wiedemann, IEEE Trans. IT, 1986).
    It needs only products by m and never holds an n x n array
    (_generator).  The seed decides only whether the proof succeeds,
    never the answer.  Otherwise, or when that fails, the candidate is
    chi mod p_0 from the Hessenberg algorithm.

    Last, CRT goes on from the residues mod p_0 over the further primes
    p_1, p_2, ... that the rigorous bound |c_{n-k}| <= C(n,k) R^k asks
    for.  It covers non-integral spectra and defective integer
    eigenvalues.  A certified result (a _Split) keeps its {lam: m_lam},
    so integer_spectrum reads the spectrum off it.

    char_polys runs the Hessenberg passes and the certificate products
    of many matrices stacked (see the module docstring); char_poly(m) is
    char_polys([m])[0], a stack of one.

    Inside a char_poly_memo block a matrix seen before is not
    recomputed.
    """
    return char_polys([m])[0]


def char_polys(ms) -> list[IntPoly]:
    """[char_poly(m) for m in ms], computed together.

    Equal matrices are computed once, and inside a char_poly_memo block
    so is every matrix seen before.  The rest go through the stages of
    char_poly as one batch: the certificate from g where the rule sends
    a matrix, then the p_0 passes, the certificate from chi and CRT for
    those left.  Each stage runs stacked passes over the matrices of one
    side.
    A non-square input raises ValueError before any work is done.
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
    known.update(zip(todo, _char_polys(list(todo.values()))))
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
    """A square matrix in char_polys or dets_exact: its side, nonzero
    entries coo = (rows, columns, values) column by column, largest
    absolute row sum R and its CRT primes.  The values are int64 when
    every entry is below 2^31 in absolute value, which keeps n row sums
    below n 2^31 < 2^63; else an object array of Python ints."""

    __slots__ = ("n", "coo", "R", "primes")

    def __init__(self, m):
        self.n = m.nrows
        r, c, v = [], [], []
        for j, col in enumerate(m.cols):
            r += col
            c += [j] * len(col)
            v += col.values()
        small = max(map(abs, v), default=0) < 2**31
        v = np.array(v, dtype=np.int64 if small else object)
        self.coo = np.array(r, dtype=np.intp), np.array(c, dtype=np.intp), v
        sums = np.zeros(self.n, dtype=v.dtype)
        np.add.at(sums, self.coo[0], np.abs(v))
        self.R = int(sums.max())


def _char_polys(ms) -> list[IntPoly]:
    """char polys of square matrices with distinct entries."""
    out = [None] * len(ms)
    jobs = []
    for idx, m in enumerate(ms):
        if m.nrows == 0:
            out[idx] = IntPoly([1])
            continue
        job = _Job(m)
        if job.R == 0:
            out[idx] = IntPoly([0] * job.n + [1])
        else:
            # max_k C(n, k) R^k, each term from the one before
            bound = term = 1
            for k in range(job.n):
                term = term * (job.n - k) // (k + 1) * job.R
                bound = max(bound, term)
            job.primes = _primes_over(2 * bound + 1)
            jobs.append((idx, job))
    p0 = _prime(0)
    routed = [(idx, job) for idx, job in jobs  # the rule of char_poly
              if job.n ** 2 > _STACK_ENTRIES and 2 * job.R + 1 < job.n]
    gs = [(job, _generator(job, p0)) for _, job in routed]
    for (idx, _), chi in zip(routed, _certify(gs, p0)):
        out[idx] = chi
    jobs = [(idx, job) for idx, job in jobs if out[idx] is None]
    first = _passes([(job, p0) for _, job in jobs], _charpoly_stack, _STACK_ENTRIES)
    chis = [(job, chi) for (_, job), chi in zip(jobs, first)]
    for (idx, _), chi in zip(jobs, _certify(chis, p0)):
        out[idx] = chi
    crt = [(idx, job, chi) for (idx, job), chi in zip(jobs, first) if out[idx] is None]
    rest = iter(_passes([(job, p) for _, job, _ in crt for p in job.primes[1:]],
                        _charpoly_stack, _STACK_ENTRIES))
    for idx, job, chi in crt:
        out[idx] = _crt([chi] + [next(rest) for _ in job.primes[1:]], job.primes)
    return out


def _stacks(jobs, entries: int):
    """The positions of the jobs by side, in order, in chunks of at most
    `entries` matrix entries or one matrix: the layers of the stacked
    passes and of the certificate products."""
    sides: dict = {}
    for idx, job in enumerate(jobs):
        sides.setdefault(job.n, []).append(idx)
    for n, idxs in sides.items():
        step = max(1, entries // (n * n))
        for s in range(0, len(idxs), step):
            yield idxs[s:s + step]


def _passes(pairs, kernel, entries: int) -> list:
    """kernel(a, p) for each (job, p) pair, in order: a stacks the
    residues of the jobs mod their primes p, a layer per pair, at most
    `entries` entries a stack (_stacks).  kernel: _charpoly_stack or
    _det_stack."""
    out = [None] * len(pairs)
    for part in _stacks([job for job, _ in pairs], entries):
        chunk = [pairs[i] for i in part]
        n = chunk[0][0].n
        a = np.zeros((len(chunk), n, n), dtype=np.int64)
        for layer, (job, p) in zip(a, chunk):
            r, c, v = job.coo
            layer[r, c] = v % p
        primes = np.array([p for _, p in chunk], dtype=np.int64)
        for i, res in zip(part, kernel(a, primes).tolist()):
            out[i] = res
    return out


def _crt(residues, primes) -> IntPoly:
    """The polynomial with the given coefficient residues modulo each
    prime, lifted to the symmetric range."""
    return IntPoly(_lift(col, primes) for col in zip(*residues))


def _lift(residues, primes) -> int:
    """The integer x with x = residues[i] mod primes[i] for each i, in
    the symmetric range (-M/2, M/2], M the product of the primes."""
    x, mod = 0, 1
    for r, p in zip(residues, primes):
        x += mod * ((r - x) * pow(mod, -1, p) % p)
        mod *= p
    return x - mod if x > mod // 2 else x


class _Split(IntPoly):
    """A char poly certified as prod (y - lam)^m.  roots: its (lam, m)
    pairs, lam ascending.  Its coefficients are expanded on first use:
    reading the spectrum off the roots does not need them."""

    __slots__ = ("roots", "_coeffs")

    def __init__(self, pairs):
        self.roots = tuple(pairs)
        self._coeffs = None

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = IntPoly.from_roots(self.roots).coeffs
        return self._coeffs


def _certify(tries, p: int) -> list:
    """For each (job, candidate) pair, the candidate chi or g mod p
    (ascending coefficients, see char_poly): the char poly certified
    from the candidate's roots in [-R, R] as a _Split, or None.  A job
    is tried when 2R < p and n < p_0, and only where the work rules
    allow (_worth_scanning, _worth_certifying).  The products run
    stacked, a layer per job and check prime."""
    p0 = _prime(0)
    # 2R < p < 2^27 bounds every entry, so each tried job's values are int64
    ok = [t for t, (job, _) in enumerate(tries)
          if 2 * job.R < p and job.n < p0 and _worth_scanning(job)]
    layers = []
    scans = _roots_mod([tries[t][1] for t in ok], [tries[t][0].R for t in ok], p)
    for t, roots in zip(ok, scans):
        job = tries[t][0]
        if not roots:
            continue
        check = _check_primes(job, roots) or [p0]  # check[0] is p_0
        if _worth_certifying(job, len(roots), len(check)):
            layers += [(job, roots, q, t) for q in check]
    layers.sort(key=lambda layer: -len(layer[1]))
    found = list(zip(layers, _products_vanish(layers)))
    failed = {t for (*_, t), tr in found if tr is None}
    out = [None] * len(tries)
    for (_, roots, q, t), tr in found:
        if q != p0 or t in failed:
            continue
        # tr P_k = sum_{s >= k} m_s prod_{i < k} (lam_s - lam_i), solved
        # mod p_0 from the last k down
        mults = [0] * len(roots)
        for k in reversed(range(len(roots))):
            acc = tr[k] - sum(mults[s] * math.prod(roots[s] - roots[i] for i in range(k))
                              for s in range(k + 1, len(roots)))
            mults[k] = acc * pow(math.prod(roots[k] - roots[i] for i in range(k)), -1, p0) % p0
        out[t] = _Split((lam, mult) for lam, mult in zip(roots, mults) if mult)
    return out


def _check_primes(job, roots: list) -> list:
    """The fewest leading primes whose product exceeds 2B, where B =
    prod_lam ||m - lam I||_inf over the roots bounds every entry of
    prod_lam (m - lam I) in absolute value; none when B = 0."""
    r, c, v = job.coo
    on = r == c
    diag = np.zeros(job.n, dtype=np.int64)
    diag[r[on]] = v[on]
    off = np.zeros(job.n, dtype=np.int64)
    np.add.at(off, r[~on], np.abs(v[~on]))
    norms = (off + np.abs(diag - np.array(roots, dtype=np.int64)[:, None])).max(axis=1)
    return _primes_over(2 * math.prod(norms.tolist()))


def _worth_scanning(job) -> bool:
    """Whether the scan of the 2R + 1 candidate roots costs no more than
    a Hessenberg pass (2R < n^2), and CRT needs more than one prime."""
    return 2 * job.R < job.n ** 2 and len(job.primes) > 1


def _worth_certifying(job, roots: int, check: int) -> bool:
    """Whether (roots - 1) products by m mod each check prime, n nnz(m)
    each, cost less than the n^3 of each Hessenberg pass CRT needs."""
    n = job.n
    return (roots - 1) * check * n * len(job.coo[2]) < (len(job.primes) - 1) * n ** 3


def _roots_mod(chis, Rs, p: int) -> list:
    """For each polynomial mod p (ascending coefficients) and its R, the
    roots lam in [-R, R], ascending; 2R < p keeps them distinct mod p.
    One Horner scan runs at every candidate of every polynomial of one
    length at once."""
    out = [[] for _ in chis]
    lengths: dict = {}
    for t, chi in enumerate(chis):
        lengths.setdefault(len(chi), []).append(t)
    for ts in lengths.values():
        radii = np.array([Rs[t] for t in ts], dtype=np.int64)
        owner = np.repeat(np.arange(len(ts)), 2 * radii + 1)
        cands = np.arange(owner.size) - np.cumsum(2 * radii + 1)[owner] + radii[owner] + 1
        x = cands % p
        val = np.zeros_like(x)
        for c in np.array([chis[t] for t in ts], dtype=np.int64).T[::-1]:
            val *= x
            val += c[owner]
            val %= p
        hit = np.flatnonzero(val == 0)
        for i, lam in zip(owner[hit].tolist(), cands[hit].tolist()):
            out[ts[i]].append(lam)
    return out


def _products_vanish(layers) -> list:
    """For each (job, roots, q, ...) layer, m the job's matrix: when
    P = prod_lam (m - lam I) over the roots is zero mod q, the traces
    of its leading products, [tr P_k mod q for k < len(roots)] with
    P_k = prod_{t<k} (m - lam_t I); else None.

    The layers of one side run stacked (_stacks), each with m mod its q
    in ELL form, on one column block of the identity at a time: about
    _BLOCK_ENTRIES entries, or one column a layer, so a large m needs
    no n x n array.  A block x starts as those columns of m - lam_0 I
    and becomes m x - lam x for each further root (_ell_mul).  Root
    counts must not rise along the layers of one side, so a step takes
    a leading slice of its stack."""
    out = [None] * len(layers)
    for part in _stacks([job for job, *_ in layers], _STACK_ENTRIES):
        chunk = [layers[b] for b in part]
        B, n = len(chunk), chunk[0][0].n
        width = [len(roots) for _, roots, *_ in chunk]
        q = np.array([layer[2] for layer in chunk], dtype=np.int64)
        q3 = q[:, None, None]
        lam = np.array([roots + [0] * (width[0] - len(roots)) for _, roots, *_ in chunk])
        lam %= q[:, None]
        # the stack's entries, layer b in rows and columns b n + ...
        layer = np.concatenate([np.full(len(job.coo[0]), b, dtype=np.intp)
                                for b, (job, *_) in enumerate(chunk)])
        row = np.concatenate([job.coo[0] for job, *_ in chunk])
        col = np.concatenate([job.coo[1] for job, *_ in chunk])
        val = np.concatenate([job.coo[2] % qb for (job, *_), qb in zip(chunk, q.tolist())])
        order = np.argsort(layer * n + row, kind="stable")
        ell = _ell(layer[order] * n + row[order], layer[order] * n + col[order],
                   val[order], B * n)
        traces = np.zeros((B, width[0]), dtype=np.int64)
        traces[:, 0] = n
        vanish = np.ones(B, dtype=bool)
        step = max(1, _BLOCK_ENTRIES // (B * n))
        for j in range(0, n, step):
            cols = np.arange(j, min(n, j + step))
            diag = (slice(None), cols, cols - j)
            x = np.zeros((B, n, cols.size), dtype=np.int64)
            sel = (col >= j) & (col < j + step)
            x[layer[sel], row[sel], col[sel] - j] = val[sel]
            x[diag] -= lam[:, :1]
            x %= q3
            for t in range(1, width[0]):
                k = sum(w > t for w in width)
                y = x[:k]
                traces[:k, t] += y[diag].sum(axis=1) % q[:k]
                prod = _ell_mul([e[:k * n] for e in ell], y, q[:k])
                y *= lam[:k, t, None, None]
                prod -= y
                np.remainder(prod, q3[:k], out=y)
            vanish &= ~x.reshape(B, -1).any(axis=1)
            if not vanish.any():
                break
        for i, (ok, tr) in enumerate(zip(vanish.tolist(), (traces % q[:, None]).tolist())):
            out[part[i]] = tr[:width[i]] if ok else None
    return out


def _ell(row, col, val, size):
    """The size x size matrix with entries val at (row, col), sorted by
    row and then column, in ELL form (idx, val, counts): row r holds
    val[r, t] at column idx[r, t] for its counts[r] nonzeros, in column
    order, padded to the widest row by val 0 at index 0."""
    counts = np.bincount(row, minlength=size)
    t = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
    idx = np.zeros((size, counts.max()), dtype=np.intp)
    vals = np.zeros(idx.shape, dtype=np.int64)
    idx[row, t] = col
    vals[row, t] = val
    return idx, vals, counts


def _ell_mul(ell, m, q):
    """(F_b m_b) mod q_b for each layer b of the (B, n, k) stack m, F in
    ELL form (_ell), residues mod the primes q < 2^27.  Row r sums
    val[r, t] times row idx[r, t] of m flattened to B n x k, reduced
    after at most _DOT_BLOCK terms, so the int64 sums stay exact as in
    _dot_mod.  A chunk takes only the rows long enough to reach it, so
    the work is (nonzeros of F) x k however uneven the rows, and gathers
    about _GATHER_ENTRIES entries of m at most, or one row of m per row
    of F."""
    idx, val, counts = ell
    rows = m.reshape(-1, m.shape[2])
    qs = np.repeat(q, m.shape[1])[:, None]
    step = max(1, min(_DOT_BLOCK, _GATHER_ENTRIES // m.size))
    out, pending = np.zeros_like(rows), 0
    for s in range(0, idx.shape[1], step):
        if pending + step > _DOT_BLOCK:
            out %= qs
            pending = 0
        live = np.flatnonzero(counts > s)
        if live.size == counts.size:
            live = slice(None)
        if step == 1:  # one term a row: cheaper than einsum
            part = rows[idx[live, s]]
            part *= val[live, s, None]
        else:
            cut = slice(s, s + step)
            part = np.einsum("rt,rtk->rk", val[live, cut], rows[idx[live, cut]])
        out[live] += part
        pending += step
    out %= qs
    return out.reshape(m.shape)


def _projections(n: int):
    """The vectors u and v of the generator g: residues below 2^26 from
    a generator with a fixed seed."""
    rng = random.Random(0)
    return np.array([rng.getrandbits(26) for _ in range(2 * n)], dtype=np.int64).reshape(2, n)


def _generator(job, p: int) -> list:
    """The least generator g of s_j = u^T m^j v mod p for j < 2 min(n,
    2R + 1) (see char_poly), ascending coefficients, from products by
    the job's sparse matrix alone; its values must be int64."""
    r, c, v = job.coo
    order = np.argsort(r, kind="stable")
    ell = _ell(r[order], c[order], v[order] % p, job.n)
    u, x = _projections(job.n)
    q, seq = np.array([p], dtype=np.int64), []
    for _ in range(2 * min(job.n, 2 * job.R + 1)):
        seq.append(int(_dot_mod(u, x, p)))
        x = _ell_mul(ell, x[None, :, None], q)[0, :, 0]
    return _least_generator(seq, p)


def _least_generator(seq: list, p: int) -> list:
    """The monic polynomial g of least degree, ascending coefficients,
    with sum_k g[k] seq[i + k] = 0 mod p for every i + deg g <
    len(seq), by Berlekamp-Massey."""
    c, b = [1], [1]  # connection polynomials, constant term first
    length, shift, last = 0, 1, 1
    for i, s in enumerate(seq):
        d = (s + sum(c[j] * seq[i - j] for j in range(1, min(len(c), i + 1)))) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        prev = c[:]
        c += [0] * (len(b) + shift - len(c))
        for j, bj in enumerate(b):
            c[j + shift] = (c[j + shift] - coef * bj) % p
        if 2 * length <= i:
            length, b, last, shift = i + 1 - length, prev, d, 1
        else:
            shift += 1
    c += [0] * (length + 1 - len(c))
    return c[length::-1]


def char_poly_interpolate(m: SparseMatrix) -> IntPoly:
    """det(yI - m) by exact determinants at side+1 points plus Lagrange.

    Slower than char_poly on large sides; kept as the independent
    cross-check route (the two must agree bit for bit).
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    if n == 0:
        return IntPoly([1])
    rows = m.rows()
    xs = list(range(n + 1))
    ys = dets_exact([[x * (i == j) - v for j, v in enumerate(r)] for i, r in enumerate(rows)]
                    for x in xs)
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


# integer_spectrum tries the candidate roots up to this bound one by
# one, and finds larger ones by bisection.
_ROOT_SCAN = 2**16


def integer_spectrum(chi: IntPoly):
    """Eigenvalue multiset of a symmetric PSD integer matrix, read off
    its characteristic polynomial chi.

    Returns {eigenvalue: multiplicity}, keys ascending, when every root
    of chi is a nonnegative integer, or NotIntegral carrying chi
    otherwise.  A certified chi (a _Split) gives its roots without a
    division.  Any other chi is scanned: after the zero roots,
    candidates lam = 1, 2, ..., _ROOT_SCAN are tried while lam is at
    most the sum S of the roots left (all nonnegative for a PSD
    matrix), and only when lam divides the constant term of the
    quotient left, as every integer root of it does.  Larger roots are
    taken from the largest down: bisection over (_ROOT_SCAN, S] gives
    the ceiling of the largest root (_top_root_ceiling), divided out as
    often as it divides; if it does not, that root is not an integer.
    The cost is polynomial in the degree and bit length of chi.
    """
    if isinstance(chi, _Split):
        return NotIntegral(chi) if chi.roots[0][0] < 0 else dict(chi.roots)
    eigs: dict[int, int] = {}
    v = chi.valuation()
    if v:
        eigs[0] = v
    rem = IntPoly(chi.coeffs[v:])
    lam = 1
    while rem.degree > 0 and lam <= min(-rem.coeffs[-2], _ROOT_SCAN):
        if rem.coeffs[0] % lam == 0:
            q, r = rem.divide_linear(lam)
            if r == 0:
                eigs[lam] = eigs.get(lam, 0) + 1
                rem = q
                continue
        lam += 1
    while rem.degree > 0 and lam <= -rem.coeffs[-2]:
        top = _top_root_ceiling(rem, lam, -rem.coeffs[-2])
        q, r = rem.divide_linear(top)
        if r:
            break
        while r == 0:
            eigs[top] = eigs.get(top, 0) + 1
            rem = q
            q, r = rem.divide_linear(top)
    if rem.degree > 0:
        return NotIntegral(chi)
    return dict(sorted(eigs.items()))


def _top_root_ceiling(p: IntPoly, lo: int, hi: int) -> int:
    """The least x in [lo, hi] at which every coefficient of p(y + x)
    is >= 0, by bisection (hi when there is none).  Coefficient k is
    p^(k)(x) / k!.  If p has a positive leading coefficient and only
    real roots, the largest r, so has every derivative (Rolle): none is
    negative at x >= r, and at x < r the derivative of highest order
    whose largest root exceeds x increases from x on, so is negative
    at x.  So for lo <= r <= hi this is the ceiling of r."""
    while lo < hi:
        mid = (lo + hi) // 2
        if min(p.compose_shift(mid).coeffs) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def nonzero_root_product(chi: IntPoly) -> int:
    """Product of the nonzero roots of the char poly chi (pi_j and
    omega_j of a complex): read off the roots of a certified chi (a
    _Split) without expanding it, else off its lowest nonzero
    coefficient."""
    if isinstance(chi, _Split):
        return math.prod(lam ** m for lam, m in chi.roots if lam)
    v = chi.valuation()
    c = chi.coeff(v)
    return c if (chi.degree - v) % 2 == 0 else -c


# ---------------------------------------------------------------------------
# determinant (exact, CRT over the primes of the Hadamard bound)

# A stacked elimination (_det_stack) holds at most this many entries
# (8 MB), or one matrix when a single one is larger: every prime of a
# matrix of side 111 fits one stack, and larger stacks ran no faster.
_DET_ENTRIES = 2**20


def det_exact(rows) -> int:
    """Determinant of a square matrix, given as a list of integer rows,
    by multimodular elimination.  Exact: det mod the fewest leading
    primes whose product exceeds 2 (isqrt(H^2) + 1), H = prod_i
    ||row_i||_2 the Hadamard bound, lifted by CRT to the symmetric
    range.  dets_exact([rows])[0]; see there."""
    return dets_exact([rows])[0]


def dets_exact(ms) -> list[int]:
    """[det_exact(m) for m in ms], each m a list of integer rows,
    computed together by multimodular elimination.  Exact.

    By Hadamard's inequality |det m| <= H = prod_i ||row_i||_2.  H^2 is
    computed exactly (a zero row gives det 0 at once), and det m is
    lifted by CRT, in the symmetric range, from its residues modulo the
    fewest leading primes _prime(0), _prime(1), ... whose product exceeds
    2 (isqrt(H^2) + 1) > 2H.  The residues come from Gaussian
    eliminations mod p (_det_stack), one layer per (matrix, prime), run
    by the stacked driver of the char polys (_passes) with the
    elimination's entry budget, _DET_ENTRIES.  A non-square input raises
    ValueError before any work is done.
    """
    ms = list(ms)
    if any(len(r) != len(m) for m in ms for r in m):
        raise ValueError("determinant of a non-square matrix")
    out = [1] * len(ms)
    jobs = []
    for i, m in enumerate(ms):
        if not m:
            continue
        job = _Job(SparseMatrix.from_rows(m))
        sq = [0] * job.n
        for row, x in zip(job.coo[0].tolist(), job.coo[2].tolist()):  # exact: Python ints
            sq[row] += x * x
        h2 = math.prod(sq)
        if h2 == 0:
            out[i] = 0
            continue
        job.primes = _primes_over(2 * (math.isqrt(h2) + 1))
        jobs.append((i, job))
    rest = iter(_passes([(job, p) for _, job in jobs for p in job.primes],
                        _det_stack, _DET_ENTRIES))
    for i, job in jobs:
        out[i] = _lift([next(rest) for _ in job.primes], job.primes)
    return out


def _det_stack(a, p):
    """det a[b] mod p[b] for each layer b of a stack, by Gaussian
    elimination; a (B,) int64 array.

    a is a (B, n, n) int64 array whose layer b holds residues mod the
    prime p[b] < 2^27, and is overwritten; p is a (B,) int64 array.
    Each layer takes as pivot the first nonzero of its column on or
    below the diagonal, swaps its own rows and flips its own sign; a
    layer with no pivot has det 0 and takes no update.  Only the pivot
    column and the pivot row are reduced every step.  The trailing block
    takes rank-1 updates f u^T, f and u residues, so each product is
    below 2^54, and is reduced before its _DOT_BLOCK + 1-st unreduced
    update: its entries stay in (-511 * 2^54, 2^27), inside int64, as in
    _dot_mod.  An update spans the rows and columns up to the last
    nonzero of f and of u in any layer, so a banded matrix costs work in
    proportion to its band.
    """
    n = a.shape[1]
    primes = p.tolist()
    p1, p2 = p[:, None], p[:, None, None]
    det = np.ones(a.shape[0], dtype=np.int64)
    lazy = 0  # updates of the trailing block since it was last reduced
    for k in range(n):
        col = a[:, k:, k]
        col %= p1
        r = (col != 0).argmax(axis=1)
        if np.count_nonzero(r):
            swap = np.flatnonzero(r)
            rows = r[swap] + k
            top = a[swap, k, k:]
            a[swap, k, k:] = a[swap, rows, k:]
            a[swap, rows, k:] = top
            det[swap] = p[swap] - det[swap]
        piv = a[:, k, k]
        det = det * piv % p
        if k == n - 1:
            break
        u = a[:, k, k + 1:]
        u %= p1
        inv = np.array([pow(x, -1, q) if x else 0 for x, q in zip(piv.tolist(), primes)],
                       dtype=np.int64)
        f = col[:, 1:] * inv[:, None] % p1
        live_r, live_c = f.any(axis=0), u.any(axis=0)
        hr = live_r.size - int(live_r[::-1].argmax())
        hc = live_c.size - int(live_c[::-1].argmax())
        if not (live_r[hr - 1] and live_c[hc - 1]):
            continue
        block = a[:, k + 1:, k + 1:]
        if lazy == _DOT_BLOCK:
            block %= p2
            lazy = 0
        block[:, :hr, :hc] -= f[:, :hr, None] * u[:, None, :hc]
        lazy += 1
    return det


# ---------------------------------------------------------------------------
# ring-generic determinant (for polynomial matrices)

# Largest side det_ring accepts: its layers hold up to 2^side row sets.
_RING_SIDE_MAX = 20


def _expansion_order(cols, n: int) -> list:
    """A permutation of range(n) from a sparsity pattern alone
    (cols[j] = set of rows with a nonzero in column j).

    Greedily take the column that leaves the fewest rows open (touched
    by a taken column, with a nonzero in a column not yet taken), ties
    to the lowest index; return that order reversed.  Expanding in the
    reversed order keeps the last layers, whose minors have the most
    terms, to few row sets.  On the reduced weighted Laplacians (k = 2)
    of the 64 3-balls made of the four facets of the 4-cube through a
    corner and one opposite facet, reduced at the weighted engine's
    maximum-degree U, det_ring formed 1.29 times fewer term products
    in all in the reversed order than in the forward one (47.3 against
    60.8 million); per ball the reversed order took from 2.6 times more
    to 3.3 times fewer, and fewer on 40 of the 64.
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
    (row set) x (columns so far), one layer at a time.  A row set that
    misses a closed row (one with no nonzero entry left) can never
    complete, so each step first closes the rows whose last nonzero it
    holds and then forms only the products whose row set contains
    every closed row.  The (signed entry, minor) pairs of each new row
    set are collected first and summed in one pass: over Laurent
    polynomials by LaurentPoly.linear_combination, in one term dict,
    and otherwise with * and +.  A row set whose sum is zero is
    dropped.  Rows and columns are first reordered by one permutation,
    chosen from the sparsity pattern alone (_expansion_order) so that
    few rows are open at once; a symmetric permutation leaves the
    determinant unchanged.  Entries may be ints, Fractions or
    LaurentPoly.  Meant for the polynomial Laplacian minors, which stay
    small (side at most _RING_SIDE_MAX); as it works over the ring
    itself, never dividing nor reducing mod a prime, it is also an
    independent check on the multimodular det_exact.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n > _RING_SIDE_MAX:
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
    laurent = next((v for r in rows for v in r if isinstance(v, LaurentPoly)), None)
    if laurent is None:
        one = 1

        def combine(pairs):
            return sum(a * f for f, a in pairs)
    else:
        one = LaurentPoly.constant(laurent.vars, 1)

        def combine(pairs):
            return LaurentPoly.linear_combination(laurent.vars, pairs)
    layer = {0: one}
    closed = sum(1 << i for i in range(n) if last[i] < 0)
    for step, j in enumerate(order):
        for i, s_last in enumerate(last):
            if s_last == step:
                closed |= 1 << i
        # entry (new row index, value, value with the sign flipped)
        entries = [(pos[r], rows[r][j], -rows[r][j]) for r in cols[j]]
        groups: dict = {}
        for mask, f in layer.items():
            # closed rows the minor lacks: the new row must be the one
            missing = closed & ~mask
            if missing & (missing - 1):
                continue
            for i, a, neg_a in entries:
                bit = 1 << i
                if mask & bit or (missing and bit != missing):
                    continue
                # sign (-1)^(rows of the minor above i + column index)
                odd = ((mask & (bit - 1)).bit_count() + step) & 1
                key = mask | bit
                pair = (f, neg_a if odd else a)
                group = groups.get(key)
                if group is None:
                    groups[key] = [pair]
                else:
                    group.append(pair)
        layer = {}
        for key, pairs in groups.items():
            v = combine(pairs)
            if v:
                layer[key] = v
        if not layer:
            break
    full = layer.get((1 << n) - 1)
    return full if full is not None else rows[0][0] * 0


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


def outer_sum(n: int, pairs) -> list:
    """The sum of u v^T over the pairs (u, v) of sparse vectors
    ({index: entry} dicts, entries in any commutative ring), as n
    {index: entry} rows, from the products of the entry pairs:
    O(sum of nnz(u) nnz(v)) ring operations.  L^ud and L^du are one
    call each: B B^T from the columns of B, A^T A from the rows of A
    (L^tot is their sum).  So is the d d = 0 check: A B from the
    columns of A zipped with the rows of B."""
    out = [{} for _ in range(n)]
    for u, v in pairs:
        items = v.items()
        for r, x in u.items():
            row = out[r]
            get = row.get
            for s, y in items:
                row[s] = get(s, 0) + x * y
    return out


def gram_sum(n: int, blocks) -> list:
    """Sum over the blocks (vectors, c, d) and the sparse vectors v of
    each of c_v (d o v)(d o v)^T, with c one weight per vector and d one
    per index, in any commutative ring, as n outer_sum rows.  Every
    weighted Laplacian is one (see ChainComplex.weighted_laplacian)."""
    def pairs():
        for vectors, c, d in blocks:
            for v, cv in zip(vectors, c, strict=True):
                w = {r: d[r] * a for r, a in v.items()}
                yield {r: cv * x for r, x in w.items()}, w
    return outer_sum(n, pairs())


def scaled_char_polys(ms) -> tuple:
    """(D, [char_poly(D m) for m in ms]) for square Fraction matrices
    as {index: entry} rows (read as columns: same char poly), D the lcm
    of all denominators.  Since chi_m(y) = chi_(D m)(D y) / D^side, the
    roots of chi_(D m) are D times those of chi_m."""
    d = math.lcm(*(v.denominator for m in ms for row in m for v in row.values()))
    return d, [char_poly(SparseMatrix([{s: int(v * d) for s, v in row.items() if v}
                                       for row in m], len(m))) for m in ms]


def sparse_transpose(cols, nrows: int) -> list:
    """The rows, as {column: entry} dicts, of the matrix with the given
    {row: entry} columns and nrows rows."""
    out = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            out[i][j] = v
    return out


def det_fraction(rows) -> Fraction:
    """Determinant over Q by ordinary Gaussian elimination.  A test
    oracle: the independent check on det_exact, and on the weighted
    engine's enumerator at rational points."""
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
        `vars` and c an int or a LaurentPoly over `vars`, accumulated
        in one term dict: the one sum of products, which det_ring's
        minors and the brute engine's weighted trees go through.  A
        LaurentPoly c adds its bound to p's, checked as * checks it."""
        vs = tuple(vars)
        out: dict = {}
        get = out.get
        bound = 0
        for p, c in pairs:
            if p.vars != vs:
                raise ValueError("mixed variable tables")
            if isinstance(c, int):
                bound = max(bound, p._bound)
                for e, v in p._packed.items():
                    out[e] = get(e, 0) + v * c
                continue
            if c.vars != vs:
                raise ValueError("mixed variable tables")
            bound = max(bound, _checked(p._bound + c._bound))
            pp = p._packed
            for e1, c1 in c._packed.items():
                for e2, v in pp.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * v
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

    def __rtruediv__(self, other):
        """other / self, for self a monomial with coefficient +-1."""
        if len(self._packed) != 1 or abs(next(iter(self._packed.values()))) != 1:
            raise ArithmeticError(f"{self} is not a unit monomial")
        (e, c), = self._packed.items()
        return LaurentPoly._make(self.vars, {-e: c}, self._bound) * other

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
