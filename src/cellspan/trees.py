"""Spanning-tree machinery for chain complexes.

A k-tree of X is a set T of k-cells such that Y = T plus the full
(k-1)-skeleton has trivial top homology, finite homology one below,
and the forced cell count; any two of the three force the third.
Engines: brute-force subset scan, reduced-Laplacian determinant with
torsion correction, alternating product of eigenvalue products, and
the closed form for full cubes.  All arithmetic exact.

The brute engine tests each candidate with one determinant.  Fix a
(k-1)-tree U, the first basis of the boundary columns one dimension
down, and let Ubar be the other (k-1)-cells.  A candidate T of the
forced size is a k-tree iff det d[Ubar, T] != 0, and then its torsion
is t_T = |det| t_X / t_U, the Cauchy-Binet step of the simplicial
matrix-tree theorem (Duval-Klivans-Martin).  The candidates are
scanned depth first with incremental elimination, so a prefix with
dependent columns is never extended.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .chain import ChainComplex
from .cubical import (CubicalComplex, cube, weighted_diag_laplacian,
                      weight_vars, xi_weight)
from .exact import LaurentPoly, det_exact, det_ring, gen_binom, sparse_columns

BRUTE_CAP = 10 ** 6
MATRIX_SIDE_CAP = 4096

METHODS = ("brute", "matrix-tree", "alternating-product", "closed-form")


class CapExceeded(RuntimeError):
    """A computation would need more work than a cap allows; `what`
    names the cap."""

    def __init__(self, needed, cap, what: str):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.needed = needed
        self.cap = cap


def _as_chain(x) -> ChainComplex:
    return x.to_chain() if isinstance(x, CubicalComplex) else x


def is_apc(x) -> bool:
    return _as_chain(x).is_apc()


class TreeQuery:
    """What to enumerate and how."""

    def __init__(self, complex, k: int, method: str = "brute",
                 weighted: bool = False, cap: int = BRUTE_CAP,
                 cube_n: int | None = None):
        self.complex = complex
        self.chain = _as_chain(complex)
        if not (0 <= k <= self.chain.dim):
            raise ValueError(f"k={k} out of range [0, {self.chain.dim}]")
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if cap < 1:
            raise ValueError("cap must be positive")
        if weighted and not isinstance(complex, CubicalComplex):
            raise ValueError("weighted enumeration needs a cubical complex")
        self.k = k
        self.method = method
        self.weighted = weighted
        self.cap = cap
        self.cube_n = cube_n


class TreeReport:
    """Result of a tree computation, JSON-ready."""

    def __init__(self, tau, method: str, trees=None, u_cells=None,
                 per_tree=None, u_size_ok=None):
        self.tau = tau
        self.method = method
        self.trees = trees
        self.u_cells = tuple(u_cells) if u_cells is not None else None
        self.per_tree = tuple(per_tree) if per_tree is not None else ()
        self.u_size_ok = u_size_ok

    def to_json_dict(self) -> dict:
        tau = self.tau.to_json_dict() if isinstance(self.tau, LaurentPoly) else str(self.tau)
        return {
            "tau": tau,
            "method": self.method,
            "trees": self.trees,
            "U": list(self.u_cells) if self.u_cells is not None else [],
            "per_tree": [{"cells": list(cells), "torsion": str(t)}
                         for cells, t in self.per_tree],
        }


class CstCertificate:
    """Which of the three tree conditions hold, plus the torsion order
    of the homology one dimension below when it is finite."""

    __slots__ = ("size_ok", "top_acyclic", "finite_below", "torsion")

    def __init__(self, size_ok, top_acyclic, finite_below, torsion):
        self.size_ok = size_ok
        self.top_acyclic = top_acyclic
        self.finite_below = finite_below
        self.torsion = torsion

    def __bool__(self):
        return self.size_ok and self.top_acyclic and self.finite_below

    def __repr__(self):
        return (f"CstCertificate(size={self.size_ok}, acyclic={self.top_acyclic}, "
                f"finite={self.finite_below}, torsion={self.torsion})")


def cst_target_size(xs: ChainComplex, k: int) -> int:
    below = xs.betti(k - 1) if (k >= 1 or xs.empty_cell) else 0
    return xs.n_cells(k) - xs.betti(k) + below


def is_cst(x, k: int, T) -> CstCertificate:
    c = _as_chain(x)
    if not (0 <= k <= c.dim):
        raise ValueError(f"k={k} out of range [0, {c.dim}]")
    xs = c.skeleton(k)
    T = tuple(T)
    y = xs.with_top_cells(k, T)
    size_ok = len(set(T)) == cst_target_size(xs, k)
    top_acyclic = y.betti(k) == 0 if k <= y.dim else True
    if k == 0:
        finite_below = len(T) >= 1
        torsion = 1 if finite_below else None
    else:
        finite_below = y.betti(k - 1) == 0
        torsion = y.torsion_order(k - 1) if finite_below else None
    return CstCertificate(size_ok, top_acyclic, finite_below, torsion)


# ---------------------------------------------------------------------------
# engines


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


def _pivot_columns(b) -> list:
    """Indices of the lexicographically first basis of the column space
    of an IntMatrix: one incremental elimination in column order keeps
    each column that is independent of those before it."""
    ech = _Echelon()
    picked: list = []
    for j, col in enumerate(sparse_columns(b)):
        v = ech.reduce(col)
        if v:
            ech.push(v)
            picked.append(j)
    return picked


def _greedy_u(xs: ChainComplex, k: int):
    """Indices of a maximal independent set of columns of the reduced
    boundary one dimension down, first in stored cell order.  These
    are the facets of a (k-1)-tree."""
    return _pivot_columns(xs.homology_boundary(k - 1)), xs.labels(k - 1)


def _torsions(xs: ChainComplex, k: int, u_cells) -> tuple:
    """(t_X, t_U): torsion orders of H_(k-2) of X and of the
    (k-2)-skeleton plus the (k-1)-tree U."""
    if k < 2:
        return 1, 1
    xu = xs.with_top_cells(k - 1, u_cells)
    return xs.torsion_order(k - 2), xu.torsion_order(k - 2)


def enumerate_trees(q: TreeQuery) -> TreeReport:
    """Scan the candidate cell sets of the forced size in combinations
    order; accumulate the squared torsion of each k-tree, times the
    face-weight monomial in weighted mode.

    With U a (k-1)-tree and Ubar the other (k-1)-cells, T is a k-tree
    iff det d[Ubar, T] != 0, and then t_T = |det| t_X / t_U (the
    Cauchy-Binet step of the simplicial matrix-tree theorem).  The scan
    is depth first with one incremental elimination on the Ubar rows,
    so a prefix whose columns are already dependent is never extended.
    """
    xs = q.chain.skeleton(q.k)
    if not xs.is_apc():
        raise ValueError("skeleton is not acyclic in positive codimension")
    target = cst_target_size(xs, q.k)
    labels = xs.labels(q.k)
    n = len(labels)
    needed = math.comb(n, target)
    if needed > q.cap:
        raise CapExceeded(needed, q.cap, "brute-force subset cap")
    b = xs.homology_boundary(q.k)
    picked, u_labels = _greedy_u(xs, q.k)
    t_x, t_u = _torsions(xs, q.k, [u_labels[j] for j in picked])
    ubar = sorted(set(range(b.nrows)) - set(picked))
    if len(ubar) != target:
        raise ArithmeticError("complement of U does not match the tree size")
    cols = sparse_columns(b, ubar)
    if q.weighted:
        weights = [xi_weight(q.complex.universe, f) for f in labels]
        vs = weight_vars(q.complex.universe)
        prefix = [LaurentPoly.constant(vs, 1)]   # weight of each prefix
        terms: dict = {}
    tau = 0
    per_tree = []
    ech = _Echelon()
    path: list = []
    j = 0
    while True:
        d = len(path)
        if d == target:
            t, rem = divmod(ech.det() * t_x, t_u)
            if rem:
                raise ArithmeticError("torsion ratio did not divide the determinant")
            per_tree.append((tuple(labels[i] for i in path), t))
            if q.weighted:
                for e, c in prefix[-1].terms.items():
                    terms[e] = terms.get(e, 0) + c * t * t
            else:
                tau += t * t
        if d == target or j > n - target + d:
            if not path:
                break
            j = path.pop() + 1
            ech.pop()
            if q.weighted:
                prefix.pop()
            continue
        v = ech.reduce(cols[j])
        if v:
            ech.push(v)
            path.append(j)
            if q.weighted:
                prefix.append(prefix[-1] * weights[j])
        j += 1
    if q.weighted:
        tau = LaurentPoly(vs, terms)
    return TreeReport(tau, "brute", trees=len(per_tree), per_tree=per_tree)


def tau_matrix_tree(x, k: int) -> TreeReport:
    c = _as_chain(x)
    if not (0 <= k <= c.dim):
        raise ValueError(f"k={k} out of range [0, {c.dim}]")
    xs = c.skeleton(k)
    if not xs.is_apc():
        raise ValueError("skeleton is not acyclic in positive codimension")
    if k == 0:
        n0 = xs.n_cells(0)
        return TreeReport(n0, "matrix-tree", trees=n0, u_cells=(), u_size_ok=True)
    if xs.n_cells(k - 1) > MATRIX_SIDE_CAP:
        raise CapExceeded(xs.n_cells(k - 1), MATRIX_SIDE_CAP,
                          "matrix-tree side cap (MATRIX_SIDE_CAP)")
    picked, labels = _greedy_u(xs, k)
    u_size_ok = len(labels) - len(picked) == xs.n_cells(k) - xs.betti(k)
    lu = xs.laplacian(k - 1, "ud").delete_rows_cols(picked)
    det = det_exact(lu)
    u_cells = [labels[j] for j in picked]
    t_x, t_u = _torsions(xs, k, u_cells)
    tau = Fraction(det * t_x * t_x, t_u * t_u)
    if tau.denominator != 1:
        raise ArithmeticError("torsion ratio did not divide the determinant")
    return TreeReport(int(tau), "matrix-tree", u_cells=u_cells, u_size_ok=u_size_ok)


def tau_alternating(x, k: int) -> int:
    """Alternating product of the nonzero up-down eigenvalue products.
    Valid only when integer homology vanishes below k; refuses
    otherwise (torsion silently breaks the identity)."""
    c = _as_chain(x)
    if not (0 <= k <= c.dim):
        raise ValueError(f"k={k} out of range [0, {c.dim}]")
    xs = c.skeleton(k)
    if not xs.z_apc_below(k):
        raise ValueError("integer homology does not vanish below k")
    val = Fraction(1)
    for i in range(k + 1):
        p = xs.pi(i)
        if (k - i) % 2 == 0:
            val *= p
        else:
            val /= p
    if val.denominator != 1:
        raise ArithmeticError("alternating product is not an integer")
    return int(val)


def tau_cube_closed_form(n: int, k: int) -> int:
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    out = 1
    for j in range(k + 1, n + 1):
        e = gen_binom(n, j) * gen_binom(j - 2, k - 1)
        assert e >= 0
        out *= (2 * j) ** e
    return out


def weighted_tau_matrix_tree(x: CubicalComplex, k: int) -> LaurentPoly:
    """Reduced determinant of the face-weighted Laplacian: equals the
    sum over k-trees of the squared torsion times the product of face
    weights.  The torsion-squared ratio enters as an integer factor."""
    if not isinstance(x, CubicalComplex):
        raise ValueError("weighted engine needs a cubical complex")
    c = x.to_chain()
    if not (1 <= k <= c.dim):
        raise ValueError(f"k={k} out of range [1, {c.dim}]")
    xs = c.skeleton(k)
    if not xs.is_apc():
        raise ValueError("skeleton is not acyclic in positive codimension")
    picked, labels = _greedy_u(xs, k)
    lw = weighted_diag_laplacian(x, k)
    u = set(picked)
    keep = [j for j in range(len(labels)) if j not in u]
    reduced = [[lw[r][s] for s in keep] for r in keep]
    vs = weight_vars(x.universe)
    det = det_ring(reduced) if reduced else LaurentPoly.constant(vs, 1)
    if isinstance(det, int):
        det = LaurentPoly.constant(vs, det)
    t_x, t_u = _torsions(xs, k, [labels[j] for j in picked])
    if t_x == t_u:
        return det
    num, den = t_x * t_x, t_u * t_u
    terms = {}
    for e, cf in det.terms.items():
        q = Fraction(cf * num, den)
        if q.denominator != 1:
            raise ArithmeticError("torsion ratio did not divide the determinant")
        terms[e] = int(q)
    return LaurentPoly(vs, terms)


def run_query(q: TreeQuery) -> TreeReport:
    if q.method == "brute":
        return enumerate_trees(q)
    if q.method == "matrix-tree":
        if q.weighted:
            tau = weighted_tau_matrix_tree(q.complex, q.k)
            return TreeReport(tau, "matrix-tree")
        return tau_matrix_tree(q.complex, q.k)
    if q.method == "alternating-product":
        return TreeReport(tau_alternating(q.complex, q.k), "alternating-product")
    if q.cube_n is None:
        raise ValueError("closed-form method applies to full cubes only")
    return TreeReport(tau_cube_closed_form(q.cube_n, q.k), "closed-form")


# ---------------------------------------------------------------------------
# the weighted-enumerator conjecture for cubes


def _bracket(vs, subset, with_q: bool) -> LaurentPoly:
    acc = LaurentPoly(vs)
    for i in subset:
        rest = {}
        for j in subset:
            if j != i:
                rest[f"x{j}"] = 1
                rest[f"y{j}"] = 1
        base = {f"q{i}": 1} if with_q else {}
        acc = acc + LaurentPoly.monomial(vs, {**base, **rest, f"x{i}": rest.get(f"x{i}", 0) + 1})
        acc = acc + LaurentPoly.monomial(vs, {**base, **rest, f"y{i}": rest.get(f"y{i}", 0) + 1})
    return acc


def conjecture_rhs(n: int, k: int) -> LaurentPoly:
    """Closed-form candidate for the weighted k-tree enumerator of the
    full n-cube: a power of q_1...q_n times a product of one bracket
    per direction subset of size at least k+1."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    dirs = tuple(range(1, n + 1))
    vs = weight_vars(dirs)
    e = 0
    for i in range(k - 1, n):
        b1 = gen_binom(n - 1, i)
        b2 = gen_binom(i - 1, k - 2)
        assert b1 >= 0 and b2 >= 0
        e += b1 * b2
    poly = LaurentPoly.monomial(vs, {f"q{d}": e for d in dirs})
    for r in range(k + 1, n + 1):
        ex = gen_binom(r - 2, k - 1)
        assert ex >= 0
        if ex == 0:
            continue
        for subset in itertools.combinations(dirs, r):
            poly = poly * _bracket(vs, subset, True) ** ex
    return poly


def verify_conjecture(n: int, k: int, cap: int = BRUTE_CAP) -> dict:
    """Brute-force weighted enumerator against the closed-form
    candidate; reports the first differing monomial on mismatch."""
    lhs = enumerate_trees(TreeQuery(cube(n), k, weighted=True, cap=cap))
    rhs = conjecture_rhs(n, k)
    out = {"n": n, "k": k, "trees": lhs.trees}
    if lhs.tau == rhs:
        out["equal"] = True
        return out
    out["equal"] = False
    exps = sorted(set(lhs.tau.terms) | set(rhs.terms))
    for ex in exps:
        a = lhs.tau.terms.get(ex, 0)
        b = rhs.terms.get(ex, 0)
        if a != b:
            out["first_difference"] = {
                "exp": list(ex), "brute": str(a), "conjecture": str(b)}
            break
    return out


def _f_poly(vs, dirs, k: int) -> LaurentPoly:
    """Conjecture product at q = 1, restricted to a direction subset."""
    poly = LaurentPoly.constant(vs, 1)
    for r in range(k + 1, len(dirs) + 1):
        ex = gen_binom(r - 2, k - 1)
        assert ex >= 0
        if ex == 0:
            continue
        for subset in itertools.combinations(dirs, r):
            poly = poly * _bracket(vs, subset, False) ** ex
    return poly


def f_recurrence_check(n: int, k: int) -> dict:
    """The q = 1 specialization should factor through the (n-1)-subsets
    and the top enumerator; verified by exact expansion."""
    if n < 2 or not (1 <= k <= n - 1):
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got n={n}, k={k}")
    dirs = tuple(range(1, n + 1))
    vs = weight_vars(dirs)
    lhs = _f_poly(vs, dirs, k)
    rhs = LaurentPoly.constant(vs, 1)
    for subset in itertools.combinations(dirs, n - 1):
        rhs = rhs * _f_poly(vs, subset, k)
    e = gen_binom(n - 2, k - 1)
    assert e >= 0
    rhs = rhs * _f_poly(vs, dirs, n - 1) ** e
    return {"n": n, "k": k, "holds": lhs == rhs}


# ---------------------------------------------------------------------------
# property checks used by the verification suites


def cmtt_pi_identity_holds(x, d: int | None = None) -> bool:
    """pi_d times the squared torsion two below equals tau_d tau_{d-1}
    on complexes that are acyclic in positive codimension."""
    c = _as_chain(x)
    if d is None:
        d = c.dim
    t = c.torsion_order(d - 2) if d - 2 >= 0 else 1
    lhs = c.pi(d) * t * t
    rhs = tau_matrix_tree(c, d).tau * tau_matrix_tree(c, d - 1).tau
    return lhs == rhs


def submatrix_det_properties(x, k: int, sample: int = 0, seed: int = 0) -> dict:
    """Square submatrices of the top boundary detect tree pairs: the
    determinant is nonzero exactly when the chosen columns are the
    facets of a k-tree and the complementary rows of a (k-1)-tree, and
    then its magnitude is the product of the two torsion orders divided
    by the ambient one."""
    c = _as_chain(x)
    xs = c.skeleton(k)
    if not xs.is_apc():
        raise ValueError("skeleton is not acyclic in positive codimension")
    b = xs.boundary(k)
    k_labels = xs.labels(k)
    r_labels = xs.labels(k - 1)
    size = cst_target_size(xs, k)
    t_amb = xs.torsion_order(k - 2) if k - 2 >= 0 else 1
    col_sets = list(itertools.combinations(range(len(k_labels)), size))
    row_sets = list(itertools.combinations(range(len(r_labels)), size))
    pairs = [(rs, cs) for rs in row_sets for cs in col_sets]
    if sample:
        import random
        rng = random.Random(seed)
        pairs = rng.sample(pairs, min(sample, len(pairs)))
    cert_t: dict = {}
    cert_s: dict = {}
    checked = 0
    failures = []
    for rs, cs in pairs:
        det = det_exact(b.submatrix(rs, cs))
        if cs not in cert_t:
            cert_t[cs] = is_cst(xs, k, [k_labels[j] for j in cs])
        tc = cert_t[cs]
        sbar = tuple(j for j in range(len(r_labels)) if j not in set(rs))
        if sbar not in cert_s:
            cert_s[sbar] = is_cst(xs, k - 1, [r_labels[j] for j in sbar])
        sc = cert_s[sbar]
        ok = (det != 0) == (bool(tc) and bool(sc))
        if ok and det != 0:
            ok = abs(det) * t_amb == tc.torsion * sc.torsion
        checked += 1
        if not ok and len(failures) < 5:
            failures.append({"rows": rs, "cols": cs, "det": det})
    return {"checked": checked, "holds": not failures, "failures": failures}
