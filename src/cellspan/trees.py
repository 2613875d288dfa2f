"""Spanning-tree machinery for chain complexes.

A k-tree of X is a set T of k-cells such that Y = T plus the full
(k-1)-skeleton has trivial top homology, finite homology one below,
and the forced cell count; any two of the three force the third.
Engines: brute-force subset scan, reduced-Laplacian determinant with
torsion correction, the cellular matrix-tree theorem
pi_j = tau_j tau_(j-1) / t_(j-2)^2 (t_i = ChainComplex.torsion_order(i),
the torsion order of reduced H_i, 1 outside the homology range) solved
upward from tau_(-1) = 1, which without torsion is the alternating
product of the pi_j, and the closed form for full cubes.  All exact.

The determinant engines reduce at one (k-1)-tree U (_reduction): the
first basis of the boundary columns one dimension down, Ubar the other
(k-1)-cells, t_X and t_U the torsion orders of H_(k-2) of X and of the
(k-2)-skeleton plus U.  The matrix-tree engines take det L[Ubar, Ubar] t_X^2
/ t_U^2, the same at every U (Duval-Klivans-Martin); the brute engine
takes T of the forced size as a k-tree iff det d[Ubar, T] != 0, with
t_T = |det| t_X / t_U, the Cauchy-Binet step.  Its candidates are
scanned depth first with exact's Bareiss echelon (_Echelon), so a
prefix with dependent columns is never extended.
"""

from __future__ import annotations

import itertools
import math

from .chain import ChainComplex
from .cubical import (CubicalComplex, cube, weighted_diag_laplacian,
                      weight_vars, xi_weight)
from .exact import (_RING_SIDE_MAX, LaurentPoly, SparseMatrix, _Echelon, _pivot_columns,
                    det_exact, det_ring, dets_exact, gen_binom, smith_normal_form)

BRUTE_CAP = 10 ** 6
MATRIX_SIDE_CAP = 4096
# Largest reduced side of the weighted matrix-tree engine: det_ring's.
WEIGHTED_SIDE_CAP = _RING_SIDE_MAX
# Most terms the conjecture's expanded products may need (_check_expansion).
EXPANSION_TERM_CAP = 10 ** 5

METHODS = ("brute", "matrix-tree", "alternating-product", "closed-form")
WEIGHTED_METHODS = ("brute", "matrix-tree")


class CapExceeded(RuntimeError):
    """A computation would need more work than a cap allows; `what`
    names the cap."""

    def __init__(self, needed, cap, what: str):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.needed = needed
        self.cap = cap


def _as_chain(x) -> ChainComplex:
    return x.to_chain() if isinstance(x, CubicalComplex) else x


def _skeleton(x, k: int, lo: int = 0, apc: bool = True) -> ChainComplex:
    """The k-skeleton of x, once lo <= k <= dim holds, with apc once
    the skeleton is acyclic in positive codimension, and once the
    skeleton has k-cells (_check_dim): the one refusal of every engine."""
    c = _as_chain(x)
    if not (lo <= k <= c.dim):
        raise ValueError(f"k={k} out of range [{lo}, {c.dim}]")
    xs = c.skeleton(k)
    if apc and not xs.is_apc():
        raise ValueError("skeleton is not acyclic in positive codimension")
    xs._check_dim(k)
    return xs


class TreeQuery:
    """What to enumerate and how."""

    def __init__(self, complex, k: int, method: str = "brute",
                 weighted: bool = False, cap: int = BRUTE_CAP):
        # a full cube has every word over {0,1,*} as a face
        if method == "closed-form" and not (
                isinstance(complex, CubicalComplex)
                and len(complex.faces) == 3 ** len(complex.universe)):
            raise ValueError("closed-form method applies to full cubes only")
        if weighted and not isinstance(complex, CubicalComplex):
            raise ValueError("weighted enumeration needs a cubical complex")
        if weighted and method not in WEIGHTED_METHODS:
            raise ValueError(f"weighted enumeration has no {method} method")
        self.complex = complex
        self.chain = _as_chain(complex)
        _skeleton(self.chain, k, lo=1 if weighted else 0, apc=False)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if cap < 1:
            raise ValueError("cap must be positive")
        self.k = k
        self.method = method
        self.weighted = weighted
        self.cap = cap


class TreeReport:
    """Result of a tree computation, JSON-ready."""

    def __init__(self, tau, method: str, trees=None, u_cells=None, per_tree=None):
        self.tau = tau
        self.method = method
        self.trees = trees
        self.u_cells = tuple(u_cells) if u_cells is not None else None
        self.per_tree = tuple(per_tree) if per_tree is not None else ()

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
    below = xs.betti(k - 1) if k - 1 in xs.homology_range() else 0
    return xs.n_cells(k) - xs.betti(k) + below


def is_cst(x, k: int, T) -> CstCertificate:
    xs = _skeleton(x, k, apc=False)
    T = tuple(T)
    y = xs.with_top_cells(k, T)
    size_ok = len(set(T)) == cst_target_size(xs, k)
    top_acyclic = y.betti(k) == 0 if k <= y.dim else True
    # below the homology range (k = 0, no (-1)-cell) T needs a vertex
    finite_below = y.betti(k - 1) == 0 if k - 1 in y.homology_range() else len(T) >= 1
    torsion = y.torsion_order(k - 1) if finite_below else None
    return CstCertificate(size_ok, top_acyclic, finite_below, torsion)


# ---------------------------------------------------------------------------
# engines


def _reduction(xs: ChainComplex, k: int, order=None) -> tuple:
    """(U, Ubar, t_X, t_U) on the k-skeleton xs, U and Ubar as row
    indices of the reduced d_k.  U is the first column basis of the
    reduced d_(k-1), columns taken in `order` (stored order when None);
    Ubar the other rows, in stored order; t_X = t_(k-2) and t_U the
    torsion order of H_(k-2) of the (k-2)-skeleton plus U, the product
    of the Smith invariants of U's columns."""
    b = xs.homology_boundary(k - 1)
    order = range(b.ncols) if order is None else order
    basis = _pivot_columns(SparseMatrix([b.cols[j] for j in order], b.nrows))
    u = sorted(order[i] for i in basis)
    ubar = sorted(set(range(xs.homology_boundary(k).nrows)) - set(u))
    t_u = math.prod(smith_normal_form(SparseMatrix([b.cols[j] for j in u], b.nrows)))
    return u, ubar, xs.torsion_order(k - 2), t_u


def _degree_order(xs: ChainComplex, k: int) -> list:
    """The (k-1)-cells by decreasing nonzero count of their row in
    B diag(xi) B^T (B = d_k), ties in stored order.  That count is the
    number of (k-1)-cells sharing a k-cell with the row's cell, itself
    included, read off the pattern of B: distinct k-cells carry distinct
    weight monomials, so no entry cancels."""
    near = [set() for _ in range(xs.n_cells(k - 1))]
    for col in xs.sparse_boundary(k).cols:
        for r in col:
            near[r].update(col)
    return sorted(range(len(near)), key=lambda r: -len(near[r]))


def _torsion_scaled(value, t_x: int, t_u: int):
    """value * t_x / t_u, exactly, for an int or a LaurentPoly."""
    if t_x == t_u:
        return value
    try:
        if isinstance(value, LaurentPoly):
            return (value * t_x).divide_exact(t_u)
        out, rem = divmod(value * t_x, t_u)
        if rem:
            raise ArithmeticError
        return out
    except ArithmeticError:
        raise ArithmeticError("torsion ratio did not divide the determinant") from None


def enumerate_trees(q: TreeQuery) -> TreeReport:
    """Scan the candidate cell sets of the forced size in combinations
    order and list each k-tree with its torsion t_T.  tau is read off
    the list: the sum of t_T^2, times the face-weight monomial prod_f
    xi_f over the cells of T in weighted mode."""
    xs = _skeleton(q.chain, q.k)
    target = cst_target_size(xs, q.k)
    labels = xs.labels(q.k)
    n = len(labels)
    needed = math.comb(n, target)
    if needed > q.cap:
        raise CapExceeded(needed, q.cap, "brute-force subset cap")
    _, ubar, t_x, t_u = _reduction(xs, q.k)
    if len(ubar) != target:
        raise ArithmeticError("complement of U does not match the tree size")
    pos = {r: t for t, r in enumerate(ubar)}
    cols = [{pos[r]: v for r, v in col.items() if r in pos}
            for col in xs.homology_boundary(q.k).cols]
    per_tree = []
    ech = _Echelon()
    path: list = []
    j = 0
    while True:
        d = len(path)
        if d == target:
            t = _torsion_scaled(ech.det(), t_x, t_u)
            per_tree.append((tuple(labels[i] for i in path), t))
        if d == target or j > n - target + d:
            if not path:
                break
            j = path.pop() + 1
            ech.pop()
            continue
        v = ech.reduce(cols[j])
        if v:
            ech.push(v)
            path.append(j)
        j += 1
    if q.weighted:
        vs = weight_vars(q.complex.universe)
        xi = {f: xi_weight(q.complex.universe, f) for f in labels}
        one = LaurentPoly.constant(vs, 1)
        tau = LaurentPoly.linear_combination(vs, (
            (math.prod((xi[f] for f in cells), start=one), t * t) for cells, t in per_tree))
    else:
        tau = sum(t * t for _, t in per_tree)
    return TreeReport(tau, "brute", trees=len(per_tree), per_tree=per_tree)


def tau_matrix_tree(x, k: int) -> TreeReport:
    xs = _skeleton(x, k)
    if k == 0:
        # a 0-tree is a vertex whose augmentation entry is nonzero
        trees = sum(1 for col in xs.homology_boundary(0).cols if col)
        return TreeReport(xs.pi(0), "matrix-tree", trees=trees, u_cells=())
    if xs.n_cells(k - 1) > MATRIX_SIDE_CAP:
        raise CapExceeded(xs.n_cells(k - 1), MATRIX_SIDE_CAP,
                          "matrix-tree side cap (MATRIX_SIDE_CAP)")
    u, keep, t_x, t_u = _reduction(xs, k)
    lap = xs.laplacian(k - 1, "ud").cols
    det = det_exact([[lap[r].get(s, 0) for s in keep] for r in keep])
    tau = _torsion_scaled(det, t_x * t_x, t_u * t_u)
    return TreeReport(tau, "matrix-tree", u_cells=[xs.labels(k - 1)[j] for j in u])


def tau_alternating(x, k: int) -> int:
    """tau_j = pi_j t_(j-2)^2 / tau_(j-1) for j = 0..k from tau_(-1) = 1
    on the APC k-skeleton, t_i = torsion_order(i); with no torsion
    below k, the alternating product pi_k / pi_(k-1) * ... ."""
    xs = _skeleton(x, k)
    tau = 1
    for j in range(k + 1):
        t = xs.torsion_order(j - 2)
        tau, rem = divmod(xs.pi(j) * t * t, tau)
        if rem:
            raise ArithmeticError("alternating product is not an integer")
    return tau


def tau_cube_closed_form(n: int, k: int) -> int:
    """At k = 0 only j = 1 contributes (gen_binom(-1, -1) == 1): 2^n."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = 1
    for j in range(k + 1, n + 1):
        e = gen_binom(n, j) * gen_binom(j - 2, k - 1)
        assert e >= 0
        out *= (2 * j) ** e
    return out


def weighted_tau_matrix_tree(x: CubicalComplex, k: int) -> LaurentPoly:
    """Reduced determinant of the face-weighted Laplacian: equals the
    sum over k-trees of the squared torsion times the product of face
    weights.  The torsion-squared ratio enters as an integer factor.

    U is taken in _degree_order, so it holds the densest rows and
    det_ring's expansion keeps fewer rows open.  CapExceeded once the
    reduced side exceeds WEIGHTED_SIDE_CAP, before the Laurent
    Laplacian is built."""
    if not isinstance(x, CubicalComplex):
        raise ValueError("weighted engine needs a cubical complex")
    xs = _skeleton(x, k, lo=1)
    _, keep, t_x, t_u = _reduction(xs, k, _degree_order(xs, k))
    if len(keep) > WEIGHTED_SIDE_CAP:
        raise CapExceeded(len(keep), WEIGHTED_SIDE_CAP,
                          "weighted matrix-tree side cap (WEIGHTED_SIDE_CAP)")
    lw = weighted_diag_laplacian(x, k)
    det = det_ring([[lw[r][s] for s in keep] for r in keep])
    if isinstance(det, int):
        det = LaurentPoly.constant(weight_vars(x.universe), det)
    return _torsion_scaled(det, t_x * t_x, t_u * t_u)


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
    return TreeReport(tau_cube_closed_form(len(q.complex.universe), q.k), "closed-form")


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
        acc = acc + LaurentPoly.monomial(vs, {**base, **rest, f"x{i}": 1})
        acc = acc + LaurentPoly.monomial(vs, {**base, **rest, f"y{i}": 1})
    return acc


def conjecture_rhs(n: int, k: int) -> LaurentPoly:
    """Closed-form candidate for the weighted k-tree enumerator of the
    full n-cube: a power of q_1...q_n times a product of one bracket
    per direction subset of size at least k+1."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_expansion(n, _bracket_count(n, k))
    dirs = tuple(range(1, n + 1))
    vs = weight_vars(dirs)
    e = 0
    for i in range(k - 1, n):
        b1 = gen_binom(n - 1, i)
        b2 = gen_binom(i - 1, k - 2)
        assert b1 >= 0 and b2 >= 0
        e += b1 * b2
    return LaurentPoly.monomial(vs, {f"q{d}": e for d in dirs}) * _f_poly(vs, dirs, k, True)


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
    lhs_terms, rhs_terms = lhs.tau.terms, rhs.terms
    for ex in sorted(set(lhs_terms) | set(rhs_terms)):
        a = lhs_terms.get(ex, 0)
        b = rhs_terms.get(ex, 0)
        if a != b:
            out["first_difference"] = {
                "exp": list(ex), "brute": str(a), "conjecture": str(b)}
            break
    return out


def _bracket_count(n: int, k: int) -> int:
    """How many brackets _f_poly multiplies on n directions, powers
    counted with their exponents."""
    return sum(math.comb(n, r) * gen_binom(r - 2, k - 1) for r in range(k + 1, n + 1))


def _check_expansion(n: int, brackets: int) -> None:
    """CapExceeded unless every partial product of the given number of
    brackets over directions in [n] has at most EXPANSION_TERM_CAP
    terms.  A term of such a product is fixed by how often each
    direction i is the bracket's chosen index and how often it then
    takes y_i over x_i, so there are at most C(brackets + 2n - 1, 2n - 1)
    terms, whatever q is."""
    bound = math.comb(brackets + 2 * n - 1, 2 * n - 1)
    if bound > EXPANSION_TERM_CAP:
        raise CapExceeded(bound, EXPANSION_TERM_CAP,
                          "conjecture expansion term cap (EXPANSION_TERM_CAP)")


def _f_poly(vs, dirs, k: int, with_q: bool) -> LaurentPoly:
    """The conjecture's product of brackets over a direction subset;
    without q it is the product at q = 1."""
    poly = LaurentPoly.constant(vs, 1)
    for r in range(k + 1, len(dirs) + 1):
        ex = gen_binom(r - 2, k - 1)
        assert ex >= 0
        if ex == 0:
            continue
        for subset in itertools.combinations(dirs, r):
            poly = poly * _bracket(vs, subset, with_q) ** ex
    return poly


def f_recurrence_check(n: int, k: int) -> dict:
    """The q = 1 specialization should factor through the (n-1)-subsets
    and the top enumerator; verified by exact expansion."""
    if n < 2 or not (1 <= k <= n - 1):
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got n={n}, k={k}")
    e = gen_binom(n - 2, k - 1)
    _check_expansion(n, max(_bracket_count(n, k), n * _bracket_count(n - 1, k) + e))
    dirs = tuple(range(1, n + 1))
    vs = weight_vars(dirs)
    lhs = _f_poly(vs, dirs, k, False)
    rhs = LaurentPoly.constant(vs, 1)
    for subset in itertools.combinations(dirs, n - 1):
        rhs = rhs * _f_poly(vs, subset, k, False)
    assert e >= 0
    rhs = rhs * _f_poly(vs, dirs, n - 1, False) ** e
    return {"n": n, "k": k, "holds": lhs == rhs}


# ---------------------------------------------------------------------------
# property checks used by the verification suites


def cmtt_pi_identity_holds(x) -> bool:
    """pi_d times the squared torsion two below equals tau_d tau_{d-1},
    d the top dimension, on complexes that are acyclic in positive
    codimension."""
    c = _as_chain(x)
    d = c.dim
    t = c.torsion_order(d - 2)
    lhs = c.pi(d) * t * t
    rhs = tau_matrix_tree(c, d).tau * tau_matrix_tree(c, d - 1).tau
    return lhs == rhs


def submatrix_det_properties(x, k: int) -> dict:
    """Square submatrices of the top boundary detect tree pairs: the
    determinant is nonzero exactly when the chosen columns are the
    facets of a k-tree and the complementary rows of a (k-1)-tree, and
    then its magnitude is the product of the two torsion orders divided
    by the ambient one."""
    xs = _skeleton(x, k)
    b = xs.sparse_boundary(k).rows()
    k_labels = xs.labels(k)
    r_labels = xs.labels(k - 1)
    size = cst_target_size(xs, k)
    t_amb = xs.torsion_order(k - 2)
    col_sets = list(itertools.combinations(range(len(k_labels)), size))
    row_sets = list(itertools.combinations(range(len(r_labels)), size))
    pairs = [(rs, cs) for rs in row_sets for cs in col_sets]
    cert_t: dict = {}
    cert_s: dict = {}
    checked = 0
    failures = []
    dets = dets_exact([[b[i][j] for j in cs] for i in rs] for rs, cs in pairs)
    for (rs, cs), det in zip(pairs, dets):
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
