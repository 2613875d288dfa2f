"""Complete colorful complexes and the cube/cross-polytope pipeline.

A colorful complex on color classes of sizes a_1..a_n has one vertex
set per class and takes all vertex sets meeting each class at most
once, the empty set included.  Closed forms for spectra, eigenvalue
products, and tree counts are checked against the generic machinery.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .chain import ChainComplex, simplicial
from .cubical import cube, weight_vars, weighted_total_laplacian, xi_weight
from .exact import LaurentPoly, SparseMatrix, char_poly, gen_binom, outer_sum, sparse_transpose
from .trees import cst_target_size, is_cst

FACE_CAP = 4096
# Subsets the duality report tests per dimension when there are more.
TREE_SAMPLES = 200
# Random rational weight assignments per weighted spectrum check.
WEIGHT_TRIALS = 3


class ColorfulSpec:
    """Sizes a_1..a_n with the derived quantities used by the closed
    forms: A(K) sums sizes over a class set, B(J) raises the
    complementary sum to the product of (a_j - 1)."""

    def __init__(self, a):
        a = tuple(int(v) for v in a)
        if not a or any(v < 1 for v in a):
            raise ValueError("class sizes must be positive")
        self.a = a
        self.n = len(a)

    def size(self, i: int) -> int:
        return self.a[i - 1]

    def A(self, K) -> int:
        return sum(self.a[i - 1] for i in K)

    def complement(self, K) -> tuple:
        ks = set(K)
        return tuple(i for i in range(1, self.n + 1) if i not in ks)

    def B(self, J) -> int:
        e = 1
        for j in J:
            e *= self.a[j - 1] - 1
        return self.A(self.complement(J)) ** e

    def vertex(self, i: int, j: int) -> str:
        return f"v{i}_{j}"

    def vertices(self) -> tuple:
        return tuple(self.vertex(i, j)
                     for i in range(1, self.n + 1)
                     for j in range(1, self.a[i - 1] + 1))


def colorful_complex(a) -> ChainComplex:
    """Simplicial chain complex with the empty cell stored, so all
    homology is reduced and the bottom Laplacian sees the augmentation."""
    spec = ColorfulSpec(a)
    total = 1
    for v in spec.a:
        total *= v + 1
    if total > FACE_CAP:
        raise ValueError(f"{total} faces exceed cap {FACE_CAP}")
    classes = tuple(range(1, spec.n + 1))
    by_dim: dict = {}
    for d in range(spec.n):
        faces = []
        for ks in itertools.combinations(classes, d + 1):
            for js in itertools.product(*[range(1, spec.a[k - 1] + 1) for k in ks]):
                faces.append(tuple(spec.vertex(k, j) for k, j in zip(ks, js)))
        by_dim[d] = faces
    return simplicial(by_dim, empty_cell=True)


def colorful_spec_poly(a) -> LaurentPoly:
    """Product over classes of 1 + t(1 + (a_k - 1) q^{a_k})."""
    spec = ColorfulSpec(a)
    vs = ("q", "t")
    out = LaurentPoly.constant(vs, 1)
    for ak in spec.a:
        f = LaurentPoly(vs, {(0, 0): 1, (0, 1): 1, (ak, 1): ak - 1})
        out = out * f
    return out


def colorful_etot(a, i: int) -> dict:
    """Total-Laplacian eigenvalue multiset in dimension i as a dict.
    Each class set K of size i+1 contributes eigenvalues A(K-bar)+A(P)
    over subsets P of K, weighted by products of (a_k - 1)."""
    spec = ColorfulSpec(a)
    if not (-1 <= i <= spec.n - 1):
        raise ValueError(f"dimension {i} out of range [-1, {spec.n - 1}]")
    if i == -1:
        return {spec.A(range(1, spec.n + 1)): 1}
    out: dict = {}
    for K in itertools.combinations(range(1, spec.n + 1), i + 1):
        base = spec.A(spec.complement(K))
        for r in range(len(K) + 1):
            for P in itertools.combinations(K, r):
                m = 1
                for k in K:
                    if k not in P:
                        m *= spec.a[k - 1] - 1
                if m:
                    lam = base + spec.A(P)
                    out[lam] = out.get(lam, 0) + m
    return out


def colorful_tree_count(a, k: int) -> int:
    """Closed-form k-tree enumerator: product of B(J) over class sets
    of size at most k, with binomial multiplicities."""
    spec = ColorfulSpec(a)
    if not (0 <= k <= spec.n - 1):
        raise ValueError(f"k={k} out of range [0, {spec.n - 1}]")
    out = 1
    for j in range(k + 1):
        upper = spec.n - j - 2
        assert upper >= 0 or k == j
        e = gen_binom(upper, k - j)
        assert e >= 0
        if e == 0:
            continue
        for J in itertools.combinations(range(1, spec.n + 1), j):
            out *= spec.B(J) ** e
    return out


def colorful_omega(a, i: int) -> int:
    """Closed-form product of the nonzero total-Laplacian eigenvalues
    in dimension i.  The full class set is excluded from the product:
    its factor would be the zero eigenvalue's contribution."""
    spec = ColorfulSpec(a)
    if not (0 <= i <= spec.n - 1):
        raise ValueError(f"i={i} out of range [0, {spec.n - 1}]")
    out = 1
    for j in range(min(i + 1, spec.n - 1) + 1):
        for J in itertools.combinations(range(1, spec.n + 1), j):
            if len(J) == spec.n:
                continue
            mult = gen_binom(spec.n - j, i + 1 - j)
            e = 1
            for v in J:
                e *= spec.a[v - 1] - 1
            out *= spec.A(spec.complement(J)) ** (mult * e)
    return out


def colorful_gf_identity_holds(a) -> bool:
    """The two-variable spectrum series of the complex equals
    q^{|V|} t^{-1} SpecPoly(t, 1/q), exact in Laurent terms."""
    spec = ColorfulSpec(a)
    nv = sum(spec.a)
    lhs = colorful_complex(a).total_gf()
    sp = colorful_spec_poly(a)
    terms = {}
    for (eq, et), cf in sp.terms.items():
        key = (nv - eq, et - 1)
        terms[key] = terms.get(key, 0) + cf
    return lhs == LaurentPoly(("q", "t"), terms)


# ---------------------------------------------------------------------------
# cube / cross-polytope duality


def cube_face_to_simplex(spec: ColorfulSpec, f: str) -> str:
    """Pinned coordinates pick one vertex per class: 0 the first, 1 the
    second.  The all-star face maps to the empty cell (empty label)."""
    return "-".join(spec.vertex(pos + 1, int(c) + 1)
                    for pos, c in enumerate(f) if c != "*")


def _sign_consistent_pairing(qc: ChainComplex, xc: ChainComplex, n: int,
                             face_map: dict) -> bool:
    """Is there a per-cell sign choice making the simplicial boundary
    the transpose of the cubical one under the face bijection?  Signs
    propagate through nonzero incidences; any inconsistent cycle or
    mismatched zero pattern answers no."""
    # collect constraints eps_u * eps_w = s over cells of the cube side
    adj: dict = {}
    for j in range(0, n):
        bx, bq = xc.sparse_boundary(j), qc.sparse_boundary(n - j)
        # X j-cells pair with cube (n-1-j)-cells, X (j-1)-cells with
        # cube (n-j)-cells; entries must agree up to the sign choice.  The
        # pairing is a bijection, so equal nonzero counts and a nonzero
        # partner for each nonzero of bq make the zero patterns agree.
        if sum(map(len, bx.cols)) != sum(map(len, bq.cols)):
            return False
        col_of = {lab: c for c, lab in enumerate(xc.labels(j))}
        row_of = {lab: r for r, lab in enumerate(xc.labels(j - 1) if j >= 1 else ("",))}
        q_rows = qc.labels(n - j - 1)
        for q_col_lab, col in zip(qc.labels(n - j), bq.cols):
            for qr, e_q in col.items():
                e_x = bx.entry(row_of[face_map[q_col_lab]], col_of[face_map[q_rows[qr]]])
                if abs(e_q) != abs(e_x):
                    return False
                u, w, s = (n - j - 1, q_rows[qr]), (n - j, q_col_lab), 1 if e_q == e_x else -1
                adj.setdefault(u, []).append((w, s))
                adj.setdefault(w, []).append((u, s))
    # BFS sign propagation over the incidence graph
    eps: dict = {}
    for node in adj:
        if node in eps:
            continue
        eps[node] = 1
        stack = [node]
        while stack:
            u = stack.pop()
            for w, s in adj[u]:
                want = eps[u] * s
                if w in eps:
                    if eps[w] != want:
                        return False
                else:
                    eps[w] = want
                    stack.append(w)
    return True


def unrank_combination(n: int, k: int, index: int) -> tuple:
    """The k-subset of range(n) at the given position (0-based) in
    itertools.combinations order."""
    out = []
    x = 0
    while len(out) < k:
        # subsets with the next element x come before those without it
        c = math.comb(n - x - 1, k - len(out) - 1)
        if index < c:
            out.append(x)
        else:
            index -= c
        x += 1
    return tuple(out)


def cross_polytope_cube_duality(n: int, seed: int = 0) -> dict:
    """Spectra, the explicit face pairing, and tree complementation
    between the n-cube and the all-twos colorful complex, for
    1 <= n <= 4."""
    if not (1 <= n <= 4):
        raise ValueError("dual supports 1 <= n <= 4")
    spec = ColorfulSpec((2,) * n)
    qx = cube(n)
    qc = qx.to_chain()
    xc = colorful_complex(spec.a)

    spectra_ok = True
    for k in range(n + 1):
        i = n - 1 - k
        if qc.spectrum(k, "tot").eigs != xc.spectrum(i, "tot").eigs:
            spectra_ok = False

    face_map = {f: cube_face_to_simplex(spec, f) for f in qx.faces}
    pairing_ok = _sign_consistent_pairing(qc, xc, n, face_map)

    rng = random.Random(seed)
    comp_checked = 0
    comp_ok = True
    for k in range(n + 1):
        i = n - 1 - k
        if i < 0:
            continue
        q_cells = qc.labels(k)
        size = cst_target_size(qc.skeleton(k), k)
        total = math.comb(len(q_cells), size)
        if total > TREE_SAMPLES:
            # the positions random.sample draws from the list of all
            # subsets, without building it
            picks = [unrank_combination(len(q_cells), size, j)
                     for j in rng.sample(range(total), TREE_SAMPLES)]
        else:
            picks = itertools.combinations(range(len(q_cells)), size)
        for idx in picks:
            chosen = set(idx)
            t_cells = [q_cells[j] for j in idx]
            rest = [face_map[q_cells[j]] for j in range(len(q_cells))
                    if j not in chosen]
            a_tree = bool(is_cst(qc, k, t_cells))
            b_tree = bool(is_cst(xc, i, rest))
            comp_checked += 1
            if a_tree != b_tree:
                comp_ok = False
    return {"n": n, "spectra_match": spectra_ok, "pairing_consistent": pairing_ok,
            "complementation_holds": comp_ok, "complementation_checked": comp_checked}


# ---------------------------------------------------------------------------
# weighted duality at rational points


def _weighted_tot_fraction(c: ChainComplex, i: int, wt_by_dim: dict):
    """Total Laplacian with algebraic cell weights given as Fractions
    per dimension (lists aligned with stored labels)."""
    lo = -1 if c.empty_cell else 0

    def columns(j):  # of the weighted boundary into the j-cells
        if not lo < j <= c.dim:
            return []
        wr, wc = wt_by_dim[j - 1], wt_by_dim[j]
        return [{r: Fraction(v) * wc[s] / wr[r] for r, v in col.items()}
                for s, col in enumerate(c.sparse_boundary(j).cols)]

    n = c.n_cells(i)
    vectors = columns(i + 1) + sparse_transpose(columns(i), c.n_cells(i - 1))
    rows = outer_sum(n, ((v, v) for v in vectors))
    return [[row.get(s, Fraction(0)) for s in range(n)] for row in rows]


def frac_char_poly(m) -> list:
    """Characteristic polynomial of a square Fraction matrix, ascending
    Fraction coefficients, via integer scaling: if N = D*M then
    chi_M(y) = chi_N(D*y) / D^size."""
    size = len(m)
    d = 1
    for row in m:
        for v in row:
            d = d * v.denominator // math.gcd(d, v.denominator)
    chi = char_poly(SparseMatrix.from_rows([[int(v * d) for v in row] for row in m], ncols=size))
    return [Fraction(chi.coeff(j), d ** (size - j)) for j in range(size + 1)]


def weighted_duality_check(n: int = 2, seed: int = 0) -> bool:
    """Give every cube face its weight monomial and every dual simplex
    the reciprocal; at random rational assignments the two total
    Laplacian spectra must coincide dimension by paired dimension."""
    spec = ColorfulSpec((2,) * n)
    qx = cube(n)
    qc = qx.to_chain()
    xc = colorful_complex(spec.a)
    vs = weight_vars(qx.universe)
    rng = random.Random(seed)
    inv_label = {cube_face_to_simplex(spec, f): f for f in qx.faces}
    for _ in range(WEIGHT_TRIALS):
        assign = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in vs}
        xi_of = {f: xi_weight(qx.universe, f).subs(assign) for f in qx.faces}
        x_wt: dict = {-1: [1 / xi_of["*" * n]]}
        for i in range(xc.dim + 1):
            x_wt[i] = [1 / xi_of[inv_label[lab]] for lab in xc.labels(i)]
        for k in range(n + 1):
            i = n - 1 - k
            lq = weighted_total_laplacian(qx, k)
            mq = [[e.subs(assign) for e in row] for row in lq]
            mx = _weighted_tot_fraction(xc, i, x_wt)
            if frac_char_poly(mq) != frac_char_poly(mx):
                return False
    return True
