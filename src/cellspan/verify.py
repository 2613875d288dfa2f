"""Property suites over the built-in corpus.

Each suite returns Check rows; a row is hard when its failure means a
proved identity broke (exit code 4 territory), and soft when it only
reports the status of a conjecture.  Each suite run computes the
characteristic polynomial of each distinct matrix once: equal
Laplacians recur across the corpus, in mirrors sharing a skeleton and
in complexes rebuilt by several checks.
"""

from __future__ import annotations

import functools
import math

from .chain import (alternating_ud_holds, euler_identity_holds, product,
                    tot_split_holds, ud_du_shift_holds)
from .colorful import (colorful_complex, colorful_etot, colorful_omega,
                       colorful_tree_count, cross_polytope_cube_duality,
                       weighted_duality_check)
from .corpus import (colorful_corpus, colorful_sizes,
                     cube_algebraic_dd_zero, cube_weighted_spectrum_check,
                     identity_corpus, mirror_circle, mirror_corpus,
                     mirror_matroid_example, rp2, shifted_corpus)
from .cubical import (cube, near_prism_betti_check, prism_tot_identity_holds,
                      prism_ud_identity_holds, shifted_spectrum)
from .exact import LaurentPoly, char_poly_memo
from .trees import (BRUTE_CAP, CapExceeded, TreeQuery, cmtt_pi_identity_holds,
                    cst_target_size, f_recurrence_check, run_query,
                    submatrix_det_properties, tau_cube_closed_form,
                    verify_conjecture)


class Check:
    __slots__ = ("name", "ok", "hard", "detail")

    def __init__(self, name: str, ok: bool, hard: bool = True, detail: str = ""):
        self.name = name
        self.ok = bool(ok)
        self.hard = hard
        self.detail = detail

    def __repr__(self):
        return f"Check({self.name!r}, ok={self.ok})"


def _suite(fn):
    """Run the suite inside one char_poly memo, dropped when it returns
    or raises, so no suite run reuses the work of another."""
    @functools.wraps(fn)
    def run(*args, **kw):
        with char_poly_memo():
            return fn(*args, **kw)
    return run


def _agg(name: str, failures: list, scope: str, hard: bool = True) -> Check:
    detail = scope if not failures else "; ".join(failures[:5])
    return Check(name, not failures, hard, detail)


# ---------------------------------------------------------------------------
# identities


def spectral_identity_failures(items) -> list:
    bad = []
    for name, c in items:
        lo = -1 if c.empty_cell else 0
        for i in range(lo, c.dim + 1):
            if not ud_du_shift_holds(c, i):
                bad.append(f"{name} dim {i} ud-du shift")
            if not tot_split_holds(c, i):
                bad.append(f"{name} dim {i} tot split")
            if not alternating_ud_holds(c, i):
                bad.append(f"{name} dim {i} alternating")
            if c.char_polynomial(i, "tot").degree != c.n_cells(i):
                bad.append(f"{name} dim {i} cardinality")
            s = c.spectrum(i, "tot")
            if s.is_integral() and sum(s.eigs.values()) != c.n_cells(i):
                bad.append(f"{name} dim {i} q=1 count")
        if not euler_identity_holds(c):
            bad.append(f"{name} euler")
    return bad


def _edge_factor() -> LaurentPoly:
    # E(q,t) of a single edge: 1 + q^2 + t q^2
    return LaurentPoly(("q", "t"), {(0, 0): 1, (2, 0): 1, (2, 1): 1})


def prism_failures(cubicals) -> list:
    """Characteristic-polynomial prism identities always; the bivariate
    generating-function product and the shifted multiset recursion when
    the spectra involved are integral."""
    bad = []
    for name, x in cubicals:
        if not prism_tot_identity_holds(x):
            bad.append(f"{name} prism tot")
        if not prism_ud_identity_holds(x):
            bad.append(f"{name} prism ud")
        d = max(x.universe, default=0) + 1
        px = x.prism(d)
        cx, cp = x.to_chain(), px.to_chain()
        sx = [cx.spectrum(i, "tot") for i in range(cx.dim + 1)]
        sp = [cp.spectrum(i, "tot") for i in range(cp.dim + 1)]
        if all(s.is_integral() for s in sx + sp):
            if cp.total_gf() != _edge_factor() * cx.total_gf():
                bad.append(f"{name} prism gf")
            for i in range(cp.dim + 1):
                lhs = sorted(cp.spectrum(i, "ud").nonzero_multiset())
                rhs = sorted(cx.spectrum(i, "ud").nonzero_multiset()
                             if i <= cx.dim else ())
                if i <= cx.dim:
                    rhs = sorted(rhs + [v + 2 for v in sx[i].multiset()])
                if lhs != rhs:
                    bad.append(f"{name} dim {i} prism sud")
    return bad


def product_cube_failures() -> list:
    bad = []
    q3 = cube(3).to_chain()
    pr = product(cube(1).to_chain(), cube(2).to_chain())
    for i in range(4):
        for fam in ("ud", "du", "tot"):
            if pr.char_polynomial(i, fam) != q3.char_polynomial(i, fam):
                bad.append(f"dim {i} family {fam}")
    return bad


def colorful_closed_form_failures(colorfuls) -> list:
    bad = []
    for a, c in colorfuls:
        tag = ",".join(map(str, a))
        for i in range(-1, len(a)):
            if colorful_etot(a, i) != c.spectrum(i, "tot").eigs:
                bad.append(f"colorful:{tag} dim {i} etot")
        for i in range(len(a)):
            if colorful_omega(a, i) != c.omega(i):
                bad.append(f"colorful:{tag} dim {i} omega")
    return bad


@_suite
def suite_identities(cap=None, seed: int = 0, colorful_max: int = 8,
                     prism_mirror_max: int = 3) -> list:
    colorfuls = colorful_corpus(colorful_max)
    items = identity_corpus(colorfuls=colorfuls)
    rows = [_agg("spectral-identities", spectral_identity_failures(items),
                 f"{len(items)} complexes")]
    rows.append(_agg("colorful-closed-forms",
                     colorful_closed_form_failures(colorfuls),
                     f"{len(colorfuls)} size tuples"))
    cubicals = [(f"cube:{n}", cube(n)) for n in range(1, 4)]
    cubicals += [(name, x) for name, _f, x in mirror_corpus(prism_mirror_max)]
    rows.append(_agg("prism-identities", prism_failures(cubicals),
                     f"{len(cubicals)} cubical complexes"))
    rows.append(_agg("product-q1-q2-vs-q3", product_cube_failures(),
                     "4 dimensions x 3 families"))
    wbad = [f"cube:{n}" for n in range(1, 4)
            if not cube_weighted_spectrum_check(n, trials=3, seed=seed)]
    wbad += [f"cube:{n} dd" for n in range(1, 4)
             if not cube_algebraic_dd_zero(n)]
    rows.append(_agg("weighted-cube-spectra", wbad,
                     "n <= 3, 3 assignments, dd = 0"))
    return rows


# ---------------------------------------------------------------------------
# engines


def _tau(c, k, method, cap):
    return run_query(TreeQuery(c, k, method=method, cap=cap)).tau


def engine_failures(cap: int, colorful_max: int = 8) -> list:
    bad = []
    for n in range(1, 4):
        c = cube(n)
        for k in range(0, n + 1):
            want = 2 ** n if k == 0 else tau_cube_closed_form(n, k)
            got = {}
            for method in ("brute", "matrix-tree", "alternating-product"):
                try:
                    got[method] = _tau(c, k, method, cap)
                except CapExceeded:
                    continue
            if k >= 1:
                got["closed-form"] = run_query(
                    TreeQuery(c, k, method="closed-form", cube_n=n)).tau
            for method, tau in got.items():
                if tau != want:
                    bad.append(f"cube:{n} k={k} {method} {tau} != {want}")
    for k in (2, 3, 4):
        mt = _tau(cube(4), k, "matrix-tree", cap)
        cf = tau_cube_closed_form(4, k)
        if mt != cf:
            bad.append(f"cube:4 k={k} matrix-tree {mt} != {cf}")
    r = rp2()
    if _tau(r, 2, "brute", cap) != 4 or _tau(r, 2, "matrix-tree", cap) != 4:
        bad.append("rp2 k=2 != 4")
    for a in colorful_sizes(colorful_max):
        c = colorful_complex(a)
        for k in range(0, min(2, len(a) - 1) + 1):
            want = colorful_tree_count(a, k)
            if _tau(c, k, "matrix-tree", cap) != want:
                bad.append(f"colorful:{a} k={k} matrix-tree != closed form")
            size = cst_target_size(c.skeleton(k), k)
            if math.comb(c.n_cells(k), size) <= cap:
                if _tau(c, k, "brute", cap) != want:
                    bad.append(f"colorful:{a} k={k} brute != closed form")
            if c.skeleton(k).z_apc_below(k):
                if _tau(c, k, "alternating-product", cap) != want:
                    bad.append(f"colorful:{a} k={k} alternating != closed form")
    return bad


def cmtt_failures(colorful_max: int = 8) -> list:
    bad = []
    items = [("rp2", rp2())]
    items += [(f"cube:{n}", cube(n).to_chain()) for n in range(1, 4)]
    items += [(f"colorful:{a}", colorful_complex(a))
              for a in colorful_sizes(colorful_max)]
    items += [(name, x.to_chain()) for name, _f, x in mirror_corpus(3)]
    for name, c in items:
        if c.dim < 1 or not c.is_apc():
            continue
        if not cmtt_pi_identity_holds(c):
            bad.append(name)
    return bad


def submatrix_failures() -> list:
    bad = []
    for name, x, k in (("cube:2", cube(2), 1), ("cube:3 2-skeleton", cube(3), 2)):
        r = submatrix_det_properties(x, k)
        if not r["holds"]:
            bad.append(f"{name}: {r['failures'][:3]}")
    return bad


@_suite
def suite_engines(cap: int = BRUTE_CAP, seed: int = 0,
                  colorful_max: int = 8) -> list:
    return [
        _agg("tree-engine-agreement", engine_failures(cap, colorful_max),
             "cubes n<=4, rp2, colorful"),
        _agg("cmtt-part-1", cmtt_failures(colorful_max), "APC corpus members"),
        _agg("submatrix-det-props", submatrix_failures(),
             "Q_2 and Q_3 2-skeleton, exhaustive"),
    ]


# ---------------------------------------------------------------------------
# duality


@_suite
def suite_duality(cap=None, seed: int = 0, tree_samples: int = 200) -> list:
    rows = []
    for n in (2, 3):
        rep = cross_polytope_cube_duality(n, tree_samples=tree_samples, seed=seed)
        rows.append(Check(f"duality-spectra-n{n}", rep["spectra_match"],
                          detail=f"{n + 1} dimension pairs"))
        rows.append(Check(f"duality-pairing-n{n}", rep["pairing_consistent"],
                          detail="boundary = transposed boundary"))
        rows.append(Check(
            f"duality-complementation-n{n}", rep["complementation_holds"],
            detail=f"{rep['complementation_checked']} subsets"))
    rows.append(Check("duality-weighted-q2",
                      weighted_duality_check(2, trials=3, seed=seed),
                      detail="reciprocal weights, 3 assignments"))
    return rows


# ---------------------------------------------------------------------------
# shifted


def _direct_sud(x) -> tuple:
    c = x.to_chain()
    if c.dim < 1:
        return ()
    s = c.spectrum(c.dim - 1, "ud")
    if not s.is_integral():
        raise ArithmeticError("non-integral")
    return tuple(sorted(s.nonzero_multiset(), reverse=True))


def shifted_recursion_failures(nmax: int = 4) -> list:
    bad = []
    for name, x in shifted_corpus(nmax):
        if not x.is_shifted():
            bad.append(f"{name} not shifted")
            continue
        if not x.is_pure():
            continue
        if shifted_spectrum(x) != _direct_sud(x):
            bad.append(f"{name} recursion != direct")
    return bad


def shifted_integrality_failures(nmax: int = 4) -> list:
    bad = []
    for name, x in shifted_corpus(nmax):
        c = x.to_chain()
        for i in range(c.dim + 1):
            for fam in ("ud", "du", "tot"):
                if not c.spectrum(i, fam).is_integral():
                    bad.append(f"{name} dim {i} {fam}")
    return bad


def near_prism_betti_rows(nmax: int = 4):
    checked = 0
    bad = []
    for name, x in shifted_corpus(nmax):
        for i in x.universe:
            if not x.near_prism(i).holds:
                continue
            rep = near_prism_betti_check(x, i)
            checked += 1
            for row in rep["rows"]:
                if row["betti"] != row["predicted"]:
                    bad.append(f"{name} direction {i} dim {row['dim']}")
    return checked, bad


@_suite
def suite_shifted(cap=None, seed: int = 0, nmax: int = 4) -> list:
    rows = [
        _agg("shifted-recursion", shifted_recursion_failures(nmax),
             f"pure shifted complexes on <= {nmax} directions"),
        _agg("shifted-integrality", shifted_integrality_failures(nmax),
             f"all shifted complexes on <= {nmax} directions"),
    ]
    circle = mirror_circle()
    rows.append(Check("mirror-circle-not-apc",
                      circle.is_shifted() and not circle.to_chain().is_apc(),
                      detail="shifted complexes need not be APC"))
    noni = mirror_matroid_example().to_chain()
    found = any(not noni.spectrum(i, fam).is_integral()
                for i in range(noni.dim + 1) for fam in ("ud", "du", "tot"))
    rows.append(Check("mirror-matroid-nonintegral", found,
                      detail=("cited counterexample reproduces" if found else
                              "every Laplacian of this mirror is integral"
                              " (it is a product of integral complexes)")))
    checked, bad = near_prism_betti_rows(nmax)
    rows.append(_agg("near-prism-betti", bad,
                     f"{checked} near-prism decompositions", hard=False))
    return rows


# ---------------------------------------------------------------------------
# conjectures


CONJECTURE_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3))
RECURRENCE_PAIRS = ((3, 1), (3, 2), (4, 2), (4, 3))


@_suite
def suite_conjectures(cap: int = BRUTE_CAP, seed: int = 0) -> list:
    rows = []
    for n, k in CONJECTURE_PAIRS:
        rep = verify_conjecture(n, k, cap=cap)
        detail = "equal" if rep["equal"] else f"differs: {rep['first_difference']}"
        rows.append(Check(f"conjecture-{n}-{k}", rep["equal"], hard=False,
                          detail=detail))
    for n, k in RECURRENCE_PAIRS:
        ok = f_recurrence_check(n, k)["holds"]
        rows.append(Check(f"f-recurrence-{n}-{k}", ok, hard=False,
                          detail="holds" if ok else "fails"))
    return rows


SUITES = {
    "identities": suite_identities,
    "engines": suite_engines,
    "duality": suite_duality,
    "shifted": suite_shifted,
    "conjectures": suite_conjectures,
}
