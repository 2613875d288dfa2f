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

from .chain import (FAMILIES, alternating_ud_holds, char_polynomials,
                    euler_identity_holds, product, tot_split_holds,
                    ud_du_shift_holds)
from .colorful import (WEIGHT_TRIALS, colorful_etot, colorful_omega,
                       colorful_tree_count, cross_polytope_cube_duality,
                       weighted_duality_check)
from .corpus import (colorful_corpus, cube_algebraic_dd_zero,
                     cube_weighted_spectrum_check, identity_corpus,
                     mirror_circle, mirror_corpus, mirror_matroid_example,
                     rp2, shifted_corpus)
from .cubical import (cube, near_prism_betti_check, shifted_spectrum,
                      spectrum_direct)
from .exact import IntPoly, LaurentPoly, char_poly_memo
from .trees import (CapExceeded, TreeQuery, cmtt_pi_identity_holds,
                    f_recurrence_check, run_query, submatrix_det_properties,
                    tau_cube_closed_form, verify_conjecture)

# The prism rule takes the mirrors on at most this many vertices, and the
# shifted suite the shifted complexes on at most this many directions.
PRISM_MIRROR_MAX = 3
SHIFTED_NMAX = 4

# The brute-force engines of the engines and conjectures suites stop at
# this many candidate subsets, well below trees.BRUTE_CAP: every check
# fits, and a suite that outgrows it exits 3 in seconds, not minutes.
VERIFY_CAP = 50_000


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
    char_polynomials([c for _, c in items])
    for name, c in items:
        for i in c.homology_range():
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
    """The prism rule for cubical spectra, checked on one prism of each
    complex x: in each dimension i the total Laplacian of the prism has
    the spectrum of x in dimension i plus two copies shifted by 2, from
    dimensions i and i-1, and its up-down spectrum is that of x plus the
    total spectrum of x shifted by 2 (zero eigenvalues stripped).  These
    char-poly forms hold always; the bivariate generating-function
    product and the up-down multisets are compared when the total
    spectra involved are integral."""
    bad = []
    one = IntPoly((1,))

    def at(polys, i):
        return polys[i] if 0 <= i < len(polys) else one

    for name, x in cubicals:
        px = x.prism(max(x.universe, default=0) + 1)
        cx, cp = x.to_chain(), px.to_chain()
        xdims, pdims = range(cx.dim + 1), range(cp.dim + 1)
        tot = [cx.char_polynomial(i, "tot") for i in xdims]
        up = [p.compose_shift(-2) for p in tot]
        ud = [cx.char_polynomial(i, "ud").strip_valuation() for i in xdims]
        if any(cp.char_polynomial(i, "tot") != at(tot, i) * at(up, i) * at(up, i - 1)
               for i in pdims):
            bad.append(f"{name} prism tot")
        if any(cp.char_polynomial(i, "ud").strip_valuation()
               != (at(ud, i) * at(up, i)).strip_valuation() for i in pdims):
            bad.append(f"{name} prism ud")
        sx = [cx.spectrum(i, "tot") for i in xdims]
        if not all(s.is_integral() for s in sx + [cp.spectrum(i, "tot") for i in pdims]):
            continue
        if cp.total_gf() != _edge_factor() * cx.total_gf():
            bad.append(f"{name} prism gf")
        for i in pdims:
            rhs = [] if i > cx.dim else [*cx.spectrum(i, "ud").nonzero_multiset(),
                                         *(v + 2 for v in sx[i].multiset())]
            if sorted(cp.spectrum(i, "ud").nonzero_multiset()) != sorted(rhs):
                bad.append(f"{name} dim {i} prism sud")
    return bad


def product_cube_failures() -> list:
    bad = []
    q3 = cube(3).to_chain()
    pr = product(cube(1).to_chain(), cube(2).to_chain())
    for i in range(4):
        for fam in FAMILIES:
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
def suite_identities(cap=None, seed: int = 0, colorful_max: int = 8) -> list:
    colorfuls = colorful_corpus(colorful_max)
    mirrors = mirror_corpus(4)
    items = identity_corpus(mirrors, colorfuls)
    cubicals = [(f"cube:{n}", cube(n)) for n in range(1, 4)]
    # mirror_corpus lists the mirrors by vertex count: this is a prefix
    cubicals += [(name, x) for name, _f, x in mirrors
                 if len(x.universe) <= PRISM_MIRROR_MAX]
    del mirrors  # items keeps their chains; free the larger complexes
    rows = [_agg("spectral-identities", spectral_identity_failures(items),
                 f"{len(items)} complexes")]
    rows.append(_agg("colorful-closed-forms",
                     colorful_closed_form_failures(colorfuls),
                     f"{len(colorfuls)} size tuples"))
    rows.append(_agg("prism-identities", prism_failures(cubicals),
                     f"{len(cubicals)} cubical complexes"))
    rows.append(_agg("product-q1-q2-vs-q3", product_cube_failures(),
                     "4 dimensions x 3 families"))
    wbad = [f"cube:{n}" for n in range(1, 4)
            if not cube_weighted_spectrum_check(n, seed=seed)]
    wbad += [f"cube:{n} dd" for n in range(1, 4)
             if not cube_algebraic_dd_zero(n)]
    rows.append(_agg("weighted-cube-spectra", wbad,
                     f"n <= 3, {WEIGHT_TRIALS} assignments, dd = 0"))
    return rows


# ---------------------------------------------------------------------------
# engines


def _tau(c, k, method, cap):
    return run_query(TreeQuery(c, k, method=method, cap=cap)).tau


def engine_failures(cap: int, cubes: dict, r, colorfuls) -> list:
    bad = []
    for n in range(1, 4):
        for k in range(0, n + 1):
            want = tau_cube_closed_form(n, k)
            got = {}
            for method in ("brute", "matrix-tree", "alternating-product",
                           "closed-form"):
                try:
                    got[method] = _tau(cubes[n], k, method, cap)
                except CapExceeded:
                    continue
            for method, tau in got.items():
                if tau != want:
                    bad.append(f"cube:{n} k={k} {method} {tau} != {want}")
    for k in (2, 3, 4):
        mt = _tau(cubes[4], k, "matrix-tree", cap)
        cf = tau_cube_closed_form(4, k)
        if mt != cf:
            bad.append(f"cube:4 k={k} matrix-tree {mt} != {cf}")
    if any(_tau(r, 2, m, cap) != 4
           for m in ("brute", "matrix-tree", "alternating-product")):
        bad.append("rp2 k=2 != 4")
    for a, c in colorfuls:
        for k in range(0, min(2, len(a) - 1) + 1):
            want = colorful_tree_count(a, k)
            if _tau(c, k, "matrix-tree", cap) != want:
                bad.append(f"colorful:{a} k={k} matrix-tree != closed form")
            try:
                if _tau(c, k, "brute", cap) != want:
                    bad.append(f"colorful:{a} k={k} brute != closed form")
            except CapExceeded:
                pass
            if _tau(c, k, "alternating-product", cap) != want:
                bad.append(f"colorful:{a} k={k} alternating != closed form")
    return bad


def cmtt_failures(cubes: dict, r, colorfuls) -> list:
    bad = []
    items = [("rp2", r)]
    items += [(f"cube:{n}", cubes[n].to_chain()) for n in range(1, 4)]
    items += [(f"colorful:{a}", c) for a, c in colorfuls]
    items += [(name, x.to_chain()) for name, _f, x in mirror_corpus(3)]
    for name, c in items:
        if c.dim < 1 or not c.is_apc():
            continue
        if not cmtt_pi_identity_holds(c):
            bad.append(name)
    return bad


def submatrix_failures(cubes: dict) -> list:
    bad = []
    for name, x, k in (("cube:2", cubes[2], 1), ("cube:3 2-skeleton", cubes[3], 2)):
        r = submatrix_det_properties(x, k)
        if not r["holds"]:
            bad.append(f"{name}: {r['failures'][:3]}")
    return bad


@_suite
def suite_engines(cap: int = VERIFY_CAP, seed: int = 0,
                  colorful_max: int = 8) -> list:
    cubes = {n: cube(n) for n in range(1, 5)}
    r = rp2()
    colorfuls = colorful_corpus(colorful_max)
    return [
        _agg("tree-engine-agreement", engine_failures(cap, cubes, r, colorfuls),
             "cubes n<=4, rp2, colorful"),
        _agg("cmtt-part-1", cmtt_failures(cubes, r, colorfuls),
             "APC corpus members"),
        _agg("submatrix-det-props", submatrix_failures(cubes),
             "Q_2 and Q_3 2-skeleton, exhaustive"),
    ]


# ---------------------------------------------------------------------------
# duality


@_suite
def suite_duality(cap=None, seed: int = 0) -> list:
    rows = []
    for n in (2, 3):
        rep = cross_polytope_cube_duality(n, seed=seed)
        rows.append(Check(f"duality-spectra-n{n}", rep["spectra_match"],
                          detail=f"{n + 1} dimension pairs"))
        rows.append(Check(f"duality-pairing-n{n}", rep["pairing_consistent"],
                          detail="boundary = transposed boundary"))
        rows.append(Check(
            f"duality-complementation-n{n}", rep["complementation_holds"],
            detail=f"{rep['complementation_checked']} subsets"))
    rows.append(Check("duality-weighted-q2",
                      weighted_duality_check(2, seed=seed),
                      detail=f"reciprocal weights, {WEIGHT_TRIALS} assignments"))
    return rows


# ---------------------------------------------------------------------------
# shifted


def shifted_recursion_failures(corpus) -> list:
    bad = []
    for name, x in corpus:
        if not x.is_shifted():
            bad.append(f"{name} not shifted")
            continue
        if not x.is_pure():
            continue
        if shifted_spectrum(x) != spectrum_direct(x):
            bad.append(f"{name} recursion != direct")
    return bad


def shifted_integrality_failures(corpus) -> list:
    bad = []
    for name, x in corpus:
        c = x.to_chain()
        for i in range(c.dim + 1):
            for fam in FAMILIES:
                if not c.spectrum(i, fam).is_integral():
                    bad.append(f"{name} dim {i} {fam}")
    return bad


def near_prism_betti_rows(corpus):
    checked = 0
    bad = []
    for name, x in corpus:
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
def suite_shifted(cap=None, seed: int = 0) -> list:
    corpus = shifted_corpus(SHIFTED_NMAX)
    rows = [
        _agg("shifted-recursion", shifted_recursion_failures(corpus),
             f"pure shifted complexes on <= {SHIFTED_NMAX} directions"),
        _agg("shifted-integrality", shifted_integrality_failures(corpus),
             f"all shifted complexes on <= {SHIFTED_NMAX} directions"),
    ]
    circle = mirror_circle()
    rows.append(Check("mirror-circle-not-apc",
                      circle.is_shifted() and not circle.to_chain().is_apc(),
                      detail="shifted complexes need not be APC"))
    noni = mirror_matroid_example().to_chain()
    found = any(not noni.spectrum(i, fam).is_integral()
                for i in range(noni.dim + 1) for fam in FAMILIES)
    rows.append(Check("mirror-matroid-nonintegral", found,
                      detail=("cited counterexample reproduces" if found else
                              "every Laplacian of this mirror is integral"
                              " (it is a product of integral complexes)")))
    checked, bad = near_prism_betti_rows(corpus)
    rows.append(_agg("near-prism-betti", bad,
                     f"{checked} near-prism decompositions", hard=False))
    return rows


# ---------------------------------------------------------------------------
# conjectures


CONJECTURE_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3))
RECURRENCE_PAIRS = ((3, 1), (3, 2), (4, 2), (4, 3))


@_suite
def suite_conjectures(cap: int = VERIFY_CAP, seed: int = 0) -> list:
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
