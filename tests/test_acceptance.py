"""Acceptance gate.

One test per headline guarantee, each printing a single pass/fail line.
Everything is bit-exact; no tolerances anywhere.  Criterion 10 is
expected to fail its last clause: the mirror that is supposed to have a
non-integral Laplacian spectrum does not (it factors as a product of
integral complexes), and we report that rather than patch around it.
"""

from math import comb

import pytest

from cellspan.colorful import colorful_tree_count
from cellspan.corpus import cube_algebraic_dd_zero, rp2
from cellspan.cubical import cube
from cellspan.trees import TreeQuery, run_query
from cellspan.verify import (suite_conjectures, suite_duality, suite_engines,
                             suite_identities, suite_shifted)

ENGINE_CAP = 50_000


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail and not ok:
        line += f": {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def identity_rows():
    return {r.name: r for r in suite_identities(colorful_max=9)}


@pytest.fixture(scope="module")
def engine_rows():
    return {r.name: r for r in suite_engines(cap=ENGINE_CAP, colorful_max=8)}


@pytest.fixture(scope="module")
def shifted_rows():
    return {r.name: r for r in suite_shifted()}


def test_criterion_01_cube_spectra():
    bad = []
    for n in range(1, 5):
        c = cube(n).to_chain()
        for k in range(n + 1):
            want_tot = {2 * (k + j): comb(n, k) * comb(n - k, j)
                        for j in range(n - k + 1)}
            if dict(c.spectrum(k, "tot").items()) != want_tot:
                bad.append(f"tot n={n} k={k}")
            want_ud = {2 * j: comb(n, j) * comb(j - 1, k)
                       for j in range(k + 1, n + 1) if comb(j - 1, k)}
            got_ud = {e: m for e, m in c.spectrum(k, "ud").items() if e}
            if got_ud != want_ud:
                bad.append(f"ud n={n} k={k}")
    # cube:8 in dimension 3, side 1792, from sparse products
    want = {2 * j: comb(8, j) * comb(j, 3) for j in range(3, 9)}
    if dict(cube(8, cap=8).to_chain().spectrum(3, "tot").items()) != want:
        bad.append("tot n=8 k=3")
    ok = _report(1, "cube-spectra", not bad, "; ".join(bad))
    assert ok, bad


def test_criterion_02_cube_tree_counts(engine_rows):
    bad = []

    def tau(x, k, method, **kw):
        return run_query(TreeQuery(x, k, method=method, **kw)).tau

    for method in ("brute", "matrix-tree", "alternating-product",
                   "closed-form"):
        if tau(cube(2), 1, method) != 4:
            bad.append(f"Q2 k=1 {method}")
        if tau(cube(3), 1, method) != 384:
            bad.append(f"Q3 k=1 {method}")
    if tau(cube(3), 2, "brute") != 6:
        bad.append("Q3 k=2 brute")
    for k, want in ((2, 82944), (3, 8)):
        if tau(cube(4), k, "matrix-tree") != want:
            bad.append(f"Q4 k={k} matrix-tree")
        if tau(cube(4), k, "closed-form") != want:
            bad.append(f"Q4 k={k} closed-form")
    bad += [r.name for r in engine_rows.values() if not r.ok]
    ok = _report(2, "cube-tree-counts", not bad, "; ".join(bad))
    assert ok, bad


def test_criterion_03_torsion_squared():
    c = rp2()
    brute = run_query(TreeQuery(c, 2, method="brute"))
    mt = run_query(TreeQuery(c, 2, method="matrix-tree"))
    ok = brute.tau == 4 and mt.tau == 4 and brute.trees == 1
    ok = _report(3, "torsion-squared", ok,
                 f"brute={brute.tau} matrix-tree={mt.tau}")
    assert ok


def test_criterion_04_spectral_identities(identity_rows):
    r = identity_rows["spectral-identities"]
    ok = _report(4, "spectral-identities", r.ok, r.detail)
    assert ok, r.detail


def test_criterion_05_prism_and_product(identity_rows):
    rp = identity_rows["prism-identities"]
    rq = identity_rows["product-q1-q2-vs-q3"]
    ok = _report(5, "prism-and-product", rp.ok and rq.ok,
                 f"{rp.detail}; {rq.detail}")
    assert ok, (rp.detail, rq.detail)


def test_criterion_06_weighted_cube_spectra(identity_rows):
    r = identity_rows["weighted-cube-spectra"]
    dd = all(cube_algebraic_dd_zero(n) for n in range(1, 4))
    ok = _report(6, "weighted-cube-spectra", r.ok and dd, r.detail)
    assert ok, r.detail


def test_criterion_07_conjecture_status():
    rows = suite_conjectures()
    bad = [r.name for r in rows if not r.ok]
    ok = _report(7, "conjecture-status", not bad, "; ".join(bad))
    assert ok, bad


def test_criterion_08_colorful_closed_forms(identity_rows, engine_rows):
    bad = []
    for a, k, want in (((2, 2), 1, 4), ((2, 2, 2), 1, 384),
                       ((2, 2, 2), 2, 8), ((3, 3), 1, 81)):
        if colorful_tree_count(a, k) != want:
            bad.append(f"tau{a} k={k}")
    if not engine_rows["tree-engine-agreement"].ok:
        bad.append(engine_rows["tree-engine-agreement"].detail)
    if not identity_rows["colorful-closed-forms"].ok:
        bad.append(identity_rows["colorful-closed-forms"].detail)
    ok = _report(8, "colorful-closed-forms", not bad, "; ".join(bad))
    assert ok, bad


def test_criterion_09_duality():
    rows = suite_duality()
    bad = [r.name for r in rows if not r.ok]
    ok = _report(9, "duality", not bad, "; ".join(bad))
    assert ok, bad


def test_criterion_10_shifted_machinery(shifted_rows):
    bad = []
    for name in ("shifted-recursion", "shifted-integrality",
                 "mirror-circle-not-apc"):
        if not shifted_rows[name].ok:
            bad.append(name)
    claim = shifted_rows["mirror-matroid-nonintegral"]
    if not claim.ok:
        bad.append(claim.name)
    ok = _report(10, "shifted-machinery", not bad, "; ".join(bad))
    assert ok, (
        "the advertised counterexample mirror has no non-integral "
        "Laplacian: it factors as Q_1 x bd(Q_2) x bd(Q_2), a product of "
        "integral complexes, so this clause cannot pass; every other "
        "clause of the criterion holds"
        if bad == ["mirror-matroid-nonintegral"] else bad)


def test_criterion_11_near_prism_betti(shifted_rows):
    r = shifted_rows["near-prism-betti"]
    ok = _report(11, "near-prism-betti", r.ok, r.detail)
    assert ok, r.detail
