"""Shape and status of the verification suites.

Runs the suites at reduced corpus sizes where the signature allows it;
the acceptance tests run them at full size.  The one intentional
failure (the matroid mirror that is integral after all) is pinned here
so a regression in either direction is caught.
"""

import sys

import pytest

from cellspan import corpus, exact, verify
from cellspan.verify import (SUITES, Check, suite_conjectures, suite_duality,
                             suite_engines, suite_identities, suite_shifted)


def test_suites_registry():
    assert sorted(SUITES) == ["conjectures", "duality", "engines",
                              "identities", "shifted"]
    for fn in SUITES.values():
        assert callable(fn)


def test_check_coerces_ok_to_bool():
    assert Check("x", {"truthy": 1}).ok is True
    assert Check("x", "").ok is False


def test_identities_suite_rows():
    rows = suite_identities(colorful_max=4)
    assert [r.name for r in rows] == [
        "spectral-identities", "colorful-closed-forms", "prism-identities",
        "product-q1-q2-vs-q3", "weighted-cube-spectra"]
    assert all(r.ok and r.hard for r in rows), \
        [(r.name, r.detail) for r in rows if not r.ok]


def test_engines_suite_rows():
    rows = suite_engines(cap=500, colorful_max=4)
    assert [r.name for r in rows] == [
        "tree-engine-agreement", "cmtt-part-1", "submatrix-det-props"]
    assert all(r.ok and r.hard for r in rows), \
        [(r.name, r.detail) for r in rows if not r.ok]


def test_duality_suite_rows():
    rows = suite_duality()
    assert [r.name for r in rows] == [
        "duality-spectra-n2", "duality-pairing-n2",
        "duality-complementation-n2",
        "duality-spectra-n3", "duality-pairing-n3",
        "duality-complementation-n3",
        "duality-weighted-q2"]
    assert all(r.ok and r.hard for r in rows), \
        [(r.name, r.detail) for r in rows if not r.ok]


def test_shifted_suite_rows_include_the_pinned_failure():
    rows = suite_shifted()
    by_name = {r.name: r for r in rows}
    assert list(by_name) == [
        "shifted-recursion", "shifted-integrality", "mirror-circle-not-apc",
        "mirror-matroid-nonintegral", "near-prism-betti"]
    assert by_name["shifted-recursion"].ok
    assert by_name["shifted-integrality"].ok
    assert by_name["mirror-circle-not-apc"].ok
    assert by_name["near-prism-betti"].ok
    assert not by_name["near-prism-betti"].hard
    # the cited counterexample to integrality is in fact integral; the
    # row stays red on purpose and is wired as a hard check
    pinned = by_name["mirror-matroid-nonintegral"]
    assert not pinned.ok and pinned.hard
    assert "integral" in pinned.detail


def test_conjectures_suite_rows():
    rows = suite_conjectures()
    names = [r.name for r in rows]
    assert names == [
        "conjecture-2-1", "conjecture-2-2", "conjecture-3-1",
        "conjecture-3-2", "conjecture-3-3", "conjecture-4-3",
        "f-recurrence-3-1", "f-recurrence-3-2", "f-recurrence-4-2",
        "f-recurrence-4-3"]
    for r in rows:
        assert r.ok is True
        assert r.hard is False


def test_each_suite_run_has_its_own_memo(monkeypatch):
    """A suite runs inside a char_poly memo, which is gone when the
    suite returns or raises."""
    seen = []
    real = verify.near_prism_betti_rows

    def spy(corpus):
        seen.append(exact._MEMO.get())
        return real(corpus)

    monkeypatch.setattr(verify, "near_prism_betti_rows", spy)
    suite_shifted()
    suite_shifted()
    assert exact._MEMO.get() is None
    assert len(seen) == 2 and seen[0] and seen[1] and seen[0] is not seen[1]

    def boom(corpus):
        seen.append(exact._MEMO.get())
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "near_prism_betti_rows", boom)
    with pytest.raises(RuntimeError):
        suite_shifted()
    assert seen[2] is not None
    assert exact._MEMO.get() is None


def test_suite_shifted_builds_one_corpus_for_its_three_helpers(monkeypatch):
    built, given = [], {}
    real_corpus = verify.shifted_corpus

    def corpus_spy(nmax):
        built.append(real_corpus(nmax))
        return built[-1]

    monkeypatch.setattr(verify, "shifted_corpus", corpus_spy)
    for helper in ("shifted_recursion_failures", "shifted_integrality_failures",
                   "near_prism_betti_rows"):
        def spy(corpus, helper=helper, real=getattr(verify, helper)):
            given[helper] = corpus
            return real(corpus)
        monkeypatch.setattr(verify, helper, spy)
    suite_shifted()
    assert len(built) == 1 and len(built[0]) == 1 + 2 + 5 + 17
    assert len(given) == 3
    assert all(corpus is built[0] for corpus in given.values())


def test_suite_identities_builds_each_mirror_once(monkeypatch):
    """The 193 mirrors on at most four vertices are built once, for the
    spectral identities, and the prism rule takes its mirrors from them."""
    built = []
    real = corpus.mirror_on

    def mirror_spy(universe, family):
        built.append((tuple(universe), frozenset(family)))
        return real(universe, family)

    monkeypatch.setattr(corpus, "mirror_on", mirror_spy)
    rows = suite_identities(colorful_max=4)
    assert len(built) == len(set(built)) == 193
    assert {r.name: r.detail for r in rows}["prism-identities"] == \
        f"{3 + 26} cubical complexes"


def _spy_everywhere(monkeypatch, fn, calls):
    """Record the first argument of each call of fn, in every cellspan
    module that binds it."""
    def spy(*args, **kw):
        calls.append(args[0])
        return fn(*args, **kw)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cellspan") and vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, spy)


def test_suite_engines_builds_each_complex_once(monkeypatch):
    """The cubes, and the colorful complex of each of the 66 size tuples
    with sum at most 8, are built once and shared by the engine, CMTT
    and submatrix checks."""
    colorfuls, cubes = [], []
    _spy_everywhere(monkeypatch, corpus.colorful_complex, colorfuls)
    _spy_everywhere(monkeypatch, corpus.cube, cubes)
    rows = suite_engines(cap=500)
    assert all(r.ok for r in rows)
    assert len(colorfuls) == len(set(colorfuls)) == 66
    assert sorted(cubes) == [1, 2, 3, 4]
