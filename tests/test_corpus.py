"""The corpus generators and the mirror construction.

The mirror of a simplicial family should commute with cone, skeleton,
deletion, link and boundary, and its shiftedness should match the
dominance-closure test on the family side.  Counts are frozen from
exhaustive enumeration.
"""

import itertools

import pytest

from cellspan import corpus
from cellspan.corpus import (boundary_family, colorful_corpus, colorful_sizes,
                             cone_family, cube_algebraic_dd_zero,
                             cube_weighted_spectrum_check, del_family,
                             family_facets, identity_corpus,
                             link_family, mirror_circle,
                             mirror_corpus, mirror_matroid_example, mirror_on,
                             rp2, shifted_corpus, shifted_families,
                             simplicial_chain, simplicial_families,
                             skeleton_family)
from cellspan.cubical import CubicalComplex, closure_of, cube, face_dim
from cellspan.exact import LaurentPoly


def fams3():
    for n in range(1, 4):
        u = tuple(range(1, n + 1))
        for fam in simplicial_families(n):
            yield n, u, fam


# ---------------------------------------------------------------------------
# counts


def test_family_counts():
    assert [len(simplicial_families(n)) for n in range(1, 5)] == [2, 5, 19, 167]


def _families_by_mask_scan(n):
    """Every mask over the 2^n - 1 nonempty subsets, kept when the
    subsets it selects are closed under taking nonempty subsets."""
    subs = [frozenset(c) for k in range(1, n + 1)
            for c in itertools.combinations(range(1, n + 1), k)]
    out = []
    for mask in range(1 << len(subs)):
        fam = frozenset(s for j, s in enumerate(subs) if mask >> j & 1)
        if all(t in fam for s in fam for t in subs if t < s):
            out.append(fam)
    return out


def _downward_closed(fam):
    return all(s - {v} in fam for s in fam if len(s) > 1 for v in s)


@pytest.mark.parametrize("n", range(5))
def test_family_generator_matches_the_mask_scan(n):
    got = simplicial_families(n)
    assert len(set(got)) == len(got)
    assert set(got) == set(_families_by_mask_scan(n))


def test_families_on_five_vertices():
    fams = simplicial_families(5)
    assert len(fams) == len(set(fams)) == 7580
    assert all(_downward_closed(f) for f in fams)


def is_dominance_closed(family, n: int) -> bool:
    """Oracle: lowering elements componentwise (sorted order) stays
    inside."""
    for s in family:
        ss = tuple(sorted(s))
        for c in itertools.combinations(range(1, n + 1), len(ss)):
            if all(x <= y for x, y in zip(c, ss)) and frozenset(c) not in family:
                return False
    return True


def test_shifted_family_counts():
    assert [len(shifted_families(n)) for n in range(1, 5)] == [1, 2, 5, 17]


@pytest.mark.parametrize("n", range(6))
def test_shifted_families_match_the_dominance_filter(n):
    """The generator gives the families the oracle keeps among all
    downward-closed ones: every singleton present, dominance closed."""
    got = shifted_families(n)
    want = {f for f in simplicial_families(n)
            if all(frozenset((v,)) in f for v in range(1, n + 1))
            and is_dominance_closed(f, n)}
    assert len(set(got)) == len(got)
    assert set(got) == want


def test_shifted_families_on_six_directions():
    assert len(shifted_families(6)) == 1054


def test_shiftedness_reads_universe_positions():
    """Lower covers step to the universe element before, not to d - 1:
    relabelling a family onto (2, 5, 7) keeps it shifted or not."""
    relabel = dict(zip((1, 2, 3), (2, 5, 7)))
    for fam in simplicial_families(3):
        moved = [frozenset(relabel[v] for v in s) for s in fam]
        assert (mirror_on((2, 5, 7), moved).is_shifted()
                == mirror_on((1, 2, 3), fam).is_shifted()), family_facets(fam)


def test_mirror_corpus_size_and_names():
    rows = mirror_corpus(4)
    assert len(rows) == 2 + 5 + 19 + 167
    names = [name for name, _, _ in rows]
    assert len(set(names)) == len(names)


def test_shifted_corpus_members_are_shifted():
    rows = shifted_corpus(4)
    assert len(rows) == 1 + 2 + 5 + 17
    assert all(x.is_shifted() for _, x in rows)


# ---------------------------------------------------------------------------
# mirror functoriality


def test_mirror_has_every_binary_word():
    for n, u, fam in fams3():
        m = mirror_on(u, fam)
        for bits in itertools.product("01", repeat=n):
            assert "".join(bits) in m.faces


def test_mirror_cone_is_prism():
    for n, u, fam in fams3():
        lhs = mirror_on(u + (n + 1,), cone_family(fam, n + 1))
        assert lhs == mirror_on(u, fam).prism(n + 1)


def test_mirror_skeleton_is_dimension_filter():
    for n, u, fam in fams3():
        m = mirror_on(u, fam)
        for k in range(n + 1):
            want = CubicalComplex(u, {f for f in m.faces if face_dim(f) <= k})
            assert mirror_on(u, skeleton_family(fam, k)) == want


def test_mirror_deletion_commutes():
    for n, u, fam in fams3():
        m = mirror_on(u, fam)
        for v in u:
            gap = tuple(d for d in u if d != v)
            assert mirror_on(gap, del_family(fam, v)) == m.deletion(v)


def test_mirror_link_commutes():
    # the cubical link is empty unless some face points in direction v,
    # so the comparison only makes sense when v is a vertex of the family
    for n, u, fam in fams3():
        m = mirror_on(u, fam)
        for v in u:
            if frozenset((v,)) not in fam:
                assert not m.link(v).faces
                continue
            gap = tuple(d for d in u if d != v)
            assert mirror_on(gap, link_family(fam, v)) == m.link(v)


def test_mirror_boundary_commutes():
    for n, u, fam in fams3():
        if not fam:
            continue
        lhs = mirror_on(u, boundary_family(fam))
        assert lhs == mirror_on(u, fam).boundary_complex()


def test_mirror_shifted_iff_singletons_and_dominance():
    for n in range(1, 5):
        u = tuple(range(1, n + 1))
        for fam in simplicial_families(n):
            singles = all(frozenset((v,)) in fam for v in u)
            want = singles and is_dominance_closed(fam, n)
            assert mirror_on(u, fam).is_shifted() == want, family_facets(fam)


def test_shifted_complexes_on_two_directions_exhaustive():
    # order ideals of the face poset of the square, filtered by the
    # cubical shiftedness test, against the family-side corpus
    q2 = cube(2)
    faces = sorted(q2.faces)
    found = set()
    for mask in range(1 << len(faces)):
        sub = {f for j, f in enumerate(faces) if mask >> j & 1}
        if sub and closure_of(sub) == frozenset(sub):
            x = CubicalComplex((1, 2), sub)
            if x.is_shifted():
                found.add(frozenset(sub))
    want = {frozenset(mirror_on((1, 2), fam).faces)
            for fam in shifted_families(2)}
    assert found == want
    assert len(found) == 2


# ---------------------------------------------------------------------------
# simplicial chains


def _family(*facets):
    out = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            out.update(frozenset(c) for c in itertools.combinations(f, k))
    return frozenset(out)


def test_full_simplex_is_contractible():
    c = simplicial_chain(_family((1, 2, 3)))
    assert c.dim == 2 and c.empty_cell
    for i in range(-1, 3):
        h = c.homology(i)
        assert (h.betti, h.torsion) == (0, 1)


def test_k4_graph_laplacian():
    c = simplicial_chain(_family((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    assert dict(c.spectrum(0, "ud").items()) == {0: 1, 4: 3}
    assert dict(c.spectrum(1, "du").items()) == {0: 3, 4: 3}


def test_rp2_has_two_torsion():
    c = rp2()
    h = c.homology(1)
    assert (h.betti, h.torsion) == (0, 2)
    assert c.betti(2) == 0


# ---------------------------------------------------------------------------
# the two special mirrors


def test_mirror_circle_is_a_circle_and_not_apc():
    c = mirror_circle().to_chain()
    assert not c.is_apc()
    assert [c.betti(i) for i in range(c.dim + 1)] == [0, 1, 0]


def test_mirror_matroid_example_is_fully_integral():
    # this mirror decomposes as Q_1 x bd(Q_2) x bd(Q_2); every one of
    # its Laplacians is integral, which the verify suite reports as a
    # failing check on purpose (see notes on the shifted suite)
    c = mirror_matroid_example().to_chain()
    assert dict(c.spectrum(2, "tot").items()) == \
        {0: 1, 2: 7, 4: 18, 6: 22, 8: 13, 10: 3}
    for i in range(c.dim + 1):
        for fam in ("ud", "du", "tot"):
            assert c.spectrum(i, fam).is_integral()


# ---------------------------------------------------------------------------
# weighted cube checks and corpus plumbing


@pytest.mark.parametrize("n", [1, 2])
def test_cube_weighted_spectrum(n):
    assert cube_weighted_spectrum_check(n)


@pytest.mark.parametrize("n", [1, 2])
def test_cube_weighted_spectrum_rejects_a_wrong_form(monkeypatch, n):
    """Negative control: with q1 and x1 swapped in one predicted form
    the rational-point check must fail."""
    real = corpus.cube_weighted_tot_eigenvalues

    def swapped(m, i):
        forms = real(m, i)
        form, mult = forms[-1]
        vs = form.vars
        a, b = vs.index("q1"), vs.index("x1")

        def swap(e):
            e = list(e)
            e[a], e[b] = e[b], e[a]
            return tuple(e)
        wrong = LaurentPoly(vs, {swap(e): c for e, c in form.terms.items()})
        return forms[:-1] + [(wrong, mult)]

    monkeypatch.setattr(corpus, "cube_weighted_tot_eigenvalues", swapped)
    assert not cube_weighted_spectrum_check(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cube_algebraic_dd_zero(n):
    assert cube_algebraic_dd_zero(n)


def test_colorful_sizes_are_weakly_decreasing_partitions():
    s8 = colorful_sizes(8)
    assert len(s8) == 66
    assert len(colorful_sizes(9)) == 96
    for a in s8:
        assert all(x >= y for x, y in zip(a, a[1:]))
        assert sum(a) <= 8 and all(x >= 1 for x in a)
    assert len(set(s8)) == len(s8)


def test_identity_corpus_composition():
    rows = identity_corpus(mirror_corpus(4), colorful_corpus(8))
    names = [name for name, _ in rows]
    assert len(names) == len(set(names))
    assert len(names) == 1 + 4 + 193 + 66
    assert sum(1 for n in names if n.startswith("cube:")) == 4
    assert sum(1 for n in names if n.startswith("mirror:")) == 193
    assert sum(1 for n in names if n.startswith("colorful:")) == 66
