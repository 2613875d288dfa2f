import pytest

import itertools
import math
import random

from cellspan.colorful import (ColorfulSpec, colorful_complex, colorful_etot,
                               colorful_gf_identity_holds, colorful_omega,
                               colorful_spec_poly, colorful_tree_count,
                               cross_polytope_cube_duality, unrank_combination,
                               weighted_duality_check)
from cellspan.exact import LaurentPoly
from cellspan.trees import TreeQuery, run_query


def test_spec_quantities():
    s = ColorfulSpec((2, 3, 4))
    assert s.A((1, 3)) == 6
    assert s.complement((2,)) == (1, 3)
    # B({2}) = A({1,3})^(3-1) = 6^2
    assert s.B((2,)) == 36
    assert s.vertices()[:3] == ("v1_1", "v1_2", "v2_1")


def test_four_cycle():
    c = colorful_complex((2, 2))
    assert c.n_cells(0) == 4 and c.n_cells(1) == 4
    assert c.dim == 1 and c.empty_cell
    assert c.betti(0) == 0 and c.betti(1) == 1
    assert c.torsion_order(0) == 1


def test_octahedron():
    c = colorful_complex((2, 2, 2))
    assert [c.n_cells(i) for i in range(3)] == [6, 12, 8]
    assert c.betti(2) == 1
    assert c.betti(0) == 0 and c.betti(1) == 0
    assert c.is_apc()


def test_triangle_contractible():
    c = colorful_complex((1, 1, 1))
    assert [c.n_cells(i) for i in range(3)] == [3, 3, 1]
    assert all(c.betti(i) == 0 for i in range(-1, 3))


def test_face_cap():
    with pytest.raises(ValueError):
        colorful_complex((64, 64))


def test_spec_poly_two_two():
    got = colorful_spec_poly((2, 2))
    want = LaurentPoly(("q", "t"), {
        (0, 0): 1, (0, 1): 2, (2, 1): 2,
        (0, 2): 1, (2, 2): 2, (4, 2): 1,
    })
    assert got == want


@pytest.mark.parametrize("a", [(2,), (1, 1), (2, 2), (3, 2), (2, 2, 2), (1, 4)])
def test_gf_identity(a):
    assert colorful_gf_identity_holds(a)


def test_etot_examples():
    assert colorful_etot((2, 2), 0) == {4: 2, 2: 2}
    assert colorful_etot((2, 2), 1) == {4: 1, 2: 2, 0: 1}
    assert colorful_etot((2, 2, 2), 2) == {6: 1, 4: 3, 2: 3, 0: 1}
    assert colorful_etot((2, 2), -1) == {4: 1}
    assert colorful_etot((9,), 0) == {9: 1, 0: 8}


@pytest.mark.parametrize("a", [(1,), (4,), (2, 2), (3, 2), (1, 1, 1),
                               (2, 2, 2), (4, 3), (2, 3, 2)])
def test_etot_matches_direct_spectrum(a):
    c = colorful_complex(a)
    for i in range(-1, len(a)):
        assert colorful_etot(a, i) == c.spectrum(i, "tot").eigs


def test_etot_range():
    with pytest.raises(ValueError):
        colorful_etot((2, 2), 2)
    with pytest.raises(ValueError):
        colorful_etot((2, 2), -2)


def test_tree_count_examples():
    assert colorful_tree_count((2, 2), 1) == 4
    assert colorful_tree_count((2, 2, 2), 1) == 384
    assert colorful_tree_count((2, 2, 2), 2) == 8
    assert colorful_tree_count((3, 3), 1) == 81


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n2", [1, 2, 3, 4, 5])
def test_tree_count_bipartite(m, n2):
    assert colorful_tree_count((m, n2), 1) == m ** (n2 - 1) * n2 ** (m - 1)


@pytest.mark.parametrize("a,k", [((2, 2), 0), ((2, 2), 1), ((3, 2), 1),
                                 ((2, 2, 2), 1), ((2, 2, 2), 2), ((3, 3), 1)])
def test_tree_count_matches_engines(a, k):
    c = colorful_complex(a)
    want = colorful_tree_count(a, k)
    brute = run_query(TreeQuery(c, k, method="brute"))
    mt = run_query(TreeQuery(c, k, method="matrix-tree"))
    assert brute.tau == want
    assert mt.tau == want


def test_tree_count_k_zero_is_vertex_count():
    assert colorful_tree_count((3, 2, 4), 0) == 9


def test_omega_example():
    assert colorful_omega((2, 2), 0) == 64


@pytest.mark.parametrize("a", [(2, 2), (3, 2), (2, 2, 2), (1, 1, 1), (4, 3)])
def test_omega_matches_direct(a):
    c = colorful_complex(a)
    for i in range(len(a)):
        assert colorful_omega(a, i) == c.omega(i)


def test_duality_n2():
    rep = cross_polytope_cube_duality(2)
    assert rep["spectra_match"]
    assert rep["pairing_consistent"]
    assert rep["complementation_holds"]
    # C(4,1) vertex trees plus C(4,3) edge trees
    assert rep["complementation_checked"] == 8


def test_duality_n3():
    rep = cross_polytope_cube_duality(3, seed=0)
    assert rep["spectra_match"]
    assert rep["pairing_consistent"]
    assert rep["complementation_holds"]
    # exhaustive k=0 and k=2, sampled k=1
    assert rep["complementation_checked"] == 8 + 200 + 6


@pytest.mark.parametrize("n", [0, 5])
def test_duality_bound(n):
    with pytest.raises(ValueError, match="^dual supports 1 <= n <= 4$"):
        cross_polytope_cube_duality(n)


def test_unrank_combination_matches_itertools_order():
    for n in range(9):
        for k in range(n + 1):
            got = [unrank_combination(n, k, j) for j in range(math.comb(n, k))]
            assert got == list(itertools.combinations(range(n), k))


@pytest.mark.parametrize("n, k", [(12, 6), (16, 5)])
def test_sampled_positions_match_sampling_the_list(n, k):
    """random.sample draws the same positions from range(N) as from a
    list of length N, so the duality check samples the subsets it
    sampled when it built the list of all of them."""
    picks = [unrank_combination(n, k, j)
             for j in random.Random(7).sample(range(math.comb(n, k)), 200)]
    want = random.Random(7).sample(list(itertools.combinations(range(n), k)), 200)
    assert picks == want


def test_weighted_duality():
    assert weighted_duality_check(2, seed=0)
