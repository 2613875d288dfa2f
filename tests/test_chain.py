import json

import pytest
from hypothesis import given, settings, strategies as st

from cellspan import exact
from cellspan.colorful import colorful_complex
from cellspan.corpus import identity_corpus, mirror_corpus
from cellspan.corpus import rp2 as rp2_model
from cellspan.cubical import cube, mirror
from cellspan.chain import (
    ChainComplex,
    ChainError,
    HomologySummary,
    alternating_ud_holds,
    disjoint_union,
    euler_identity_holds,
    isomorphic_under,
    product,
    tot_split_holds,
    ud_du_shift_holds,
)
from cellspan.exact import IntMatrix, LaurentPoly, NotIntegral


def edge():
    # one edge with its two endpoints
    return ChainComplex({0: ("0", "1"), 1: ("*",)}, {1: [[-1], [1]]})


def circle():
    # one vertex, one loop
    return ChainComplex({0: ("v",), 1: ("e",)}, {1: [[0]]})


def four_cycle():
    cells = {0: ("a", "b", "c", "d"), 1: ("ab", "bc", "cd", "da")}
    bnd = {1: [[-1, 0, 0, 1], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]}
    return ChainComplex(cells, bnd)


def square():
    # full square: 4 vertices, 4 edges, 1 two-cell
    c = four_cycle()
    cells = dict(c.cells)
    cells[2] = ("F",)
    bnd = dict(c.bnd)
    bnd[2] = [[1], [1], [1], [1]]  # ab + bc + cd + da closes the cycle
    return ChainComplex(cells, bnd)


def rp2():
    # minimal chain model: one cell per dimension, middle map x2
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("F",)}, {1: [[0]], 2: [[2]]})


def test_validate_ok():
    assert edge().validate() is None
    assert rp2().validate() is None
    assert square().validate() is None


def test_validate_catches_bad_composition():
    with pytest.raises(ChainError) as e:
        ChainComplex({0: ("a", "b"), 1: ("e",), 2: ("F",)}, {1: [[1], [1]], 2: [[1]]})
    assert e.value.location == (1, 0, 0)
    c = ChainComplex({0: ("a", "b"), 1: ("e",), 2: ("F",)}, {1: [[1], [1]], 2: [[1]]},
                     check=False)
    assert c.validate() == (1, 0, 0)


def test_validate_checks_shapes():
    with pytest.raises(ChainError):
        ChainComplex({0: ("a", "b"), 1: ("e",)}, {1: [[1]]})
    with pytest.raises(ChainError):
        ChainComplex({0: ("a", "a")}, {})


def test_laplacians_of_an_edge():
    c = edge()
    assert c.laplacian(0, "ud").rows == ((1, -1), (-1, 1))
    assert c.laplacian(1, "du").rows == ((2,),)
    assert c.laplacian(0, "du") == IntMatrix.zeros(2, 2)
    assert c.laplacian(1, "ud") == IntMatrix.zeros(1, 1)
    assert c.laplacian(0, "tot").rows == ((1, -1), (-1, 1))


def test_spectrum_of_an_edge():
    c = edge()
    assert c.spectrum(0, "tot").items() == [(0, 1), (2, 1)]
    assert c.spectrum(1, "tot").items() == [(2, 1)]
    gf = c.total_gf()
    expect = LaurentPoly(("q", "t"), {(0, 0): 1, (2, 0): 1, (2, 1): 1})
    assert gf == expect


def test_homology_circle():
    c = circle()
    assert c.homology(1) == HomologySummary(1, 1, 1)
    assert c.homology(0) == HomologySummary(0, 0, 1)
    assert c.is_apc()  # only the top Betti number is allowed to survive


def test_homology_rp2():
    c = rp2()
    assert c.homology(0) == HomologySummary(0, 0, 1)
    assert c.homology(1) == HomologySummary(1, 0, 2)
    assert c.homology(2) == HomologySummary(2, 0, 1)
    assert c.is_apc()
    assert c.z_apc_below(2) is False  # torsion in dimension 1
    assert c.z_apc_below(1) is True
    assert c.torsion_product_below(2) == 2


def test_homology_square_contractible():
    c = square()
    for i in range(3):
        h = c.homology(i)
        assert (h.betti, h.torsion) == (0, 1)
    assert c.is_apc()


def test_homology_range_errors():
    with pytest.raises(ValueError):
        edge().homology(2)
    with pytest.raises(ValueError):
        edge().homology(-1)  # no empty cell stored


def test_pi_omega_conventions():
    c = square()
    assert c.pi(0) == 4
    assert c.pi(-1) == 1
    # nonzero eigenvalues of the 4-cycle vertex Laplacian: 2, 2, 4
    assert c.pi(1) == 16
    assert edge().omega(1) == 2
    # omega_k = pi_k pi_{k+1} for k > 0; omega_0 = pi_1 without empty cell
    for k in range(1, c.dim + 1):
        assert c.omega(k) == c.pi(k) * c.pi(k + 1)
    assert c.omega(0) == c.pi(1)


def test_pi_on_torsion_complex():
    assert rp2().pi(2) == 4  # L^ud_1 = [4]


def test_empty_cell_augmentation():
    c = ChainComplex({0: ("a", "b")}, {0: [[1, 1]]}, empty_cell=True)
    assert c.n_cells(-1) == 1
    assert c.laplacian(-1, "ud").rows == ((2,),)
    assert c.pi(0) == 2
    assert c.homology(-1).betti == 0
    assert c.homology(0).betti == 1  # two points, one reduced class
    assert c.laplacian(0, "du").rows == ((1, 1), (1, 1))


def test_dim0_convention_split():
    # homology sees the implicit augmentation; L^du_0 does not
    c = disjoint_union(edge(), ChainComplex({0: ("w",)}, {}))
    assert c.laplacian(0, "du") == IntMatrix.zeros(3, 3)
    assert c.homology(0).betti == 1


def test_spectral_identities_small():
    for c in (edge(), circle(), four_cycle(), square(), rp2()):
        for i in range(c.dim + 1):
            assert ud_du_shift_holds(c, i)
            assert tot_split_holds(c, i)
            assert alternating_ud_holds(c, i)
            s = c.spectrum(i, "tot")
            assert sum(m for _, m in s.items()) == c.n_cells(i)
        assert euler_identity_holds(c)


def test_skeleton_and_top_cell_selection():
    c = square()
    sk = c.skeleton(1)
    assert sk.dim == 1
    assert sk.n_cells(1) == 4
    y = c.with_top_cells(1, {"ab", "bc", "cd"})
    assert y.labels(1) == ("ab", "bc", "cd")
    assert y.homology(0).betti == 0
    assert y.homology(1).betti == 0


def test_json_round_trip():
    c = square()
    text = c.to_json()
    data = json.loads(text)
    assert data["dims"] == 2
    assert data["boundary"]["2"] == [["1"], ["1"], ["1"], ["1"]]
    back = ChainComplex.from_json(text)
    assert back.cells == c.cells
    assert all(back.boundary(i) == c.boundary(i) for i in range(3))
    assert back.empty_cell is False


def test_json_accepts_plain_ints():
    data = {"dims": 1, "cells": [["a", "b"], ["e"]], "boundary": {"1": [[-1], [1]]},
            "empty_cell": False}
    c = ChainComplex.from_json_dict(data)
    assert c.boundary(1).rows == ((-1,), (1,))


def test_dual_single_vertex_with_empty_cell():
    c = ChainComplex({0: ("v",)}, {0: [[1]]}, empty_cell=True)
    y = c.dual()
    assert y.empty_cell
    assert y.dim == 0
    assert y.labels(0) == ("*",)
    assert y.boundary(0).rows == ((1,),)


def test_dual_involution_on_edge():
    c = edge()
    y = c.dual()
    # the edge's top cell pairs with the dual's empty cell
    assert y.empty_cell
    assert y.dim == 0
    assert y.n_cells(0) == 2
    assert y.boundary(0).rows == ((-1, 1),)
    z = y.dual()
    assert not z.empty_cell
    assert z.dim == 1
    assert z.boundary(1) == c.boundary(1)


def test_dual_spectra_match():
    c = square()
    d = c.dual_pairing()
    y = c.dual()
    assert d == 1
    for i in range(c.dim + 1):
        a = c.spectrum(i, "tot")
        b = y.spectrum(d - i, "tot") if 0 <= d - i <= y.dim else None
        if b is not None:
            assert a.items() == b.items()
    # validity of the transposed complex
    assert y.validate() is None


def test_disjoint_union_spectra_add():
    a = ChainComplex({0: ("p",)}, {})
    b = ChainComplex({0: ("q",)}, {})
    u = disjoint_union(a, b)
    assert u.spectrum(0, "tot").items() == [(0, 2)]
    with pytest.raises(ValueError):
        disjoint_union(a, ChainComplex({0: ("r",)}, {0: [[1]]}, empty_cell=True))


def test_product_of_edges():
    z = product(edge(), edge())
    assert [z.n_cells(i) for i in range(3)] == [4, 4, 1]
    assert z.validate() is None
    gf = z.total_gf()
    one = LaurentPoly(("q", "t"), {(0, 0): 1, (2, 0): 1, (2, 1): 1})
    assert gf == one * one


def test_product_rejects_empty_cell():
    a = ChainComplex({0: ("v",)}, {0: [[1]]}, empty_cell=True)
    with pytest.raises(ValueError):
        product(a, edge())


def test_isomorphic_under_relabeling():
    c = edge()
    other = ChainComplex({0: ("x", "y"), 1: ("xy",)}, {1: [[-1], [1]]})
    assert isomorphic_under(c, other, {"0": "x", "1": "y", "*": "xy"})
    flipped = ChainComplex({0: ("x", "y"), 1: ("xy",)}, {1: [[1], [-1]]})
    assert not isomorphic_under(c, flipped, {"0": "x", "1": "y", "*": "xy"})


def test_non_integral_spectrum_is_carried():
    # path with a doubled edge weight: boundary [[-1, 0], [1, -2], [0, 2]]
    c = ChainComplex({0: ("a", "b", "c"), 1: ("e", "f")},
                     {1: [[-1, 0], [1, -2], [0, 2]]})
    s = c.spectrum(0, "ud")
    assert isinstance(s.eigs, NotIntegral)
    assert s.charpoly() == s.eigs.charpoly
    # identities still checkable through characteristic polynomials
    assert ud_du_shift_holds(c, 0)
    assert tot_split_holds(c, 0)
    assert alternating_ud_holds(c, 1)


def test_pi_works_on_non_integral_spectra():
    c = ChainComplex({0: ("a", "b", "c"), 1: ("e", "f")},
                     {1: [[-1, 0], [1, -2], [0, 2]]})
    # L^ud_0 eigenvalues: 0, 5 +- sqrt(13); product of nonzero ones = 12
    assert c.pi(1) == 12


# ---------------------------------------------------------------------------
# the sparse boundary check and the unit-pivot homology against dense oracles


def _dense_first_offence(c):
    """First nonzero entry of boundary(i) * boundary(i+1), by plain dense
    products: i upward, then (row, col) in row-major order."""
    lo = 0 if c.empty_cell else 1
    for i in range(lo, c.dim + 1):
        a, b = c.boundary(i).rows, c.boundary(i + 1)
        for r, row in enumerate(a):
            for col in range(b.ncols):
                if sum(x * b.rows[k][col] for k, x in enumerate(row)):
                    return (i, r, col)
    return None


VALIDATE_BASES = (cube(3).to_chain(), colorful_complex((1, 2, 2)), rp2_model(),
                  mirror(4, [(1, 2, 3, 4)]).to_chain())


@st.composite
def corrupted_complexes(draw):
    """A valid complex with one boundary entry changed by -2..2 (not 0)."""
    c = draw(st.sampled_from(VALIDATE_BASES))
    i = draw(st.sampled_from(sorted(k for k, m in c.bnd.items() if m.nrows and m.ncols)))
    m = c.bnd[i]
    r, col = draw(st.integers(0, m.nrows - 1)), draw(st.integers(0, m.ncols - 1))
    rows = [list(row) for row in m.rows]
    rows[r][col] += draw(st.sampled_from((-2, -1, 1, 2)))
    bnd = dict(c.bnd)
    bnd[i] = rows
    return c.cells, bnd, c.empty_cell


@settings(max_examples=150, deadline=None)
@given(corrupted_complexes())
def test_validate_matches_a_dense_scan(parts):
    cells, bnd, empty = parts
    c = ChainComplex(cells, bnd, empty_cell=empty, check=False)
    want = _dense_first_offence(c)
    assert c.validate() == want
    if want is None:
        ChainComplex(cells, bnd, empty_cell=empty)
    else:
        with pytest.raises(ChainError) as e:
            ChainComplex(cells, bnd, empty_cell=empty)
        assert e.value.location == want


def test_validate_reports_the_least_row_then_column():
    # two bad entries in the product of dimension 1: (1, 0) and (0, 1)
    cells = {0: ("a", "b"), 1: ("e", "f"), 2: ("F", "G")}
    c = ChainComplex(cells, {1: [[1, 0], [0, 1]], 2: [[0, 1], [1, 0]]}, check=False)
    assert c.validate() == _dense_first_offence(c) == (1, 0, 1)


def _dense_homology(c, i):
    """Reduced homology from the dense rank and Smith form alone."""
    rank = lambda j: exact._rank_dense(c.homology_boundary(j))
    factors = exact._smith_dense(c.homology_boundary(i + 1))
    torsion = 1
    for f in factors:
        torsion *= f
    return HomologySummary(i, c.n_cells(i) - rank(i) - rank(i + 1), torsion)


def test_homology_of_the_corpus_matches_the_dense_oracle():
    """Every complex of identity_corpus, whose mirrors are those of
    mirror_corpus(4), against dense ranks and Smith forms."""
    items = identity_corpus()
    names = {name for name, _ in items}
    assert {name for name, _f, _x in mirror_corpus(4)} <= names
    torsion_seen = False
    for name, c in items:
        for i in c.homology_range():
            h = c.homology(i)
            assert h == _dense_homology(c, i), (name, i)
            torsion_seen |= h.torsion > 1
    assert torsion_seen
