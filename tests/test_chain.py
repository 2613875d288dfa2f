import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellspan import exact
from cellspan.colorful import colorful_complex
from cellspan.corpus import colorful_corpus, identity_corpus, mirror_corpus
from cellspan.corpus import rp2 as rp2_model
from cellspan.cubical import cube, mirror
from cellspan.chain import (
    FAMILIES,
    ChainComplex,
    ChainError,
    HomologySummary,
    alternating_ud_holds,
    char_polynomials,
    disjoint_union,
    euler_identity_holds,
    isomorphic_under,
    product,
    tot_split_holds,
    ud_du_shift_holds,
)
from cellspan.exact import IntPoly, LaurentPoly, NotIntegral, SparseMatrix, char_poly_memo
from cellspan.trees import tau_cube_closed_form, tau_matrix_tree


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
    assert c.laplacian(0, "ud").rows() == ((1, -1), (-1, 1))
    assert c.laplacian(1, "du").rows() == ((2,),)
    assert c.laplacian(0, "du").rows() == ((0, 0), (0, 0))
    assert c.laplacian(1, "ud").rows() == ((0,),)
    assert c.laplacian(0, "tot").rows() == ((1, -1), (-1, 1))


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
    assert [c.torsion_order(j) for j in c.homology_range()] == [1, 2, 1]


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


def test_eigenvalue_products_read_a_certified_char_poly_off_its_roots():
    """pi and omega of cube:6 and cube:7 equal the formula on the
    coefficients of chi, and leave a certified chi (a _Split)
    unexpanded: its roots give the product."""
    for n, ks in ((6, range(7)), (7, (3,))):
        c = cube(n, cap=n).to_chain()
        for k in ks:
            for value, key in ((c.omega(k), (k, "tot")), (c.pi(k + 1), (k, "ud"))):
                chi = c.char_polynomial(*key)
                if isinstance(chi, exact._Split):
                    assert chi._coeffs is None, (n, key)
                assert value == ChainComplex._nonzero_eig_product(IntPoly(chi.coeffs)), (n, key)
        assert isinstance(c.char_polynomial(3, "tot"), exact._Split)


def test_pi_on_torsion_complex():
    assert rp2().pi(2) == 4  # L^ud_1 = [4]


def test_empty_cell_augmentation():
    c = ChainComplex({0: ("a", "b")}, {0: [[1, 1]]}, empty_cell=True)
    assert c.n_cells(-1) == 1
    assert c.laplacian(-1, "ud").rows() == ((2,),)
    assert c.pi(0) == 2
    assert c.homology(-1).betti == 0
    assert c.homology(0).betti == 1  # two points, one reduced class
    assert c.laplacian(0, "du").rows() == ((1, 1), (1, 1))


def test_dim0_convention_split():
    # homology sees the implicit augmentation; L^du_0 does not
    c = disjoint_union(edge(), ChainComplex({0: ("w",)}, {}))
    assert c.laplacian(0, "du").rows() == ((0, 0, 0),) * 3
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
    data = json.loads(json.dumps(c.to_json_dict()))
    assert data["dims"] == 2
    assert data["boundary"]["2"] == [["1"], ["1"], ["1"], ["1"]]
    back = ChainComplex.from_json_dict(data)
    assert back.cells == c.cells
    assert all(back.sparse_boundary(i) == c.sparse_boundary(i) for i in range(3))
    assert back.empty_cell is False


def test_json_accepts_plain_ints():
    data = {"dims": 1, "cells": [["a", "b"], ["e"]], "boundary": {"1": [[-1], [1]]},
            "empty_cell": False}
    c = ChainComplex.from_json_dict(data)
    assert c.sparse_boundary(1).rows() == ((-1,), (1,))


def test_dual_single_vertex_with_empty_cell():
    c = ChainComplex({0: ("v",)}, {0: [[1]]}, empty_cell=True)
    y = c.dual()
    assert y.empty_cell
    assert y.dim == 0
    assert y.labels(0) == ("*",)
    assert y.sparse_boundary(0).rows() == ((1,),)


def test_dual_involution_on_edge():
    c = edge()
    y = c.dual()
    # the edge's top cell pairs with the dual's empty cell
    assert y.empty_cell
    assert y.dim == 0
    assert y.n_cells(0) == 2
    assert y.sparse_boundary(0).rows() == ((-1, 1),)
    z = y.dual()
    assert not z.empty_cell
    assert z.dim == 1
    assert z.sparse_boundary(1) == c.sparse_boundary(1)


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
    """First nonzero entry of sparse_boundary(i) * sparse_boundary(i+1),
    by plain dense products: i upward, then (row, col) in row-major
    order."""
    lo = 0 if c.empty_cell else 1
    for i in range(lo, c.dim + 1):
        a, b = c.sparse_boundary(i).rows(), c.sparse_boundary(i + 1)
        brows = b.rows()
        for r, row in enumerate(a):
            for col in range(b.ncols):
                if sum(x * brows[k][col] for k, x in enumerate(row)):
                    return (i, r, col)
    return None


VALIDATE_BASES = (cube(3).to_chain(), colorful_complex((1, 2, 2)), rp2_model(),
                  mirror(4, [(1, 2, 3, 4)]).to_chain())


@st.composite
def corrupted_complexes(draw):
    """A valid complex with one boundary entry changed by -2..2 (not 0)."""
    c = draw(st.sampled_from(VALIDATE_BASES))
    i = draw(st.sampled_from(sorted(k for k, m in c.bnd.items() if m.nrows and m.ncols)))
    m = c.sparse_boundary(i)
    r, col = draw(st.integers(0, m.nrows - 1)), draw(st.integers(0, m.ncols - 1))
    rows = [list(row) for row in m.rows()]
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
    rank = lambda j: len(exact._smith_dense(c.homology_boundary(j).rows()))
    factors = exact._smith_dense(c.homology_boundary(i + 1).rows())
    torsion = 1
    for f in factors:
        torsion *= f
    return HomologySummary(i, c.n_cells(i) - rank(i) - rank(i + 1), torsion)


def full_corpus():
    return identity_corpus(mirror_corpus(4), colorful_corpus(9))


def test_homology_of_the_corpus_matches_the_dense_oracle():
    """Every complex of identity_corpus, whose mirrors are those of
    mirror_corpus(4), against dense ranks and Smith forms."""
    items = full_corpus()
    names = {name for name, _ in items}
    assert {name for name, _f, _x in mirror_corpus(4)} <= names
    torsion_seen = False
    for name, c in items:
        for i in c.homology_range():
            h = c.homology(i)
            assert h == _dense_homology(c, i), (name, i)
            torsion_seen |= h.torsion > 1
    assert torsion_seen


def counting_eliminations(monkeypatch) -> list:
    """The matrices that exact._eliminate_units reduces from now on, in
    call order; holding them keeps their ids apart."""
    seen = []
    real = exact._eliminate_units

    def counting(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(exact, "_eliminate_units", counting)
    return seen


@pytest.mark.parametrize("homology_first", [True, False])
def test_each_boundary_is_eliminated_once(monkeypatch, homology_first):
    """homology(i) reads the Smith form and betti(i) the ranks of the
    same boundaries; in either order each boundary is reduced once."""
    seen = counting_eliminations(monkeypatch)
    c = cube(5).to_chain()
    for i in c.homology_range():
        if homology_first:
            c.homology(i)
        c.betti(i)
        c.homology(i)
    stored = [c.homology_boundary(j) for j in range(c.dim + 1)]
    assert [sum(m is b for m in seen) for b in stored] == [1] * len(stored)
    assert len({id(m) for m in seen}) == len(seen)


def test_tree_engine_eliminates_no_boundary_twice(monkeypatch):
    """tau_matrix_tree reads ranks and Smith forms on the skeleton and
    on a with_top_cells copy, which share their stored boundaries."""
    seen = counting_eliminations(monkeypatch)
    assert tau_matrix_tree(cube(5), 3).tau == tau_cube_closed_form(5, 3)
    assert seen and len({id(m) for m in seen}) == len(seen)


@pytest.mark.parametrize("make", [lambda: cube(4).to_chain(), rp2_model],
                         ids=["cube4", "rp2"])
def test_no_elimination_of_an_empty_matrix(monkeypatch, make):
    """betti and homology in every dimension, the boundaries above the
    top (zero matrices) included, agree with the dense oracle, and no
    matrix without a nonzero entry reaches _eliminate_units."""
    seen = counting_eliminations(monkeypatch)
    c = make()
    for i in c.homology_range():
        assert c.homology(i) == _dense_homology(c, i)
        assert c.betti(i) == _dense_homology(c, i).betti
    assert c.homology_boundary(c.dim + 1).shape == (c.n_cells(c.dim), 0)
    assert seen and all(any(m.cols) for m in seen)


def test_char_polynomials_match_char_polynomial_on_the_corpus():
    """The batched fill, outside any memo and over several flushes, leaves
    the same char polys as char_polynomial on fresh copies."""
    items = full_corpus()
    char_polynomials([c for _, c in items])
    with char_poly_memo():
        for (name, c), (_, fresh) in zip(items, full_corpus()):
            want = {(i, fam): fresh.char_polynomial(i, fam)
                    for i in fresh.homology_range() for fam in FAMILIES}
            assert c._chi == want, name


def test_spectra_read_off_the_certificate_equal_integer_roots():
    """rp2, cube:1..4, the mirrors on at most three vertices and the
    colorful complexes of total size at most 6, in every dimension and
    family: the spectrum, read off the certificate where char_poly
    certified the char poly, is integer_roots of it, keys in order."""
    certified = set()
    for name, c in identity_corpus(mirror_corpus(3), colorful_corpus(6)):
        for i in c.homology_range():
            for fam in FAMILIES:
                chi = c.char_polynomial(i, fam)
                got, want = c.spectrum(i, fam).eigs, exact.integer_roots(chi)
                if isinstance(want, NotIntegral):
                    assert got == want, (name, i, fam)
                else:
                    assert list(got.items()) == list(want.items()), (name, i, fam)
                if isinstance(chi, exact._Split):
                    certified.add(name.split(":")[0])
    assert certified == {"cube", "mirror", "colorful"}


# ---------------------------------------------------------------------------
# the sparse Laplacian builder against dense products of the boundaries


@st.composite
def boundary_stacks(draw):
    """Cells in dimensions 0..2 (0..8 each), an optional (-1)-cell, and
    random dense boundary rows (they need not compose to zero), entries
    up to 2^40 in absolute value, sometimes one above 2^63."""
    empty = draw(st.booleans())
    counts = [draw(st.integers(0, 8)) for _ in range(3)]
    cells = {d: tuple(f"c{d}_{j}" for j in range(n)) for d, n in enumerate(counts)}
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**40, 2**40))
    rows = {}
    for i in range(0 if empty else 1, 3):
        nr = 1 if i == 0 else counts[i - 1]
        rows[i] = [[draw(entry) for _ in range(counts[i])] for _ in range(nr)]
    big = [(i, r, c) for i, m in rows.items() for r in range(len(m)) for c in range(len(m[r]))]
    if big and draw(st.booleans()):
        i, r, c = draw(st.sampled_from(big))
        rows[i][r][c] = draw(st.sampled_from((-1, 1))) * draw(st.integers(2**63, 2**70))
    return cells, rows, empty


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _oracle_laplacian(rows, n, i, family):
    """L_i on n cells from the dense boundary rows, by exact.ring_matmul."""
    out = [[0] * n for _ in range(n)]
    up, down = rows.get(i + 1), rows.get(i)
    parts = []
    if family != "du" and up and up[0]:
        parts.append(exact.ring_matmul(up, _transpose(up)))
    if family != "ud" and down and n:
        parts.append(exact.ring_matmul(_transpose(down), down))
    for p in parts:
        out = [[x + y for x, y in zip(ro, rp)] for ro, rp in zip(out, p)]
    return out


@settings(max_examples=150, deadline=None)
@given(boundary_stacks())
def test_sparse_laplacians_match_dense_products(parts):
    cells, rows, empty = parts
    c = ChainComplex(cells, rows, empty_cell=empty, check=False)
    for i in c.homology_range():
        n = c.n_cells(i)
        for family in FAMILIES:
            lap = c.laplacian(i, family)
            assert lap.shape == (n, n)
            assert all(v for col in lap.cols for v in col.values())
            assert [list(r) for r in lap.rows()] == _oracle_laplacian(rows, n, i, family)


@pytest.mark.parametrize("convert", [np.array, lambda rows: [[bool(v) for v in r] for r in rows]],
                         ids=["numpy", "bool"])
def test_numpy_and_bool_rows_match_python_ints(convert):
    """Entries of any integer type are converted to Python ints once, by
    SparseMatrix.from_rows, so products cannot overflow or warn: an
    edge with int64 entries -+2^40 has L^du_1 = 2^81, and a bool
    boundary is the 0/1 one."""
    ints = [[-2**40], [2**40]] if convert is np.array else [[1], [0]]
    rows = convert(ints)
    cells = {0: ("a", "b"), 1: ("e",)}
    want = ChainComplex(cells, {1: ints})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bnd in (SparseMatrix.from_rows(list(rows)), list(rows)):
            c = ChainComplex(cells, {1: bnd}, check=False)
            assert c.sparse_boundary(1) == want.sparse_boundary(1)
            assert all(type(v) is int for col in c.sparse_boundary(1).cols for v in col.values())
            for i in (0, 1):
                for family in FAMILIES:
                    lap = c.laplacian(i, family)
                    assert lap == want.laplacian(i, family)
                    assert c.spectrum(i, family).eigs == want.spectrum(i, family).eigs
    assert want.laplacian(1, "du").rows() == ((ints[0][0] ** 2 + ints[1][0] ** 2,),)
