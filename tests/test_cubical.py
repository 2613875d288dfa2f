import pytest

from cellspan import cubical
from cellspan.chain import isomorphic_under, product
from cellspan.corpus import mirror_corpus, shifted_corpus
from cellspan.cubical import (
    CubicalComplex,
    algebraic_boundary,
    closure_of,
    cube,
    cube_weighted_tot_eigenvalues,
    face_key,
    laurent_is_zero,
    mirror,
    mirror_on,
    near_prism_betti_check,
    pinned_once,
    shifted_spectrum,
    sign,
    simplicial_closure,
    weight_vars,
    weighted_diag_laplacian,
    weighted_total_laplacian,
    xi_weight,
    u_form,
)
from cellspan import trees
from cellspan.exact import (LaurentPoly, SparseMatrix, _pivot_columns, det_fraction,
                            gram_sum, ring_matmul)
from cellspan.verify import prism_failures
from fractions import Fraction
from math import comb
import random


def test_face_key_order():
    faces = ["*0", "00", "01", "0*", "10", "11", "1*", "*1", "**"]
    assert sorted(faces, key=face_key) == [
        "00", "01", "0*", "10", "11", "1*", "*0", "*1", "**"]


def test_closure():
    assert closure_of({"*0", "0*"}) == {"*0", "0*", "00", "10", "01"}
    assert closure_of({"**"}) == {"**", "*0", "*1", "0*", "1*",
                                  "00", "01", "10", "11"}


def test_sign_rule():
    # pinning the j-th star: 0 gives (-1)^j, 1 gives (-1)^(j+1)
    assert sign("0*", "**") == -1
    assert sign("1*", "**") == 1
    assert sign("*0", "**") == 1
    assert sign("*1", "**") == -1
    assert sign("00", "0*") == -1
    assert sign("01", "0*") == 1
    assert sign("00", "*0") == -1
    assert sign("01", "*0") == 0
    with pytest.raises(ValueError):
        sign("**", "**")
    with pytest.raises(ValueError):
        sign("0", "**")


def test_cube_counts():
    assert cube(0).faces == frozenset({""})
    for n, counts in [(2, (4, 4, 1)), (3, (8, 12, 6, 1)), (4, (16, 32, 24, 8, 1))]:
        q = cube(n)
        assert q.dim == n
        assert tuple(q.n_faces(i) for i in range(n + 1)) == counts
    with pytest.raises(ValueError):
        cube(7)
    with pytest.raises(ValueError):
        cube(-1)


def test_to_chain_is_valid_complex():
    for n in range(5):
        c = cube(n).to_chain()
        assert c.validate() is None
        # the solid cube is contractible
        assert all(c.betti(i) == 0 for i in range(n + 1))


def test_q1_boundary_matrix():
    c = cube(1).to_chain()
    assert c.sparse_boundary(1).rows() == ((-1,), (1,))
    assert c.labels(0) == ("0", "1")


def test_q2_total_spectra():
    c = cube(2).to_chain()
    assert c.spectrum(0, "tot").eigs == {0: 1, 2: 2, 4: 1}
    assert c.spectrum(1, "tot").eigs == {2: 2, 4: 2}
    assert c.spectrum(2, "tot").eigs == {4: 1}


def test_cube7_spectra_match_the_closed_form():
    """Every Laplacian of the 7-cube, sides 1..672, those above 128 on
    the sparse route: L^tot_i has eigenvalue 2j with multiplicity
    C(7, j) C(j, i); the nonzero part of L^ud_i is C(7, j) C(j-1, i), of
    L^du_i C(7, j) C(j-1, i-1), and 0 fills the rest of the side."""
    n = 7
    c = cube(n, cap=n).to_chain()
    for i in range(n + 1):
        side = comb(n, i) * 2 ** (n - i)
        for fam, r in (("tot", None), ("ud", i), ("du", i - 1)):
            if fam == "tot":
                want = {2 * j: comb(n, j) * comb(j, i) for j in range(i, n + 1)}
            else:
                want = {2 * j: comb(n, j) * comb(j - 1, r)
                        for j in range(1, n + 1) if r >= 0 and comb(j - 1, r)}
                if side > sum(want.values()):
                    want[0] = side - sum(want.values())
            assert dict(c.spectrum(i, fam).items()) == want, (i, fam)


def test_prism_deletion_link():
    q2 = cube(2)
    assert q2.prism(3) == cube(3)
    q3 = cube(3)
    d = q3.deletion(2)
    l = q3.link(2)
    assert d.universe == (1, 3) and l.universe == (1, 3)
    assert d.faces == closure_of({"**"}) and d == l
    for i in (1, 2, 3):
        assert q3.deletion(i).faces == q3.link(i).faces
    with pytest.raises(ValueError):
        q2.prism(1)
    with pytest.raises(ValueError):
        q2.deletion(9)


def test_near_prism_square_boundary():
    x = cube(2).boundary_complex()
    assert sorted(x.faces) == sorted(
        {"00", "01", "10", "11", "0*", "1*", "*0", "*1"})
    np = x.near_prism(1)
    assert np.holds and bool(np)
    assert np.deletion.faces == {"*", "0", "1"}
    assert np.link.faces == {"0", "1"}
    assert np.b_faces == ("*",)


def test_near_prism_fails_for_lone_edge():
    # the edge (*,0): its deletion in direction 2 is a full segment
    # but the link is empty, so boundary containment fails
    x = CubicalComplex((1, 2), {"*0"})
    np = x.near_prism(2)
    assert not np.holds
    assert np.link.faces == frozenset()
    # in its own direction the edge is an honest prism
    assert x.deletion(1).faces == x.link(1).faces


def test_is_shifted():
    assert cube(2).is_shifted()
    assert cube(3).is_shifted()
    # full 1-skeleton with no 2-cells: condition (3) is vacuous
    assert cube(2).pure_skeleton(1).is_shifted()
    # 2-faces of directions {1,3},{2,3} but not {1,2}: violates the
    # componentwise order ({1,2} precedes {1,3})
    bad = CubicalComplex((1, 2, 3),
                         closure_of({"*0*", "*1*", "0**", "1**"})
                         | cube(3).pure_skeleton(1).faces)
    assert not bad.is_shifted()
    good = mirror(3, [[1, 2], [1, 3]])
    assert good.is_shifted()
    missing_edge = CubicalComplex((1, 2), {"*0", "00", "10", "01", "11"})
    assert not missing_edge.is_shifted()


def test_mirror_basic():
    assert mirror(2, [[1, 2]]) == cube(2)
    assert mirror(2, [[1], [2]]) == cube(2).boundary_complex()
    m = mirror(3, [[1, 2], [1, 3]])
    # two squares and a prism worth of faces: dirsets closed downward
    assert m.dirsets() == {(), (1,), (2,), (3,), (1, 2), (1, 3)}
    assert m.n_faces(0) == 8 and m.n_faces(2) == 4
    with pytest.raises(ValueError):
        mirror(2, [[1, 5]])


def test_mirror_checks_vertices_before_building_the_closure(monkeypatch):
    # a facet on k vertices has 2^k subsets; a bad one is refused first
    def closure(facets):
        raise AssertionError("closure built before the vertex check")
    monkeypatch.setattr(cubical, "simplicial_closure", closure)
    with pytest.raises(ValueError, match=r"facet vertex outside \[1, 3\]"):
        mirror(3, [range(1, 41)])


def test_mirror_of_no_facets_is_void_but_mirror_on_has_every_vertex():
    # no facets: the void complex, whose mirror has no faces; a family
    # for mirror_on always holds the empty set, so every 0/1 word
    for n in range(4):
        assert len(mirror(n, [])) == 0
        m = mirror_on(tuple(range(1, n + 1)), frozenset())
        assert m.n_faces(0) == len(m) == 2 ** n


def test_mirror_circle_not_apc():
    c = mirror(3, [[1, 2], [1, 3]]).to_chain()
    assert c.betti(0) == 0
    assert c.betti(1) == 1
    assert c.betti(2) == 0
    assert not c.is_apc()


def test_simplicial_closure():
    got = simplicial_closure([[1, 2], [1, 3]])
    assert got == {frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
                   frozenset({1, 2}), frozenset({1, 3})}


def test_facets_and_pure():
    q2 = cube(2)
    assert q2.facets() == ("**",)
    assert q2.is_pure()
    bd = q2.boundary_complex()
    assert bd.facets() == ("0*", "1*", "*0", "*1")
    assert bd.is_pure()
    mixed = CubicalComplex((1, 2), {"*0", "11"})
    assert not mixed.is_pure()
    sk = cube(3).pure_skeleton(1)
    assert sk.n_faces(0) == 8 and sk.n_faces(1) == 12 and sk.dim == 1
    assert sk.is_pure()


def test_shifted_spectrum_small_cubes():
    assert shifted_spectrum(cube(1)) == (2,)
    assert shifted_spectrum(cube(2)) == (4,)
    assert shifted_spectrum(cube(3)) == (6,)
    assert shifted_spectrum(cube(4)) == (8,)


def test_shifted_spectrum_square_boundary():
    x = cube(2).boundary_complex()
    assert shifted_spectrum(x) == (4, 2, 2)


def test_shifted_spectrum_matches_direct():
    for x in [cube(2), cube(3), cube(2).boundary_complex(),
              cube(3).pure_skeleton(1), cube(3).pure_skeleton(2),
              mirror(3, [[1, 2], [1, 3]])]:
        s = shifted_spectrum(x)
        direct = x.to_chain().spectrum(x.dim - 1, "ud")
        assert sorted(s) == sorted(direct.nonzero_multiset())


def test_shifted_spectrum_preconditions():
    with pytest.raises(ValueError):
        shifted_spectrum(CubicalComplex((1, 2), {"*0", "11"}))  # not pure
    with pytest.raises(ValueError):
        shifted_spectrum(CubicalComplex((1, 2), {"*0", "0*"}))  # not near-prism
    assert shifted_spectrum(CubicalComplex((1,), {"0"})) == ()


@pytest.mark.parametrize("universe, faces, i, holds", [
    ((1,), ["0"], 1, False),
    ((1,), ["1"], 1, False),
    ((1,), ["0", "1"], 1, True),
    ((1, 2), ["00", "01"], 1, False),
    ((1, 2), ["10", "11"], 1, False),
    ((1, 2), ["*0", "01"], 1, False),
    ((1, 2), ["*0", "*1"], 1, True),
])
def test_near_prism_needs_both_ends_of_the_direction(universe, faces, i, holds):
    """Every face of the deletion must lie in X at both ends of
    direction i; here the link condition holds, so that decides."""
    x = CubicalComplex(universe, faces)
    assert pinned_once(x.deletion(i).faces) <= x.link(i).faces
    assert x.near_prism(i).holds is holds


def near_prism_loops(x, i):
    """The near-prism test face by face: each pinned star of a deletion
    face lies in the link, and each deletion face lies in X at both
    ends of direction i."""
    dele, link, p = x.deletion(i), x.link(i), x.universe.index(i)
    return (all(f[:j] + c + f[j + 1:] in link.faces
                for f in dele.faces for j, s in enumerate(f) if s == "*" for c in "01")
            and all(f[:p] + c + f[p:] in x.faces for f in dele.faces for c in "01"))


def test_near_prism_matches_the_face_loops():
    xs = ([x for _, _, x in mirror_corpus(4)] + [x for _, x in shifted_corpus(4)]
          + [cube(n) for n in range(5)])
    xs += [x.boundary_complex() for x in xs]
    seen = set()
    for x in xs:
        for i in x.universe:
            holds = x.near_prism(i).holds
            seen.add(holds)
            assert holds == near_prism_loops(x, i)
    assert seen == {True, False}


def test_near_prism_betti_check():
    r = near_prism_betti_check(cube(2).boundary_complex(), 1)
    assert r["holds"]
    assert r["rows"] == [{"dim": 0, "betti": 0, "predicted": 0},
                         {"dim": 1, "betti": 1, "predicted": 1}]
    r2 = near_prism_betti_check(cube(2), 1)
    assert r2["holds"]
    r3 = near_prism_betti_check(mirror(3, [[1, 2], [1, 3]]), 1)
    assert r3["holds"]
    with pytest.raises(ValueError):
        near_prism_betti_check(CubicalComplex((1, 2), {"*0", "0*"}), 1)


def test_prism_is_product_with_segment():
    # appended largest direction matches the tensor sign convention:
    # the product label (f,g) maps to the face string f + g
    for x in [cube(1), cube(2), cube(2).boundary_complex()]:
        d = max(x.universe) + 1
        px = x.prism(d).to_chain()
        pr = product(x.to_chain(), cube(1).to_chain())
        remap = lambda lab: "".join(lab[1:-1].rsplit(",", 1))
        assert isomorphic_under(pr, px, remap)


def test_prism_spectral_identities():
    xs = [cube(1), cube(2), cube(2).boundary_complex(),
          mirror(3, [[1, 2], [1, 3]])]
    assert prism_failures([(repr(x), x) for x in xs]) == []


def test_prism_total_gf_multiplies():
    for x in [cube(1), cube(2), cube(2).boundary_complex()]:
        cx = x.to_chain()
        px = x.prism(max(x.universe) + 1).to_chain()
        g = cx.total_gf()
        edge = LaurentPoly(("q", "t"), {(0, 0): 1, (2, 0): 1, (2, 1): 1})
        assert px.total_gf() == g * edge


def test_json_round_trip():
    x = mirror(3, [[1, 2], [1, 3]])
    d = x.to_json_dict()
    assert d["universe"] == [1, 2, 3]
    y = CubicalComplex.from_json_dict(d)
    assert x == y
    # closure on load
    z = CubicalComplex.from_json_dict({"universe": [1, 2], "faces": ["**"]})
    assert z == cube(2)


@pytest.mark.parametrize("universe", [(2, 1), (1, 1)])
def test_universe_must_be_strictly_increasing(universe):
    """Faces are read against the universe as given, so a universe out
    of order or with a repeat is refused, not sorted under the faces."""
    with pytest.raises(ValueError) as info:
        CubicalComplex(universe, {"0*"})
    assert str(info.value) == f"universe {universe} is not strictly increasing"


def test_xi_weight():
    u = (1, 2)
    w = xi_weight(u, "0*")
    assert w.subs({"x1": 3, "q2": 5, "q1": 7, "y1": 1, "x2": 1, "y2": 1}) == 15
    assert xi_weight(u, "**") == LaurentPoly.monomial(weight_vars(u), {"q1": 1, "q2": 1})


def test_algebraic_boundary_q1():
    q1 = cube(1)
    b = algebraic_boundary(q1, 1)
    vs = weight_vars((1,))
    assert b[0][0] == LaurentPoly.monomial(vs, {"q1": 1, "x1": -1}, -1)
    assert b[1][0] == LaurentPoly.monomial(vs, {"q1": 1, "y1": -1}, 1)


def test_algebraic_boundary_composes_to_zero():
    for n in (2, 3):
        x = cube(n)
        for i in range(2, n + 1):
            prod = ring_matmul(algebraic_boundary(x, i - 1),
                               algebraic_boundary(x, i))
            assert laurent_is_zero(prod)


def test_weighted_specializes_to_unweighted():
    x = cube(2)
    ones = {v: 1 for v in weight_vars(x.universe)}
    c = x.to_chain()
    for i in range(x.dim + 1):
        w = weighted_total_laplacian(x, i)
        li = c.laplacian(i, "tot")
        for r in range(len(w)):
            for s in range(len(w)):
                assert w[r][s].subs(ones) == li.entry(r, s)
    # diagonal weighting at xi = 1 gives the up-down Laplacian
    w1 = weighted_diag_laplacian(x, 2)
    l1 = c.laplacian(1, "ud")
    for r in range(len(w1)):
        for s in range(len(w1)):
            assert w1[r][s].subs(ones) == l1.entry(r, s)


def _transpose(m):
    return [list(col) for col in zip(*m)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weighted_laplacian_matches_products_of_algebraic_boundaries(n):
    """The Gram builder, weighted algebraically by the face monomials,
    against ring_matmul of the dense algebraic boundaries: tot_i is
    A_(i+1) A_(i+1)^T + A_i^T A_i.  Its ud part alone is tot_0 (there is
    no boundary of the vertices) and its du part alone is tot_n (there
    is no (n+1)-face), so each part is checked on its own there."""
    x = cube(n)
    c = x.to_chain()
    zero = LaurentPoly(weight_vars(x.universe))
    xi = {j: [xi_weight(x.universe, f) for f in x.faces_of_dim(j)]
          for j in range(-1, n + 1)}
    for i in range(n + 1):
        side = x.n_faces(i)
        blank = [[zero] * side for _ in range(side)]
        up, down = algebraic_boundary(x, i + 1), algebraic_boundary(x, i)
        ud = ring_matmul(up, _transpose(up)) if i < n else blank
        du = ring_matmul(_transpose(down), down) if i > 0 else blank
        tot = [[p + q for p, q in zip(a, b)] for a, b in zip(ud, du)]
        got = [[row.get(s, zero) for s in range(side)] for row in c.weighted_laplacian(i, xi)]
        assert got == tot, (n, i)
        if i == 0:
            assert got == ud and not laurent_is_zero(ud), n
        if i == n:
            assert got == du and not laurent_is_zero(du), n
        assert weighted_total_laplacian(x, i) == tot


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weighted_diag_laplacian_matches_b_diag_xi_bt(n):
    x = cube(n)
    for k in range(1, n + 1):
        b = x.to_chain().sparse_boundary(k).rows()
        xi = [xi_weight(x.universe, g) for g in x.faces_of_dim(k)]
        b_xi = [[a * w for a, w in zip(row, xi)] for row in b]
        assert weighted_diag_laplacian(x, k) == ring_matmul(b_xi, _transpose(b)), (n, k)


@pytest.mark.parametrize("x, ks", [
    (cube(1), (1,)), (cube(2), (1, 2)), (cube(3), (1, 2, 3)),
    (cube(3).boundary_complex(), (1, 2)),
    (CubicalComplex((1, 2, 3), ["0**", "*0*", "**0"]), (1, 2)),
    # 3-balls in the 4-cube: the four facets through a corner plus the
    # facet opposite one of them (corner 0010, direction 3; corner 0000,
    # direction 4, the benchmark's shape)
    (CubicalComplex((1, 2, 3, 4), ["0***", "*0**", "**1*", "***0", "**0*"]), (2,)),
    (CubicalComplex((1, 2, 3, 4), ["0***", "*0**", "**0*", "***0", "***1"]), (2,)),
], ids=["cube1", "cube2", "cube3", "bd-cube3", "corner-disc", "ball-0010-3", "ball-0000-4"])
def test_weighted_engine_at_rational_points(x, ks):
    """At seeded rational points, det_fraction of the reduced diagonal
    form, built by gram_sum from the evaluated weights, times the
    torsion ratio, is the weighted engine's enumerator evaluated there.
    The reference reduces at the stored-order U of _reduction, the engine
    at its maximum-degree U, so this also checks that the enumerator
    does not depend on U.  The engine's U is a (k-1)-tree, the greedy
    over the columns by decreasing nonzero count of their row in the
    weighted Laplacian."""
    rng = random.Random(11)
    vs = weight_vars(x.universe)
    for k in ks:
        xs = trees._skeleton(x, k, lo=1)
        labels = xs.labels(k - 1)
        u_engine = trees._reduction(xs, k, trees._degree_order(xs, k))[0]
        assert trees.is_cst(xs, k - 1, [labels[j] for j in u_engine]), k
        nonzeros = [sum(1 for v in row if v) for row in weighted_diag_laplacian(x, k)]
        by_degree = sorted(range(len(nonzeros)), key=lambda r: -nonzeros[r])
        bd = xs.homology_boundary(k - 1)
        greedy, _ = _pivot_columns(SparseMatrix([bd.cols[j] for j in by_degree], bd.nrows))
        assert u_engine == sorted(by_degree[i] for i in greedy), k
        picked, _, t_x, t_u = trees._reduction(xs, k)
        tau = trees.weighted_tau_matrix_tree(x, k)
        b = x.to_chain().sparse_boundary(k)
        keep = [r for r in range(b.nrows) if r not in set(picked)]
        for _ in range(3):
            point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in vs}
            xi = [xi_weight(x.universe, g).subs(point) for g in x.faces_of_dim(k)]
            rows = gram_sum(b.nrows, [(b.cols, xi, [1] * b.nrows)])
            det = det_fraction([[rows[r].get(s, 0) for s in keep] for r in keep])
            assert det * Fraction(t_x, t_u) ** 2 == tau.subs(point), (k, point)


def test_unit_monomials_divide_and_others_refuse():
    vs = weight_vars((1,))
    m = LaurentPoly.monomial(vs, {"q1": 1, "x1": -2}, -1)
    assert 1 / m == LaurentPoly.monomial(vs, {"q1": -1, "x1": 2}, -1)
    assert (1 / m) * m == 1
    with pytest.raises(ArithmeticError, match="not a unit monomial"):
        1 / (m * 2)
    with pytest.raises(ArithmeticError, match="not a unit monomial"):
        1 / (m + 1)


def test_cube_weighted_eigenvalue_forms():
    # at q=x=y=1 each u_A is 2|A| and multiplicities reproduce the
    # unweighted total spectrum
    for n, i in [(2, 0), (2, 1), (3, 1)]:
        forms = cube_weighted_tot_eigenvalues(n, i)
        assert sum(m for _, m in forms) == cube(n).n_faces(i)
        got = {}
        ones = {v: 1 for v in weight_vars(tuple(range(1, n + 1)))}
        for f, m in forms:
            lam = f.subs(ones)
            assert lam == Fraction(int(lam))
            got[int(lam)] = got.get(int(lam), 0) + m
        assert got == cube(n).to_chain().spectrum(i, "tot").eigs


def test_u_form():
    u = u_form((1, 2), (1,))
    val = u.subs({"q1": 2, "x1": 1, "y1": 2, "q2": 1, "x2": 1, "y2": 1})
    assert val == Fraction(4, 1) + Fraction(1, 1)


def test_a_fractional_universe_entry_is_refused_not_truncated():
    with pytest.raises(ValueError, match=r"universe entry Fraction\(5, 2\) is not an integer"):
        CubicalComplex((1, Fraction(5, 2)), ["**"])


@pytest.mark.parametrize("n, facets, message", [
    pytest.param(3, [[1, 2.5]], "facet vertex 2.5 is not an integer", id="float-vertex"),
    pytest.param(3, [[True, 2]], "facet vertex True is not an integer", id="bool-vertex"),
    pytest.param(3.5, [[1]], "mirror vertex count 3.5 is not an integer", id="float-count"),
    pytest.param(Fraction(7, 2), [[1]],
                 r"mirror vertex count Fraction\(7, 2\) is not an integer", id="fraction-count"),
])
def test_mirror_refuses_vertices_that_int_would_truncate(n, facets, message):
    """mirror(3, [[1, 2.5]]) passed the range check and built the mirror
    of {1}."""
    with pytest.raises(ValueError, match=message):
        mirror(n, facets)
