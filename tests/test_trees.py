import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cellspan import trees
from cellspan.chain import ChainComplex
from cellspan.colorful import colorful_complex
from cellspan.corpus import identity_corpus, mirror_corpus
from cellspan.cubical import cube, mirror, weight_vars
from cellspan.exact import IntMatrix, LaurentPoly, det_exact, rank_exact
from cellspan.trees import (
    BRUTE_CAP,
    CapExceeded,
    TreeQuery,
    TreeReport,
    cmtt_pi_identity_holds,
    conjecture_rhs,
    cst_target_size,
    enumerate_trees,
    f_recurrence_check,
    is_apc,
    is_cst,
    run_query,
    submatrix_det_properties,
    tau_alternating,
    tau_cube_closed_form,
    tau_matrix_tree,
    verify_conjecture,
    weighted_tau_matrix_tree,
    _as_chain,
    _Echelon,
    _greedy_u,
    _pivot_columns,
)


def rp2():
    # one vertex, one edge, one 2-cell; the 2-cell wraps the edge twice
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                        {1: [[0]], 2: [[2]]})


def vertex():
    return ChainComplex({0: ("v",)}, {})


def test_closed_form_values():
    assert tau_cube_closed_form(2, 1) == 4
    assert tau_cube_closed_form(3, 1) == 384
    assert tau_cube_closed_form(3, 2) == 6
    assert tau_cube_closed_form(4, 2) == 82944
    assert tau_cube_closed_form(4, 3) == 8
    assert tau_cube_closed_form(4, 1) == 4 ** 6 * 6 ** 4 * 8
    for n in range(1, 5):
        assert tau_cube_closed_form(n, n) == 1
    with pytest.raises(ValueError):
        tau_cube_closed_form(2, 0)
    with pytest.raises(ValueError):
        tau_cube_closed_form(2, 3)


def test_target_sizes():
    c = cube(2).to_chain()
    assert cst_target_size(c.skeleton(1), 1) == 3
    assert cst_target_size(c.skeleton(2), 2) == 1
    assert cst_target_size(c.skeleton(0), 0) == 1
    r = rp2()
    assert cst_target_size(r.skeleton(1), 1) == 0
    assert cst_target_size(r.skeleton(2), 2) == 1


def test_is_cst_square():
    c = cube(2)
    edges = c.to_chain().labels(1)
    three = edges[:3]
    cert = is_cst(c, 1, three)
    assert bool(cert) and cert.torsion == 1
    assert not is_cst(c, 1, edges).size_ok
    assert bool(is_cst(c, 1, edges)) is False


def test_is_cst_rp2():
    cert = is_cst(rp2(), 2, ["f"])
    assert bool(cert)
    assert cert.torsion == 2


def test_is_apc():
    assert is_apc(cube(3))
    assert is_apc(cube(3).pure_skeleton(2).to_chain())
    assert is_apc(rp2())
    assert not is_apc(mirror(3, [[1, 2], [1, 3]]))


def test_brute_square():
    rep = enumerate_trees(TreeQuery(cube(2), 1))
    assert rep.tau == 4 and rep.trees == 4
    assert all(t == 1 for _, t in rep.per_tree)
    assert rep.method == "brute"


def test_brute_q3_two_trees():
    rep = enumerate_trees(TreeQuery(cube(3), 2))
    assert rep.tau == 6 and rep.trees == 6


def test_brute_rp2():
    rep = enumerate_trees(TreeQuery(rp2(), 2))
    assert rep.tau == 4 and rep.trees == 1
    assert rep.per_tree[0][1] == 2
    rep1 = enumerate_trees(TreeQuery(rp2(), 1))
    assert rep1.tau == 1 and rep1.trees == 1
    assert rep1.per_tree[0][0] == ()


def test_brute_cap():
    with pytest.raises(CapExceeded) as e:
        enumerate_trees(TreeQuery(cube(3), 1, cap=10))
    assert e.value.needed == 792
    assert str(e.value) == "brute-force subset cap: needs 792, cap is 10"


def test_matrix_side_cap_names_itself(monkeypatch):
    monkeypatch.setattr(trees, "MATRIX_SIDE_CAP", 10)
    with pytest.raises(CapExceeded) as e:
        tau_matrix_tree(cube(3), 2)
    assert (e.value.needed, e.value.cap) == (12, 10)
    assert str(e.value) == "matrix-tree side cap (MATRIX_SIDE_CAP): needs 12, cap is 10"


def test_matrix_tree_values():
    assert tau_matrix_tree(cube(2), 1).tau == 4
    assert tau_matrix_tree(cube(3), 1).tau == 384
    assert tau_matrix_tree(cube(3), 2).tau == 6
    assert tau_matrix_tree(cube(4), 2).tau == 82944
    assert tau_matrix_tree(cube(4), 3).tau == 8
    assert tau_matrix_tree(cube(4), 1).tau == tau_cube_closed_form(4, 1)
    rep = tau_matrix_tree(rp2(), 2)
    assert rep.tau == 4 and rep.u_cells == ()
    assert rep.u_size_ok


def test_matrix_tree_u_is_recorded():
    rep = tau_matrix_tree(cube(2), 1)
    assert rep.u_cells == ("00",)
    assert rep.u_size_ok
    rep3 = tau_matrix_tree(cube(3), 2)
    assert len(rep3.u_cells) == 7 and rep3.u_size_ok


def test_matrix_tree_k0():
    rep = tau_matrix_tree(cube(2), 0)
    assert rep.tau == 4 and rep.trees == 4


def test_matrix_tree_rejects_non_apc():
    with pytest.raises(ValueError):
        tau_matrix_tree(mirror(3, [[1, 2], [1, 3]]), 2)


def test_alternating_values():
    assert tau_alternating(cube(2), 1) == 4
    assert tau_alternating(cube(3), 1) == 384
    assert tau_alternating(cube(3), 2) == 6
    assert tau_alternating(cube(3), 3) == 1
    assert tau_alternating(vertex(), 0) == 1
    with pytest.raises(ValueError):
        tau_alternating(rp2(), 2)  # torsion below the top dimension


def test_engine_agreement_cubes():
    for n in range(1, 4):
        for k in range(1, n + 1):
            brute = enumerate_trees(TreeQuery(cube(n), k)).tau
            mt = tau_matrix_tree(cube(n), k).tau
            alt = tau_alternating(cube(n), k)
            cf = tau_cube_closed_form(n, k)
            assert brute == mt == alt == cf


def test_run_query_dispatch():
    assert run_query(TreeQuery(cube(2), 1, method="brute")).tau == 4
    assert run_query(TreeQuery(cube(2), 1, method="matrix-tree")).tau == 4
    assert run_query(TreeQuery(cube(2), 1, method="alternating-product")).tau == 4
    assert run_query(TreeQuery(cube(2), 1, method="closed-form", cube_n=2)).tau == 4
    with pytest.raises(ValueError):
        run_query(TreeQuery(cube(2), 1, method="closed-form"))
    with pytest.raises(ValueError):
        TreeQuery(cube(2), 1, method="fast")
    with pytest.raises(ValueError):
        TreeQuery(cube(2), 5)
    with pytest.raises(ValueError):
        TreeQuery(rp2(), 1, weighted=True)


def test_report_json():
    d = tau_matrix_tree(cube(2), 1).to_json_dict()
    assert d["tau"] == "4" and d["method"] == "matrix-tree"
    assert d["U"] == ["00"] and d["per_tree"] == []
    b = enumerate_trees(TreeQuery(rp2(), 2)).to_json_dict()
    assert b["per_tree"] == [{"cells": ["f"], "torsion": "2"}]
    assert b["trees"] == 1


def test_weighted_square_oracle():
    vs = weight_vars((1, 2))
    q1 = LaurentPoly.variable(vs, "q1")
    q2 = LaurentPoly.variable(vs, "q2")
    x1 = LaurentPoly.variable(vs, "x1")
    y1 = LaurentPoly.variable(vs, "y1")
    x2 = LaurentPoly.variable(vs, "x2")
    y2 = LaurentPoly.variable(vs, "y2")
    expected = q1 * q1 * q2 * x2 * y2 * (x1 + y1) + q1 * q2 * q2 * x1 * y1 * (x2 + y2)
    rep = enumerate_trees(TreeQuery(cube(2), 1, weighted=True))
    assert rep.tau == expected
    assert weighted_tau_matrix_tree(cube(2), 1) == expected
    assert conjecture_rhs(2, 1) == expected


def test_weighted_single_top_cell():
    vs = weight_vars((1, 2))
    assert conjecture_rhs(2, 2) == LaurentPoly.monomial(vs, {"q1": 1, "q2": 1})
    rep = enumerate_trees(TreeQuery(cube(2), 2, weighted=True))
    assert rep.tau == conjecture_rhs(2, 2)
    assert weighted_tau_matrix_tree(cube(2), 2) == conjecture_rhs(2, 2)


def test_weighted_specializes_to_counts():
    assert conjecture_rhs(3, 1).subs_ones() == 384
    assert conjecture_rhs(3, 2).subs_ones() == 6
    assert weighted_tau_matrix_tree(cube(3), 1).subs_ones() == 384


def test_verify_conjecture_small():
    assert verify_conjecture(2, 1)["equal"]
    assert verify_conjecture(2, 2)["equal"]
    assert verify_conjecture(3, 2)["equal"]
    assert verify_conjecture(3, 3)["equal"]


def test_f_recurrence():
    assert f_recurrence_check(3, 1)["holds"]
    assert f_recurrence_check(3, 2)["holds"]
    assert f_recurrence_check(4, 3)["holds"]
    with pytest.raises(ValueError):
        f_recurrence_check(1, 1)
    with pytest.raises(ValueError):
        f_recurrence_check(3, 3)


def test_cmtt_pi_identity():
    assert cmtt_pi_identity_holds(cube(2))
    assert cmtt_pi_identity_holds(cube(3))
    assert cmtt_pi_identity_holds(rp2())
    assert cmtt_pi_identity_holds(cube(3).pure_skeleton(2).to_chain())


def test_submatrix_det_properties_square():
    r = submatrix_det_properties(cube(2), 1)
    assert r["holds"] and r["checked"] == 16


def test_submatrix_det_properties_q3_two_skeleton():
    r = submatrix_det_properties(cube(3), 2)
    assert r["holds"] and r["checked"] == 6 * 792


# ---------------------------------------------------------------------------
# choosing U in one pass, against the rank-per-column greedy it replaced


def rank_greedy(b):
    """Keep column j when it raises the rank of the columns kept so far."""
    picked = []
    for j in range(b.ncols):
        if rank_exact(b.columns_subset(picked + [j])) == len(picked) + 1:
            picked.append(j)
    return picked


@st.composite
def low_rank_matrices(draw):
    """Integer matrices up to 7 x 9, as a product A B with a small inner
    dimension, so dependent columns are common."""
    nr, nc, inner = draw(st.integers(0, 7)), draw(st.integers(0, 9)), draw(st.integers(0, 4))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    a = [[draw(entry) for _ in range(inner)] for _ in range(nr)]
    b = [[draw(entry) for _ in range(nc)] for _ in range(inner)]
    rows = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(nc)]
            for i in range(nr)]
    return IntMatrix(rows, ncols=nc)


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices())
def test_pivot_columns_match_rank_greedy(b):
    assert _pivot_columns(b) == rank_greedy(b)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_echelon_determinant_matches_bareiss(rows):
    """Pushing the columns one at a time: the first dependent one shows
    a zero determinant, else the last reduction is +-det."""
    n = len(rows)
    want = det_exact(IntMatrix(rows))
    ech = _Echelon()
    for j in range(n):
        v = ech.reduce({i: rows[i][j] for i in range(n) if rows[i][j]})
        if not v:
            assert want == 0
            return
        if j + 1 == n:
            assert len(v) == 1 and abs(next(iter(v.values()))) == abs(want)
        else:
            ech.push(v)


def test_greedy_u_matches_rank_greedy_on_corpus():
    """Cubes, rp2, the mirrors on up to four vertices and the colorful
    complexes of up to seven vertices, in every dimension."""
    items = identity_corpus(mirror_max=4, colorful_max=7)
    items.append(("twisted", twisted()))
    for name, c in items:
        for k in range(1, c.dim + 1):
            xs = c.skeleton(k)
            picked, labels = _greedy_u(xs, k)
            assert picked == rank_greedy(xs.homology_boundary(k - 1)), (name, k)
            assert labels == xs.labels(k - 1)


# ---------------------------------------------------------------------------
# the brute engine's determinant test against is_cst


def twisted():
    """U = {a} has torsion 2 while X has none below, so the brute engine
    must divide its determinants by t_U: the 3-tree {g} has torsion 1
    (det 2) and {h} torsion 3 (det 6)."""
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("a", "b"), 3: ("g", "h")},
                        {1: [[0]], 2: [[2, 1]], 3: [[1, 3], [-2, -6]]})


def brute_against_is_cst(x, k):
    """per_tree lists exactly the subsets is_cst certifies, with its
    torsions, in itertools.combinations order."""
    rep = enumerate_trees(TreeQuery(x, k))
    xs = _as_chain(x).skeleton(k)
    labels = xs.labels(k)
    want = []
    for idx in itertools.combinations(range(len(labels)), cst_target_size(xs, k)):
        cells = tuple(labels[j] for j in idx)
        cert = is_cst(xs, k, cells)
        if cert:
            want.append((cells, cert.torsion))
    assert list(rep.per_tree) == want
    assert rep.trees == len(want)
    assert rep.tau == sum(t * t for _, t in want)
    return rep


def test_brute_torsions_match_is_cst_rp2():
    rep = brute_against_is_cst(rp2(), 2)
    assert rep.per_tree == ((("f",), 2),)
    for k in (0, 1):
        brute_against_is_cst(rp2(), k)


def test_brute_torsions_match_is_cst_twisted():
    rep = brute_against_is_cst(twisted(), 3)
    assert rep.per_tree == ((("g",), 1), (("h",), 3))
    assert rep.tau == tau_matrix_tree(twisted(), 3).tau == 10


def test_brute_torsions_match_is_cst_cube3_k2():
    rep = brute_against_is_cst(cube(3), 2)
    assert rep.trees == 6


def test_brute_torsions_match_is_cst_colorful():
    c = colorful_complex((1, 2, 2))
    for k in range(0, c.dim + 1):
        brute_against_is_cst(c, k)


def test_brute_torsions_match_is_cst_mirror_corpus():
    """Every APC skeleton of the mirrors on up to four vertices with at
    most 300 candidate subsets (203 cases)."""
    cases = 0
    for _name, _fam, x in mirror_corpus(4):
        c = x.to_chain()
        for k in range(0, c.dim + 1):
            xs = c.skeleton(k)
            if not xs.is_apc():
                continue
            if math.comb(xs.n_cells(k), cst_target_size(xs, k)) > 300:
                continue
            brute_against_is_cst(c, k)
            cases += 1
    assert cases == 203


def test_brute_per_tree_in_combinations_order():
    rep = enumerate_trees(TreeQuery(cube(3), 1))
    labels = cube(3).to_chain().labels(1)
    pos = {f: j for j, f in enumerate(labels)}
    idx = [tuple(pos[f] for f in cells) for cells, _ in rep.per_tree]
    assert idx == sorted(idx)
    assert all(list(t) == sorted(t) for t in idx)
    assert rep.trees == 384
