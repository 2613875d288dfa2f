import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cellspan import trees
from cellspan.chain import ChainComplex, product
from cellspan.colorful import colorful_complex
from cellspan.corpus import (colorful_corpus, identity_corpus, mirror_corpus, simplicial_chain,
                             simplicial_families)
from cellspan.cubical import cube, mirror, weight_vars
from cellspan.exact import (LaurentPoly, SparseMatrix, _Echelon, _pivot_columns, det_exact,
                            rank_exact, smith_normal_form)
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
    is_cst,
    run_query,
    submatrix_det_properties,
    tau_alternating,
    tau_cube_closed_form,
    tau_matrix_tree,
    verify_conjecture,
    weighted_tau_matrix_tree,
    _as_chain,
    _degree_order,
    _reduction,
)


def rp2():
    # one vertex, one edge, one 2-cell; the 2-cell wraps the edge twice
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                        {1: [[0]], 2: [[2]]})


def vertex():
    return ChainComplex({0: ("v",)}, {})


def moore3():
    # M(Z/3, 1): one vertex, one edge, one 2-cell wrapping the edge three
    # times, so H_1 = Z/3, odd torsion
    return ChainComplex.from_json_dict(
        {"cells": [["v"], ["e"], ["f"]], "boundary": {"1": [[0]], "2": [[3]]}})


def test_closed_form_values():
    assert tau_cube_closed_form(2, 1) == 4
    assert tau_cube_closed_form(3, 1) == 384
    assert tau_cube_closed_form(3, 2) == 6
    assert tau_cube_closed_form(4, 2) == 82944
    assert tau_cube_closed_form(4, 3) == 8
    assert tau_cube_closed_form(4, 1) == 4 ** 6 * 6 ** 4 * 8
    for n in range(1, 5):
        assert tau_cube_closed_form(n, n) == 1
    for n in range(11):
        assert tau_cube_closed_form(n, 0) == 2 ** n
    with pytest.raises(ValueError):
        tau_cube_closed_form(2, -1)
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
    assert _as_chain(cube(3)).is_apc()
    assert _as_chain(cube(3).pure_skeleton(2).to_chain()).is_apc()
    assert _as_chain(rp2()).is_apc()
    assert not _as_chain(mirror(3, [[1, 2], [1, 3]])).is_apc()


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


def test_matrix_tree_u_is_recorded():
    rep = tau_matrix_tree(cube(2), 1)
    assert rep.u_cells == ("00",)
    rep3 = tau_matrix_tree(cube(3), 2)
    assert len(rep3.u_cells) == 7


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
    assert tau_alternating(rp2(), 2) == 4  # torsion below the top dimension


@pytest.mark.parametrize("c, torsion, counts", [
    (moore3(), [1, 3, 1], {1: 1, 2: 9}),
    (product(moore3(), moore3()), [1, 9, 3, 3, 1], {2: 81, 3: 18, 4: 9}),
    (product(rp2(), moore3()), [1, 6, 1, 1, 1], {2: 36, 3: 13}),
])
def test_odd_torsion_counts(c, torsion, counts):
    """M(Z/3, 1) alone and in products: torsion orders in dimensions
    0..dim, and one count from all three engines."""
    assert [c.torsion_order(n) for n in range(c.dim + 1)] == torsion
    for k, tau in counts.items():
        assert (tau_matrix_tree(c, k).tau == tau_alternating(c, k)
                == enumerate_trees(TreeQuery(c, k)).tau == tau), k


PRODUCTS_WITH_RP2 = [
    (rp2(), {2: 16, 3: 8, 4: 4}),
    (cube(2).to_chain(), {0: 4, 1: 4, 2: 1152, 3: 8, 4: 1}),
    (cube(1).to_chain(), {0: 2, 1: 1, 2: 24, 3: 1}),
]


@pytest.mark.parametrize("factor, counts", PRODUCTS_WITH_RP2)
def test_tree_counts_of_products_with_rp2(factor, counts):
    """rp2 x F has H_1 = Z/2, below every k >= 2, where the recursion
    needs the paper's torsion factor to match the determinant engine."""
    c = product(rp2(), factor)
    for k, tau in counts.items():
        assert tau_matrix_tree(c, k).tau == tau_alternating(c, k) == tau, k


@pytest.mark.parametrize("factor, counts", PRODUCTS_WITH_RP2)
def test_reduction_is_the_same_at_every_column_order(factor, counts):
    """det L[Ubar, Ubar] t_X^2 / t_U^2 at the stored, degree and
    reversed column orders of _reduction is the pinned tau, torsion
    below included, with L = B B^T for the reduced boundary B = d_k."""
    c = product(rp2(), factor)
    for k, tau in counts.items():
        xs = c.skeleton(k)
        rows = xs.homology_boundary(k).rows()
        stored = range(xs.homology_boundary(k - 1).ncols)
        for order in (None, _degree_order(xs, k), stored[::-1]):
            _, ubar, t_x, t_u = _reduction(xs, k, order)
            lap = [[sum(a * b for a, b in zip(rows[r], rows[s])) for s in ubar]
                   for r in ubar]
            det, rem = divmod(det_exact(lap) * t_x * t_x, t_u * t_u)
            assert (det, rem) == (tau, 0), (k, order)


PRODUCT_FACTORS = [
    rp2(), moore3(), cube(1).to_chain(), cube(2).to_chain(),
    mirror(2, [[1], [2]]).to_chain(),
    mirror(3, [[1, 2], [1, 3]]).to_chain(),
    mirror(3, [[1, 2], [3]]).to_chain(),
]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(PRODUCT_FACTORS), st.sampled_from(PRODUCT_FACTORS))
def test_engines_agree_on_products(a, b):
    """Brute force, matrix-tree and the recursion give one count at
    every k the APC rule accepts, torsion included, and refuse the same
    k."""
    c = product(a, b)
    for k in range(c.dim + 1):
        try:
            mt = tau_matrix_tree(c, k).tau
        except ValueError:
            with pytest.raises(ValueError):
                tau_alternating(c, k)
            continue
        assert tau_alternating(c, k) == mt, k
        try:
            assert enumerate_trees(TreeQuery(c, k, cap=20_000)).tau == mt, k
        except CapExceeded:
            pass


def scaled_augmentation(c: ChainComplex, s: int) -> ChainComplex:
    """c with its stored augmentation row times s, so reduced H_(-1) of
    a complex with a vertex is Z/s."""
    aug = SparseMatrix([{r: s * v for r, v in col.items()} for col in c.bnd[0].cols], 1)
    return ChainComplex(c.cells, {**c.bnd, 0: aug}, empty_cell=True)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_engines_agree_with_torsion_in_dimension_minus_one(s):
    """With the augmentation row scaled by s, t_(-1) = s enters every
    engine by one rule, torsion_order(-1): brute force, matrix-tree and
    the recursion agree at every k they accept (tau_0 = pi_0 = n_0 s^2),
    and a single vertex is a 0-tree of torsion s."""
    for family in simplicial_families(3):
        if not family:
            continue
        c = scaled_augmentation(simplicial_chain(family), s)
        assert is_cst(c, 0, c.labels(0)[:1]).torsion == s
        for k in range(c.dim + 1):
            try:
                mt = tau_matrix_tree(c, k).tau
            except ValueError:
                continue
            assert enumerate_trees(TreeQuery(c, k)).tau == tau_alternating(c, k) == mt, (family, k)


def test_tot_spectrum_of_a_product_is_the_sum_rule():
    """L^tot(X x Y) = L^tot_X (x) 1 + 1 (x) L^tot_Y: in dimension k its
    spectrum is {lam + mu} over lam in spec_i(X) and mu in
    spec_(k-i)(Y), multiplicities multiplied."""
    for a, b in itertools.product(PRODUCT_FACTORS, repeat=2):
        c = product(a, b)
        for k in range(c.dim + 1):
            want = Counter()
            for i in range(max(0, k - b.dim), min(k, a.dim) + 1):
                for lam, m in a.spectrum(i, "tot").items():
                    for mu, n in b.spectrum(k - i, "tot").items():
                        want[lam + mu] += m * n
            assert c.spectrum(k, "tot").items() == sorted(want.items()), (a, b, k)


def _unreduced_homology(x) -> list:
    """(betti, torsion invariant factors) of H_i(x), i = 0..dim."""
    return [(x.betti(i) + (i == 0),
             [f for f in smith_normal_form(x.homology_boundary(i + 1)) if f > 1])
            for i in range(x.dim + 1)]


def test_homology_of_a_product_is_kunneth_with_tor():
    """H_n(X x Y) = sum over i + j = n of H_i (x) H_j, plus Tor(H_i, H_j)
    over i + j = n - 1, with Z/s (x) Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t);
    homology is reduced, so one Z comes back in degree 0."""
    for a, b in itertools.product(PRODUCT_FACTORS, repeat=2):
        ha, hb, c = _unreduced_homology(a), _unreduced_homology(b), product(a, b)
        for n in range(c.dim + 1):
            betti, torsion = 0, 1
            for i, (ba, ta) in enumerate(ha):
                for j, (bb, tb) in enumerate(hb):
                    tor = math.prod(math.gcd(s, t) for s in ta for t in tb)
                    if i + j == n:
                        betti += ba * bb
                        torsion *= math.prod(ta) ** bb * math.prod(tb) ** ba * tor
                    elif i + j == n - 1:
                        torsion *= tor
            h = c.homology(n)
            assert (h.betti + (n == 0), h.torsion) == (betti, torsion), (a, b, n)
    rp2xrp2 = product(rp2(), rp2())
    assert [rp2xrp2.torsion_order(n) for n in range(5)] == [1, 4, 2, 2, 1]


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
    assert run_query(TreeQuery(cube(2), 1, method="closed-form")).tau == 4
    with pytest.raises(ValueError):
        run_query(TreeQuery(rp2(), 1, method="closed-form"))
    with pytest.raises(ValueError):
        run_query(TreeQuery(cube(3).boundary_complex(), 1, method="closed-form"))
    with pytest.raises(ValueError):
        TreeQuery(cube(2), 1, method="fast")
    with pytest.raises(ValueError):
        TreeQuery(cube(2), 5)
    with pytest.raises(ValueError):
        TreeQuery(rp2(), 1, weighted=True)


@pytest.mark.parametrize("method", ["alternating-product", "closed-form"])
def test_weighted_query_needs_an_enumerating_method(method):
    with pytest.raises(ValueError, match=f"no {method} method"):
        TreeQuery(cube(2), 1, method=method, weighted=True)


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
    def at_ones(p):
        return p.subs(dict.fromkeys(p.vars, 1))
    assert at_ones(conjecture_rhs(3, 1)) == 384
    assert at_ones(conjecture_rhs(3, 2)) == 6
    assert at_ones(weighted_tau_matrix_tree(cube(3), 1)) == 384


def test_weighted_engine_starts_at_k1():
    """At k = 0 there is no (k-1)-tree to reduce by, so the weighted
    engine refuses rather than report the empty determinant."""
    with pytest.raises(ValueError, match=r"^k=0 out of range \[1, 2\]$"):
        weighted_tau_matrix_tree(cube(2), 0)


def set_torsions(monkeypatch, t_x, t_u):
    """Make _reduction report (t_X, t_U) = (t_x, t_u) at its U."""
    monkeypatch.setattr(trees, "_reduction",
                        lambda *a: _reduction(*a)[:2] + (t_x, t_u))


def test_weighted_matrix_tree_scales_by_the_torsion_ratio(monkeypatch):
    base = weighted_tau_matrix_tree(cube(2), 1)
    set_torsions(monkeypatch, 2, 1)
    assert weighted_tau_matrix_tree(cube(2), 1) == base * 4
    set_torsions(monkeypatch, 6, 3)
    assert weighted_tau_matrix_tree(cube(2), 1) == base * 4
    set_torsions(monkeypatch, 1, 2)
    with pytest.raises(ArithmeticError, match="torsion ratio did not divide"):
        weighted_tau_matrix_tree(cube(2), 1)


def brute_weighted(x, k):
    return enumerate_trees(TreeQuery(x, k, weighted=True)).tau


def test_weighted_brute_scales_by_the_torsion_ratio(monkeypatch):
    """Each tree adds t_T^2 times its monomial: doubling every t_T
    multiplies tau by 4."""
    base = brute_weighted(cube(2), 1)
    set_torsions(monkeypatch, 2, 1)
    assert brute_weighted(cube(2), 1) == base * 4
    set_torsions(monkeypatch, 1, 2)
    with pytest.raises(ArithmeticError, match="torsion ratio did not divide"):
        brute_weighted(cube(2), 1)


@pytest.mark.parametrize("name, k", [("cube:2", 1), ("cube:2", 2), ("cube:3", 1),
                                     ("cube:3", 2), ("cube:3", 3), ("cube:4", 3),
                                     ("cube:4", 4), ("boundary:3", 1), ("boundary:3", 2)])
def test_weighted_engines_agree(name, k):
    kind, n = name.split(":")
    x = cube(int(n)) if kind == "cube" else cube(int(n)).boundary_complex()
    assert brute_weighted(x, k) == weighted_tau_matrix_tree(x, k)


def test_verify_conjecture_reports_the_first_difference(monkeypatch):
    vs = weight_vars((1, 2))
    rhs = conjecture_rhs
    monkeypatch.setattr(trees, "conjecture_rhs",
                        lambda n, k: rhs(n, k) + LaurentPoly.monomial(vs, {"x1": -1}, 2))
    out = verify_conjecture(2, 1)
    assert out["equal"] is False
    assert out["first_difference"] == {"exp": [0, -1, 0, 0, 0, 0], "brute": "0",
                                       "conjecture": "2"}


def test_conjecture_expansion_is_capped_before_it_starts(monkeypatch):
    """conjecture_rhs(6, 1) would expand a product of 57 brackets; the
    term bound stops it before any multiplication."""
    def no_products(*args):
        raise AssertionError("multiplied before the cap")

    monkeypatch.setattr(LaurentPoly, "__mul__", no_products)
    with pytest.raises(CapExceeded, match="EXPANSION_TERM_CAP"):
        conjecture_rhs(6, 1)
    with pytest.raises(CapExceeded, match="EXPANSION_TERM_CAP"):
        f_recurrence_check(6, 4)


def test_conjecture_pairs_in_use_stay_under_the_cap():
    """Every pair that verify conjectures, the conjecture command and
    these tests expand is below the term cap, with room."""
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 3)):
        trees._check_expansion(n, trees._bracket_count(n, k))


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
        if rank_exact(SparseMatrix([b.cols[c] for c in picked + [j]], b.nrows)) == len(picked) + 1:
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
    return SparseMatrix.from_rows(rows, ncols=nc)


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices())
def test_pivot_columns_match_rank_greedy(b):
    """The basis is the greedy one, and D, a nonzero r x r minor, is a
    multiple of the product of the invariant factors."""
    picked, d = _pivot_columns(b)
    assert picked == rank_greedy(b)
    assert d % math.prod(smith_normal_form(b)) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_echelon_determinant_matches_bareiss(rows):
    """Pushing the columns one at a time: the first dependent one shows
    a zero determinant, else the last reduction is +-det."""
    n = len(rows)
    want = det_exact(rows)
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
    items = identity_corpus(mirror_corpus(4), colorful_corpus(7))
    items.append(("twisted", twisted()))
    for name, c in items:
        for k in range(1, c.dim + 1):
            xs = c.skeleton(k)
            picked, ubar, _, _ = _reduction(xs, k)
            assert picked == rank_greedy(xs.homology_boundary(k - 1)), (name, k)
            assert sorted(picked + ubar) == list(range(xs.n_cells(k - 1)))


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
