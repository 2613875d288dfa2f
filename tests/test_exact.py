import importlib
import math
import pkgutil
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cellspan
from cellspan import exact
from cellspan.cubical import cube
from cellspan.exact import (
    IntMatrix,
    IntPoly,
    LaurentPoly,
    NotIntegral,
    char_poly,
    char_poly_interpolate,
    char_poly_memo,
    det_exact,
    det_fraction,
    det_ring,
    gen_binom,
    integer_spectrum,
    rank_exact,
    ring_matmul,
    ring_transpose,
    smith_normal_form,
)


def test_gen_binom_small_values():
    assert gen_binom(5, 2) == 10
    assert gen_binom(5, 0) == 1
    assert gen_binom(5, 5) == 1
    assert gen_binom(5, 6) == 0
    assert gen_binom(0, 0) == 1


def test_gen_binom_negative_upper():
    assert gen_binom(-1, 0) == 1
    assert gen_binom(-1, 1) == -1
    assert gen_binom(-1, 2) == 1
    assert gen_binom(-2, 3) == -4


def test_gen_binom_negative_lower():
    assert gen_binom(-1, -1) == 1
    assert gen_binom(-2, -2) == 1
    assert gen_binom(3, -2) == 0
    assert gen_binom(-3, -2) == 0
    assert gen_binom(0, -1) == 0


def test_gen_binom_pascal():
    for a in range(-6, 7):
        for b in range(1, 6):
            assert gen_binom(a, b) == gen_binom(a - 1, b - 1) + gen_binom(a - 1, b)


def test_matrix_product_and_transpose():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a * b).rows == ((2, 1), (4, 3))
    assert a.transpose().rows == ((1, 3), (2, 4))
    e = IntMatrix([], ncols=3)
    assert e.shape == (0, 3)
    prod = e.transpose() * e
    assert prod.shape == (3, 3)
    assert prod == IntMatrix.zeros(3, 3)


def test_matrix_product_big_entries():
    # force the arbitrary-precision path
    big = 10**20
    a = IntMatrix([[big, 1], [0, big]])
    sq = a * a
    assert sq.entry(0, 0) == big * big
    assert sq.entry(0, 1) == 2 * big


def test_det_small():
    assert det_exact(IntMatrix([[1, 2], [3, 4]])) == -2
    assert det_exact(IntMatrix([])) == 1
    assert det_exact(IntMatrix([[7]])) == 7
    assert det_exact(IntMatrix([[1, 2], [2, 4]])) == 0


def test_det_graph_laplacians():
    # reduced Laplacian of the triangle: 3 spanning trees
    tri = IntMatrix([[2, -1], [-1, 2]])
    assert det_exact(tri) == 3
    # reduced Laplacian of K4: 16 spanning trees
    k4 = IntMatrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert det_exact(k4) == 16


def test_det_fraction_matches():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert det_fraction(rows) == Fraction(det_exact(IntMatrix(rows)))


def test_det_ring_matches_int_det():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_ring(rows) == det_exact(IntMatrix(rows))


def test_rank():
    assert rank_exact(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rank_exact(IntMatrix([[1, 2], [3, 4]])) == 2
    assert rank_exact(IntMatrix.zeros(3, 5)) == 0
    assert rank_exact(IntMatrix([], ncols=4)) == 0
    m = IntMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert rank_exact(m) == 2


def test_smith_normal_form_values():
    assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])) == (2, 4)
    assert smith_normal_form(IntMatrix([[2]])) == (2,)
    assert smith_normal_form(IntMatrix([[1, 0], [0, 1]])) == (1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 3)) == ()
    assert smith_normal_form(IntMatrix([[4, 0], [0, 6]])) == (2, 12)


def test_smith_divisibility_random():
    rng = random.Random(7)
    for _ in range(30):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        m = IntMatrix([[rng.randrange(-8, 9) for _ in range(nc)] for _ in range(nr)])
        d = smith_normal_form(m)
        assert len(d) == rank_exact(m)
        assert all(x > 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        # product of the first r invariant factors = gcd of r x r minors;
        # spot-check r = 1: d[0] must be the gcd of all entries
        if d:
            import math
            g = 0
            for row in m.rows:
                for v in row:
                    g = math.gcd(g, v)
            assert d[0] == g


def test_int_poly_basics():
    p = IntPoly([0, 0, -2, 1])  # y^3 - 2 y^2
    assert p.degree == 3
    assert p.valuation() == 2
    assert p(3) == 9
    q, r = p.divide_linear(2)
    assert r == 0
    assert q == IntPoly([0, 0, 1])
    assert IntPoly.from_roots([(2, 1), (0, 2)]) == p
    qq, rr = IntPoly([1, 1]).divide_linear(3)
    assert (qq.coeffs, rr) == ((1,), 4)


def test_char_poly_known():
    m = IntMatrix([[1, -1], [-1, 1]])
    assert char_poly(m) == IntPoly([0, -2, 1])  # y^2 - 2y
    assert char_poly(IntMatrix([])) == IntPoly([1])
    assert char_poly(IntMatrix.zeros(3, 3)) == IntPoly([0, 0, 0, 1])
    d = IntMatrix([[2, 0], [0, 5]])
    assert char_poly(d) == IntPoly([10, -7, 1])


def test_char_poly_matches_interpolation():
    rng = random.Random(0)
    for _ in range(12):
        n = rng.randrange(1, 8)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        m = IntMatrix(rows)
        assert char_poly(m) == char_poly_interpolate(m)


def test_char_poly_symmetric_larger():
    rng = random.Random(1)
    n = 12
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randrange(-6, 7)
            rows[i][j] = v
            rows[j][i] = v
    m = IntMatrix(rows)
    assert char_poly(m) == char_poly_interpolate(m)


def test_char_poly_trace_and_det():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        m = IntMatrix(rows)
        chi = char_poly(m)
        assert chi.coeffs[-1] == 1
        assert chi.coeff(n - 1) == -m.trace()
        assert chi.coeff(0) == (-1) ** n * det_exact(m)


def test_integer_spectrum_basics():
    assert integer_spectrum(IntMatrix.zeros(3, 3)) == {0: 3}
    assert integer_spectrum(IntMatrix([])) == {}
    assert integer_spectrum(IntMatrix([[2, 0], [0, 3]])) == {2: 1, 3: 1}
    assert integer_spectrum(IntMatrix([[1, -1], [-1, 1]])) == {0: 1, 2: 1}


def test_integer_spectrum_multiplicity():
    # K4 graph Laplacian: eigenvalues 0, 4, 4, 4
    k4 = IntMatrix([[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]])
    assert integer_spectrum(k4) == {0: 1, 4: 3}


def test_integer_spectrum_rejects_irrational():
    m = IntMatrix([[1, 1], [1, 2]])
    out = integer_spectrum(m)
    assert isinstance(out, NotIntegral)
    assert out.charpoly == IntPoly([1, -3, 1])


def test_integer_spectrum_requires_symmetry():
    with pytest.raises(ValueError):
        integer_spectrum(IntMatrix([[0, 1], [0, 0]]))


def test_laurent_arithmetic():
    vs = ("q1", "x1", "y1")
    q = LaurentPoly.variable(vs, "q1")
    x = LaurentPoly.variable(vs, "x1")
    y = LaurentPoly.variable(vs, "y1")
    u = LaurentPoly.monomial(vs, {"q1": 2, "x1": -2}) + LaurentPoly.monomial(vs, {"q1": 2, "y1": -2})
    assert u.subs({"q1": 2, "x1": 1, "y1": 2}) == Fraction(5)
    assert (q * x - x * q).is_zero()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert u.subs_ones() == 2


def test_laurent_negative_exponent_at_zero():
    vs = ("x",)
    p = LaurentPoly.monomial(vs, {"x": -1})
    with pytest.raises(ZeroDivisionError):
        p.subs({"x": 0})


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(cellspan.__path__, "cellspan."):
        mod = importlib.import_module(info.name)
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], info.name
    assert all(hasattr(cellspan, n) for n in cellspan.__all__)


def test_laurent_json_round_trip():
    vs = ("q", "x")
    p = LaurentPoly.monomial(vs, {"q": 2, "x": -1}, 3) - LaurentPoly.constant(vs, 7)
    d = p.to_json_dict()
    assert d["vars"] == ["q", "x"]
    assert all(isinstance(t["coef"], str) for t in d["terms"])
    assert LaurentPoly.from_json_dict(d) == p


def test_laurent_sorted_terms_are_ordered():
    vs = ("a", "b")
    p = (LaurentPoly.variable(vs, "a") + LaurentPoly.variable(vs, "b")) ** 3
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == sorted(exps)


# ---------------------------------------------------------------------------
# LaurentPoly against a tuple-key oracle


def _o_clean(d):
    return {e: c for e, c in d.items() if c}


def _o_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _o_clean(out)


def _o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _o_clean(out)


def _o_subs(a, vals):
    return sum((c * math.prod(Fraction(v) ** p for v, p in zip(vals, e))
                for e, c in a.items()), Fraction(0))


@st.composite
def laurent_pairs(draw):
    """A variable tuple of 1-12 names and two term dicts over it, with
    negative exponents, some far from zero, and zero coefficients."""
    width = draw(st.integers(1, 12))
    exp = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    terms = st.dictionaries(st.tuples(*[exp] * width), st.integers(-4, 4), max_size=5)
    return tuple(f"v{i}" for i in range(width)), draw(terms), draw(terms)


@settings(max_examples=200, deadline=None)
@given(laurent_pairs(), st.integers(0, 3), st.integers(-3, 3))
def test_laurent_against_a_tuple_key_oracle(case, k, c):
    vs, ta, tb = case
    a, b = LaurentPoly(vs, ta), LaurentPoly(vs, tb)
    oa, ob = _o_clean(ta), _o_clean(tb)
    assert dict(a.terms) == oa and dict(b.terms) == ob
    assert dict((a + b).terms) == _o_add(oa, ob)
    assert dict((a - b).terms) == _o_add(oa, {e: -v for e, v in ob.items()})
    assert dict((a * b).terms) == _o_mul(oa, ob)
    assert dict((a * c).terms) == _o_clean({e: v * c for e, v in oa.items()})
    power = {(0,) * len(vs): 1}
    for _ in range(k):
        power = _o_mul(power, oa)
    assert dict((a ** k).terms) == power
    both = LaurentPoly.linear_combination(vs, [(a, c), (b, 2)])
    assert dict(both.terms) == _o_add({e: v * c for e, v in oa.items()},
                                      {e: 2 * v for e, v in ob.items()})
    assert (a == b) == (oa == ob)
    assert (a == LaurentPoly(vs, dict(ta))) and hash(a) == hash(LaurentPoly(vs, dict(ta)))
    assert (a * b == b * a) and hash(a * b) == hash(b * a)
    assert a.sorted_terms() == sorted(oa.items())
    assert a.to_json_dict() == {"vars": list(vs), "terms": [
        {"exp": list(e), "coef": str(v)} for e, v in sorted(oa.items())]}
    assert LaurentPoly.from_json_dict(a.to_json_dict()) == a
    vals = [(-1) ** i * (i % 3 + 1) for i in range(len(vs))]
    small = {e: v for e, v in oa.items() if max(map(abs, e)) <= 3}
    assert LaurentPoly(vs, small).subs(dict(zip(vs, vals))) == _o_subs(small, vals)


def test_laurent_terms_is_a_read_only_view():
    p = LaurentPoly(("x", "y"), {(1, -2): 3})
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 1
    assert dict(p.terms) == {(1, -2): 3}


def test_laurent_exponents_at_the_packing_bound_round_trip():
    top = (1 << (exact._W - 1)) - 1
    vs = ("a", "b", "c")
    for e in [(top, -top, 0), (-top, top, -top), (top, top, top), (-1, top, -1)]:
        p = LaurentPoly(vs, {e: -5, (0, 0, 0): 2})
        assert dict(p.terms) == {e: -5, (0, 0, 0): 2}
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p
    # two products that end exactly on the bound
    half = LaurentPoly(vs, {(top // 2, -(top // 2), 1): 1})
    rest = LaurentPoly(vs, {(top - top // 2, -(top - top // 2), -1): 1})
    assert dict((half * rest).terms) == {(top, -top, 0): 1}


def test_laurent_past_the_packing_bound_raises_instead_of_aliasing():
    top = (1 << (exact._W - 1)) - 1
    vs = ("a", "b")
    a = LaurentPoly(vs, {(top, 0): 1})
    one_more = LaurentPoly.variable(vs, "a")
    with pytest.raises(OverflowError):
        a * one_more
    with pytest.raises(OverflowError):
        LaurentPoly(vs, {(0, -(top + 1)): 1})
    with pytest.raises(OverflowError):
        LaurentPoly.variable(vs, "b", 1 << (exact._W // 2)) ** (1 << (exact._W // 2 - 1))
    # the bound is carried, not read off the terms: the sum cancels the
    # large term, yet its bound stays at top, and top + 1 reaches 2^(W-1)
    cancelled = (a + one_more) - a
    assert cancelled == one_more
    with pytest.raises(OverflowError):
        cancelled * one_more


def test_laurent_divide_exact():
    vs = ("x",)
    p = LaurentPoly(vs, {(1,): 6, (-2,): -4})
    assert p.divide_exact(2) == LaurentPoly(vs, {(1,): 3, (-2,): -2})
    with pytest.raises(ArithmeticError):
        p.divide_exact(4)


def test_det_ring_laurent_matrix():
    vs = ("t",)
    t = LaurentPoly.variable(vs, "t")
    one = LaurentPoly.constant(vs, 1)
    rows = [[t, one], [one, t]]
    assert det_ring(rows) == t * t - one


# ---------------------------------------------------------------------------
# differential tests: det_ring against the two elimination routines


@st.composite
def sparse_int_matrices(draw, max_side=9):
    """Square integer matrices of side 0..max_side, mostly zeros, some
    with a zero column or two equal rows (singular)."""
    n = draw(st.integers(0, max_side))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        kind = draw(st.sampled_from(("zero-column", "equal-rows")))
        if kind == "zero-column":
            j = draw(st.integers(0, n - 1))
            for r in rows:
                r[j] = 0
        elif n >= 2:
            rows[n - 1] = list(rows[0])
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
def test_det_ring_against_bareiss_and_fractions(rows):
    n = len(rows)
    want = det_exact(IntMatrix(rows, ncols=n))
    assert det_ring(rows) == want
    assert det_fraction(rows) == want


LVARS = ("s", "t")


@st.composite
def laurent_matrices(draw, max_side=5):
    n = draw(st.integers(0, max_side))
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    poly = st.dictionaries(exps, st.integers(-3, 3), max_size=2)
    return [[LaurentPoly(LVARS, draw(poly)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(laurent_matrices(),
       st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3).filter(bool)))
def test_det_ring_laurent_against_evaluated_det(rows, point):
    """Evaluating commutes with the determinant: compare at a point
    against det_exact of the evaluated matrix, cleared of denominators."""
    n = len(rows)
    at = dict(zip(LVARS, point))
    det = det_ring(rows)
    value = det.subs(at) if isinstance(det, LaurentPoly) else Fraction(det)
    evaluated = [[e.subs(at) for e in r] for r in rows]
    den = math.lcm(1, *(e.denominator for r in evaluated for e in r))
    scaled = IntMatrix([[int(e * den) for e in r] for r in evaluated], ncols=n)
    assert value * den ** n == det_exact(scaled)


@st.composite
def product_shapes(draw, entry, max_side=5):
    """Matrices a (nr x k) and b (k x nc), all sides at least 1."""
    nr, k, nc = (draw(st.integers(1, max_side)) for _ in range(3))
    a = [[draw(entry) for _ in range(k)] for _ in range(nr)]
    b = [[draw(entry) for _ in range(nc)] for _ in range(k)]
    return a, b


@settings(max_examples=100, deadline=None)
@given(product_shapes(st.one_of(st.just(0), st.integers(-4, 4))))
def test_ring_matmul_on_ints_is_the_intmatrix_product(ab):
    a, b = ab
    want = IntMatrix(a) * IntMatrix(b)
    assert ring_matmul(a, b) == [list(r) for r in want.rows]
    assert ring_transpose(a) == [list(r) for r in IntMatrix(a).transpose().rows]


@settings(max_examples=60, deadline=None)
@given(product_shapes(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                      st.integers(-3, 3), max_size=2).map(
                                          lambda t: LaurentPoly(LVARS, t))),
       st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3).filter(bool)))
def test_ring_matmul_on_laurent_commutes_with_subs(ab, point):
    """Evaluate then multiply over Fractions, or multiply then evaluate."""
    a, b = ab
    at = dict(zip(LVARS, point))
    ev = lambda m: [[e.subs(at) for e in r] for r in m]
    assert ev(ring_matmul(a, b)) == ring_matmul(ev(a), ev(b))


@st.composite
def rectangular_int_matrices(draw, max_side=7):
    """Integer matrices of 0..max_side rows and columns, as products of
    two random factors so that low ranks are common."""
    nr, nc, k = (draw(st.integers(0, max_side)) for _ in range(3))
    entry = st.integers(-3, 3)
    a = [[draw(entry) for _ in range(k)] for _ in range(nr)]
    b = [[draw(entry) for _ in range(nc)] for _ in range(k)]
    rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
            for i in range(nr)]
    return IntMatrix(rows, ncols=nc)


@settings(max_examples=120, deadline=None)
@given(rectangular_int_matrices())
def test_rank_is_the_number_of_invariant_factors(m):
    """Homology takes a boundary's rank from its Smith form when it has
    one; the two must agree.  On square matrices |det| is the product
    of the invariant factors."""
    factors = smith_normal_form(m)
    assert rank_exact(m) == len(factors)
    if m.nrows == m.ncols:
        assert abs(det_exact(m)) == (math.prod(factors) if len(factors) == m.nrows else 0)


@st.composite
def sparse_int_matrices(draw, max_side=9):
    """Integer matrices of 0..max_side rows and columns with entries in
    -3..3, most of them zero at low densities, so that unit pivots,
    fill-in and torsion all occur."""
    nr, nc = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    density = draw(st.sampled_from((0.15, 0.35, 0.7, 1.0)))
    rows = [[draw(st.integers(-3, 3)) if draw(st.floats(0, 1)) < density else 0
             for _ in range(nc)] for _ in range(nr)]
    return IntMatrix(rows, ncols=nc)


NO_UNIT_ENTRY = (IntMatrix([[2, 0], [0, 2]]), IntMatrix([[2, 3]]),
                 IntMatrix([[2, 3, 0], [0, 2, 3], [3, 0, 2]]),
                 IntMatrix([[-2, 2], [2, 2], [3, -3]]))


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
@example(IntMatrix([], ncols=0))
@example(IntMatrix([], ncols=4))
@example(IntMatrix([[], [], []], ncols=0))
@example(IntMatrix.zeros(3, 2))
@example(NO_UNIT_ENTRY[0])
@example(NO_UNIT_ENTRY[1])
@example(NO_UNIT_ENTRY[2])
@example(NO_UNIT_ENTRY[3])
def test_unit_pivots_against_dense_smith_and_rank(m):
    """smith_normal_form and rank_exact (unit pivots, then the dense
    routines on the rest) against the dense routines on the whole
    matrix."""
    assert smith_normal_form(m) == exact._smith_dense(m)
    assert rank_exact(m) == exact._rank_dense(m)


def test_matrices_without_a_unit_entry_keep_their_torsion():
    assert [smith_normal_form(m) for m in NO_UNIT_ENTRY] == [(2, 2), (1,), (1, 1, 35), (1, 4)]
    for m in NO_UNIT_ENTRY:
        units, rest = exact._eliminate_units(m)
        assert units == 0 and rest == m


def test_unit_elimination_pivots_on_fill_in():
    """[[1, 2], [2, 3]] has one unit entry; clearing its column turns
    the 3 into -1, a unit pivot that only fill-in creates."""
    units, rest = exact._eliminate_units(IntMatrix([[1, 2], [2, 3]]))
    assert units == 2 and rest.shape == (0, 0)
    # two unit pivots, each changing the row of the 2, leave [[3]]
    m = IntMatrix([[1, 1, 0], [0, 1, 1], [2, 0, 1]])
    units, rest = exact._eliminate_units(m)
    assert units == 2 and rest.rows in (((3,),), ((-3,),))
    assert smith_normal_form(m) == exact._smith_dense(m) == (1, 1, 3)


def test_unit_elimination_leaves_only_live_rows_and_columns():
    """Rows and columns cleared by the pivots are not in the rest; the
    entries left are the Schur complement of the pivots."""
    m = IntMatrix([[1, 1, 0], [1, 3, 0], [0, 0, 0], [0, 0, 4]])
    units, rest = exact._eliminate_units(m)
    assert units == 1 and rest.rows == ((2, 0), (0, 4))
    assert smith_normal_form(m) == (1, 2, 4)


def test_unit_elimination_on_cube_boundaries_leaves_nothing():
    """Cube boundaries are torsion free: every invariant factor is a
    unit pivot, and their count is the rank."""
    c = cube(5).to_chain()
    for i in range(1, 6):
        b = c.boundary(i)
        units, rest = exact._eliminate_units(b)
        assert rest.shape == (0, 0)
        assert units == exact._rank_dense(b)
        assert smith_normal_form(b) == (1,) * units


def test_sparse_columns_with_and_without_a_row_restriction():
    m = IntMatrix([[0, 2, 0], [1, 0, 0], [0, -1, 5]])
    assert exact.sparse_columns(m) == [{1: 1}, {0: 2, 2: -1}, {2: 5}]
    assert exact.sparse_columns(m, [2, 0]) == [{}, {0: -1, 1: 2}, {0: 5}]
    assert exact.sparse_columns(IntMatrix([], ncols=2)) == [{}, {}]


# ---------------------------------------------------------------------------
# the characteristic polynomial: blocked int64 dot products, differential
# tests, and the memo


def test_dot_mod_sums_past_the_int64_limit():
    """1024 products (p-1)^2 sum past 2^63: the plain product wraps, the
    blocked one agrees with Python ints, as vector and as matrix."""
    p = exact._prime(0)
    n = 1024
    a = np.full(n, p - 1, dtype=np.int64)
    want = n * (p - 1) ** 2 % p
    assert int((a @ a) % p) != want
    assert int(exact._dot_mod(a, a, p)) == want
    rng = random.Random(5)
    h = np.array([[rng.choice((p - 1, rng.randrange(p))) for _ in range(1100)]
                  for _ in range(3)], dtype=np.int64)
    f = np.full(1100, p - 1, dtype=np.int64)
    rows = h.tolist()
    assert exact._dot_mod(h, f, p).tolist() == [
        sum(x * (p - 1) for x in r) % p for r in rows]
    assert exact._dot_mod(f, h.T, p).tolist() == [
        sum((p - 1) * x for x in r) % p for r in rows]


def test_dot_mod_short_sums_are_one_product():
    p = exact._prime(1)
    a = np.full(511, p - 1, dtype=np.int64)
    assert int(exact._dot_mod(a, a, p)) == int((a @ a) % p) == 511 * (p - 1) ** 2 % p


def test_dot_mod_stacks_with_a_prime_per_layer():
    """Three layers, each with its own prime, inner length 1100: the
    unblocked int64 sums wrap, the blocked ones agree with Python ints
    layer by layer (blocks cut the inner axis, not the stack)."""
    primes = [exact._prime(i) for i in range(3)]
    rng = random.Random(11)
    a = np.array([[[rng.choice((q - 1, rng.randrange(q))) for _ in range(1100)]
                   for _ in range(2)] for q in primes], dtype=np.int64)
    b = np.array([[[q - 1, rng.randrange(q)] for _ in range(1100)] for q in primes],
                 dtype=np.int64)
    p = np.array(primes, dtype=np.int64)[:, None, None]
    want = [[[sum(x * y for x, y in zip(row, col)) % q for col in zip(*bl.tolist())]
             for row in al.tolist()] for al, bl, q in zip(a, b, primes)]
    assert ((a @ b) % p).tolist() != want
    assert exact._dot_mod(a, b, p).tolist() == want
    # a stack of vectors times a stack of matrices, as the Hessenberg pass uses it
    assert exact._dot_mod(a[:, :1], b, p).tolist() == [w[:1] for w in want]


@st.composite
def symmetric_int_matrices(draw, max_side=8):
    """Symmetric integer matrices of side 0..max_side; some entries
    large enough to take char_poly off its int64 set-up."""
    n = draw(st.integers(0, max_side))
    entry = st.one_of(st.integers(-9, 9), st.integers(-2**40, 2**40))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return IntMatrix(rows, ncols=n)


@settings(max_examples=80, deadline=None)
@given(symmetric_int_matrices())
def test_char_poly_against_interpolation(m):
    assert char_poly(m) == char_poly_interpolate(m)


@st.composite
def psd_int_matrices(draw, max_side=8):
    """B B^T for small integer B (symmetric PSD), or a diagonal matrix
    with nonnegative entries; sides 0..max_side."""
    n = draw(st.integers(0, max_side))
    if draw(st.booleans()):
        return IntMatrix([[draw(st.integers(0, 6)) if i == j else 0
                           for j in range(n)] for i in range(n)], ncols=n)
    k = draw(st.integers(0, max_side))
    b = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)]
    rows = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)]
            for i in range(n)]
    return IntMatrix(rows, ncols=n)


@settings(max_examples=120, deadline=None)
@given(psd_int_matrices())
# the path on four vertices: eigenvalues 2 - 2 cos(j pi / 4)
@example(IntMatrix([[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]))
def test_integer_spectrum_against_nullities(m):
    """A symmetric matrix has the integer eigenvalue lam with
    multiplicity n - rank(m - lam I); the spectrum is integral iff these
    multiplicities add up to n."""
    n = m.nrows
    want = {}
    for lam in range(m.trace() + 1):
        shifted = IntMatrix([[v - (lam if i == j else 0) for j, v in enumerate(r)]
                             for i, r in enumerate(m.rows)], ncols=n)
        mult = n - rank_exact(shifted)
        if mult:
            want[lam] = mult
    out = integer_spectrum(m)
    if sum(want.values()) == n:
        assert out == want
        assert IntPoly.from_roots(sorted(out.items())) == char_poly(m)
    else:
        assert isinstance(out, NotIntegral)
        assert out.charpoly == char_poly(m)


def test_char_poly_memo_hit_equals_fresh_computation():
    m = IntMatrix([[3, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    fresh = char_poly(m)
    with char_poly_memo():
        first = char_poly(m)
        # another matrix with equal contents: the same entry
        again = char_poly(IntMatrix(m.rows))
    assert first == fresh
    assert again is first


def test_char_poly_memo_keys_separate_shapes_and_wide_entries():
    assert len({exact._memo_key(IntMatrix(rows)) for rows in
                ([[1, 2, 3, 4]], [[1, 2], [3, 4]], [[1], [2], [3], [4]])}) == 3
    # 200 and -56 have the same int8 bytes; 2^70 does not fit int64
    cases = [[[v]] for v in (200, -56, 128, -128, 127, 2**70, 2**70 + 1)]
    cases.append([[128, 0], [0, 1]])
    cases.append([[-128, 0], [0, 1]])
    with char_poly_memo():
        got = [char_poly(IntMatrix(rows)) for rows in cases]
    assert got == [char_poly(IntMatrix(rows)) for rows in cases]
    assert len(set(got)) == len(cases)


def test_char_poly_memo_is_dropped_on_exit_and_on_raise():
    assert exact._MEMO.get() is None
    with char_poly_memo():
        assert exact._MEMO.get() == {}
        char_poly(IntMatrix([[1]]))
        assert len(exact._MEMO.get()) == 1
    assert exact._MEMO.get() is None
    with pytest.raises(RuntimeError):
        with char_poly_memo():
            char_poly(IntMatrix([[1]]))
            raise RuntimeError
    assert exact._MEMO.get() is None


# ---------------------------------------------------------------------------
# char_polys: many char polys in stacked passes, against one at a time and
# interpolation


def _sparse_square(draw, n, density=3):
    """An n x n matrix with entries in -3..3, about one in density
    nonzero, so that pivots and zero columns vary from matrix to matrix."""
    return IntMatrix([[draw(st.integers(-3, 3)) if draw(st.integers(0, density - 1)) == 0
                       else 0 for _ in range(n)] for _ in range(n)], ncols=n)


@st.composite
def char_poly_batches(draw):
    """Mixed batches: sides 0..7, sparse and symmetric matrices, zero
    matrices, an entry of 2^31 or more (no int64 set-up), and duplicates."""
    batch = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("sparse", "symmetric", "zero", "wide")))
        n = draw(st.integers(0, 7))
        if kind == "sparse":
            m = _sparse_square(draw, n)
        elif kind == "symmetric":
            m = draw(symmetric_int_matrices(max_side=7))
        elif kind == "zero":
            m = IntMatrix.zeros(n, n)
        else:
            m = _sparse_square(draw, max(n, 1))
            rows = [list(r) for r in m.rows]
            rows[0][-1] = draw(st.sampled_from((2**31, -2**31, 2**40 + 1)))
            m = IntMatrix(rows)
        batch.append(m)
    dups = draw(st.lists(st.sampled_from(range(len(batch))), max_size=4))
    return batch + [IntMatrix(batch[i].rows, ncols=batch[i].ncols) for i in dups]


@settings(max_examples=60, deadline=None)
@given(char_poly_batches(), st.booleans())
# side 0, a zero matrix, an entry of 2^31 and a duplicate, in one batch
@example([IntMatrix([], ncols=0), IntMatrix.zeros(3, 3), IntMatrix([[2**31, 1], [0, 2]]),
          IntMatrix([[1, 2], [3, 4]]), IntMatrix([[1, 2], [3, 4]])], True)
def test_char_polys_against_interpolation(batch, memo):
    want = [char_poly_interpolate(m) for m in batch]
    if memo:
        with char_poly_memo():
            char_poly(batch[-1])
            got = exact.char_polys(batch)
            assert exact.char_polys(batch) == got
    else:
        got = exact.char_polys(batch)
    assert got == want
    assert exact.char_polys([]) == []


def _stack_shapes(fn):
    """fn(), with the shapes of the stacks _charpoly_stack was given."""
    shapes = []
    real = exact._charpoly_stack

    def spy(h, p):
        shapes.append(h.shape)
        return real(h, p)

    with mock.patch.object(exact, "_charpoly_stack", spy):
        out = fn()
    return out, shapes


def test_char_polys_cross_the_stack_bound():
    """70 distinct matrices of side 16 fill a stack of 2^14 / 16^2 = 64
    and start another; side 130 (over 2^14 entries) runs one at a time.
    Every result equals the one-at-a-time char poly."""
    rng = random.Random(3)
    small = [IntMatrix([[rng.choice((0, 0, 1, -1, 2)) for _ in range(16)] for _ in range(16)])
             for _ in range(70)]
    large = [IntMatrix([[rng.choice((0, 0, 0, 1)) for _ in range(130)] for _ in range(130)])
             for _ in range(2)]
    batch = small + large
    got, shapes = _stack_shapes(lambda: exact.char_polys(batch))
    assert (64, 16, 16) in shapes and (6, 16, 16) in shapes
    assert max(b * n * n for b, n, _ in shapes if b > 1) <= exact._STACK_ENTRIES
    assert {s for s in shapes if s[1] == 130} == {(1, 130, 130)}
    assert got == [char_poly(m) for m in batch]


def test_char_polys_stack_layers_with_their_own_primes():
    """One CRT stack holds the second and third primes of different
    matrices of one side; each layer is reduced mod its own prime."""
    rng = random.Random(8)
    batch = [IntMatrix([[rng.randrange(-10**e, 10**e + 1) for _ in range(5)] for _ in range(5)])
             for e in (1, 3, 5, 7)]
    got, shapes = _stack_shapes(lambda: exact.char_polys(batch))
    assert shapes[0] == (4, 5, 5) and len(shapes) == 2 and shapes[1][0] > 4
    assert got == [char_poly_interpolate(m) for m in batch]


def test_stacked_pass_pivots_each_layer_on_its_own():
    """Layer 0 needs no swap, layer 1 swaps rows 1 and 2, layer 2 rows 1
    and 3, layer 3 has a zero first column; each layer has its own prime.
    Swapping any layer by another's pivot row leaves a zero pivot above
    a nonzero, so every layer must match its pass on its own."""
    cols = ([4, 3, 0, 0, 1], [4, 0, 5, 0, 1], [4, 0, 0, 7, 1], [0, 0, 0, 0, 0])
    mats = []
    for layer, col in enumerate(cols):
        rows = [[col[i] if j == 0 else (i + 2 * j + layer) % 5 - 2 for j in range(5)]
                for i in range(5)]
        mats.append(IntMatrix(rows))
    primes = [exact._prime(i) for i in (0, 1, 2, 0)]
    h = np.array([[[v % q for v in r] for r in m.rows] for m, q in zip(mats, primes)],
                 dtype=np.int64)
    got = exact._charpoly_stack(h, np.array(primes, dtype=np.int64)).tolist()
    for m, q, chi in zip(mats, primes, got):
        assert chi == exact._charpoly_mod(m.rows, 5, q)
        assert chi == [c % q for c in char_poly_interpolate(m).coeffs]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_pass_against_interpolation(data):
    """Random sparse matrices of one side, stacked with random primes:
    each layer equals det(yI - m) mod its prime."""
    n = data.draw(st.integers(1, 7))
    mats = [_sparse_square(data.draw, n) for _ in range(data.draw(st.integers(1, 6)))]
    primes = [data.draw(st.sampled_from((exact._prime(0), exact._prime(3), 101, 7)))
              for _ in mats]
    h = np.array([[[v % q for v in r] for r in m.rows] for m, q in zip(mats, primes)],
                 dtype=np.int64).reshape(len(mats), n, n)
    got = exact._charpoly_stack(h, np.array(primes, dtype=np.int64)).tolist()
    assert got == [[c % q for c in char_poly_interpolate(m).coeffs]
                   for m, q in zip(mats, primes)]


def test_char_polys_rejects_a_non_square_input_before_any_work():
    spy = mock.Mock(side_effect=exact._charpoly_stack)
    with char_poly_memo(), mock.patch.object(exact, "_charpoly_stack", spy):
        with pytest.raises(ValueError, match="non-square"):
            exact.char_polys([IntMatrix([[2, 1], [1, 2]]), IntMatrix([[1, 2]])])
        assert exact._MEMO.get() == {}
    assert spy.call_count == 0


# ---------------------------------------------------------------------------
# the char poly certified from one prime, against CRT alone and interpolation


def _crt_only(m):
    with mock.patch.object(exact, "_split_char_poly", return_value=None):
        return char_poly(m)


def _split(m, p=None, budget=10**9):
    """_split_char_poly on m from its char poly mod p (default p_0),
    with no budget to stop it."""
    p = exact._prime(0) if p is None else p
    n = m.nrows
    a = np.array(m.rows, dtype=np.int64).reshape(n, n)
    R = max(sum(abs(v) for v in r) for r in m.rows)
    chi = exact._charpoly_mod(m.rows, n, p)
    return exact._split_char_poly(a, R, chi, p, budget)


@st.composite
def nonsymmetric_int_matrices(draw, max_side=8):
    """Upper triangular matrices with a few distinct diagonal values
    (integer spectra, often with repeated eigenvalues, defective or
    not), or unconstrained ones; sides 1..max_side."""
    n = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        diag = [draw(st.sampled_from((-3, 0, 2, 5))) for _ in range(n)]
        return IntMatrix([[diag[i] if i == j else
                           (draw(st.sampled_from((0, 0, 1, -2))) if j > i else 0)
                           for j in range(n)] for i in range(n)], ncols=n)
    return IntMatrix([[draw(st.integers(-4, 4)) for _ in range(n)]
                      for _ in range(n)], ncols=n)


def _integer_root_count(chi, R):
    """Number of roots of chi in [-R, R], with multiplicity, by exact
    division over Z."""
    count = 0
    rem = chi
    for lam in range(-R, R + 1):
        while rem.degree > 0:
            q, r = rem.divide_linear(lam)
            if r:
                break
            rem, count = q, count + 1
    return count


@settings(max_examples=150, deadline=None)
@given(st.one_of(psd_int_matrices().filter(lambda m: m.nrows > 0),
                 nonsymmetric_int_matrices()))
def test_split_char_poly_against_crt_and_interpolation(m):
    """Whenever the one-prime route returns, it is the char poly; on a
    symmetric matrix it returns exactly when the spectrum is integral,
    since a symmetric matrix has no defective eigenvalue."""
    want = char_poly_interpolate(m)
    assert _crt_only(m) == want
    assert char_poly(m) == want
    got = _split(m)
    if got is not None:
        assert got == want
    if m.is_symmetric():
        R = max(sum(abs(v) for v in r) for r in m.rows)
        assert (got is not None) == (_integer_root_count(want, R) == m.nrows)


def test_split_char_poly_needs_the_product_check():
    """chi = y^2 - 20 does not split over Z, but mod 101 it is
    (y - 11)(y + 11) with 11 in [-R, R] = [-20, 20].  Only the check
    prod (m - lam I) = -101 I != 0 stops the one-prime route."""
    m = IntMatrix([[0, 20], [1, 0]])
    assert exact._charpoly_mod(m.rows, 2, 101) == [v % 101 for v in (-121, 0, 1)]
    assert _split(m, p=101) is None
    assert char_poly(m) == IntPoly([-20, 0, 1])
    # the same prime certifies a split matrix
    assert _split(IntMatrix([[3, 0], [0, -5]]), p=101) == IntPoly.from_roots([(3, 1), (-5, 1)])


def _spied(m):
    """char_poly(m), with the arguments and the results of the
    _split_char_poly calls it made."""
    calls, returned = [], []
    real = exact._split_char_poly

    def spy(*args):
        calls.append(args)
        returned.append(real(*args))
        return returned[-1]

    with mock.patch.object(exact, "_split_char_poly", spy):
        chi = char_poly(m)
    return chi, calls, returned


def test_defective_eigenvalue_falls_back_to_crt():
    """40 I + E_01 on side 12: one eigenvalue, 40, with a Jordan block
    of size 2.  The route is tried (2R = 82 < 144, CRT needs three
    primes) and fails, since m - 40 I != 0; CRT gives (y - 40)^12.
    40 I itself is certified."""
    n = 12
    jordan = IntMatrix([[40 * (i == j) + ((i, j) == (0, 1)) for j in range(n)]
                        for i in range(n)])
    assert jordan.entry(0, 1) == 1 and jordan.entry(1, 1) == 40
    chi, calls, returned = _spied(jordan)
    assert len(calls) == 1 and returned == [None]
    assert chi == IntPoly.from_roots([(40, n)]) == char_poly_interpolate(jordan)
    diag = IntMatrix([[40 * (i == j) for j in range(n)] for i in range(n)])
    chi, calls, returned = _spied(diag)
    assert returned == [chi] == [IntPoly.from_roots([(40, n)])]


@st.composite
def wide_range_matrices(draw, max_side=6):
    """Matrices with 2R >= n^2: small entries off a diagonal of at
    least n^2, up to 2^20 beyond it."""
    n = draw(st.integers(1, max_side))
    diag = n * n + draw(st.integers(0, 2**20))
    return IntMatrix([[diag if i == j else draw(st.integers(-3, 3)) for j in range(n)]
                      for i in range(n)], ncols=n)


@settings(max_examples=60, deadline=None)
@given(wide_range_matrices())
# only 2R = 2000 >= 16 keeps this one out: 2R < p_0, and CRT needs two
# primes for the bound 1000^4
@example(IntMatrix([[1000 * (i == j) for j in range(4)] for i in range(4)]))
def test_wide_candidate_range_skips_the_one_prime_route(m):
    """With 2R >= n^2 the candidate scan would cost more than a
    Hessenberg pass, so the route is never tried."""
    chi, calls, _ = _spied(m)
    assert calls == []
    assert chi == _crt_only(m) == char_poly_interpolate(m)


def test_cube_laplacians_are_certified_from_one_prime():
    """The cube:5 Laplacians in dimensions 1..3 (sides 80, 80, 40) take
    the one-prime route and agree with CRT alone."""
    c = cube(5).to_chain()
    for i in (1, 2, 3):
        for fam in ("ud", "du", "tot"):
            lap = c.laplacian(i, fam)
            chi, calls, returned = _spied(lap)
            assert returned == [chi] == [_crt_only(lap)]
