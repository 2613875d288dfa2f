import ast
import functools
import importlib
import itertools
import math
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cellspan
from cellspan import exact, trees
from cellspan.chain import ChainComplex
from cellspan.cli import load_input
from cellspan.cubical import CubicalComplex, cube
from cellspan.exact import (
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
    smith_normal_form,
    SparseMatrix,
)


def mat(rows, ncols=None):
    """The SparseMatrix of the given integer rows."""
    return SparseMatrix.from_rows(rows, ncols)


def zeros(nrows, ncols):
    return mat([[0] * ncols for _ in range(nrows)], ncols)


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
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert ring_matmul(a.rows(), b.rows()) == [[2, 1], [4, 3]]
    assert a.transpose().rows() == ((1, 3), (2, 4))
    e = mat([], ncols=3)
    assert e.shape == (0, 3)
    assert e.transpose().shape == (3, 0)
    assert e.rows() == () and e.transpose().rows() == ((), (), ())
    assert mat(e.rows(), ncols=3) == e and mat(e.transpose().rows()) == e.transpose()


def test_matrix_product_big_entries():
    big = 10**20
    a = [[big, 1], [0, big]]
    sq = ring_matmul(a, a)
    assert sq[0][0] == big * big
    assert sq[0][1] == 2 * big


def test_det_small():
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([]) == 1
    assert det_exact([[7]]) == 7
    assert det_exact([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError, match="non-square"):
        det_exact([[1, 2]])


def test_det_graph_laplacians():
    # reduced Laplacian of the triangle: 3 spanning trees
    tri = [[2, -1], [-1, 2]]
    assert det_exact(tri) == 3
    # reduced Laplacian of K4: 16 spanning trees
    k4 = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert det_exact(k4) == 16


def test_det_fraction_matches():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert det_fraction(rows) == Fraction(det_exact(rows))


def test_det_ring_matches_int_det():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_ring(rows) == det_exact(rows)


def test_rank():
    assert rank_exact(mat([[1, 2], [2, 4]])) == 1
    assert rank_exact(mat([[1, 2], [3, 4]])) == 2
    assert rank_exact(zeros(3, 5)) == 0
    assert rank_exact(mat([], ncols=4)) == 0
    m = mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert rank_exact(m) == 2


def test_smith_normal_form_values():
    assert smith_normal_form(mat([[2, 4], [6, 8]])) == (2, 4)
    assert smith_normal_form(mat([[2]])) == (2,)
    assert smith_normal_form(mat([[1, 0], [0, 1]])) == (1, 1)
    assert smith_normal_form(zeros(2, 3)) == ()
    assert smith_normal_form(mat([[4, 0], [0, 6]])) == (2, 12)


def test_smith_divisibility_random():
    rng = random.Random(7)
    for _ in range(30):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        m = mat([[rng.randrange(-8, 9) for _ in range(nc)] for _ in range(nr)])
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
            for row in m.rows():
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
    m = mat([[1, -1], [-1, 1]])
    assert char_poly(m) == IntPoly([0, -2, 1])  # y^2 - 2y
    assert char_poly(mat([])) == IntPoly([1])
    assert char_poly(zeros(3, 3)) == IntPoly([0, 0, 0, 1])
    d = mat([[2, 0], [0, 5]])
    assert char_poly(d) == IntPoly([10, -7, 1])


def test_char_poly_matches_interpolation():
    rng = random.Random(0)
    for _ in range(12):
        n = rng.randrange(1, 8)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        m = mat(rows)
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
    m = mat(rows)
    assert char_poly(m) == char_poly_interpolate(m)


def test_char_poly_trace_and_det():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        m = mat(rows)
        chi = char_poly(m)
        assert chi.coeffs[-1] == 1
        assert chi.coeff(n - 1) == -m.trace()
        assert chi.coeff(0) == (-1) ** n * det_exact(rows)


def test_integer_spectrum_basics():
    assert integer_spectrum(char_poly(zeros(3, 3))) == {0: 3}
    assert integer_spectrum(char_poly(mat([]))) == {}
    assert integer_spectrum(char_poly(mat([[2, 0], [0, 3]]))) == {2: 1, 3: 1}
    assert integer_spectrum(char_poly(mat([[1, -1], [-1, 1]]))) == {0: 1, 2: 1}


def test_integer_spectrum_multiplicity():
    # K4 graph Laplacian: eigenvalues 0, 4, 4, 4
    k4 = mat([[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]])
    assert integer_spectrum(char_poly(k4)) == {0: 1, 4: 3}


def test_integer_spectrum_rejects_irrational():
    m = mat([[1, 1], [1, 2]])
    out = integer_spectrum(char_poly(m))
    assert isinstance(out, NotIntegral)
    assert out.charpoly == IntPoly([1, -3, 1])


def test_laurent_arithmetic():
    vs = ("q1", "x1", "y1")
    q = LaurentPoly.variable(vs, "q1")
    x = LaurentPoly.variable(vs, "x1")
    y = LaurentPoly.variable(vs, "y1")
    u = LaurentPoly.monomial(vs, {"q1": 2, "x1": -2}) + LaurentPoly.monomial(vs, {"q1": 2, "y1": -2})
    assert u.subs({"q1": 2, "x1": 1, "y1": 2}) == Fraction(5)
    assert (q * x - x * q).is_zero()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert u.subs(dict.fromkeys(vs, 1)) == 2


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


def test_every_traced_benchmark_target_resolves():
    """The benchmark's tracer wraps functions by module and attribute
    path (TARGETS in perfbench/spans.py); a rename or deletion here
    would silently zero its metric, so each path must resolve."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    assert targets
    for name, modname, path in targets:
        obj = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(obj, part), (name, modname, path)
            obj = getattr(obj, part)
        assert callable(obj), name


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


@st.composite
def laurent_sums(draw):
    """A variable tuple of 1-6 names, up to five (p, c) pairs over it,
    p a LaurentPoly and c an int or a LaurentPoly, and whether the
    pairs are followed by their negations, so that the sum cancels."""
    width = draw(st.integers(1, 6))
    vs = tuple(f"v{i}" for i in range(width))
    exp = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    poly = st.dictionaries(st.tuples(*[exp] * width), st.integers(-4, 4),
                           max_size=4).map(lambda t: LaurentPoly(vs, t))
    pairs = draw(st.lists(st.tuples(poly, st.one_of(st.integers(-3, 3), poly)), max_size=5))
    return vs, pairs, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(laurent_sums())
def test_linear_combination_against_a_sum_of_products(case):
    """The one-dict sum of products that det_ring forms each minor with
    equals the naive sum of c * p; a sum that cancels is the zero
    polynomial, which det_ring reads as a row set to drop."""
    vs, pairs, cancel = case
    if cancel:
        pairs = pairs + [(p, -c) for p, c in pairs]
    got = LaurentPoly.linear_combination(vs, pairs)
    assert got == sum((p * c for p, c in pairs), LaurentPoly(vs))
    if cancel:
        assert not got and got == 0


def test_linear_combination_past_the_packing_bound_raises_as_a_product_does():
    top = (1 << (exact._W - 1)) - 1
    vs = ("a", "b")
    a = LaurentPoly(vs, {(top, 0): 1})
    one_more = LaurentPoly.variable(vs, "b")
    for p, c in [(a, one_more), (one_more, a)]:
        with pytest.raises(OverflowError):
            p * c
        with pytest.raises(OverflowError):
            LaurentPoly.linear_combination(vs, [(p, c)])
    # the int path keeps p's bound, which is below 2^(W-1)
    assert LaurentPoly.linear_combination(vs, [(a, 3)]) == a * 3


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
def square_int_matrices(draw, max_side=9):
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
@given(square_int_matrices())
def test_det_ring_against_bareiss_and_fractions(rows):
    n = len(rows)
    want = det_exact(rows)
    assert det_ring(rows) == want
    assert det_fraction(rows) == want


class _Tracked:
    """A ring element that remembers the rows and columns of the minor
    it stands for, and logs every product det_ring forms: (rows,
    columns, whether the minor multiplied was zero)."""

    def __init__(self, value, rows, cols, log):
        self.value, self.rows, self.cols, self.log = value, rows, cols, log

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:      # det_ring's zero of the ring
                return 0
            other = _Tracked(other, frozenset(), frozenset(), self.log)
        self.log.append((self.rows | other.rows, self.cols | other.cols, not other.value))
        return _Tracked(self.value * other.value, self.rows | other.rows,
                        self.cols | other.cols, self.log)

    def __add__(self, other):
        if isinstance(other, int):
            return _Tracked(self.value + other, self.rows, self.cols, self.log)
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return _Tracked(self.value + other.value, self.rows, self.cols, self.log)

    __radd__ = __add__

    def __neg__(self):
        return _Tracked(-self.value, self.rows, self.cols, self.log)

    def __bool__(self):
        return bool(self.value)


def _wasted_products(rows) -> tuple:
    """(det, products, products det_ring then drops) for an integer
    matrix: a product is dropped when its row set misses a row whose
    nonzeros all lie in its columns, or when the minor it multiplies
    is zero."""
    n = len(rows)
    log: list = []
    tracked = [[_Tracked(v, frozenset([i]), frozenset([j]), log) if v else 0
                for j, v in enumerate(r)] for i, r in enumerate(rows)]
    support = [frozenset(j for j, v in enumerate(r) if v) for r in rows]
    det = det_ring(tracked)
    dropped = sum(1 for rs, cs, zero_minor in log
                  if zero_minor or any(support[i] <= cs and i not in rs for i in range(n)))
    return (det.value if isinstance(det, _Tracked) else det), len(log), dropped


def test_det_ring_forms_no_product_it_then_drops():
    """On the reduced Laplacian (k = 2, weights 1) of the benchmark's
    3-ball, four facets of the 4-cube through a corner and one opposite
    facet, and on matrices whose minors cancel, det_ring multiplies
    nothing for a row set it then drops."""
    x = CubicalComplex((1, 2, 3, 4), ["0***", "*0**", "**0*", "***0", "***1"])
    xs = trees._skeleton(x, 2, lo=1)
    _, keep, _, _ = trees._reduction(xs, 2)
    lap = xs.laplacian(1, "ud").cols
    rows = [[lap[r].get(s, 0) for s in keep] for r in keep]
    assert len(rows) == 16
    det, products, dropped = _wasted_products(rows)
    assert det == det_exact(rows) == 5292 and products > 0
    assert dropped == 0
    for singular in ([[1, 2, 0], [2, 4, 0], [3, 1, 5]], [[1, 1, 1], [1, 1, 1], [0, 1, 2]],
                     [[2, 0, 1, 1], [1, 3, 0, 0], [4, 0, 2, 2], [0, 1, 1, 1]]):
        det, _, dropped = _wasted_products(singular)
        assert (det, dropped) == (0, 0), singular


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
    scaled = [[int(e * den) for e in r] for r in evaluated]
    assert value * den ** n == det_exact(scaled)


@st.composite
def det_int_matrices(draw, max_side=12):
    """Square integer matrices of side 0..max_side with small entries,
    or some entries past +-2^63; some singular (a repeated row or a zero
    column), some with a leading entry that is a nonzero multiple of
    _prime(0), so that only the layer of that prime swaps rows."""
    n = draw(st.integers(0, max_side))
    small = st.one_of(st.just(0), st.integers(-3, 3))
    huge = st.one_of(st.integers(-2**80, -2**63 - 1), st.integers(2**63, 2**80))
    entry = st.one_of(small, small, huge) if draw(st.booleans()) else small
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("plain", "equal-rows", "zero-column", "zero-pivot")))
    if n >= 2 and kind == "equal-rows":
        rows[n - 1] = list(rows[draw(st.integers(0, n - 2))])
    elif n and kind == "zero-column":
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    elif n and kind == "zero-pivot":
        rows[0][0] = exact._prime(0) * draw(st.sampled_from((0, 1, -1, exact._prime(1))))
    return rows


@settings(max_examples=150, deadline=None)
@given(det_int_matrices())
def test_det_exact_against_fractions(rows):
    assert det_exact(rows) == det_fraction(rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(det_int_matrices(max_side=6), max_size=8))
def test_dets_exact_batch_equals_single_calls(ms):
    assert exact.dets_exact(iter(ms)) == [det_exact(m) for m in ms]


def test_det_exact_rejects_non_square_in_a_batch():
    with pytest.raises(ValueError, match="non-square"):
        exact.dets_exact([[[1]], [[1, 2], [3]]])
    assert exact.dets_exact([]) == []


@st.composite
def one_side_batches(draw):
    """2..6 matrices of one side 1..6, each with entries of one range:
    below 2^31 (int64 residues), in [2^31, 2^63) (Python residues, as
    a job is small only below 2^31) or beyond int64; some with a zero
    row."""
    n = draw(st.integers(1, 6))
    ranges = {"small": st.integers(-2**31 + 1, 2**31 - 1),
              "mid": st.integers(2**31, 2**63 - 1) | st.integers(-2**63 + 1, -2**31),
              "huge": st.integers(2**63, 2**80) | st.integers(-2**80, -2**63 - 1)}
    ms = []
    for _ in range(draw(st.integers(2, 6))):
        entry = st.one_of(st.just(0), st.integers(-3, 3), ranges[draw(st.sampled_from(list(ranges)))])
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if draw(st.integers(0, 3)) == 0:
            rows[draw(st.integers(0, n - 1))] = [0] * n
        ms.append(rows)
    return ms


@settings(max_examples=80, deadline=None)
@given(one_side_batches())
def test_dets_exact_stacks_one_side_together(ms):
    """Every layer of a one-side batch, whatever the range of its
    matrix's entries, goes into one stack of _det_stack (side <= 6 keeps
    it far below _DET_ENTRIES); each det equals det_fraction and the
    single call, a zero row giving 0."""
    stacks = []
    real = exact._det_stack

    def spy(a, p):
        stacks.append(a.shape)
        return real(a, p)

    with mock.patch.object(exact, "_det_stack", spy):
        got = exact.dets_exact(ms)
    live = sum(all(any(r) for r in m) for m in ms)
    assert len(stacks) == (1 if live else 0)
    assert live <= (stacks[0][0] if stacks else 0)
    assert got == [det_fraction(m) for m in ms] == [det_exact(m) for m in ms]


def test_every_stacked_kernel_groups_its_layers_through_stacks():
    """dets_exact, the Hessenberg passes and the certificate products
    (_products_vanish) all take their stacks from _stacks: the
    eliminations with the budget _DET_ENTRIES, the others with
    _STACK_ENTRIES."""
    budgets = {}
    real = exact._stacks

    def spy(jobs, entries):
        seen.add(entries)
        return real(jobs, entries)

    lap = cube(4).to_chain().laplacian(1, "ud")
    free = mat([[1, 2, 0], [3, 1, 1], [0, 5, 2]])  # a non-integral spectrum
    for name, fn in (("dets", lambda: exact.dets_exact([[[2, 1], [1, 3]]] * 3)),
                     ("hessenberg", lambda: exact.char_polys([free])),
                     ("certificate", lambda: _certified(lap, "chi"))):
        seen = budgets[name] = set()
        with mock.patch.object(exact, "_stacks", spy):
            fn()
    assert budgets == {"dets": {exact._DET_ENTRIES},
                       "hessenberg": {exact._STACK_ENTRIES},
                       "certificate": {exact._STACK_ENTRIES}}


def sylvester(order):
    """The Sylvester-Hadamard matrix of a power-of-two order."""
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-v for v in r] for r in h]
    return h


@pytest.mark.parametrize("order", [1, 2, 4, 8, 16])
def test_det_exact_on_hadamard_matrices_meets_the_bound(order):
    """|det| = H = order^(order/2) for a Hadamard matrix, and stays H
    with its first row scaled by s.  For s chosen so that H falls just
    below the product M of the first j primes, the CRT range must cover
    2H: primes whose product only exceeds H (here M itself) would lift
    det = +-H to -+(M - H)."""
    h = sylvester(order)
    base = order ** (order // 2)
    assert abs(det_exact(h)) == base
    for j in (1, 2, 3):
        m = math.prod(exact._prime(i) for i in range(j))
        if 4 * base >= m:
            continue
        s = (m - 2) // base
        scaled = [[s * v for v in h[0]]] + h[1:]
        assert m // 2 < s * base < m - 1
        assert det_exact(scaled) == det_fraction(scaled)
        assert abs(det_exact(scaled)) == s * base


def test_det_exact_of_a_large_tridiagonal_matrix():
    """2 on the diagonal and -1 beside it: det = side + 1, past 511
    elimination steps.  Its -1 entries are the residues p - 1, the
    largest there are.  A signed permutation of its rows changes only
    the sign: here rows 2, 0, 1 move to the top (an even permutation)
    and the new first row, zero in column 0, is negated, so every layer
    swaps rows at the first step."""
    n = 1200
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]
    assert det_exact(rows) == n + 1
    signed = [[-v for v in rows[2]], rows[0], rows[1]] + rows[3:]
    assert det_exact(signed) == -(n + 1)


def test_det_stack_reduces_the_trailing_block_in_time():
    """A = L U mod p, L unit lower and U unit upper triangular with p - 1
    off the diagonal, so det A = 1 mod p.  Eliminating A takes the
    diagonal as pivots, the multipliers of L and the rows of U: every
    step subtracts (p - 1)^2 ~ 2^54 from every trailing entry, so the
    entries past 511 steps overflow int64 unless the block is reduced
    at least every 511 updates."""
    n, p = 640, exact._prime(0)
    idx = np.arange(n)
    a = np.minimum.outer(idx, idx) - 1 + 2 * np.eye(n, dtype=np.int64)
    assert exact._det_stack((a % p)[None], np.array([p], dtype=np.int64)).tolist() == [1]


@st.composite
def product_shapes(draw, entry, max_side=5):
    """Matrices a (nr x k) and b (k x nc), all sides at least 1."""
    nr, k, nc = (draw(st.integers(1, max_side)) for _ in range(3))
    a = [[draw(entry) for _ in range(k)] for _ in range(nr)]
    b = [[draw(entry) for _ in range(nc)] for _ in range(k)]
    return a, b


@settings(max_examples=100, deadline=None)
@given(product_shapes(st.one_of(st.just(0), st.integers(-4, 4))))
def test_ring_matmul_on_ints_is_the_integer_product(ab):
    a, b = ab
    want = [[sum(x * y for x, y in zip(r, col)) for col in mat(b).transpose().rows()]
            for r in a]
    assert ring_matmul(a, b) == want


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
    return mat(rows, ncols=nc)


@settings(max_examples=120, deadline=None)
@given(rectangular_int_matrices())
def test_rank_is_the_number_of_invariant_factors(m):
    """rank_exact and smith_normal_form read one unit elimination; the
    rank must be the number of invariant factors.  On square matrices
    |det| is the product of the invariant factors."""
    factors = smith_normal_form(m)
    assert rank_exact(m) == len(factors)
    if m.nrows == m.ncols:
        assert abs(det_exact(m.rows())) == (math.prod(factors) if len(factors) == m.nrows else 0)


@st.composite
def sparse_int_matrices(draw, max_side=9):
    """Integer matrices of 0..max_side rows and columns with entries in
    -3..3, most of them zero at low densities, so that unit pivots,
    fill-in and torsion all occur."""
    nr, nc = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    density = draw(st.sampled_from((0.15, 0.35, 0.7, 1.0)))
    rows = [[draw(st.integers(-3, 3)) if draw(st.floats(0, 1)) < density else 0
             for _ in range(nc)] for _ in range(nr)]
    return mat(rows, ncols=nc)


NO_UNIT_ENTRY = (mat([[2, 0], [0, 2]]), mat([[2, 3]]),
                 mat([[2, 3, 0], [0, 2, 3], [3, 0, 2]]),
                 mat([[-2, 2], [2, 2], [3, -3]]))

# A dense 9x9 matrix (seed 331 of a sweep) on which gcd elimination
# with floor quotients and a divisibility repair runs for minutes, its
# entries growing; its factors are (1,) * 8 + (123888,).
DENSE_SEED_331 = mat([[-2, 3, 2, 1, 2, 2, 2, 2, 3], [1, 0, 1, 3, 0, 3, 2, 3, -2],
                      [1, -1, 1, 2, -3, 2, 2, 1, 2], [3, 2, 3, -3, -3, 2, 3, -1, -2],
                      [1, -1, -2, 2, 3, -3, -1, -2, -2], [0, 3, 2, 2, 1, -3, 1, -2, 2],
                      [3, 0, 1, 1, 0, -1, 0, -3, 1], [0, 0, -1, -2, 0, -1, -1, -3, -1],
                      [1, 3, -2, -2, 1, 0, -2, 2, 0]])


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
@example(mat([], ncols=0))
@example(mat([], ncols=4))
@example(mat([[], [], []], ncols=0))
@example(zeros(3, 2))
@example(NO_UNIT_ENTRY[0])
@example(NO_UNIT_ENTRY[1])
@example(NO_UNIT_ENTRY[2])
@example(NO_UNIT_ENTRY[3])
@example(DENSE_SEED_331)
def test_unit_pivots_against_dense_smith_and_rank(m):
    """smith_normal_form and rank_exact (unit pivots, then the dense
    Smith form of the rest) against the dense Smith form of the whole
    matrix, which gives the rank as its number of factors."""
    assert smith_normal_form(m) == exact._smith_dense(m.rows())
    assert rank_exact(m) == len(exact._smith_dense(m.rows()))


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
@example(NO_UNIT_ENTRY[2])
@example(NO_UNIT_ENTRY[3])
@example(DENSE_SEED_331)
def test_rank_and_smith_form_do_not_depend_on_their_order(m):
    """The matrix keeps its invariant factors, so the second of the two
    reads the first one's: either order gives the same rank and Smith
    form as the dense Smith form, each on a fresh copy of m."""
    a, b = mat(m.rows(), m.ncols), mat(m.rows(), m.ncols)
    first = (rank_exact(a), smith_normal_form(a))
    second = smith_normal_form(b)
    want = exact._smith_dense(m.rows())
    assert first == (rank_exact(b), second) == (len(want), want)


def minors_gcd(rows, k) -> int:
    """The gcd of the k x k minors of rows, by det_exact."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    subs = [[[rows[i][j] for j in cs] for i in rs]
            for rs in itertools.combinations(range(nr), k)
            for cs in itertools.combinations(range(nc), k)]
    return math.gcd(*exact.dets_exact(subs))


def determinantal_divisors(rows) -> tuple:
    """Invariant factors d_k = D_k / D_(k-1), D_k the gcd of the k x k
    minors by det_fraction, up to the rank: no elimination over Z."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    out, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in itertools.combinations(range(nr), k):
            for cs in itertools.combinations(range(nc), k):
                d = math.gcd(d, int(det_fraction([[rows[i][j] for j in cs] for i in rs])))
        if not d:
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


def seeded_small_matrix(seed):
    """Up to 5 x 5, from random.Random(seed): dense, sparse, or low rank
    scaled by 1, 2 or 6, so that the factors are often not in order on
    the diagonal that the pass leaves."""
    rng = random.Random(seed)
    nr, nc = rng.randint(0, 5), rng.randint(0, 5)
    kind = rng.choice(("dense", "sparse", "low rank"))
    if kind == "low rank":
        k, s = rng.randint(0, 3), rng.choice((1, 2, 6))
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        return [[s * sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
                for i in range(nr)]
    d = 1.0 if kind == "dense" else 0.4
    return [[rng.randint(-6, 6) if rng.random() < d else 0 for _ in range(nc)]
            for _ in range(nr)]


def test_dense_smith_against_determinantal_divisors():
    """_smith_dense, diagonal pass and gcd/lcm ordering, against the
    determinantal divisors: two diagonals out of divisibility order,
    then seeded matrices."""
    for rows in ([[6, 0, 0], [0, 4, 0], [0, 0, 0]], [[0, 0, 9], [0, -10, 0], [15, 0, 0]],
                 *map(seeded_small_matrix, range(400))):
        assert exact._smith_dense(rows) == determinantal_divisors(rows), rows


def test_dense_smith_of_a_dense_seeded_12x12_matrix():
    """2 randint(-3, 3) from random.Random(1), row by row, on which gcd
    elimination with floor quotients runs for minutes.  Checked against routes that do not use the Smith form: the product
    of the factors is |det|, and all but the last multiply to the gcd of
    the 144 11-minors."""
    rng = random.Random(1)
    rows = [[2 * rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    factors = smith_normal_form(mat(rows))
    assert factors == (2,) * 11 + (44519772,)
    assert math.prod(factors) == abs(det_exact(rows)) == 2**11 * 44519772
    assert math.prod(factors[:11]) == minors_gcd(rows, 11) == 2**11


def test_smith_form_of_cube6_reduced_laplacians():
    """The reduced Laplacians L^ud_(k-1)[Ubar, Ubar] of (cube:6, k = 2)
    and (cube:6, k = 3), as tau_matrix_tree builds them: nonsingular, so
    every factor is one of side many, and their product is |det|."""
    for k, side in ((2, 129), (3, 111)):
        xs = trees._skeleton(cube(6), k)
        keep = trees._reduction(xs, k)[1]
        lap = xs.laplacian(k - 1, "ud").cols
        rows = [[lap[r].get(s, 0) for s in keep] for r in keep]
        factors = smith_normal_form(mat(rows))
        assert len(rows) == len(factors) == side, k
        assert math.prod(factors) == abs(det_exact(rows)), k


def test_smith_form_of_the_cube6_ud_laplacian():
    """L^ud_1 = d_2 d_2^T of cube:6 has the rank of d_2, which unit
    pivots alone give, since d_2 has +-1 entries and leaves no rest."""
    c = cube(6).to_chain()
    b = c.sparse_boundary(2)
    assert exact._eliminate_units(b)[1] == []
    assert len(smith_normal_form(c.laplacian(1, "ud"))) == rank_exact(b) == 129


@pytest.mark.parametrize("seed", [1, 4, 51])
def test_smith_form_of_dense_seeded_30x29_matrices(seed):
    """Entries in [-100, 100] from random.Random(seed), row by row: 29
    factors, whose product is the gcd of the 30 maximal minors."""
    rng = random.Random(seed)
    rows = [[rng.randint(-100, 100) for _ in range(29)] for _ in range(30)]
    factors = smith_normal_form(mat(rows))
    assert len(factors) == 29
    assert math.prod(factors) == minors_gcd(rows, 29)


@pytest.mark.parametrize("rows, d, factors", [
    ([[2, 3], [3, 5]], 1, (1, 1)),  # D = 1 with no +-1 entry
    ([[6]], 6, (6,)),  # s_r = D
    ([[2, 0], [0, 6]], 12, (2, 6)),
    ([[2, 4], [4, 8]], 2, (2,)),  # every entry is 0 mod D
    ([[6, -3], [4, -2]], 6, (1,)),  # pivots 3, 2 mod D at rank 1: the chain's D goes
    ([[4, 6, 10]], 4, (2,)),  # row t left once column t is clear: the transpose
    ([[4], [6], [10]], 4, (2,)),
    ([[0, 0], [0, 0]], 1, ()),
])
def test_smith_bound_at_its_edges(rows, d, factors):
    """D from the echelon, and the factors that the pass mod D leaves,
    at the edges of the bound."""
    m = mat(rows)
    assert exact._eliminate_units(m)[0] == 0
    assert exact._pivot_columns(m)[1] == d
    assert exact._smith_dense(rows) == smith_normal_form(m) == factors
    assert factors == determinantal_divisors(rows)


def test_homology_of_a_dense_seeded_boundary():
    """12 vertices and 12 edges, the first 11 rows of the boundary
    2 randint(-3, 3) from random.Random(0) and the last the negated sum
    of the others, so that every column sums to 0 as the augmentation
    needs: gcd elimination with floor quotients runs for minutes here.  H_0's torsion is
    the gcd of the 11-minors of the boundary."""
    rng = random.Random(0)
    rows = [[2 * rng.randint(-3, 3) for _ in range(12)] for _ in range(11)]
    rows.append([-sum(col) for col in zip(*rows)])
    c = ChainComplex({0: [f"v{i}" for i in range(12)], 1: [f"e{j}" for j in range(12)]},
                     {1: rows})
    assert minors_gcd(rows, 11) == 4096
    assert (c.homology(0).torsion, c.homology(0).betti) == (4096, 0)
    assert (c.homology(1).torsion, c.homology(1).betti) == (1, 1)


def fraction_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@st.composite
def unitless_matrices(draw, max_side=6):
    """Integer matrices with no +-1 entry, so that the unit elimination
    leaves all of them to the rest: either a product A B scaled by 2, 3
    or a factor past 2^63, so that low ranks are common, or entries
    drawn one by one as multiples of 2, 3 or 2^64 + 2."""
    nr, nc = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        s = draw(st.sampled_from((2, 3, 3 * 2**62, 2**64 + 2)))
        a = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(nr)]
        b = [[draw(st.integers(-3, 3)) for _ in range(nc)] for _ in range(k)]
        rows = [[s * sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
                for i in range(nr)]
    else:
        rows = [[draw(st.integers(-3, 3)) * draw(st.sampled_from((2, 3, 2**64 + 2)))
                 for _ in range(nc)] for _ in range(nr)]
    return mat(rows, ncols=nc)


@settings(max_examples=150, deadline=None)
@given(unitless_matrices())
@example(NO_UNIT_ENTRY[0])
@example(NO_UNIT_ENTRY[1])
@example(NO_UNIT_ENTRY[2])
@example(NO_UNIT_ENTRY[3])
def test_rank_of_the_rest_against_dense_oracles(m):
    """With no unit entry the whole matrix is the rest, whose rank the
    Bareiss echelon gives: against the number of dense invariant
    factors and against elimination over Q."""
    rows = m.rows()
    assert exact._eliminate_units(m)[0] == 0
    assert rank_exact(m) == len(exact._smith_dense(rows)) == fraction_rank(rows)


def test_matrices_without_a_unit_entry_keep_their_torsion():
    assert [smith_normal_form(m) for m in NO_UNIT_ENTRY] == [(2, 2), (1,), (1, 1, 35), (1, 4)]
    for m in NO_UNIT_ENTRY:
        units, rest = exact._eliminate_units(m)
        assert units == 0 and rest == [list(r) for r in m.rows()]


def test_unit_elimination_pivots_on_fill_in():
    """[[1, 2], [2, 3]] has one unit entry; clearing its column turns
    the 3 into -1, a unit pivot that only fill-in creates."""
    units, rest = exact._eliminate_units(mat([[1, 2], [2, 3]]))
    assert units == 2 and rest == []
    # two unit pivots, each changing the row of the 2, leave [[3]]
    m = mat([[1, 1, 0], [0, 1, 1], [2, 0, 1]])
    units, rest = exact._eliminate_units(m)
    assert units == 2 and rest in ([[3]], [[-3]])
    assert smith_normal_form(m) == exact._smith_dense(m.rows()) == (1, 1, 3)


def test_unit_elimination_leaves_only_live_rows_and_columns():
    """Rows and columns cleared by the pivots are not in the rest; the
    entries left are the Schur complement of the pivots."""
    m = mat([[1, 1, 0], [1, 3, 0], [0, 0, 0], [0, 0, 4]])
    units, rest = exact._eliminate_units(m)
    assert units == 1 and rest == [[2, 0], [0, 4]]
    assert smith_normal_form(m) == (1, 2, 4)


def test_unit_elimination_on_cube_boundaries_leaves_nothing():
    """Cube boundaries are torsion free: every invariant factor is a
    unit pivot, and their count is the rank."""
    c = cube(6).to_chain()
    for i in range(1, 7):
        b = c.sparse_boundary(i)
        units, rest = exact._eliminate_units(b)
        assert rest == []
        assert units == len(exact._smith_dense(b.rows()))
        assert smith_normal_form(b) == (1,) * units


@settings(max_examples=200, deadline=None)
@given(sparse_int_matrices())
@example(NO_UNIT_ENTRY[0])
@example(NO_UNIT_ENTRY[1])
@example(NO_UNIT_ENTRY[2])
@example(NO_UNIT_ENTRY[3])
@example(mat([[1, 2], [2, 3]]))
@example(mat([[1, 1, 0], [0, 1, 1], [2, 0, 1]]))
def test_unit_elimination_invariants(m):
    """Whatever order the pivots take, the rest holds no unit entry, and
    the pivots followed by the rest's dense factors are the dense Smith
    form of the whole matrix, in number (the rank) and in value."""
    units, rest = exact._eliminate_units(m)
    assert not any(v == 1 or v == -1 for row in rest for v in row)
    want = exact._smith_dense(m.rows())
    assert units + len(exact._smith_dense(rest)) == len(want)
    assert (1,) * units + exact._smith_dense(rest) == want


def rank_mod(rows, p: int) -> int:
    """Rank over F_p by row elimination."""
    a = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def check_universal_coefficients(m):
    """Over F_p an invariant factor s_i becomes 0 iff p divides it, so
    #{i : p | s_i} = rank_Q(m) - rank_Fp(m) (universal coefficients),
    against rank_exact and smith_normal_form with no Smith code on the
    F_p side."""
    factors, rank = smith_normal_form(m), rank_exact(m)
    assert rank == fraction_rank(m.rows())
    for p in (2, 3, 5, 7):
        assert sum(s % p == 0 for s in factors) == rank - rank_mod(m.rows(), p), p


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
@example(NO_UNIT_ENTRY[2])
@example(DENSE_SEED_331)
def test_universal_coefficients_on_random_matrices(m):
    check_universal_coefficients(m)


@st.composite
def presentation_complexes(draw):
    """One vertex, 1..6 edges with d_1 = 0 and 1..6 two-cells with d_2
    entries in [-3, 3]: H_1 is coker d_2, which can hold any torsion."""
    e, f = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(st.integers(-3, 3)) for _ in range(f)] for _ in range(e)]
    return ChainComplex({0: ("v",), 1: [f"e{i}" for i in range(e)],
                         2: [f"f{j}" for j in range(f)]}, {1: [[0] * e], 2: rows})


@settings(max_examples=100, deadline=None)
@given(presentation_complexes())
def test_torsion_of_presentation_complexes(c):
    """H_1 against elimination over Q for its rank, and against the gcd
    of the r x r minors of d_2 for its torsion, r the rank of d_2."""
    b = c.sparse_boundary(2)
    rows, r = b.rows(), fraction_rank(b.rows())
    h = c.homology(1)
    assert h.betti == c.n_cells(1) - r
    assert h.torsion == math.prod(smith_normal_form(b)) == (minors_gcd(rows, r) if r else 1)
    check_universal_coefficients(b)


@pytest.mark.parametrize("spec", ["rp2", "cube:4", "colorful:2,2,2"])
def test_universal_coefficients_on_boundaries(spec):
    x = load_input(spec)
    c = x.to_chain() if isinstance(x, CubicalComplex) else x
    for i in range(1, c.dim + 1):
        check_universal_coefficients(c.sparse_boundary(i))


def test_sparse_matrix_from_rows_and_back():
    rows = ((0, 2, 0), (1, 0, 0), (0, -1, 5))
    s = mat(rows)
    assert s.cols == [{1: 1}, {0: 2, 2: -1}, {2: 5}] and s.shape == (3, 3)
    assert s.rows() == rows
    assert s.transpose().rows() == tuple(zip(*rows))
    assert [s.entry(i, j) for i in range(3) for j in range(3)] == [v for r in rows for v in r]
    assert hash(s) == hash(SparseMatrix([dict(c) for c in s.cols], 3))
    assert mat([], ncols=2).cols == [{}, {}]
    assert SparseMatrix([{}, {}], 4).rows() == zeros(4, 2).rows() == ((0, 0),) * 4
    with pytest.raises(ValueError, match="ragged"):
        SparseMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols"):
        SparseMatrix.from_rows([[1, 2]], ncols=3)


@pytest.mark.parametrize("rows", [
    [[0, False, np.int64(3)], [True, 0.0, -2]],
    ([np.int64(0), 2**70, "7"], (0, "-0", np.int8(-1))),
    np.array([[0, -2**40], [2**40, 1]]),
    [[], []],
])
def test_from_rows_converts_every_entry_by_int(rows):
    """Entries of any type read as int(entry), as ints would: no numpy
    or bool value, and no zero, is stored."""
    s = SparseMatrix.from_rows(rows)
    assert s.rows() == tuple(tuple(int(v) for v in r) for r in rows)
    assert s == SparseMatrix.from_rows([[int(v) for v in r] for r in rows])
    assert all(type(v) is int and v for col in s.cols for v in col.values())


@pytest.mark.parametrize("bad", [0.5, 1.5, Fraction(1, 2), np.float64(2.5)])
def test_non_integral_entries_are_refused_not_truncated(bad):
    """int() would truncate these to 0, 1, 0 and 2; from_rows, det_exact
    and the chain complex constructor refuse them instead."""
    message = f"entry {bad} is not an integer"
    with pytest.raises(ValueError, match=message):
        SparseMatrix.from_rows([[bad, 2]])
    with pytest.raises(ValueError, match=message):
        det_exact([[bad, 0], [0, 4]])
    with pytest.raises(ValueError, match=message):
        ChainComplex({0: ("a", "b"), 1: ("e",)}, {1: [[-1], [bad]]})


@pytest.mark.parametrize("rows, error", [
    ([[1, None]], "int() argument must be"),
    ([[0, ""], [1, 2, 3]], "invalid literal"),
    ([[0, 1], [1]], "ragged rows"),
])
def test_from_rows_raises_at_the_first_bad_entry(rows, error):
    with pytest.raises((TypeError, ValueError)) as info:
        SparseMatrix.from_rows(rows)
    assert str(info.value).startswith(error)


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
    return mat(rows, ncols=n)


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
        return mat([[draw(st.integers(0, 6)) if i == j else 0
                     for j in range(n)] for i in range(n)], ncols=n)
    k = draw(st.integers(0, max_side))
    b = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)]
    rows = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)]
            for i in range(n)]
    return mat(rows, ncols=n)


@settings(max_examples=120, deadline=None)
@given(psd_int_matrices())
# the path on four vertices: eigenvalues 2 - 2 cos(j pi / 4)
@example(mat([[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]))
def test_integer_spectrum_against_nullities(m):
    """A symmetric matrix has the integer eigenvalue lam with
    multiplicity n - rank(m - lam I); the spectrum is integral iff these
    multiplicities add up to n."""
    n = m.nrows
    want = {}
    for lam in range(m.trace() + 1):
        shifted = mat([[v - (lam if i == j else 0) for j, v in enumerate(r)]
                       for i, r in enumerate(m.rows())], ncols=n)
        mult = n - rank_exact(shifted)
        if mult:
            want[lam] = mult
    out = integer_spectrum(char_poly(m))
    if sum(want.values()) == n:
        assert out == want
        assert IntPoly.from_roots(sorted(out.items())) == char_poly(m)
    else:
        assert isinstance(out, NotIntegral)
        assert out.charpoly == char_poly(m)


def test_char_poly_memo_hit_equals_fresh_computation():
    m = mat([[3, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    fresh = char_poly(m)
    with char_poly_memo():
        first = char_poly(m)
        # another matrix with equal contents: the same entry
        again = char_poly(mat(m.rows()))
    assert first == fresh
    assert again is first


def test_char_poly_memo_keys_separate_shapes_and_wide_entries():
    assert len({exact._memo_key(mat(rows)) for rows in
                ([[1, 2, 3, 4]], [[1, 2], [3, 4]], [[1], [2], [3], [4]])}) == 3
    # 200 and -56 have the same int8 bytes; 2^70 does not fit int64
    cases = [[[v]] for v in (200, -56, 128, -128, 127, 2**70, 2**70 + 1)]
    cases.append([[128, 0], [0, 1]])
    cases.append([[-128, 0], [0, 1]])
    with char_poly_memo():
        got = [char_poly(mat(rows)) for rows in cases]
    assert got == [char_poly(mat(rows)) for rows in cases]
    assert len(set(got)) == len(cases)


def test_char_poly_memo_is_dropped_on_exit_and_on_raise():
    assert exact._MEMO.get() is None
    with char_poly_memo():
        assert exact._MEMO.get() == {}
        char_poly(mat([[1]]))
        assert len(exact._MEMO.get()) == 1
    assert exact._MEMO.get() is None
    with pytest.raises(RuntimeError):
        with char_poly_memo():
            char_poly(mat([[1]]))
            raise RuntimeError
    assert exact._MEMO.get() is None


# ---------------------------------------------------------------------------
# char_polys: many char polys in stacked passes, against one at a time and
# interpolation


def _sparse_square(draw, n, density=3):
    """An n x n matrix with entries in -3..3, about one in density
    nonzero, so that pivots and zero columns vary from matrix to matrix."""
    return mat([[draw(st.integers(-3, 3)) if draw(st.integers(0, density - 1)) == 0
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
            m = zeros(n, n)
        else:
            m = _sparse_square(draw, max(n, 1))
            rows = [list(r) for r in m.rows()]
            rows[0][-1] = draw(st.sampled_from((2**31, -2**31, 2**40 + 1)))
            m = mat(rows)
        batch.append(m)
    dups = draw(st.lists(st.sampled_from(range(len(batch))), max_size=4))
    return batch + [mat(batch[i].rows(), ncols=batch[i].ncols) for i in dups]


@settings(max_examples=60, deadline=None)
@given(char_poly_batches(), st.booleans())
# side 0, a zero matrix, an entry of 2^31 and a duplicate, in one batch
@example([mat([], ncols=0), zeros(3, 3), mat([[2**31, 1], [0, 2]]),
          mat([[1, 2], [3, 4]]), mat([[1, 2], [3, 4]])], True)
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
    small = [mat([[rng.choice((0, 0, 1, -1, 2)) for _ in range(16)] for _ in range(16)])
             for _ in range(70)]
    large = [mat([[rng.choice((0, 0, 0, 1)) for _ in range(130)] for _ in range(130)])
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
    batch = [mat([[rng.randrange(-10**e, 10**e + 1) for _ in range(5)] for _ in range(5)])
             for e in (1, 3, 5, 7)]
    got, shapes = _stack_shapes(lambda: exact.char_polys(batch))
    assert shapes[0] == (4, 5, 5) and len(shapes) == 2 and shapes[1][0] > 4
    assert got == [char_poly_interpolate(m) for m in batch]


def _charpoly_layer(rows, n, p):
    """char poly of an n x n integer matrix, given by its rows, mod p:
    one layer of _charpoly_stack."""
    h = np.array([[e % p for e in r] for r in rows], dtype=np.int64).reshape(1, n, n)
    return exact._charpoly_stack(h, np.array([p], dtype=np.int64))[0].tolist()


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
        mats.append(mat(rows))
    primes = [exact._prime(i) for i in (0, 1, 2, 0)]
    h = np.array([[[v % q for v in r] for r in m.rows()] for m, q in zip(mats, primes)],
                 dtype=np.int64)
    got = exact._charpoly_stack(h, np.array(primes, dtype=np.int64)).tolist()
    for m, q, chi in zip(mats, primes, got):
        assert chi == _charpoly_layer(m.rows(), 5, q)
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
    h = np.array([[[v % q for v in r] for r in m.rows()] for m, q in zip(mats, primes)],
                 dtype=np.int64).reshape(len(mats), n, n)
    got = exact._charpoly_stack(h, np.array(primes, dtype=np.int64)).tolist()
    assert got == [[c % q for c in char_poly_interpolate(m).coeffs]
                   for m, q in zip(mats, primes)]


def test_char_polys_rejects_a_non_square_input_before_any_work():
    spy = mock.Mock(side_effect=exact._charpoly_stack)
    with char_poly_memo(), mock.patch.object(exact, "_charpoly_stack", spy):
        with pytest.raises(ValueError, match="non-square"):
            exact.char_polys([mat([[2, 1], [1, 2]]), mat([[1, 2]])])
        assert exact._MEMO.get() == {}
    assert spy.call_count == 0


# ---------------------------------------------------------------------------
# the char poly certified from one prime, against CRT alone and interpolation


def _crt_only(m):
    with mock.patch.object(exact, "_certify", lambda tries, p: [None] * len(tries)):
        return char_poly(m)


def _certified(m, source, p=None):
    """_certify on m from one candidate mod p (default p_0): "chi", its
    char poly, or "g", the least generator of u^T m^j v; with no work
    rule to stop it."""
    p = exact._prime(0) if p is None else p
    job = exact._Job(m)
    cand = (_charpoly_layer(m.rows(), m.nrows, p) if source == "chi"
            else exact._generator(job, p))
    with mock.patch.object(exact, "_worth_scanning", return_value=True), \
            mock.patch.object(exact, "_worth_certifying", return_value=True):
        return exact._certify([(job, cand)], p)[0]


@st.composite
def nonsymmetric_int_matrices(draw, max_side=8):
    """Upper triangular matrices with a few distinct diagonal values
    (integer spectra, often with repeated eigenvalues, defective or
    not), or unconstrained ones; sides 1..max_side."""
    n = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        diag = [draw(st.sampled_from((-3, 0, 2, 5))) for _ in range(n)]
        return mat([[diag[i] if i == j else
                     (draw(st.sampled_from((0, 0, 1, -2))) if j > i else 0)
                     for j in range(n)] for i in range(n)], ncols=n)
    return mat([[draw(st.integers(-4, 4)) for _ in range(n)]
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
    got = _certified(m, "chi")
    if got is not None:
        assert got == want
    if m == m.transpose():
        R = max(sum(abs(v) for v in r) for r in m.rows())
        assert (got is not None) == (_integer_root_count(want, R) == m.nrows)


def test_crt_primes_cover_the_largest_binomial_term():
    """_char_polys builds the terms C(n, k) R^k of a job's coefficient
    bound one from the other; the primes it gives the job, read off its
    first stacked pass, are those of the bound from scratch."""
    for n in (1, 2, 5, 17, 40):
        for R in (1, 3, 40, 2**31 + 5):
            spy = mock.Mock(side_effect=exact._passes)
            with mock.patch.object(exact, "_passes", spy):
                chi = char_poly(mat([[R * (i == j) for j in range(n)] for i in range(n)]))
            assert chi == IntPoly.from_roots([(R, n)])
            job = spy.call_args_list[0].args[0][0][0]
            bound = max(gen_binom(n, k) * R**k for k in range(n + 1))
            assert job.R == R
            assert job.primes == exact._primes_over(2 * bound + 1)


def test_split_char_poly_needs_the_product_check():
    """chi = y^2 - 20 does not split over Z, but mod 101 it is
    (y - 11)(y + 11) with 11 in [-R, R] = [-20, 20], and so is the
    generator g.  From either, only the check prod (m - lam I) = -101 I
    != 0 stops the certificate."""
    m = mat([[0, 20], [1, 0]])
    assert _charpoly_layer(m.rows(), 2, 101) == [v % 101 for v in (-121, 0, 1)]
    assert exact._generator(exact._Job(m), 101) == [v % 101 for v in (-121, 0, 1)]
    assert _certified(m, "chi", p=101) is None and _certified(m, "g", p=101) is None
    assert char_poly(m) == IntPoly([-20, 0, 1])
    # the same prime certifies a split matrix
    assert _certified(mat([[3, 0], [0, -5]]), "chi", p=101) == IntPoly.from_roots([(3, 1), (-5, 1)])


def _spied(m):
    """char_poly(m), with the (job, chi) pairs _certify was given and
    the results it returned for them."""
    calls, returned = [], []
    real = exact._certify

    def spy(tries, p):
        out = real(tries, p)
        calls.extend(tries)
        returned.extend(out)
        return out

    with mock.patch.object(exact, "_certify", spy):
        chi = char_poly(m)
    return chi, calls, returned


def test_defective_eigenvalue_falls_back_to_crt():
    """40 I + E_01 on side 12: one eigenvalue, 40, with a Jordan block
    of size 2.  The route is tried (2R = 82 < 144, CRT needs three
    primes) and fails, since m - 40 I != 0; CRT gives (y - 40)^12.
    40 I itself is certified."""
    n = 12
    jordan = mat([[40 * (i == j) + ((i, j) == (0, 1)) for j in range(n)]
                  for i in range(n)])
    assert jordan.entry(0, 1) == 1 and jordan.entry(1, 1) == 40
    chi, calls, returned = _spied(jordan)
    assert len(calls) == 1 and returned == [None]
    assert chi == IntPoly.from_roots([(40, n)]) == char_poly_interpolate(jordan)
    diag = mat([[40 * (i == j) for j in range(n)] for i in range(n)])
    chi, calls, returned = _spied(diag)
    assert returned == [chi] == [IntPoly.from_roots([(40, n)])]


@st.composite
def wide_range_matrices(draw, max_side=6):
    """Matrices with 2R >= n^2: small entries off a diagonal of at
    least n^2, up to 2^20 beyond it."""
    n = draw(st.integers(1, max_side))
    diag = n * n + draw(st.integers(0, 2**20))
    return mat([[diag if i == j else draw(st.integers(-3, 3)) for j in range(n)]
                for i in range(n)], ncols=n)


@settings(max_examples=60, deadline=None)
@given(wide_range_matrices())
# only 2R = 2000 >= 16 keeps this one out: 2R < p_0, and CRT needs two
# primes for the bound 1000^4
@example(mat([[1000 * (i == j) for j in range(4)] for i in range(4)]))
def test_wide_candidate_range_skips_the_one_prime_route(m):
    """With 2R >= n^2 the candidate scan would cost more than a
    Hessenberg pass, so _certify scans no candidate, whatever the
    product rule says."""
    scan = mock.Mock(side_effect=exact._roots_mod)
    chi = _charpoly_layer(m.rows(), m.nrows, exact._prime(0))
    with mock.patch.object(exact, "_roots_mod", scan), \
            mock.patch.object(exact, "_worth_certifying", return_value=True):
        assert exact._certify([(exact._Job(m), chi)], exact._prime(0)) == [None]
    assert all(call.args[0] == [] for call in scan.call_args_list)
    assert char_poly(m) == _crt_only(m) == char_poly_interpolate(m)


def test_cube_laplacians_are_certified_from_one_prime():
    """The cube:5 Laplacians in dimensions 1..3 (sides 80, 80, 40) take
    the one-prime route and agree with CRT alone."""
    c = cube(5).to_chain()
    for i in (1, 2, 3):
        for fam in ("ud", "du", "tot"):
            lap = c.laplacian(i, fam)
            chi, calls, returned = _spied(lap)
            assert returned == [chi] == [_crt_only(lap)]


# ---------------------------------------------------------------------------
# the certificate's sparse (ELL) products


def _signed_conjugate(rows, perm, signs):
    """P m P^T for the signed permutation P e_i = signs[i] e_perm[i]."""
    n = len(rows)
    return mat([[signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(n)]
                for i in range(n)], ncols=n)


def _elementary_similar(diag, steps):
    """U diag(d) U^-1 for U a product of elementary matrices I + c E_ij
    (i != j, c = +-1), each with the integer inverse I - c E_ij."""
    n = len(diag)
    m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in steps:
        # (I + c E_ij) m (I - c E_ij): add c row j to row i, then -c column i to column j
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for r in m:
            r[j] -= c * r[i]
    return mat(m, ncols=n)


@st.composite
def certificate_inputs(draw):
    """Sides 2..12: sparse random matrices, matrices similar to an
    integer diagonal by elementary steps (integral, not symmetric), and
    signed conjugates of [[a, b], [b, a]] blocks (integral, symmetric)."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("sparse", "similar", "blocks")))
    if kind == "sparse":
        return _sparse_square(draw, n)
    if kind == "similar":
        diag = [draw(st.sampled_from((0, 1, 2, 5))) for _ in range(n)]
        cell = st.integers(0, n - 1)
        pair = st.tuples(cell, cell).filter(lambda t: t[0] != t[1])
        steps = [(*draw(pair), draw(st.sampled_from((-1, 1))))
                 for _ in range(draw(st.integers(0, 3)))]
        return _elementary_similar(diag, steps)
    rows = [[0] * n for _ in range(n)]
    for s in range(0, n - 1, 2):
        a, b = draw(st.integers(0, 6)), draw(st.integers(-3, 3))
        rows[s][s] = rows[s + 1][s + 1] = a
        rows[s][s + 1] = rows[s + 1][s] = b
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    return _signed_conjugate(rows, perm, signs)


@settings(max_examples=120, deadline=None)
@given(certificate_inputs())
def test_char_poly_of_sparse_matrices_against_interpolation(m):
    want = char_poly_interpolate(m)
    assert char_poly(m) == _crt_only(m) == want


def _defective_or_irrational(n, block):
    """A signed conjugate of diag(20, 30, 50, 20, 30, 50, ...) on side n
    with block written over its top left corner: 2R < n^2 and CRT needs
    several primes, so the one-prime route is tried, with three roots."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = (20, 30, 50)[i % 3]
    for i, r in enumerate(block):
        rows[i][:len(r)] = r
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    return _signed_conjugate(rows, perm, [rng.choice((-1, 1)) for _ in range(n)])


def test_defective_and_irrational_inputs_fall_back_to_crt():
    """A Jordan block at 20 makes prod (m - lam I) nonzero; a block with
    eigenvalues 20 +- sqrt(2) leaves roots outside [-R, R].  Both fail
    the certificate and CRT gives the char poly."""
    n = 24
    jordan = _defective_or_irrational(n, [[20, 1], [0, 20]])
    chi, calls, returned = _spied(jordan)
    assert len(calls) == 1 and returned == [None]
    assert chi == IntPoly.from_roots([(20, 9), (30, 7), (50, 8)]) == char_poly_interpolate(jordan)
    irrational = _defective_or_irrational(n, [[20, 2], [1, 20]])
    chi, calls, returned = _spied(irrational)
    assert len(calls) == 1 and returned == [None]
    assert chi == _crt_only(irrational) == char_poly_interpolate(irrational)
    assert chi == IntPoly([398, -40, 1]) * IntPoly.from_roots([(20, 7), (30, 7), (50, 8)])
    # the same matrix without the defect is certified
    diagonal = _defective_or_irrational(n, [[20, 0], [0, 20]])
    chi, calls, returned = _spied(diagonal)
    assert returned == [chi] == [IntPoly.from_roots([(20, 9), (30, 7), (50, 8)])]


def test_cube5_vertex_laplacian_is_certified():
    """cube:5's L^ud_0, side 32 with eigenvalues 0, 2, ..., 10, takes
    the one-prime route: its five products mod one check prime cost
    less than the CRT passes they save."""
    lap = cube(5).to_chain().laplacian(0, "ud")
    chi, calls, returned = _spied(lap)
    assert len(calls) == 1 and returned == [chi] == [_crt_only(lap)]
    assert chi.roots == tuple((2 * k, math.comb(5, k)) for k in range(6))


def _direct_sum(draw, block, diag):
    """A signed conjugate of block (n x n, top left) + diag(diag)."""
    n = len(block) + len(diag)
    rows = [[0] * n for _ in range(n)]
    for i, r in enumerate(block):
        rows[i][:len(r)] = r
    for i, d in enumerate(diag, start=len(block)):
        rows[i][i] = d
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    return _signed_conjugate(rows, perm, signs)


@st.composite
def mixed_certificate_batches(draw):
    """One char_polys batch, read with p_0 = 101: certificate_inputs
    (sides 2..12), diagonals plus the block [[0, 20], [1, 0]] (sides 7
    and 8, so 2R = 40 < n^2; chi = y^2 - 20 splits mod 101 as
    (y - 11)(y + 11), and prod (m - lam I) vanishes mod 101 but not mod
    the next check prime) or a Jordan block [[d, 1], [0, d]] (sides
    3..8), zero and empty matrices, and duplicates."""
    diag = st.sampled_from((0, 1, 2, 5, 11, 20))
    batch = []
    for _ in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(("certificate", "certificate", "split mod 101",
                                     "jordan", "zero", "empty")))
        if kind == "certificate":
            m = draw(certificate_inputs())
        elif kind == "split mod 101":
            m = _direct_sum(draw, [[0, 20], [1, 0]], draw(st.lists(diag, min_size=5, max_size=6)))
        elif kind == "jordan":
            d = draw(st.sampled_from((0, 2, 5)))
            m = _direct_sum(draw, [[d, 1], [0, d]],
                            draw(st.lists(st.sampled_from((0, 2, 5)), min_size=1, max_size=6)))
        elif kind == "zero":
            m = zeros(*[draw(st.integers(1, 8))] * 2)
        else:
            m = mat([], ncols=0)
        batch.append(m)
    dups = draw(st.lists(st.sampled_from(range(len(batch))), max_size=3))
    return batch + [mat(batch[i].rows(), ncols=batch[i].ncols) for i in dups]


def _diag(*d):
    return mat([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


def _split_mod_101(*d):
    rows = [list(r) for r in _diag(0, 0, *d).rows()]
    rows[0][1], rows[1][0] = 20, 1
    return mat(rows)


@settings(max_examples=60, deadline=None)
@given(mixed_certificate_batches())
# one stack of side 7, most roots first: seven roots, the split block,
# whose layer mod the second check prime fails between layers that
# pass, four roots, then two: a Jordan block at 0, which fails, and a
# diagonal with one check prime; the stack's order is not the batch's
@example([mat([[0, 1] + [0] * 5, [0] * 7] + [[0] * i + [2] + [0] * (6 - i) for i in range(2, 7)]),
          _diag(1, 1, 1, 1, 1, 1, 2), _diag(0, 1, 2, 5, 20, 3, 4),
          _split_mod_101(1, 2, 5, 3, 4), _diag(1, 1, 2, 2, 5, 5, 0),
          zeros(7, 7), mat([], ncols=0), _diag(0, 1, 2, 5, 20, 3, 4)])
def test_stacked_certificate_against_interpolation(batch):
    """With p_0 = 101 and every tried certificate run, each layer of a
    stacked product keeps its own roots, prime and verdict, whatever
    else shares its stack: every char poly equals interpolation, and
    is certified exactly when it is certified on its own."""
    real = exact._prime
    with mock.patch.object(exact, "_prime", lambda i: 101 if i == 0 else real(i - 1)), \
            mock.patch.object(exact, "_worth_certifying", return_value=True):
        got = exact.char_polys(batch)
        alone = [exact.char_polys([m])[0] for m in batch]
    assert got == [char_poly_interpolate(m) for m in batch]
    assert [type(chi) for chi in got] == [type(chi) for chi in alone]


def _python_product_is_zero(rows, roots, q):
    """Whether prod (m - lam I) over the roots is zero mod q, in Python
    ints (numpy object arrays), multiplying by the sparse rows of m."""
    n = len(rows)
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    m = np.identity(n, dtype=int).astype(object)
    for lam in roots:
        nxt = -lam * m
        for i, row in enumerate(sparse):
            for k, v in row.items():
                nxt[i] += v * m[k]
        m = nxt % q
    return not m.any()


def test_ell_products_sum_past_the_int64_limit():
    """The star K_{1,520}: its centre row has 521 nonzeros, 520 of them
    -1, a residue q - 1.  A product by it sums 520 terms near q^2, past
    2^63; the chunked ELL product agrees with Python ints."""
    q = exact._prime(0)
    n = 521
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = n - 1
    for j in range(1, n):
        rows[0][j] = rows[j][0] = -1
        rows[j][j] = 1
    a = np.array(rows, dtype=np.int64)
    r, c = np.nonzero(a)
    ell = exact._ell(r, c, a[r, c] % q, n)
    idx, val, counts = ell
    diag = idx == np.arange(n)[:, None]
    assert idx.shape == (n, n) and (val[diag] == np.diagonal(a)).all()
    assert counts.tolist() == [n] + [2] * (n - 1)
    m = np.full((n, 3), q - 1, dtype=np.int64)
    got = exact._ell_mul(ell, m[None], np.array([q], dtype=np.int64))[0]
    want = [[sum(v % q * (q - 1) for v in r) % q] * 3 for r in rows]
    assert got.tolist() == want
    assert int(val[0] @ m[idx[0], 0]) < 0  # the unreduced sum wraps
    job = exact._Job(mat(rows))
    for roots in ([0, 1, n], [0, n]):
        got = exact._products_vanish([(job, roots, q)])
        assert [tr is not None for tr in got] == [_python_product_is_zero(rows, roots, q)]
    # its eigenvalues are 0, 1 (multiplicity n - 2) and n: tr P_k =
    # sum_s m_s prod_{t<k} (lam_s - lam_t)
    assert exact._products_vanish([(job, [0, 1, n], q)]) == [[n, n + n - 2, (n - 1) * n]]


# ---------------------------------------------------------------------------
# the stacked root scan


@st.composite
def root_scans(draw):
    """Char polys mod p_0 of lengths 1..9 with integer roots in
    [-6, 6], some repeated, times a factor with or without roots, and a
    candidate radius R each."""
    p = exact._prime(0)
    chis, radii = [], []
    for _ in range(draw(st.integers(1, 8))):
        pairs = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)),
                              max_size=3, unique_by=lambda t: t[0]))
        extra = IntPoly(draw(st.sampled_from(([1], [1, 0, 1], [-2, 0, 1], [3, 1]))))
        chi = IntPoly.from_roots(pairs) * extra
        chis.append([c % p for c in chi.coeffs])
        radii.append(draw(st.integers(0, 8)))
    return chis, radii


@settings(max_examples=120, deadline=None)
@given(root_scans())
def test_stacked_root_scan_matches_division_poly_by_poly(scan):
    """One scan over every poly of one length, as _certify runs it,
    finds for each the roots in [-R, R], as division by y - lam mod p
    finds them poly by poly."""
    chis, radii = scan
    p = exact._prime(0)
    want = [[lam for lam in range(-R, R + 1) if IntPoly(chi).divide_linear(lam)[1] % p == 0]
            for chi, R in zip(chis, radii)]
    assert exact._roots_mod(chis, radii, p) == want


# ---------------------------------------------------------------------------
# the sparse route: a generator of u^T m^j v, proved by the products


def _forced(m, worth=True):
    """char_poly(m) with every matrix of 2R + 1 < n routed, whatever its
    side, and the work rule answering worth; and what _certify returned
    for the routed candidates g, its first call."""
    returned = []
    real = exact._certify

    def spy(tries, p):
        out = real(tries, p)
        if not returned:
            returned.extend(out)
        return out

    with mock.patch.object(exact, "_STACK_ENTRIES", 0), \
            mock.patch.object(exact, "_worth_certifying", return_value=worth), \
            mock.patch.object(exact, "_certify", spy):
        chi = char_poly(m)
    return chi, returned


def test_least_generator_of_known_sequences():
    p = exact._prime(0)
    fib = [0, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert exact._least_generator(fib, p) == [p - 1, p - 1, 1]  # y^2 - y - 1
    assert exact._least_generator([5 * 3**j % p for j in range(8)], p) == [p - 3, 1]
    assert exact._least_generator([0] * 6, p) == [1]
    # 1, 0, 0, ...: m^j v of a nilpotent m, generated by y; 0, 0, 1, 0,
    # ... needs y^3
    assert exact._least_generator([1, 0, 0, 0, 0, 0], p) == [0, 1]
    assert exact._least_generator([0, 0, 1, 0, 0, 0], p) == [0, 0, 0, 1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(psd_int_matrices().filter(lambda m: m.nrows > 0),
                 certificate_inputs(), nonsymmetric_int_matrices()))
def test_sparse_route_against_interpolation_and_crt(m):
    """Whenever the route returns, it is the char poly, as interpolation
    and the Hessenberg passes with CRT give it, with no root of
    multiplicity 0; on a symmetric matrix it returns exactly when the
    spectrum is integral, since a symmetric matrix is diagonalisable."""
    want = char_poly_interpolate(m)
    assert _crt_only(m) == want
    got = _certified(m, "g")
    if got is not None:
        assert isinstance(got, exact._Split) and got == want
        assert all(mult > 0 for _, mult in got.roots)
    if m == m.transpose():
        R = max(sum(abs(v) for v in r) for r in m.rows())
        assert (got is not None) == (_integer_root_count(want, R) == m.nrows)


def _path_laplacian(n):
    """The path on n vertices: eigenvalues 2 - 2 cos(j pi / n)."""
    return mat([[(1 if i in (0, n - 1) else 2) if i == j else -(abs(i - j) == 1)
                 for j in range(n)] for i in range(n)])


def test_sparse_route_falls_back_on_a_non_integral_or_defective_input():
    """The path on 12 vertices (R = 4) has irrational eigenvalues; 2 I +
    E_01 on side 12 (R = 3) has the single eigenvalue 2 with a Jordan
    block, so its generator (y - 2)^2 has fewer roots than its degree.
    Both are routed, hand back, and get the char poly of CRT."""
    for m in (_path_laplacian(12),
              mat([[2 * (i == j) + ((i, j) == (0, 1)) for j in range(12)] for i in range(12)])):
        chi, returned = _forced(m)
        assert returned == [None]
        assert chi == _crt_only(m) == char_poly_interpolate(m)
    assert chi == IntPoly.from_roots([(2, 12)])


@functools.cache
def _cube_laplacian(n, i, family):
    return cube(n).to_chain().laplacian(i, family)


@settings(max_examples=150, deadline=None)
@given(st.one_of(psd_int_matrices().filter(lambda m: m.nrows > 0),
                 certificate_inputs().filter(lambda m: m == m.transpose()),
                 st.sampled_from([(n, i, fam) for n in (2, 3, 4) for i in range(n + 1)
                                  for fam in ("ud", "du", "tot")])
                 .map(lambda key: _cube_laplacian(*key))))
@example(_path_laplacian(12))
# eigenvalues far apart: tr P_4 is 2.3 10^15, so its residue mod p_0 is
# not the trace, and only the solve mod p_0 finds the multiplicities
@example(_signed_conjugate(_diag(-3000, -3000, 0, 500, 500, 500, 2000, 7000).rows(),
                           [3, 0, 6, 1, 7, 2, 5, 4], [1, -1, 1, 1, -1, 1, -1, 1]))
def test_both_candidates_certify_the_same_split(m):
    """On a symmetric matrix, chi mod p_0 and the generator g certify
    equal _Splits exactly when the spectrum is integral: the same roots
    with the same multiplicities, none 0, and the char poly CRT gives."""
    want = _crt_only(m)
    from_chi, from_g = _certified(m, "chi"), _certified(m, "g")
    R = max(sum(abs(v) for v in r) for r in m.rows())
    if _integer_root_count(want, R) < m.nrows:
        assert from_chi is None and from_g is None
    else:
        assert isinstance(from_chi, exact._Split) and isinstance(from_g, exact._Split)
        assert from_chi.roots == from_g.roots
        assert all(mult > 0 for _, mult in from_chi.roots)
        assert sum(mult for _, mult in from_chi.roots) == m.nrows
        assert from_chi == want


def test_sparse_route_falls_back_on_a_degenerate_projection():
    """cube:5's L^ud_0 (side 32, R = 10) with v = 0 gives g = 1; with v
    the all-ones kernel vector it gives g = y, whose one root does not
    make m vanish.  Either way the route hands back, and CRT gives the
    spectrum 2k with multiplicity C(5, k)."""
    lap = cube(5).to_chain().laplacian(0, "ud")
    want = IntPoly.from_roots([(2 * k, math.comb(5, k)) for k in range(6)])
    u = np.arange(1, 33, dtype=np.int64)
    for v in (np.zeros(32, dtype=np.int64), np.ones(32, dtype=np.int64)):
        with mock.patch.object(exact, "_projections", lambda n, v=v: (u, v)):
            chi, returned = _forced(lap)
        assert returned == [None] and chi == want
    chi, returned = _forced(lap)
    assert returned == [chi] == [want]


def test_sparse_route_keeps_the_work_rule():
    """When the products would cost more than the CRT passes they save,
    the route hands back before it runs any, and so does _certify."""
    lap = cube(5).to_chain().laplacian(0, "ud")
    spy = mock.Mock(side_effect=exact._products_vanish)
    with mock.patch.object(exact, "_products_vanish", spy):
        chi, returned = _forced(lap, worth=False)
    assert returned == [None] and type(chi) is IntPoly
    assert chi == IntPoly.from_roots([(2 * k, math.comb(5, k)) for k in range(6)])
    assert all(call.args == ([],) for call in spy.call_args_list)


def test_sparse_route_of_a_scalar_matrix_and_negative_eigenvalues():
    """5 I (side 12) needs no check prime past p_0: m - 5 I is zero
    entry by entry.  -L^ud_0 of cube:5 has eigenvalues 0, -2, ..., -10,
    read off the traces as they are."""
    chi, returned = _forced(mat([[5 * (i == j) for j in range(12)] for i in range(12)]))
    assert returned == [chi] and chi.roots == ((5, 12),)
    lap = cube(5).to_chain().laplacian(0, "ud")
    neg = mat([[-v for v in r] for r in lap.rows()])
    chi, returned = _forced(neg)
    assert returned == [chi] == [_crt_only(neg)]
    assert chi.roots == tuple((-2 * k, math.comb(5, k)) for k in range(5, -1, -1))


def test_sparse_route_refuses_an_entry_past_the_int64_set_up():
    """An entry of 2^31 puts 2R past p_0: _certify hands back at once,
    and the char poly comes from CRT."""
    m = mat([[2**31, 1, 0], [1, 2**31, 0], [0, 0, 3]])
    assert _certified(m, "chi") is None
    assert char_poly(m) == char_poly_interpolate(m)


def test_sparse_route_holds_no_square_array():
    """cube:7's L^tot_2, side 672 with eigenvalues 2j of multiplicity
    C(7, j) C(j, 2), takes the sparse route, runs no Hessenberg pass,
    and allocates less than one 672 x 672 int64 array at its peak."""
    lap = cube(7, cap=7).to_chain().laplacian(2, "tot")
    n = lap.nrows
    spy = mock.Mock(side_effect=exact._passes)
    with mock.patch.object(exact, "_passes", spy):
        tracemalloc.start()
        try:
            chi = char_poly(lap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert n == 672 and chi.roots == tuple((2 * j, math.comb(7, j) * math.comb(j, 2))
                                           for j in range(2, 8))
    assert all(call.args[0] == [] for call in spy.call_args_list)
    assert peak < 8 * n * n


# ---------------------------------------------------------------------------
# integer roots: bisection above the scan, against the scan it extends


def _scan_roots(chi):
    """integer_spectrum of an uncertified chi as a plain scan of
    lam = 1, 2, ... up to the sum of the roots left: the oracle, linear
    in the largest root."""
    eigs = {}
    v = chi.valuation()
    if v:
        eigs[0] = v
    rem = IntPoly(chi.coeffs[v:])
    lam = 1
    while rem.degree > 0 and lam <= -rem.coeffs[-2]:
        if rem.coeffs[0] % lam == 0:
            q, r = rem.divide_linear(lam)
            if r == 0:
                eigs[lam] = eigs.get(lam, 0) + 1
                rem = q
                continue
        lam += 1
    return NotIntegral(chi) if rem.degree > 0 else eigs


@st.composite
def root_polys(draw):
    """lead * y^v * prod (y - lam)^m * extra: roots up to 300, a leading
    coefficient of either sign, and sometimes a factor without positive
    integer roots."""
    roots = draw(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 4)), max_size=5))
    extra = draw(st.sampled_from(((1,), (1,), (-2, 0, 1), (1, 0, 1), (3, 1), (3, -5, 1),
                                  (-7, 1, 1), (-400, 1))))
    lead = draw(st.sampled_from((1, 1, 1, 2, -1)))
    chi = IntPoly.from_roots(roots) * IntPoly(extra) * IntPoly([lead])
    return chi.shift(draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(root_polys(), st.sampled_from((0, 1, 4, 50, 2**16)))
def test_integer_roots_against_the_scan(chi, scan):
    with mock.patch.object(exact, "_ROOT_SCAN", scan):
        assert exact.integer_spectrum(chi) == _scan_roots(chi)


def test_integer_roots_of_huge_eigenvalues():
    for lam in (2 * 10**8, 2 * 10**60, 3**200):
        assert exact.integer_spectrum(IntPoly.from_roots([(lam, 2), (7, 1)]).shift(1)) == {
            0: 1, 7: 1, lam: 2}
    chi = IntPoly([-2 * 10**60, 0, 1])
    assert exact.integer_spectrum(chi) == NotIntegral(chi)


@settings(max_examples=80, deadline=None)
@given(certificate_inputs(), st.sampled_from((0, 1, 4, 2**16)))
def test_spectrum_of_a_certified_char_poly_against_integer_roots(m, scan):
    """Read off the certificate, the spectrum has the keys of the scan of
    a plain copy of chi in their order, ascending, whatever _ROOT_SCAN;
    a negative root makes it NotIntegral."""
    chi = _certified(m, "chi") or char_poly(m)
    with mock.patch.object(exact, "_ROOT_SCAN", scan):
        got, want = exact.integer_spectrum(chi), exact.integer_spectrum(IntPoly(chi.coeffs))
    if isinstance(want, NotIntegral):
        assert got == want
    else:
        assert list(got.items()) == list(want.items())
