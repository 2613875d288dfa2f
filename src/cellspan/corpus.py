"""Built-in corpus of small complexes for the verification suites.

Everything here is deterministic and exhaustive within stated bounds:
all downward-closed set families on up to four vertices drive the
mirror corpus, the shifted families are generated the same way, closed
under the dominance order's lower covers too, and colorful class sizes
run over unordered partitions (class order only relabels vertices and
every checked quantity is symmetric in the sizes).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .chain import ChainComplex, simplicial
from .colorful import WEIGHT_TRIALS, colorful_complex
from .cubical import (CubicalComplex, algebraic_boundary, cube,
                      cube_weighted_tot_eigenvalues, laurent_is_zero, lower_covers,
                      mirror, mirror_on, weight_vars, xi_weight)
from .exact import IntPoly, ring_matmul, scaled_char_polys


def rp2() -> ChainComplex:
    """One cell per dimension with a degree-2 attaching map; the
    smallest complex with homology torsion."""
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                        {1: [[0]], 2: [[2]]})


# ---------------------------------------------------------------------------
# simplicial set families (nonempty subsets; the empty set is implicit)


def _closed_families(n: int, below) -> list:
    """All families of nonempty subsets of {1..n} closed under below,
    the empty family included, each a frozenset of frozensets.  The
    subsets c are decided in (size, lex) order, and a family takes c
    only when it holds every set of below(c), all decided before c."""
    families = [frozenset()]
    for k in range(1, n + 1):
        for c in itertools.combinations(range(1, n + 1), k):
            s, need = frozenset(c), below(c)
            families += [f | {s} for f in families if all(t in f for t in need)]
    return families


def _faces_below(c) -> list:
    """The nonempty (size - 1)-subsets of c."""
    return [frozenset(c) - {v} for v in c] if len(c) > 1 else []


def simplicial_families(n: int) -> list:
    """All downward-closed families of nonempty subsets of {1..n}."""
    return _closed_families(n, _faces_below)


def family_facets(family) -> list:
    """Maximal members, sorted, as sorted tuples."""
    fs = [s for s in family if not any(s < t for t in family)]
    return sorted(tuple(sorted(s)) for s in fs)


def cone_family(family, apex: int):
    out = set(family) | {frozenset((apex,))}
    out.update(s | {apex} for s in family)
    return frozenset(out)


def del_family(family, v: int):
    return frozenset(s for s in family if v not in s)


def link_family(family, v: int):
    return frozenset(s - {v} for s in family if v in s and len(s) > 1)


def skeleton_family(family, k: int):
    """Members with at most k vertices (cardinality-indexed)."""
    return frozenset(s for s in family if len(s) <= k)


def boundary_family(family):
    """Non-maximal members."""
    return frozenset(s for s in family if any(s < t for t in family))


def simplicial_chain(family) -> ChainComplex:
    """Chain complex of a family of nonempty vertex sets (downward
    closed), standard alternating signs over sorted vertex tuples, with
    the empty cell when the family has a vertex."""
    by_dim: dict = {}
    for s in family:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    for fs in by_dim.values():
        fs.sort()
    return simplicial(by_dim, 0 in by_dim)


def shifted_families(n: int) -> list:
    """Families whose mirrors are the shifted cubical complexes on n
    directions: downward closed, closed under the lower covers of the
    dominance order, and holding {n}, so every singleton."""
    u = tuple(range(1, n + 1))
    fams = _closed_families(n, lambda c: _faces_below(c) + [
        frozenset(t) for t in lower_covers(c, u)])
    return [f for f in fams if n == 0 or frozenset((n,)) in f]


def mirror_corpus(nmax: int = 4) -> list:
    """(name, family, complex) for every family on 1..nmax vertices."""
    out = []
    for n in range(1, nmax + 1):
        for fam in sorted(simplicial_families(n), key=_family_key):
            name = f"mirror:{n}:{family_facets(fam)}"
            out.append((name, fam, mirror_on(range(1, n + 1), fam)))
    return out


def shifted_corpus(nmax: int = 4) -> list:
    out = []
    for n in range(1, nmax + 1):
        for fam in sorted(shifted_families(n), key=_family_key):
            name = f"shifted:{n}:{family_facets(fam)}"
            out.append((name, mirror_on(range(1, n + 1), fam)))
    return out


def _family_key(family):
    return (len(family), sorted(tuple(sorted(s)) for s in family))


# ---------------------------------------------------------------------------
# counterexample mirrors


def mirror_circle() -> CubicalComplex:
    """Mirror of a path on three vertices; a topological circle, so
    shifted machinery meets a complex that is not APC."""
    return mirror(3, [(1, 2), (1, 3)])


def mirror_matroid_example() -> CubicalComplex:
    """Mirror of the matroid complex with facets 124,125,134,135.
    Sometimes cited as breaking Laplacian integrality; it does not
    (it decomposes as Q_1 x boundary(Q_2) x boundary(Q_2), a product
    of integral complexes), and the verification suite records the
    discrepancy rather than hiding it."""
    return mirror(5, [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)])


# ---------------------------------------------------------------------------
# colorful sizes


def colorful_sizes(total: int) -> list:
    """Weakly decreasing class-size tuples with sum at most total."""
    out = []

    def rec(prefix, rest, top):
        for v in range(min(rest, top), 0, -1):
            t = prefix + (v,)
            out.append(t)
            rec(t, rest - v, v)

    rec((), total, total)
    return sorted(out)


# ---------------------------------------------------------------------------
# assembled chain corpus


def colorful_corpus(total: int) -> list:
    """(sizes, chain) for every partition with sum at most total."""
    return [(a, colorful_complex(a)) for a in colorful_sizes(total)]


def identity_corpus(mirrors, colorfuls) -> list:
    """(name, chain) pairs covering cubes, the projective plane, and the
    prebuilt mirror triples (mirror_corpus, shifted included) and
    colorful pairs (colorful_corpus), so that each complex is built once
    and its spectrum caches are shared."""
    items = [("rp2", rp2())]
    for n in range(1, 5):
        items.append((f"cube:{n}", cube(n).to_chain()))
    for name, _fam, x in mirrors:
        items.append((name, x.to_chain()))
    for a, c in colorfuls:
        items.append((f"colorful:{','.join(map(str, a))}", c))
    return items


# ---------------------------------------------------------------------------
# weighted cube spectra at rational points


def cube_algebraic_dd_zero(n: int) -> bool:
    x = cube(n)
    for i in range(1, n):
        if not laurent_is_zero(ring_matmul(algebraic_boundary(x, i),
                                           algebraic_boundary(x, i + 1))):
            return False
    return True


def cube_weighted_spectrum_check(n: int, seed: int = 0) -> bool:
    """At seeded rational weight assignments, the char poly of each
    weighted total Laplacian of the n-cube, scaled by the lcm D of its
    denominators, must be the product of (y - D u) over the predicted
    linear forms u.  It does not check that the weighted boundaries
    compose to zero (cube_algebraic_dd_zero does)."""
    x = cube(n)
    c = x.to_chain()
    vs = weight_vars(x.universe)
    rng = random.Random(seed)
    for _ in range(WEIGHT_TRIALS):
        assign = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in vs}
        xi = {j: [xi_weight(x.universe, f).subs(assign) for f in c.labels(j)]
              for j in range(n + 1)}
        for i in range(n + 1):
            d, (chi,) = scaled_char_polys([c.weighted_laplacian(i, xi)])
            roots = [(form.subs(assign) * d, mult)
                     for form, mult in cube_weighted_tot_eigenvalues(n, i)]
            if (any(r.denominator != 1 for r, _ in roots)
                    or chi != IntPoly.from_roots((int(r), m) for r, m in roots)):
                return False
    return True
