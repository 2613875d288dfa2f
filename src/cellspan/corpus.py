"""Built-in corpus of small complexes for the verification suites.

Everything here is deterministic and exhaustive within stated bounds:
all downward-closed set families on up to four vertices drive the
mirror corpus, shifted families are the dominance-closed ones among
them, and colorful class sizes run over unordered partitions (class
order only relabels vertices and every checked quantity is symmetric
in the sizes).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .chain import ChainComplex
from .colorful import colorful_complex, frac_char_poly
from .cubical import (CubicalComplex, algebraic_boundary, cube,
                      cube_weighted_tot_eigenvalues, laurent_is_zero,
                      laurent_matmul, mirror, weight_vars,
                      weighted_total_laplacian)
from .exact import IntMatrix


def rp2() -> ChainComplex:
    """One cell per dimension with a degree-2 attaching map; the
    smallest complex with homology torsion."""
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                        {1: IntMatrix([[0]]), 2: IntMatrix([[2]])})


# ---------------------------------------------------------------------------
# simplicial set families (nonempty subsets; the empty set is implicit)


def simplicial_families(n: int) -> list:
    """All downward-closed families of nonempty subsets of {1..n},
    the empty family included, each a frozenset of frozensets."""
    subs = [frozenset(c)
            for k in range(1, n + 1)
            for c in itertools.combinations(range(1, n + 1), k)]
    req = []
    for s in subs:
        mask = 0
        for j, t in enumerate(subs):
            if t < s:
                mask |= 1 << j
        req.append(mask)
    out = []
    for mask in range(1 << len(subs)):
        mm = mask
        ok = True
        while mm:
            b = mm & -mm
            if req[b.bit_length() - 1] & ~mask:
                ok = False
                break
            mm ^= b
        if ok:
            out.append(frozenset(s for j, s in enumerate(subs) if mask >> j & 1))
    return out


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


def simplicial_chain(family, empty_cell: bool = True) -> ChainComplex:
    """Chain complex of a family of nonempty vertex sets (downward
    closed), standard alternating signs over sorted vertex tuples."""
    by_dim: dict = {}
    for s in family:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    for fs in by_dim.values():
        fs.sort()
    cells = {d: tuple("-".join(map(str, f)) for f in fs)
             for d, fs in by_dim.items()}
    bnd = {}
    if empty_cell and 0 in by_dim:
        bnd[0] = IntMatrix([[1] * len(by_dim[0])], ncols=len(by_dim[0]))
    for d in sorted(by_dim):
        if d == 0:
            continue
        rows_idx = {f: r for r, f in enumerate(by_dim[d - 1])}
        cols = by_dim[d]
        rows = [[0] * len(cols) for _ in rows_idx]
        for ci, face in enumerate(cols):
            for r in range(len(face)):
                sub = face[:r] + face[r + 1:]
                rows[rows_idx[sub]][ci] = -1 if r % 2 else 1
        bnd[d] = IntMatrix(rows, ncols=len(cols))
    return ChainComplex(cells, bnd, empty_cell=empty_cell and 0 in by_dim)


def is_dominance_closed(family, n: int) -> bool:
    """Lowering elements componentwise (sorted order) stays inside."""
    for s in family:
        ss = tuple(sorted(s))
        for c in itertools.combinations(range(1, n + 1), len(ss)):
            if all(x <= y for x, y in zip(c, ss)) and frozenset(c) not in family:
                return False
    return True


def shifted_families(n: int) -> list:
    """Families whose mirrors are the shifted cubical complexes on n
    directions: all singletons present and dominance-closed."""
    singles = [frozenset((v,)) for v in range(1, n + 1)]
    return [f for f in simplicial_families(n)
            if all(s in f for s in singles) and is_dominance_closed(f, n)]


def mirror_on(universe, family) -> CubicalComplex:
    """Mirror over an arbitrary direction universe; the empty set is
    always a direction set, so every 0/1 word appears."""
    u = tuple(universe)
    fs = set()
    for s in set(family) | {frozenset()}:
        free = [d for d in u if d not in s]
        for bits in itertools.product("01", repeat=len(free)):
            pin = dict(zip(free, bits))
            fs.add("".join("*" if d in s else pin[d] for d in u))
    return CubicalComplex(u, fs, closed=True)


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


def identity_corpus(mirror_max: int = 4, colorful_max: int = 9,
                    colorfuls=None) -> list:
    """(name, chain) pairs covering cubes, mirrors (shifted included),
    the projective plane, and colorful complexes.  Prebuilt colorful
    pairs can be passed in so spectrum caches are shared."""
    items = [("rp2", rp2())]
    for n in range(1, 5):
        items.append((f"cube:{n}", cube(n).to_chain()))
    for name, _fam, x in mirror_corpus(mirror_max):
        items.append((name, x.to_chain()))
    if colorfuls is None:
        colorfuls = colorful_corpus(colorful_max)
    for a, c in colorfuls:
        items.append((f"colorful:{','.join(map(str, a))}", c))
    return items


# ---------------------------------------------------------------------------
# weighted cube spectra at rational points


def cube_algebraic_dd_zero(n: int) -> bool:
    x = cube(n)
    for i in range(1, n):
        if not laurent_is_zero(laurent_matmul(algebraic_boundary(x, i),
                                              algebraic_boundary(x, i + 1))):
            return False
    return True


def _mul_linear(coeffs, r):
    """Ascending-coefficient product with (y - r)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for j, c in enumerate(coeffs):
        out[j] -= r * c
        out[j + 1] += c
    return out


def cube_weighted_spectrum_check(n: int, trials: int = 3, seed: int = 0) -> bool:
    """At seeded rational weight assignments, the characteristic
    polynomial of each weighted total Laplacian of the n-cube must
    factor exactly into the predicted linear forms."""
    if not cube_algebraic_dd_zero(n):
        return False
    x = cube(n)
    vs = weight_vars(x.universe)
    rng = random.Random(seed)
    for _ in range(trials):
        assign = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in vs}
        for i in range(n + 1):
            lap = weighted_total_laplacian(x, i)
            m = [[e.subs(assign) for e in row] for row in lap]
            got = frac_char_poly(m)
            want = [Fraction(1)]
            for form, mult in cube_weighted_tot_eigenvalues(n, i):
                r = form.subs(assign)
                for _ in range(mult):
                    want = _mul_linear(want, r)
            if got != want:
                return False
    return True
