"""Cubical complexes: order ideals in the face poset of a cube.

Faces are strings over {0,1,*} indexed by a sorted universe of
directions; position j of a face string refers to direction
universe[j].  A star marks a free coordinate, so the dimension of a
face is its star count.  Cell order everywhere is lexicographic with
0 < 1 < * (the rank of each character, not its ASCII code).
"""

from __future__ import annotations

import itertools
from bisect import insort

from .chain import ChainComplex, as_int, as_list
from .exact import LaurentPoly, SparseMatrix, gen_binom, gram_sum, sparse_transpose

_RANK = {"0": 0, "1": 1, "*": 2}

# Most faces a complex built from a face list or a mirror may have: those
# of the 10-cube, the largest cube the command line builds.
FACE_CAP = 3 ** 10


def face_key(f: str):
    return tuple(_RANK[c] for c in f)


def face_dim(f: str) -> int:
    return f.count("*")


def pinned_once(faces) -> set:
    """Every face with one star pinned to 0 or to 1: the faces that lie
    in a larger face."""
    out = set()
    for g in faces:
        for j, c in enumerate(g):
            if c == "*":
                out.add(g[:j] + "0" + g[j + 1:])
                out.add(g[:j] + "1" + g[j + 1:])
    return out


def closure_of(faces) -> frozenset:
    """Downward closure: every * may be pinned to 0 or to 1."""
    seen = new = frozenset(faces)
    while new:
        new = pinned_once(new) - seen
        seen |= new
    return seen


def _magnitude(n: int) -> str:
    """n, or ~10^e (e its digit count less one) past 20 digits: a
    refusal stays one short line, where str() fails past 4300 digits."""
    if n < 10 ** 20:
        return str(n)
    e = (n.bit_length() - 1) * 3010299 // 10 ** 7   # log10(2) rounded down
    while 10 ** (e + 1) <= n:
        e += 1
    return f"~10^{e}"


def _check_face_bound(bound: int) -> None:
    if bound > FACE_CAP:
        raise ValueError(f"up to {_magnitude(bound)} faces exceed cap {FACE_CAP}")


def lower_covers(s, universe) -> list:
    """The direction sets one step below s in the dominance order: one
    member moved to the universe element before it, when that element
    is not in s.  Sets are tuples sorted in universe order."""
    out = []
    for j, d in enumerate(s):
        p = universe.index(d)
        if p and universe[p - 1] not in s:
            out.append(s[:j] + (universe[p - 1],) + s[j + 1:])
    return out


def dirset_faces(universe, dirs):
    """The cube faces over the universe whose stars are exactly the
    given directions: every 0/1 pinning of the other directions."""
    free = [d for d in universe if d not in dirs]
    for bits in itertools.product("01", repeat=len(free)):
        pin = dict(zip(free, bits))
        yield "".join("*" if d in dirs else pin[d] for d in universe)


def _boundary_columns(x, i: int) -> list:
    """Columns of the boundary from the i-faces to the (i-1)-faces of x,
    as {row: entry} dicts.  Pinning the j-th star of g (1-based) to 0
    or to 1 enters (-1)^j or -(-1)^j."""
    rows_idx = {f: r for r, f in enumerate(x.faces_of_dim(i - 1))}
    cols = []
    for g in x.faces_of_dim(i):
        col = {}
        j = 0
        for pos, c in enumerate(g):
            if c == "*":
                j += 1
                s = -1 if j % 2 else 1
                col[rows_idx[g[:pos] + "0" + g[pos + 1:]]] = s
                col[rows_idx[g[:pos] + "1" + g[pos + 1:]]] = -s
        cols.append(col)
    return cols


def sign(f: str, g: str) -> int:
    """Relative orientation of a codimension-1 face pair.

    Zero when f is not a face of g.  Otherwise f pins exactly one star
    of g; if that star is the j-th star of g (1-based, left to right),
    the sign is (-1)^j for a 0 and (-1)^(j+1) for a 1.
    """
    if len(f) != len(g) or face_dim(g) != face_dim(f) + 1:
        raise ValueError("sign needs faces one dimension apart")
    j = 0
    pinned = None
    for cf, cg in zip(f, g):
        if cg == "*":
            j += 1
            if cf != "*":
                if pinned is not None:
                    return 0
                pinned = (j, cf)
        elif cf != cg:
            return 0
    if pinned is None:
        return 0
    j, c = pinned
    s = -1 if j % 2 else 1
    return s if c == "0" else -s


class CubicalComplex:
    """Immutable set of cube faces closed under pinning stars."""

    def __init__(self, universe, faces, closed: bool = False):
        """Without closed, the faces are closed downward here, to at
        most FACE_CAP faces.  The bound, checked before building, sums
        3^stars over the given faces, leaving out each that is another
        given face with one star pinned.  The universe must be strictly
        increasing: face positions are read against it as given."""
        u = tuple(as_int(d, "universe entry") for d in universe)
        if any(d <= 0 for d in u):
            raise ValueError("directions are positive integers")
        if any(a >= b for a, b in zip(u, u[1:])):
            raise ValueError(f"universe {u} is not strictly increasing")
        self.universe = u
        fs = set()
        for f in faces:
            if not isinstance(f, str) or len(f) != len(u) or any(c not in _RANK for c in f):
                raise ValueError(f"malformed face {f!r} for universe {u}")
            fs.add(f)
        if not closed:
            _check_face_bound(sum(3 ** face_dim(f) for f in fs - pinned_once(fs)))
        self.faces = frozenset(fs) if closed else closure_of(fs)
        self._by_dim: dict = {}
        self._chain = None

    def __eq__(self, other):
        return (isinstance(other, CubicalComplex)
                and self.universe == other.universe and self.faces == other.faces)

    def __hash__(self):
        return hash((self.universe, self.faces))

    def __contains__(self, f):
        return f in self.faces

    def __len__(self):
        return len(self.faces)

    @property
    def dim(self) -> int:
        return max((face_dim(f) for f in self.faces), default=-1)

    def faces_of_dim(self, i: int) -> tuple:
        if i not in self._by_dim:
            self._by_dim[i] = tuple(sorted((f for f in self.faces if face_dim(f) == i),
                                           key=face_key))
        return self._by_dim[i]

    def n_faces(self, i: int) -> int:
        return len(self.faces_of_dim(i))

    def dirset(self, f: str) -> tuple:
        return tuple(self.universe[j] for j, c in enumerate(f) if c == "*")

    def dirsets(self) -> set:
        return {self.dirset(f) for f in self.faces}

    def is_pure(self) -> bool:
        if not self.faces:
            return True
        top = self.faces_of_dim(self.dim)
        return closure_of(top) == self.faces

    def facets(self) -> tuple:
        """Maximal faces, sorted by dimension then cell order."""
        non_max = pinned_once(self.faces)
        out = [f for f in self.faces if f not in non_max]
        return tuple(sorted(out, key=lambda f: (face_dim(f), face_key(f))))

    # -- chain complex

    def to_chain(self) -> ChainComplex:
        if self._chain is None:
            cells = {}
            for i in range(self.dim + 1):
                fs = self.faces_of_dim(i)
                if fs:
                    cells[i] = fs
            bnd = {i: SparseMatrix(_boundary_columns(self, i), self.n_faces(i - 1))
                   for i in range(1, self.dim + 1)}
            self._chain = ChainComplex(cells, bnd, check=False)
        return self._chain

    # -- constructions in one direction

    def _pos(self, i: int) -> int:
        try:
            return self.universe.index(i)
        except ValueError:
            raise ValueError(f"direction {i} not in universe {self.universe}") from None

    def deletion(self, i: int) -> "CubicalComplex":
        p = self._pos(i)
        u = self.universe[:p] + self.universe[p + 1:]
        fs = {f[:p] + f[p + 1:] for f in self.faces if f[p] != "*"}
        return CubicalComplex(u, fs, closed=True)

    def link(self, i: int) -> "CubicalComplex":
        p = self._pos(i)
        u = self.universe[:p] + self.universe[p + 1:]
        fs = {f[:p] + f[p + 1:] for f in self.faces if f[p] == "*"}
        return CubicalComplex(u, fs, closed=True)

    def prism(self, i: int) -> "CubicalComplex":
        if i in self.universe:
            raise ValueError(f"direction {i} already in universe {self.universe}")
        u = list(self.universe)
        insort(u, i)
        p = u.index(i)
        fs = {f[:p] + c + f[p:] for f in self.faces for c in "01*"}
        return CubicalComplex(u, fs, closed=True)

    def near_prism(self, i: int) -> "NearPrism":
        dele = self.deletion(i)
        link = self.link(i)
        p = self._pos(i)
        cond1 = pinned_once(dele.faces) <= link.faces
        cond2 = {f[:p] + c + f[p:] for f in dele.faces for c in "01"} <= self.faces
        b = tuple(sorted(dele.faces - link.faces, key=lambda f: (face_dim(f), face_key(f))))
        return NearPrism(i, cond1 and cond2, dele, link, b)

    # -- global predicates

    def is_shifted(self) -> bool:
        # (1) every vertex and every edge of the ambient cube, and (2)
        # membership depends only on the direction set; once both hold,
        # ds is the set of direction sets
        ds = self.dirsets() | {()} | {(d,) for d in self.universe}
        if any(f not in self.faces for s in ds for f in dirset_faces(self.universe, s)):
            return False
        # (3) direction sets form an ideal in the dominance order, which
        # the lower covers generate
        return all(t in ds for s in ds for t in lower_covers(s, self.universe))

    def pure_skeleton(self, j: int) -> "CubicalComplex":
        return CubicalComplex(self.universe, closure_of(self.faces_of_dim(j)), closed=True)

    def boundary_complex(self) -> "CubicalComplex":
        """All non-maximal faces."""
        return CubicalComplex(self.universe, pinned_once(self.faces) & self.faces, closed=True)

    # -- serialization

    def to_json_dict(self) -> dict:
        fs = sorted(self.faces, key=lambda f: (face_dim(f), face_key(f)))
        return {"universe": list(self.universe), "faces": fs}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CubicalComplex":
        return cls(tuple(as_list(data["universe"], "universe")),
                   as_list(data.get("faces", []), "faces"))

    def __repr__(self):
        counts = ",".join(str(self.n_faces(i)) for i in range(self.dim + 1))
        return f"CubicalComplex(universe={self.universe}, counts=({counts}))"


class NearPrism:
    """Decomposition certificate for the near-prism test in one direction."""

    __slots__ = ("direction", "holds", "deletion", "link", "b_faces")

    def __init__(self, direction, holds, deletion, link, b_faces):
        self.direction = direction
        self.holds = holds
        self.deletion = deletion
        self.link = link
        self.b_faces = b_faces

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return f"NearPrism(dir={self.direction}, holds={self.holds}, |B|={len(self.b_faces)})"


def cube(n: int, cap: int = 6) -> CubicalComplex:
    if not (0 <= n <= cap):
        raise ValueError(f"cube dimension {n} out of range [0, {cap}]")
    u = tuple(range(1, n + 1))
    return CubicalComplex(u, closure_of({"*" * n}), closed=True)


# ---------------------------------------------------------------------------
# mirroring


def simplicial_closure(facets) -> set:
    """All subsets of the given vertex sets, as frozensets."""
    out = set()
    for s in facets:
        s = tuple(sorted(set(s)))
        for k in range(len(s) + 1):
            out.update(frozenset(c) for c in itertools.combinations(s, k))
    return out


def mirror(n: int, facets) -> CubicalComplex:
    """Cubical complex whose faces are the cube faces with direction
    set in the given simplicial complex on [n].  With no facets that
    complex is void, not {empty set}, and so is its mirror.  At most
    FACE_CAP faces, a facet F spanning at most 3^|F| 2^(n-|F|) of them,
    and at most FACE_CAP vertices, checked first."""
    n = as_int(n, "mirror vertex count")
    if n < 0:
        raise ValueError(f"mirror vertex count {n} is negative")
    if n > FACE_CAP:
        raise ValueError(f"mirror vertex count {_magnitude(n)} exceeds cap {FACE_CAP}")
    facets = [{as_int(v, "facet vertex") for v in f} for f in facets]
    if any(not (1 <= v <= n) for f in facets for v in f):
        raise ValueError(f"facet vertex outside [1, {n}]")
    _check_face_bound(sum(3 ** len(f) * 2 ** (n - len(f)) for f in facets))
    u = tuple(range(1, n + 1))
    if not facets:
        return CubicalComplex(u, (), closed=True)
    return mirror_on(u, simplicial_closure(facets))


def mirror_on(universe, family) -> CubicalComplex:
    """Mirror over an arbitrary direction universe; the empty set is
    always a direction set, so every 0/1 word appears."""
    u = tuple(universe)
    fs = {f for s in set(family) | {frozenset()} for f in dirset_faces(u, s)}
    return CubicalComplex(u, fs, closed=True)


# ---------------------------------------------------------------------------
# shifted spectra


def _add_two_to_first(m: int, seq) -> tuple:
    out = [(seq[j] if j < len(seq) else 0) + 2 for j in range(m)]
    out += list(seq[m:])
    return tuple(sorted(out, reverse=True))


def _merge(a, b) -> tuple:
    return tuple(sorted(tuple(a) + tuple(b), reverse=True))


def spectrum_direct(x: CubicalComplex) -> tuple:
    """Nonzero eigenvalues of the top up-down Laplacian, weakly
    decreasing, from its characteristic polynomial; ValueError when
    they are not all integers."""
    if x.dim < 1:
        return ()
    s = x.to_chain().spectrum(x.dim - 1, "ud")
    if not s.is_integral():
        raise ValueError("spectrum is not integral; no integer sequence exists")
    return tuple(sorted(s.nonzero_multiset(), reverse=True))


def _s_recursive(x: CubicalComplex) -> tuple:
    if x.dim < 1:
        return ()
    if x.is_pure() and x.universe:
        np = x.near_prism(x.universe[0])
        if np.holds:
            ell = np.link.n_faces(x.dim - 1)
            if np.deletion.faces == np.link.faces:
                return _add_two_to_first(ell, _s_recursive(np.link))
            sd = _s_recursive(np.deletion)
            sl = _s_recursive(np.link)
            return _merge(sd, _add_two_to_first(ell, _merge(sd, sl)))
    # subcomplexes met in the recursion need not stay in the family
    return spectrum_direct(x)


def shifted_spectrum(x: CubicalComplex) -> tuple:
    """Nonzero eigenvalues of the top up-down Laplacian, weakly
    decreasing, by the deletion/link recursion.  Requires a pure
    complex that is a near-prism in its smallest direction."""
    if x.dim < 1:
        return ()
    if not x.is_pure():
        raise ValueError("recursion needs a pure complex")
    if not x.near_prism(x.universe[0]).holds:
        raise ValueError(f"not a near-prism in direction {x.universe[0]}")
    return _s_recursive(x)


def near_prism_betti_check(x: CubicalComplex, i: int) -> dict:
    """Betti-level shadow of the wedge-of-spheres prediction: each
    reduced Betti number of x should exceed the deletion's by the
    number of cells of that dimension dropped between deletion and
    link.  Informational; callers report rather than assert."""
    np = x.near_prism(i)
    if not np.holds:
        raise ValueError(f"not a near-prism in direction {i}")
    if not x.faces:
        return {"direction": i, "holds": True, "rows": []}
    cx = x.to_chain()
    cd = np.deletion.to_chain() if np.deletion.faces else None
    c_count: dict = {}
    for f in np.b_faces:
        c_count[face_dim(f)] = c_count.get(face_dim(f), 0) + 1
    rows = []
    ok = True
    for j in range(x.dim + 1):
        actual = cx.betti(j)
        base = cd.betti(j) if cd is not None and j <= cd.dim else 0
        predicted = base + c_count.get(j, 0)
        rows.append({"dim": j, "betti": actual, "predicted": predicted})
        ok = ok and actual == predicted
    return {"direction": i, "holds": ok, "rows": rows}


# ---------------------------------------------------------------------------
# weights

# Per direction i the table carries q_i (star), x_i (0) and y_i (1).


def weight_vars(universe) -> tuple:
    out = []
    for d in universe:
        out += [f"q{d}", f"x{d}", f"y{d}"]
    return tuple(out)


def xi_weight(universe, f: str) -> LaurentPoly:
    powers = {}
    for d, c in zip(universe, f):
        powers["xyq"[_RANK[c]] + str(d)] = 1
    return LaurentPoly.monomial(weight_vars(universe), powers)


def _xi(x: CubicalComplex, i: int) -> list:
    """The weight monomial of each i-face, in cell order."""
    return [xi_weight(x.universe, f) for f in x.faces_of_dim(i)]


def _dense(x: CubicalComplex, rows, ncols: int) -> list:
    """{column: entry} rows as lists of ncols Laurent polynomials."""
    zero = LaurentPoly(weight_vars(x.universe))
    return [[row.get(s, zero) for s in range(ncols)] for row in rows]


def algebraic_boundary(x: CubicalComplex, i: int):
    """Boundary matrix whose (f, g) entry is sign(f, g) times the
    weight ratio of g over f; each entry is a single Laurent monomial
    of the form +-q/x or +-q/y in one direction."""
    col_xi, row_inv = _xi(x, i), [1 / w for w in _xi(x, i - 1)]
    rows = sparse_transpose(x.to_chain().sparse_boundary(i).cols, x.n_faces(i - 1))
    return _dense(x, [{c: a * col_xi[c] * inv for c, a in row.items()}
                      for row, inv in zip(rows, row_inv)], x.n_faces(i))


def laurent_is_zero(rows) -> bool:
    return all(e.is_zero() for r in rows for e in r)


def weighted_total_laplacian(x: CubicalComplex, i: int):
    """Total Laplacian of the algebraically weighted boundary maps, a
    square Laurent-polynomial matrix on the i-faces."""
    xi = {j: _xi(x, j) for j in (i - 1, i, i + 1)}
    return _dense(x, x.to_chain().weighted_laplacian(i, xi), x.n_faces(i))


def weighted_diag_laplacian(x: CubicalComplex, k: int):
    """B diag(xi) B^T on the (k-1)-faces, B the integer boundary: the
    gram_sum of its columns with c = xi and d = 1, the engine matrix of
    weighted tree enumeration.  Only the algebraic weighting above
    composes to zero."""
    b = x.to_chain().sparse_boundary(k)
    return _dense(x, gram_sum(b.nrows, [(b.cols, _xi(x, k), [1] * b.nrows)]), b.nrows)


def u_form(universe, subset) -> LaurentPoly:
    """Sum over directions in the subset of q^2/x^2 + q^2/y^2."""
    vs = weight_vars(universe)
    acc = LaurentPoly(vs)
    for d in subset:
        acc = acc + LaurentPoly.monomial(vs, {f"q{d}": 2, f"x{d}": -2})
        acc = acc + LaurentPoly.monomial(vs, {f"q{d}": 2, f"y{d}": -2})
    return acc


def cube_weighted_tot_eigenvalues(n: int, i: int):
    """Predicted spectrum of the weighted total Laplacian of the full
    cube in dimension i: one form per direction subset A, with
    multiplicity C(|A|, i)."""
    u = tuple(range(1, n + 1))
    out = []
    for r in range(n + 1):
        for subset in itertools.combinations(u, r):
            m = gen_binom(r, i)
            if m > 0:
                out.append((u_form(u, subset), m))
    return out
