"""Chain complexes over the integers.

A complex stores ordered cell labels per dimension and integer boundary
matrices, each as sparse columns (exact.SparseMatrix, given as one or
as a list of integer rows) and read with sparse_boundary.  An optional
(-1)-dimensional cell turns on an explicit augmentation row, stored as
the dimension-0 boundary.

The one convention that everything downstream leans on: reduced
homology in dimension 0 is always computed against an augmentation (the
stored row, or an implicit all-ones row when no (-1)-cell is present),
whereas the down-up Laplacian in dimension 0 uses only the *stored*
boundary and is therefore zero for complexes without a (-1)-cell.
"""

from __future__ import annotations

import math

from .exact import (
    _INT_ONLY,
    IntPoly,
    LaurentPoly,
    NotIntegral,
    SparseMatrix,
    _int_columns,
    char_poly,
    char_polys,
    gram_sum,
    integer_spectrum,
    nonzero_root_product,
    outer_sum,
    rank_exact,
    smith_normal_form,
    sparse_transpose,
)

FAMILIES = ("ud", "du", "tot")

# JSON values that parse to Python numbers but are not integers.
_NOT_INTEGERS = frozenset((float, bool))

# The one column of the implicit augmentation, shared by every complex.
_AUGMENTATION = {0: 1}

# char_polynomials holds Laplacians with at most about this many entries
# in all before it computes their char polys together.
_PENDING_ENTRIES = 2**15


def as_int(v, what: str) -> int:
    """int(v), refusing floats and booleans (as JSON numbers give
    them) and any other non-string that int() would change, such as
    Fraction(5, 2): int() would truncate 1.5 and true to 1.  A decimal
    string reads as int() reads it."""
    x = None if type(v) in _NOT_INTEGERS else int(v)
    if x is None or (x != v and not isinstance(v, str)):
        raise ValueError(f"{what} {v!r} is not an integer")
    return x


def as_list(v, what: str) -> list:
    """v, refusing anything but a list (a JSON array): a string would be
    read one character at a time."""
    if type(v) is not list:
        raise ValueError(f"{what} must be a JSON list, not {type(v).__name__}")
    return v


class ChainError(ValueError):
    """Boundary composition or shape failure; carries (i, row, col)."""

    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


class HomologySummary:
    """Reduced homology in one dimension: Betti number and torsion order."""

    __slots__ = ("dim", "betti", "torsion")

    def __init__(self, dim: int, betti: int, torsion: int):
        self.dim = dim
        self.betti = betti
        self.torsion = torsion

    def __eq__(self, other):
        return (isinstance(other, HomologySummary)
                and (self.dim, self.betti, self.torsion) == (other.dim, other.betti, other.torsion))

    def __repr__(self):
        return f"H~_{self.dim}: betti={self.betti} torsion={self.torsion}"


class SpectrumGF:
    """Exact spectrum of one Laplacian: eigenvalue -> multiplicity.

    When the spectrum is not integral, `eigs` is a NotIntegral marker
    carrying the characteristic polynomial, so non-integral spectra are
    first-class values, never errors.
    """

    __slots__ = ("dim", "family", "eigs", "_chi")

    def __init__(self, dim: int, family: str, eigs, chi: IntPoly):
        self.dim = dim
        self.family = family
        self.eigs = eigs
        self._chi = chi

    def is_integral(self) -> bool:
        return not isinstance(self.eigs, NotIntegral)

    def charpoly(self) -> IntPoly:
        return self._chi

    def items(self):
        if not self.is_integral():
            raise ValueError("spectrum is not integral")
        return list(self.eigs.items())

    def multiset(self) -> tuple:
        """All eigenvalues, weakly increasing, zeros included."""
        out = []
        for lam, m in self.items():
            out.extend([lam] * m)
        return tuple(out)

    def nonzero_multiset(self) -> tuple:
        return tuple(x for x in self.multiset() if x)

    def __repr__(self):
        tag = f"s^{self.family}_{self.dim}"
        if self.is_integral():
            return f"{tag} {dict(self.items())}"
        return f"{tag} NotIntegral({self._chi})"


class ChainComplex:
    """Immutable chain complex with ordered, labeled cells.

    Each boundary is stored as a SparseMatrix, one {row: value} dict of
    Python ints per column (`bnd`); a cube boundary column has 2 dim
    nonzeros.  Homology, the tree engines and the Laplacians read this
    form through sparse_boundary(i).
    """

    def __init__(self, cells, boundaries, empty_cell: bool = False, check: bool = True):
        """cells: {dim: labels}; boundaries: {i: SparseMatrix or a list
        of integer rows} for 1 <= i <= d, plus key 0 holding the
        augmentation row when empty_cell is set."""
        cleaned = {}
        for d, labels in dict(cells).items():
            labels = tuple(str(x) for x in labels)
            if labels:
                if d < 0:
                    raise ChainError("explicit cells below dimension 0; use empty_cell")
                cleaned[int(d)] = labels
        self.cells = cleaned
        self.empty_cell = bool(empty_cell)
        bnd = {}
        for i, m in dict(boundaries).items():
            i = int(i)
            if not isinstance(m, SparseMatrix):
                m = SparseMatrix.from_rows(m, ncols=len(cleaned.get(i, ())))
            bnd[i] = m
        self.bnd = bnd
        self._spec: dict = {}
        self._chi: dict = {}
        self._hom: dict = {}
        self._aug = None
        if check:
            bad = self.validate()
            if bad is not None:
                raise ChainError(f"boundary composition fails at {bad}", bad)

    # -- shape bookkeeping

    @property
    def dim(self) -> int:
        return max(self.cells) if self.cells else -1

    def n_cells(self, i: int) -> int:
        if i == -1:
            return 1 if self.empty_cell else 0
        return len(self.cells.get(i, ()))

    def labels(self, i: int):
        return self.cells.get(i, ())

    def dims(self):
        """All dimensions carrying cells, the (-1)-cell included."""
        return [i for i in self.homology_range() if self.n_cells(i)]

    def sparse_boundary(self, i: int) -> SparseMatrix:
        """Stored boundary C_i -> C_{i-1}; correctly-shaped zero matrix
        out of range.  Without a (-1)-cell the dimension-0 boundary is
        the zero map."""
        m = self.bnd.get(i)
        if m is not None:
            return m
        return SparseMatrix([{} for _ in range(self.n_cells(i))], self.n_cells(i - 1))

    def homology_boundary(self, i: int) -> SparseMatrix:
        """Boundary used for reduced homology: dimension 0 gets the
        implicit all-ones augmentation when no (-1)-cell is stored."""
        if i == 0 and not self.empty_cell:
            if self._aug is None:
                n0 = self.n_cells(0)
                self._aug = SparseMatrix([_AUGMENTATION] * n0, 1 if n0 else 0)
            return self._aug
        return self.sparse_boundary(i)

    # -- validation

    def validate(self):
        """None when consistent; else the first offending (i, row, col):
        the least (row, col) of a nonzero entry of sparse_boundary(i) *
        sparse_boundary(i+1), one exact.outer_sum, scanning i upward.
        Shape and label problems raise directly."""
        for d, labels in self.cells.items():
            if len(set(labels)) != len(labels):
                raise ChainError(f"duplicate labels in dimension {d}")
        for i, m in self.bnd.items():
            if i == 0 and not self.empty_cell:
                raise ChainError("dimension-0 boundary stored without an empty cell")
            want = (self.n_cells(i - 1), self.n_cells(i))
            if m.shape != want:
                raise ChainError(f"boundary {i} has shape {m.shape}, expected {want}")
        if self.empty_cell and 0 not in self.bnd and self.n_cells(0):
            raise ChainError("empty cell present but no augmentation row stored")
        for i in range(0 if self.empty_cell else 1, self.dim + 1):
            below, above = self.sparse_boundary(i), self.sparse_boundary(i + 1)
            prod = outer_sum(below.nrows,
                             zip(below.cols, sparse_transpose(above.cols, above.nrows)))
            for r, row in enumerate(prod):
                bad = [c for c, v in row.items() if v]
                if bad:
                    return (i, r, min(bad))
        return None

    # -- homology

    def _check_dim(self, i: int) -> None:
        dims = self.homology_range()
        if i not in dims:
            raise ValueError(f"dimension {i} out of range [{dims.start}, {self.dim}]")

    def homology(self, i: int) -> HomologySummary:
        self._check_dim(i)
        if i not in self._hom:
            torsion = math.prod(smith_normal_form(self.homology_boundary(i + 1)))
            self._hom[i] = HomologySummary(i, self.betti(i), torsion)
        return self._hom[i]

    def betti(self, i: int) -> int:
        """Reduced Betti number from the boundary ranks alone."""
        self._check_dim(i)
        return (self.n_cells(i) - rank_exact(self.homology_boundary(i))
                - rank_exact(self.homology_boundary(i + 1)))

    def torsion_order(self, i: int) -> int:
        """t_i, the torsion order of reduced H_i, and 1 outside
        homology_range(): t_(-1) = |H_(-1)| with a (-1)-cell, else 1."""
        return self.homology(i).torsion if i in self.homology_range() else 1

    def homology_range(self) -> range:
        """The dimensions of reduced homology: from -1 with the empty
        cell, else from 0, up to the top."""
        return range(-1 if self.empty_cell else 0, self.dim + 1)

    def is_apc(self) -> bool:
        """All reduced Betti numbers vanish below the top dimension."""
        return all(self.betti(j) == 0 for j in self.homology_range() if j < self.dim)

    # -- Laplacians and spectra

    def laplacian(self, i: int, family: str) -> SparseMatrix:
        """L^ud_i = B B^T with B = sparse_boundary(i + 1), L^du_i = B^T B
        with B = sparse_boundary(i), or L^tot_i, their sum, each by
        exact.outer_sum: O(sum of nnz^2) exact Python-int work."""
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self._check_dim(i)
        if family == "tot":
            return self.laplacian(i, "ud") + self.laplacian(i, "du")
        b = self.sparse_boundary(i + 1) if family == "ud" else self.sparse_boundary(i).transpose()
        out = outer_sum(self.n_cells(i), ((v, v) for v in b.cols))
        return SparseMatrix([{r: v for r, v in col.items() if v} for col in out], len(out))

    def weighted_laplacian(self, i: int, xi: dict) -> list:
        """L^tot_i of the boundary maps weighted to bnd[f, g] xi_g / xi_f,
        xi[j] one unit per j-cell (LaurentPoly monomials, Fractions), as
        exact.gram_sum rows: its ud part from the columns of
        sparse_boundary(i + 1) with c = xi^2, d = 1 / xi, its du part from
        the rows of sparse_boundary(i) with c = 1 / xi^2, d = xi."""
        self._check_dim(i)
        ud = (self.sparse_boundary(i + 1).cols,
              [w * w for w in xi.get(i + 1, ())], [1 / w for w in xi[i]])
        du = (self.sparse_boundary(i).transpose().cols,
              [1 / (w * w) for w in xi.get(i - 1, ())], xi[i])
        return gram_sum(self.n_cells(i), [ud, du])

    def char_polynomial(self, i: int, family: str) -> IntPoly:
        key = (i, family)
        if key not in self._chi:
            self._chi[key] = char_poly(self.laplacian(i, family))
        return self._chi[key]

    def spectrum(self, i: int, family: str) -> SpectrumGF:
        key = (i, family)
        if key not in self._spec:
            chi = self.char_polynomial(i, family)
            self._spec[key] = SpectrumGF(i, family, integer_spectrum(chi), chi)
        return self._spec[key]

    def total_gf(self) -> LaurentPoly:
        """E(q, t): sum over dimensions of t^i times the total-spectrum
        q-polynomial.  Includes the (-1)-cell term when present.
        Raises on a non-integral spectrum."""
        terms: dict = {}
        for i in self.dims():
            s = self.spectrum(i, "tot")
            for lam, m in s.items():
                key = (lam, i)
                terms[key] = terms.get(key, 0) + m
        return LaurentPoly(("q", "t"), terms)

    # -- products of nonzero eigenvalues

    def pi(self, k: int) -> int:
        """Product of the nonzero eigenvalues of L^ud_(k-1) when k - 1 is
        in homology_range(), so pi(0) = sum of the squared augmentation
        entries; else the vertex count (or 1) at k = 0, and 1 otherwise."""
        if k - 1 in self.homology_range():
            return nonzero_root_product(self.char_polynomial(k - 1, "ud"))
        return (self.n_cells(0) or 1) if k == 0 else 1

    def omega(self, k: int) -> int:
        """Product of the nonzero eigenvalues of the total Laplacian."""
        self._check_dim(k)
        return nonzero_root_product(self.char_polynomial(k, "tot"))

    # -- derived complexes

    def skeleton(self, j: int) -> "ChainComplex":
        cells = {d: ls for d, ls in self.cells.items() if d <= j}
        bnd = {i: m for i, m in self.bnd.items() if i <= j}
        return ChainComplex(cells, bnd, empty_cell=self.empty_cell, check=False)

    def with_top_cells(self, k: int, keep) -> "ChainComplex":
        """The (k-1)-skeleton plus the named k-cells (stored order)."""
        keep = set(keep)
        labels = self.labels(k)
        unknown = keep - set(labels)
        if unknown:
            raise ValueError(f"not {k}-cells: {sorted(unknown)}")
        idx = [j for j, f in enumerate(labels) if f in keep]
        cells = {d: ls for d, ls in self.cells.items() if d < k}
        cells[k] = tuple(labels[j] for j in idx)
        bnd = {i: m for i, m in self.bnd.items() if i < k}
        if k in self.bnd or idx:
            b = self.sparse_boundary(k)
            bnd[k] = SparseMatrix([b.cols[j] for j in idx], b.nrows)
        return ChainComplex(cells, bnd, empty_cell=self.empty_cell, check=False)

    def dual_pairing(self) -> int:
        """The dimension d such that i-cells pair with (d-i)-cells of
        the dual: one less than the top dimension when a single top cell
        can absorb the role of the dual's empty cell, else the top
        dimension itself."""
        D = self.dim
        if self.n_cells(D) == 1 and (D >= 1 or self.empty_cell):
            return D - 1
        return D

    def dual(self) -> "ChainComplex":
        """Transpose the whole complex: i-cells become (d-i)-cells and
        every boundary matrix is reused as a coboundary.  Labels gain a
        trailing '*'."""
        if self.dim < 0:
            return ChainComplex({}, {}, empty_cell=self.empty_cell, check=False)
        d = self.dual_pairing()
        cells = {}
        dims = self.homology_range()
        for i in dims:
            j = d - i
            if j >= 0 and self.n_cells(i):
                src = self.labels(i) if i >= 0 else ("",)
                cells[j] = tuple(f + "*" for f in src)
        empty = d - self.dim == -1
        bnd = {}
        top = d - dims.start
        for j in range(0 if empty else 1, top + 1):
            m = self.sparse_boundary(d - j + 1).transpose()
            if m.nrows or m.ncols:
                bnd[j] = m
        return ChainComplex(cells, bnd, empty_cell=empty, check=False)

    # -- serialization

    def to_json_dict(self) -> dict:
        d = self.dim
        cells = [list(self.labels(i)) for i in range(d + 1)]
        boundary = {}
        for i in sorted(self.bnd):
            boundary[str(i)] = [[str(v) for v in row] for row in self.bnd[i].rows()]
        return {"dims": d, "cells": cells, "boundary": boundary, "empty_cell": self.empty_cell}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainComplex":
        if not isinstance(data, dict):
            raise ChainError(f"a chain complex is a JSON object, not {type(data).__name__}")
        boundary = data.get("boundary", {})
        if not isinstance(boundary, dict):
            raise ChainError(f"boundary is a JSON object, not {type(boundary).__name__}")
        cells = {i: tuple(as_list(ls, f"cells of dimension {i}"))
                 for i, ls in enumerate(as_list(data.get("cells", []), "cells"))}
        # str() would name cells after objects, null, true and 1.5 too
        bad = [v for ls in cells.values() for v in ls if type(v) not in (str, int)]
        if bad:
            raise ChainError(f"cell label {bad[0]!r} is not a string or an integer")
        bnd = {}
        for key, rows in boundary.items():
            i = int(key)
            ncols = len(cells.get(i, ())) if i != -1 else 0
            ints = True
            for r, row in enumerate(as_list(rows, f"boundary {key}")):
                if type(row) is not list:
                    raise ChainError(f"boundary {key} row {r} must be a JSON list, "
                                     f"not {type(row).__name__}")
                if not _INT_ONLY.issuperset(map(type, row)):
                    # int() would truncate 1.5 and true to 1, and overflow
                    # on 1e400; decimal strings, as to_json_dict writes, stay
                    ints = False
                    v = next((v for v in row if type(v) in _NOT_INTEGERS), None)
                    if v is not None:
                        raise ChainError(f"boundary {key} entry {v!r} is not an integer")
            bnd[i] = (SparseMatrix(_int_columns(rows, ncols), len(rows)) if ints
                      else SparseMatrix.from_rows(rows, ncols=ncols))
        empty = data.get("empty_cell", False)
        if type(empty) is not bool:
            raise ChainError(f"empty_cell must be true or false, not {empty!r}")
        return cls(cells, bnd, empty_cell=empty)

    def __repr__(self):
        counts = ",".join(str(self.n_cells(i)) for i in range(self.dim + 1))
        e = "+empty" if self.empty_cell else ""
        return f"ChainComplex(dim={self.dim}, cells=({counts}){e})"


# ---------------------------------------------------------------------------
# constructions


def simplicial(faces_by_dim: dict, empty_cell: bool) -> ChainComplex:
    """Chain complex of a simplicial complex given as {dim: vertex
    tuples}.  The stored order of the tuples is the cell order and the
    orientation: dropping the r-th vertex (0-based) enters the boundary
    with sign (-1)^r, and a cell's label joins its vertices with '-'.
    With empty_cell the (-1)-cell and its augmentation row are stored."""
    cells = {d: tuple("-".join(map(str, f)) for f in fs)
             for d, fs in faces_by_dim.items()}
    bnd = {}
    if empty_cell:
        bnd[0] = SparseMatrix([{0: 1} for _ in faces_by_dim[0]], 1)
    for d in sorted(faces_by_dim):
        if d == 0:
            continue
        rows_idx = {f: r for r, f in enumerate(faces_by_dim[d - 1])}
        cols = [{rows_idx[face[:r] + face[r + 1:]]: -1 if r % 2 else 1 for r in range(len(face))}
                for face in faces_by_dim[d]]
        bnd[d] = SparseMatrix(cols, len(rows_idx))
    return ChainComplex(cells, bnd, empty_cell=empty_cell)


def disjoint_union(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Block sum.  Only defined for complexes without (-1)-cells (two
    empty cells cannot coexist in one complex)."""
    if c1.empty_cell or c2.empty_cell:
        raise ValueError("disjoint union of complexes with empty cells")
    cells = {}
    for d in range(max(c1.dim, c2.dim) + 1):
        ls = c1.labels(d) + c2.labels(d)
        if len(set(ls)) != len(ls):
            raise ValueError(f"label collision in dimension {d}")
        if ls:
            cells[d] = ls
    bnd = {}
    for i in range(1, max(c1.dim, c2.dim) + 1):
        a, b = c1.sparse_boundary(i), c2.sparse_boundary(i)
        if a.ncols + b.ncols == 0:
            continue
        shifted = [{r + a.nrows: v for r, v in col.items()} for col in b.cols]
        bnd[i] = SparseMatrix(a.cols + shifted, a.nrows + b.nrows)
    return ChainComplex(cells, bnd, check=False)


def product(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Tensor-product complex; cell (f, g) has boundary
    (boundary f, g) + (-1)^{dim f} (f, boundary g)."""
    if c1.empty_cell or c2.empty_cell:
        raise ValueError("product of complexes with empty cells")
    pair = lambda f, g: f"({f},{g})"
    index: dict = {}
    cells: dict = {}
    for k in range(c1.dim + c2.dim + 1):
        ls = []
        for i in range(0, k + 1):
            for f in c1.labels(i):
                for g in c2.labels(k - i):
                    index[pair(f, g)] = (k, len(ls))
                    ls.append(pair(f, g))
        if ls:
            cells[k] = tuple(ls)
    bnd = {}
    for k in range(1, c1.dim + c2.dim + 1):
        cols = []
        for i in range(0, k + 1):
            b1, b2 = c1.sparse_boundary(i), c2.sparse_boundary(k - i)
            sign = -1 if i % 2 else 1
            for fi, f in enumerate(c1.labels(i)):
                for gi, g in enumerate(c2.labels(k - i)):
                    # the two parts reach different cells, so no sum cancels
                    col = {index[pair(c1.labels(i - 1)[r], g)][1]: e
                           for r, e in b1.cols[fi].items()}
                    col.update((index[pair(f, c2.labels(k - i - 1)[r])][1], sign * e)
                               for r, e in b2.cols[gi].items())
                    cols.append(col)
        if cols:
            bnd[k] = SparseMatrix(cols, len(cells.get(k - 1, ())))
    return ChainComplex(cells, bnd, check=False)


def isomorphic_under(c1: ChainComplex, c2: ChainComplex, label_map) -> bool:
    """Do the boundary matrices of c1 and c2 agree entrywise under the
    given relabeling of c1's cells into c2's?  label_map is a dict or a
    callable on labels."""
    f = label_map if callable(label_map) else label_map.__getitem__
    if c1.empty_cell != c2.empty_cell or c1.dim != c2.dim:
        return False
    maps = {}
    for d in range(c1.dim + 1):
        if c1.n_cells(d) != c2.n_cells(d):
            return False
        pos2 = {lab: j for j, lab in enumerate(c2.labels(d))}
        try:
            maps[d] = [pos2[f(lab)] for lab in c1.labels(d)]
        except KeyError:
            return False
        if len(set(maps[d])) != c1.n_cells(d):
            return False
    lo = 0 if c1.empty_cell else 1
    for i in range(lo, c1.dim + 1):
        b1, b2 = c1.sparse_boundary(i), c2.sparse_boundary(i)
        rmap = maps[i - 1] if i > 0 else [0]  # i=0: single aug row
        for c, col in enumerate(b1.cols):
            if {rmap[r]: v for r, v in col.items()} != b2.cols[maps[i][c]]:
                return False
    return True


def char_polynomials(complexes) -> None:
    """Fill the char poly cache of each complex for every dimension and
    family, as ChainComplex.char_polynomial would, but computing the char
    polys of many Laplacians together (exact.char_polys).  Laplacians
    wait in batches of at most about _PENDING_ENTRIES entries."""
    slots, laps, entries = [], [], 0
    for c in complexes:
        for i in c.homology_range():
            made: dict = {}
            for family in FAMILIES:
                if (i, family) in c._chi:
                    continue
                # tot is ud + du; add the two just built, if both were
                lap = (made["ud"] + made["du"] if len(made) == 2
                       else c.laplacian(i, family))
                made[family] = lap
                slots.append((c, (i, family)))
                laps.append(lap)
                entries += lap.nrows ** 2
                if entries > _PENDING_ENTRIES:
                    _fill(slots, laps)
                    slots, laps, entries = [], [], 0
    _fill(slots, laps)


def _fill(slots, laps) -> None:
    for (c, key), chi in zip(slots, char_polys(laps)):
        c._chi[key] = chi


# ---------------------------------------------------------------------------
# spectral identities (all exact, all safe for non-integral spectra)


def ud_du_shift_holds(c: ChainComplex, i: int) -> bool:
    """Nonzero spectra of L^ud_i and L^du_{i+1} coincide."""
    a = c.char_polynomial(i, "ud").strip_valuation()
    if i + 1 > c.dim:
        return a == IntPoly([1])
    b = c.char_polynomial(i + 1, "du").strip_valuation()
    return a == b


def tot_split_holds(c: ChainComplex, i: int) -> bool:
    """Spectrum of L^tot_i is the disjoint union of the ud and du
    spectra, zeros aside: chi_ud * chi_du = chi_tot * y^n exactly."""
    chi_ud = c.char_polynomial(i, "ud")
    chi_du = c.char_polynomial(i, "du")
    chi_tot = c.char_polynomial(i, "tot")
    n = c.n_cells(i)
    return chi_ud * chi_du == chi_tot.shift(n)


def alternating_ud_holds(c: ChainComplex, i: int) -> bool:
    """Nonzero ud spectrum in dimension i equals the alternating-sign
    accumulation of total spectra in dimensions <= i, checked as a
    cross-multiplied characteristic-polynomial identity."""
    below = range(c.homology_range().start, i + 1)
    lhs = c.char_polynomial(i, "ud").strip_valuation()
    for j in below:
        chi = c.char_polynomial(j, "tot").strip_valuation()
        if (i - j) % 2:
            lhs = lhs * chi
    rhs = IntPoly([1])
    for j in below:
        if (i - j) % 2 == 0:
            rhs = rhs * c.char_polynomial(j, "tot").strip_valuation()
    return lhs == rhs


def euler_identity_holds(c: ChainComplex) -> bool:
    """Alternating cell-count sum against alternating Betti sum."""
    lhs = sum((-1) ** i * c.n_cells(i) for i in c.homology_range())
    rhs = sum((-1) ** i * c.betti(i) for i in c.homology_range())
    if not c.empty_cell:
        rhs += 1
    return lhs == rhs
