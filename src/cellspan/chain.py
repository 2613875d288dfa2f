"""Chain complexes over the integers.

A complex stores ordered cell labels per dimension and integer boundary
matrices.  An optional (-1)-dimensional cell turns on an explicit
augmentation row, stored as the dimension-0 boundary.

The one convention that everything downstream leans on: reduced
homology in dimension 0 is always computed against an augmentation (the
stored row, or an implicit all-ones row when no (-1)-cell is present),
whereas the down-up Laplacian in dimension 0 uses only the *stored*
boundary and is therefore zero for complexes without a (-1)-cell.
"""

from __future__ import annotations

import json

from .exact import (
    IntMatrix,
    IntPoly,
    LaurentPoly,
    NotIntegral,
    char_poly,
    integer_roots,
    rank_exact,
    smith_normal_form,
    sparse_columns,
)

FAMILIES = ("ud", "du", "tot")


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
    carrying the characteristic polynomial; every comparison method
    falls back to characteristic polynomials so non-integral spectra
    are first-class values, never errors.
    """

    __slots__ = ("dim", "family", "eigs", "size", "_chi")

    def __init__(self, dim: int, family: str, eigs, size: int, chi: IntPoly):
        self.dim = dim
        self.family = family
        self.eigs = eigs
        self.size = size
        self._chi = chi

    def is_integral(self) -> bool:
        return not isinstance(self.eigs, NotIntegral)

    def charpoly(self) -> IntPoly:
        return self._chi

    def stripped_charpoly(self) -> IntPoly:
        """Characteristic polynomial with all zero roots removed."""
        return self._chi.strip_valuation()

    def items(self):
        if not self.is_integral():
            raise ValueError("spectrum is not integral")
        return sorted(self.eigs.items())

    def multiset(self) -> tuple:
        """All eigenvalues, weakly increasing, zeros included."""
        out = []
        for lam, m in self.items():
            out.extend([lam] * m)
        return tuple(out)

    def nonzero_multiset(self) -> tuple:
        return tuple(x for x in self.multiset() if x)

    def q_poly(self) -> LaurentPoly:
        """Sum of q^eigenvalue over the spectrum, multiplicities counted."""
        return LaurentPoly(("q",), {(lam,): m for lam, m in self.items()})

    def q_poly_nonzero(self) -> LaurentPoly:
        p = self.q_poly()
        return LaurentPoly(("q",), {e: c for e, c in p.terms.items() if e != (0,)})

    def dot_equal(self, other: "SpectrumGF") -> bool:
        """Equality of nonzero eigenvalue multisets (works non-integrally)."""
        return self.stripped_charpoly() == other.stripped_charpoly()

    def __repr__(self):
        tag = f"s^{self.family}_{self.dim}"
        if self.is_integral():
            return f"{tag} {dict(self.items())}"
        return f"{tag} NotIntegral({self._chi})"


class ChainComplex:
    """Immutable chain complex with ordered, labeled cells."""

    def __init__(self, cells, boundaries, empty_cell: bool = False, check: bool = True):
        """cells: {dim: labels}; boundaries: {i: IntMatrix or rows} for
        1 <= i <= d, plus key 0 holding the augmentation row when
        empty_cell is set."""
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
            if not isinstance(m, IntMatrix):
                m = IntMatrix(m, ncols=len(cleaned.get(i, ())))
            bnd[i] = m
        self.bnd = bnd
        self._spec: dict = {}
        self._chi: dict = {}
        self._hom: dict = {}
        self._rank: dict = {}
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
        lo = -1 if self.empty_cell else 0
        return [i for i in range(lo, self.dim + 1) if self.n_cells(i)]

    def boundary(self, i: int) -> IntMatrix:
        """Stored boundary C_i -> C_{i-1}; correctly-shaped zero matrix
        out of range.  Without a (-1)-cell the dimension-0 boundary is
        the zero map."""
        m = self.bnd.get(i)
        if m is not None:
            return m
        nr, nc = self.n_cells(i - 1), self.n_cells(i)
        return IntMatrix([()] * nr, ncols=nc) if nc == 0 else IntMatrix.zeros(nr, nc)

    def homology_boundary(self, i: int) -> IntMatrix:
        """Boundary used for reduced homology: dimension 0 gets the
        implicit all-ones augmentation when no (-1)-cell is stored."""
        if i == 0 and not self.empty_cell:
            n0 = self.n_cells(0)
            return IntMatrix([[1] * n0]) if n0 else IntMatrix([], ncols=0)
        return self.boundary(i)

    # -- validation

    def validate(self):
        """None when consistent; else the first offending (i, row, col)
        of a nonzero product entry in boundary(i) * boundary(i+1),
        scanning i upward.  Shape and label problems raise directly."""
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
        lo = 0 if self.empty_cell else 1
        cols = [sparse_columns(self.boundary(i)) for i in range(lo, self.dim + 2)]
        for i in range(lo, self.dim + 1):
            below, above = cols[i - lo], cols[i - lo + 1]
            # column c of the product, summed over the nonzeros of
            # column c of the upper boundary; keep the least (row, col)
            bad = None
            for c, col in enumerate(above):
                acc: dict = {}
                for k, a in col.items():
                    for r, b in below[k].items():
                        acc[r] = acc.get(r, 0) + a * b
                r = min((r for r, v in acc.items() if v), default=None)
                if r is not None and (bad is None or r < bad[0]):
                    bad = (r, c)
            if bad is not None:
                return (i,) + bad
        return None

    # -- homology

    def _check_dim(self, i: int) -> None:
        lo = -1 if self.empty_cell else 0
        if not (lo <= i <= self.dim):
            raise ValueError(f"dimension {i} out of range [{lo}, {self.dim}]")

    def _boundary_rank(self, i: int) -> int:
        """Rank of homology_boundary(i), computed once per boundary."""
        if i not in self._rank:
            self._rank[i] = rank_exact(self.homology_boundary(i))
        return self._rank[i]

    def homology(self, i: int) -> HomologySummary:
        self._check_dim(i)
        if i not in self._hom:
            # the invariant factors give the rank of the boundary too
            factors = smith_normal_form(self.homology_boundary(i + 1))
            self._rank.setdefault(i + 1, len(factors))
            torsion = 1
            for f in factors:
                if f > 1:
                    torsion *= f
            self._hom[i] = HomologySummary(i, self.betti(i), torsion)
        return self._hom[i]

    def betti(self, i: int) -> int:
        """Reduced Betti number from the boundary ranks alone."""
        self._check_dim(i)
        return self.n_cells(i) - self._boundary_rank(i) - self._boundary_rank(i + 1)

    def torsion_order(self, i: int) -> int:
        return self.homology(i).torsion

    def homology_range(self):
        lo = -1 if self.empty_cell else 0
        return range(lo, self.dim + 1)

    def is_apc(self) -> bool:
        """All reduced Betti numbers vanish below the top dimension."""
        return all(self.betti(j) == 0 for j in self.homology_range() if j < self.dim)

    def apc_below(self, k: int) -> bool:
        return all(self.betti(j) == 0 for j in self.homology_range() if j < k)

    def z_apc_below(self, k: int) -> bool:
        """Vanishing integer homology (Betti and torsion) below k."""
        return all(self.betti(j) == 0 and self.torsion_order(j) == 1
                   for j in self.homology_range() if j < k)

    def torsion_product_below(self, k: int) -> int:
        out = 1
        for j in self.homology_range():
            if j < k:
                out *= self.torsion_order(j)
        return out

    # -- Laplacians and spectra

    def laplacian(self, i: int, family: str) -> IntMatrix:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self._check_dim(i)
        if family == "ud":
            b = self.boundary(i + 1)
            return b * b.transpose()
        if family == "du":
            b = self.boundary(i)
            return b.transpose() * b
        return self.laplacian(i, "ud") + self.laplacian(i, "du")

    def char_polynomial(self, i: int, family: str) -> IntPoly:
        key = (i, family)
        if key not in self._chi:
            self._chi[key] = char_poly(self.laplacian(i, family))
        return self._chi[key]

    def spectrum(self, i: int, family: str) -> SpectrumGF:
        key = (i, family)
        if key not in self._spec:
            chi = self.char_polynomial(i, family)
            self._spec[key] = SpectrumGF(i, family, integer_roots(chi), chi.degree, chi)
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

    @staticmethod
    def _nonzero_eig_product(chi: IntPoly) -> int:
        v = chi.valuation()
        rank = chi.degree - v
        c = chi.coeff(v)
        return c if rank % 2 == 0 else -c

    def pi(self, k: int) -> int:
        """Product of the nonzero eigenvalues of the up-down Laplacian
        one dimension below k.  pi(0) is the vertex count (via the
        augmentation Laplacian when an empty cell exists); pi(-1) = 1."""
        if k == -1:
            return 1
        if k == 0:
            if self.empty_cell:
                return self._nonzero_eig_product(self.char_polynomial(-1, "ud"))
            n0 = self.n_cells(0)
            return n0 if n0 else 1
        if k - 1 > self.dim:
            return 1
        return self._nonzero_eig_product(self.char_polynomial(k - 1, "ud"))

    def omega(self, k: int) -> int:
        """Product of the nonzero eigenvalues of the total Laplacian."""
        self._check_dim(k)
        return self._nonzero_eig_product(self.char_polynomial(k, "tot"))

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
            bnd[k] = self.boundary(k).columns_subset(idx)
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
        lo = -1 if self.empty_cell else 0
        for i in range(lo, self.dim + 1):
            j = d - i
            if j >= 0 and self.n_cells(i):
                src = self.labels(i) if i >= 0 else ("",)
                cells[j] = tuple(f + "*" for f in src)
        empty = d - self.dim == -1
        bnd = {}
        top = d - lo
        for j in range(0 if empty else 1, top + 1):
            m = self.boundary(d - j + 1).transpose()
            if m.nrows or m.ncols:
                bnd[j] = m
        return ChainComplex(cells, bnd, empty_cell=empty, check=False)

    # -- serialization

    def to_json_dict(self) -> dict:
        d = self.dim
        cells = [list(self.labels(i)) for i in range(d + 1)]
        boundary = {}
        for i in sorted(self.bnd):
            boundary[str(i)] = [[str(v) for v in row] for row in self.bnd[i].rows]
        return {"dims": d, "cells": cells, "boundary": boundary, "empty_cell": self.empty_cell}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict, check: bool = True) -> "ChainComplex":
        cells = {i: tuple(ls) for i, ls in enumerate(data.get("cells", []))}
        bnd = {}
        for key, rows in data.get("boundary", {}).items():
            i = int(key)
            ncols = len(cells.get(i, ())) if i != -1 else 0
            bnd[i] = IntMatrix(rows, ncols=ncols)
        return cls(cells, bnd, empty_cell=bool(data.get("empty_cell", False)), check=check)

    @classmethod
    def from_json(cls, text: str, check: bool = True) -> "ChainComplex":
        return cls.from_json_dict(json.loads(text), check=check)

    def __repr__(self):
        counts = ",".join(str(self.n_cells(i)) for i in range(self.dim + 1))
        e = "+empty" if self.empty_cell else ""
        return f"ChainComplex(dim={self.dim}, cells=({counts}){e})"


# ---------------------------------------------------------------------------
# constructions


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
        a, b = c1.boundary(i), c2.boundary(i)
        if a.ncols + b.ncols == 0:
            continue
        rows = [list(r) + [0] * b.ncols for r in a.rows]
        rows += [[0] * a.ncols + list(r) for r in b.rows]
        bnd[i] = IntMatrix(rows, ncols=a.ncols + b.ncols)
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
        nr = len(cells.get(k - 1, ()))
        nc = len(cells.get(k, ()))
        if nc == 0:
            continue
        rows = [[0] * nc for _ in range(nr)]
        col = 0
        for i in range(0, k + 1):
            b1 = c1.boundary(i)
            b2 = c2.boundary(k - i)
            for fi, f in enumerate(c1.labels(i)):
                for gi, g in enumerate(c2.labels(k - i)):
                    for r in range(b1.nrows):
                        e = b1.entry(r, fi)
                        if e:
                            rows[index[pair(c1.labels(i - 1)[r], g)][1]][col] += e
                    sign = -1 if i % 2 else 1
                    for r in range(b2.nrows):
                        e = b2.entry(r, gi)
                        if e:
                            rows[index[pair(f, c2.labels(k - i - 1)[r])][1]][col] += sign * e
                    col += 1
        bnd[k] = IntMatrix(rows, ncols=nc)
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
        b1, b2 = c1.boundary(i), c2.boundary(i)
        rmap = maps.get(i - 1, [0] * b1.nrows)  # i=0: single aug row
        cmap = maps[i]
        for r in range(b1.nrows):
            for c in range(b1.ncols):
                if b1.entry(r, c) != b2.entry(rmap[r] if i > 0 else r, cmap[c]):
                    return False
    return True


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
    lo = -1 if c.empty_cell else 0
    lhs = c.char_polynomial(i, "ud").strip_valuation()
    for j in range(lo, i + 1):
        chi = c.char_polynomial(j, "tot").strip_valuation()
        if (i - j) % 2:
            lhs = lhs * chi
    rhs = IntPoly([1])
    for j in range(lo, i + 1):
        if (i - j) % 2 == 0:
            rhs = rhs * c.char_polynomial(j, "tot").strip_valuation()
    return lhs == rhs


def euler_identity_holds(c: ChainComplex) -> bool:
    """Alternating cell-count sum against alternating Betti sum."""
    lo = -1 if c.empty_cell else 0
    lhs = sum((-1) ** i * c.n_cells(i) for i in range(lo, c.dim + 1))
    rhs = sum((-1) ** i * c.betti(i) for i in range(lo, c.dim + 1))
    if not c.empty_cell:
        rhs += 1
    return lhs == rhs
