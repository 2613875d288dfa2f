"""Seeded benchmark inputs, built without the program's own constructors.

Every complex is generated here from its definition, then each
dimension's cells are shuffled and re-oriented (random sign flips) with
a generator seeded by the workload seed, and written as the chain-complex
JSON the ``cellspan`` command reads.  A signed permutation is a change of
basis that preserves the boundary relation, so spectra, homology and tree
counts are the same for every seed; only the matrices the program sees
differ.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from workloads import COLORFUL_BRUTE, SPECTRA


class Complex:
    """Cells per dimension and dense integer boundaries, as written out.

    ``bnd[i]`` maps the i-cells to the (i-1)-cells.  With ``empty_cell``
    set, ``bnd[0]`` is the augmentation row onto the (-1)-cell.
    """

    def __init__(self, cells: dict, bnd: dict, empty_cell: bool = False):
        self.cells = cells
        self.bnd = bnd
        self.empty_cell = empty_cell

    @property
    def dim(self) -> int:
        return max(self.cells)

    def to_json_dict(self) -> dict:
        return {"dims": self.dim,
                "cells": [list(self.cells[i]) for i in range(self.dim + 1)],
                "boundary": {str(i): m for i, m in sorted(self.bnd.items())},
                "empty_cell": self.empty_cell}

    def laplacian_trace(self, i: int, family: str) -> int:
        """Trace of L^ud_i = d_{i+1} d_{i+1}^T or L^du_i = d_i^T d_i: the
        sum of squared entries of the boundary involved."""
        if family == "tot":
            return self.laplacian_trace(i, "ud") + self.laplacian_trace(i, "du")
        m = self.bnd.get(i + 1 if family == "ud" else i, [])
        return sum(v * v for row in m for v in row)


def cube_complex(n: int) -> Complex:
    """The n-cube: faces are words over {0, 1, *}, the dimension of a face
    is its number of stars, and pinning the j-th star (1-based) to 1 or
    to 0 enters the boundary with sign (-1)^(j-1) or -(-1)^(j-1)."""
    by_dim: dict = {i: [] for i in range(n + 1)}
    for word in itertools.product("01*", repeat=n):
        f = "".join(word)
        by_dim[f.count("*")].append(f)
    bnd = {}
    for i in range(1, n + 1):
        row_of = {f: r for r, f in enumerate(by_dim[i - 1])}
        m = [[0] * len(by_dim[i]) for _ in by_dim[i - 1]]
        for c, g in enumerate(by_dim[i]):
            j = 0
            for pos, ch in enumerate(g):
                if ch == "*":
                    s = 1 if j % 2 == 0 else -1
                    j += 1
                    m[row_of[g[:pos] + "1" + g[pos + 1:]]][c] = s
                    m[row_of[g[:pos] + "0" + g[pos + 1:]]][c] = -s
        bnd[i] = m
    return Complex({i: tuple(fs) for i, fs in by_dim.items()}, bnd)


def colorful_complex(a) -> Complex:
    """Complete colorful complex on classes of sizes a: every vertex set
    meeting each class at most once, the empty set stored as the
    (-1)-cell.  A face is a tuple of (class, index) vertices in class
    order, and deleting its r-th vertex enters with sign (-1)^r."""
    n = len(a)
    by_dim: dict = {}
    for d in range(n):
        faces = []
        for ks in itertools.combinations(range(n), d + 1):
            for js in itertools.product(*[range(a[k]) for k in ks]):
                faces.append(tuple(zip(ks, js)))
        by_dim[d] = faces
    bnd = {0: [[1] * len(by_dim[0])]}
    for d in range(1, n):
        row_of = {f: r for r, f in enumerate(by_dim[d - 1])}
        m = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for c, face in enumerate(by_dim[d]):
            for r in range(len(face)):
                m[row_of[face[:r] + face[r + 1:]]][c] = -1 if r % 2 else 1
        bnd[d] = m
    label = lambda f: "-".join(f"v{k + 1}_{j + 1}" for k, j in f)
    return Complex({d: tuple(label(f) for f in fs) for d, fs in by_dim.items()},
                   bnd, empty_cell=True)


def rp2_complex() -> Complex:
    """The projective plane with one cell per dimension; the 2-cell
    wraps twice around the 1-cell, so H_1 = Z/2."""
    return Complex({0: ("v",), 1: ("e",), 2: ("f",)},
                   {1: [[0]], 2: [[2]]})


def relabel(c: Complex, rng: random.Random) -> Complex:
    """Shuffle the cells of each dimension and flip the orientation of a
    random half of them.  The (-1)-cell keeps its orientation."""
    perm, sign = {}, {}
    for i in range(c.dim + 1):
        n = len(c.cells[i])
        perm[i] = rng.sample(range(n), n)
        sign[i] = [rng.choice((1, -1)) for _ in range(n)]
    perm[-1], sign[-1] = [0], [1]
    cells = {i: tuple(c.cells[i][p] for p in perm[i]) for i in c.cells}
    bnd = {}
    for i, m in c.bnd.items():
        rp, rs, cp, cs = perm[i - 1], sign[i - 1], perm[i], sign[i]
        bnd[i] = [[rs[r] * cs[k] * m[rp[r]][cp[k]] for k in range(len(cp))]
                  for r in range(len(rp))]
    return Complex(cells, bnd, c.empty_cell)


def ball4_cubical(rng: random.Random) -> dict:
    """A 3-ball in the 4-cube, k = 2 sized for det_ring: the four facets
    through the corner 0000 plus the facet opposite one of them, as
    cubical-complex JSON.  The program orders faces itself, so the seed
    picks the direction labels (distinct positive integers, which name
    the weight variables) and the order the facets are listed in; the
    faces, and the work, are the same for every seed."""
    universe = sorted(rng.sample(range(1, 41), 4))
    facets = ["0***", "*0**", "**0*", "***0", "***1"]
    rng.shuffle(facets)
    return {"universe": universe, "faces": facets}


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))


def make_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write the workload's input files into out_dir, and expect.json
    with what the checks need that only the written matrices know: the
    trace of every Laplacian a spectrum job asks for."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    complexes = {}

    def chain(name: str, c: Complex) -> None:
        complexes[name] = c = relabel(c, rng)
        write_json(os.path.join(out_dir, name + ".json"), c.to_json_dict())

    if workload == "spectra-large":
        chain("cube6", cube_complex(6))
        chain("colorful2x6", colorful_complex((2,) * 6))
        chain("cube7", cube_complex(7))
        # the mirror of the full simplex is the full cube; the seed orders
        # the vertices of its one facet
        write_json(os.path.join(out_dir, "mirror6.json"),
                   {"vertices": 6, "facets": [rng.sample(range(1, 7), 6)]})
        complexes["mirror6"] = cube_complex(6)
    elif workload == "tree-engines":
        chain("cube6", cube_complex(6))
        chain("cube5", cube_complex(5))
        chain("colorful", colorful_complex(COLORFUL_BRUTE))
        chain("rp2", rp2_complex())
        write_json(os.path.join(out_dir, "ball4.json"), ball4_cubical(rng))
    elif workload != "verify-corpus":
        raise ValueError(f"unknown workload {workload!r}")
    traces = {f"{inp}:{i}:{fam}": complexes[inp].laplacian_trace(i, fam)
              for inp, i, fam in SPECTRA if inp in complexes}
    write_json(os.path.join(out_dir, "expect.json"), {"traces": traces})
