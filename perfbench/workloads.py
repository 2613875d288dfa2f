"""The three workloads: the CLI calls of one round, and their checks.

One operation is one call of ``cellspan.cli.main``.  Each job groups
the calls reported together as ``cli.<job>.s``.  ``check_round`` looks at
every output of a round at once, because some checks compare two calls
(the cube against its dual, ud against du).
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

import checks as ck

WORKLOADS = ("spectra-large", "tree-engines", "verify-corpus")

# (input, dimension, family) of every spectrum call in spectra-large:
# every total spectrum of the cube, the dual dimensions 6..3 of the
# colorful complex, ud_3 and du_4, which must agree away from zero, and
# one dimension of the mirror of the full simplex on six vertices, which
# is the 6-cube again but reaches the program as a cubical complex.
# Every side is at most 240, so no char_poly runs in the int64 regime
# above side 512 (one such call costs 40-90 s).
SPECTRA = ([("cube6", i, "tot") for i in range(7)]
           + [("cube6", 3, "ud"), ("cube6", 4, "du")]
           + [("colorful2x6", i, "tot") for i in range(-1, 3)]
           + [("mirror6", 3, "tot")])
HOMOLOGY_DIM = 3   # rank of d_3 (672 x 560), rank and SNF of d_4 (560 x 280)

# Cell counts per dimension (the (-1)-cell at key -1).
CUBE6_CELLS = {i: c for i, c in enumerate((64, 192, 240, 160, 60, 12, 1))}
COLORFUL2X6_CELLS = {i - 1: c for i, c in enumerate((1, 12, 60, 160, 240, 192, 64))}

# (input, n, k) of the matrix-tree calls: all k on the 5-cube, and the
# 6-cube at k = 3, where choosing U dominates.
MATRIX_TREE = (("cube6", 6, 3),) + tuple(("cube5", 5, k) for k in range(2, 6))
ALTERNATING = ("cube5", 5, 3)   # alternating product of eigenvalue products
COLORFUL_BRUTE = (1, 2, 2, 2)   # k = 1: C(18, 6) = 18564 candidate edge sets
VERIFY_SUITES = ("identities", "duality", "conjectures")
# Rows each suite reports at the commit that defined the benchmark; a
# suite may grow but not lose rows.
VERIFY_MIN_ROWS = {"identities": 5, "duality": 7, "conjectures": 10}


class Job(NamedTuple):
    group: str   # reported as cli.<group>.s
    key: tuple   # how check_round finds the output
    argv: tuple


def jobs(workload: str, seed: int, inputs: str) -> list:
    p = lambda name: os.path.join(inputs, name + ".json")
    if workload == "spectra-large":
        out = [Job(f"spectrum-{inp}", ("spectrum", inp, i, fam),
                   ("spectrum", "--input", p(inp), "--dim", str(i),
                    "--family", fam))
               for inp, i, fam in SPECTRA]
        out.append(Job("homology-cube7", ("homology",),
                       ("homology", "--input", p("cube7"),
                        "--dim", str(HOMOLOGY_DIM))))
        return out
    if workload == "tree-engines":
        out = [Job(f"trees-matrix-tree-{inp}", ("matrix-tree", n, k),
                   ("trees", "--input", p(inp), "--k", str(k),
                    "--method", "matrix-tree"))
               for inp, n, k in MATRIX_TREE]
        inp, n, k = ALTERNATING
        out.append(Job(f"trees-alternating-{inp}", ("alternating", n, k),
                       ("trees", "--input", p(inp), "--k", str(k),
                        "--method", "alternating-product")))
        out.append(Job("trees-brute-colorful", ("brute-colorful",),
                       ("trees", "--input", p("colorful"), "--k", "1",
                        "--method", "brute")))
        out.append(Job("trees-brute-rp2", ("brute-rp2",),
                       ("trees", "--input", p("rp2"), "--k", "2",
                        "--method", "brute")))
        out.append(Job("weighted-trees-ball4", ("weighted",),
                       ("weighted-trees", "--input", p("ball4"), "--k", "2")))
        return out
    if workload == "verify-corpus":
        return [Job(f"verify-{s}", ("verify", s),
                    ("verify", s, "--format", "json", "--seed", str(seed)))
                for s in VERIFY_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def job_groups() -> list:
    """Every job group of every workload, in a fixed order."""
    seen = []
    for w in WORKLOADS:
        for j in jobs(w, 0, ""):
            if j.group not in seen:
                seen.append(j.group)
    return seen


def check_round(workload: str, outputs: dict, inputs: str, run_cli) -> list:
    """Errors in one round's outputs.  outputs maps each job key that
    exited 0 to its parsed JSON; failed calls are counted elsewhere.
    run_cli(argv) -> (code, stdout) runs extra reference calls, outside
    the timed interval."""
    with open(os.path.join(inputs, "expect.json")) as fh:
        expect = json.load(fh)
    if workload == "spectra-large":
        return _check_spectra(outputs, expect)
    if workload == "tree-engines":
        return _check_trees(outputs, inputs, run_cli)
    return _check_verify(outputs)


def _check_spectra(out: dict, expect: dict) -> list:
    errs = []
    spec = {}
    for inp, i, fam in SPECTRA:
        key = ("spectrum", inp, i, fam)
        if key not in out:
            continue
        pairs = out[key]["spectrum"]
        side = (COLORFUL2X6_CELLS if inp == "colorful2x6" else CUBE6_CELLS)[i]
        zeros = None
        if fam == "tot":
            # Hodge: zeros of L^tot count homology.  The cube and the
            # mirror are contractible without a (-1)-cell: one zero, in
            # dimension 0.  The colorful complex is the 5-sphere with the
            # (-1)-cell stored: one zero, in dimension 5.
            zeros = int(i == (5 if inp == "colorful2x6" else 0))
        trace = expect["traces"][f"{inp}:{i}:{fam}"]
        errs += [f"{inp} dim {i} {fam}: {e}"
                 for e in ck.check_spectrum(pairs, side, trace, zeros)]
        if pairs is not None:
            spec[inp, i, fam] = ck.as_dict(pairs)
    for i in range(7):
        for inp in ("cube6", "mirror6"):
            got = spec.get((inp, i, "tot"))
            if got is not None and got != ck.cube_tot_spectrum(6, i):
                errs.append(f"{inp} dim {i} tot differs from the closed form")
        got = spec.get(("cube6", i, "tot"))
        dual = spec.get(("colorful2x6", 5 - i, "tot"))
        if got is not None and dual is not None and dual != got:
            errs.append(f"colorful2x6 dim {5 - i} tot != cube6 dim {i} tot")
    for i in (3, 4):
        for fam in ("ud", "du"):
            got = spec.get(("cube6", i, fam))
            if got is not None and ck.nonzero(got) != ck.cube_updown_spectrum(6, i, fam):
                errs.append(f"cube6 dim {i} {fam} differs from the closed form")
    ud3, du4 = spec.get(("cube6", 3, "ud")), spec.get(("cube6", 4, "du"))
    if ud3 is not None and du4 is not None and ck.nonzero(ud3) != ck.nonzero(du4):
        errs.append("cube6 nonzero ud_3 != nonzero du_4")
    if ("homology",) in out:
        errs += [f"cube7: {e}" for e in
                 ck.check_homology(out[("homology",)]["homology"], [HOMOLOGY_DIM])]
    return errs


def _check_trees(out: dict, inputs: str, run_cli) -> list:
    errs = []
    for method, (inp, n, k) in ([("matrix-tree", m) for m in MATRIX_TREE]
                                + [("alternating", ALTERNATING)]):
        rep = out.get((method, n, k))
        if rep is not None and int(rep["tau"]) != ck.cube_tree_count(n, k):
            errs.append(f"{inp} k={k} {method}: tau {rep['tau']} != closed form")
    rep = out.get(("brute-colorful",))
    if rep is not None:
        # k = 1: spanning trees of the complete multipartite graph, one
        # edge fewer than its vertices each, every torsion 1.
        errs += [f"colorful brute: {e}" for e in
                 ck.check_brute(rep, sum(COLORFUL_BRUTE) - 1,
                                ck.multipartite_tree_count(COLORFUL_BRUTE))]
        if reference_tau(run_cli, inputs, "colorful", 1) != rep["tau"]:
            errs.append("colorful: brute and matrix-tree engines disagree")
    rep = out.get(("brute-rp2",))
    if rep is not None:
        # one 2-cell attached by degree 2: the single 2-tree has torsion 2
        errs += [f"rp2 brute: {e}" for e in ck.check_brute(rep, 1, 4)]
    rep = out.get(("weighted",))
    if rep is not None:
        with open(os.path.join(inputs, "ball4.json")) as fh:
            universe = json.load(fh)["universe"]
        tau = reference_tau(run_cli, inputs, "ball4", 2)
        errs += [f"ball4 weighted: {e}" for e in
                 ck.check_weighted(rep["tau"], universe, int(tau or -1))]
    return errs


def reference_tau(run_cli, inputs: str, name: str, k: int):
    """tau from the unweighted matrix-tree engine, run outside the timed
    interval; None when it fails."""
    code, text = run_cli(("trees", "--input", os.path.join(inputs, name + ".json"),
                          "--k", str(k), "--method", "matrix-tree"))
    return json.loads(text)["tau"] if code == 0 else None


def _check_verify(out: dict) -> list:
    errs = []
    for s in VERIFY_SUITES:
        if ("verify", s) in out:
            errs += [f"verify {s}: {e}" for e in
                     ck.check_verify(out[("verify", s)], s, VERIFY_MIN_ROWS[s])]
    return errs
