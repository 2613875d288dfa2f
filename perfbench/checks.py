"""Answers the benchmark computes itself, and the checks that use them.

Each check takes the program's parsed output and returns a list of error
strings, empty when the output is right.  Closed forms come from the
paper or from classical results; the rest are properties every correct
answer has (multiplicities sum to the side, eigenvalues sum to the trace,
the nonzero up-down and down-up spectra agree).  None of them replays an
earlier run of the program.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod


def cube_tot_spectrum(n: int, i: int) -> dict:
    """Total Laplacian of the n-cube in dimension i: eigenvalue 2j with
    multiplicity C(n, j) C(j, i), for i <= j <= n."""
    return {2 * j: comb(n, j) * comb(j, i) for j in range(i, n + 1)}


def cube_updown_spectrum(n: int, i: int, family: str) -> dict:
    """Nonzero part of the up-down (ud) or down-up (du) Laplacian of the
    n-cube in dimension i: eigenvalue 2j with multiplicity C(n, j)
    C(j-1, i) for ud and C(n, j) C(j-1, i-1) for du.  The two add up to
    the total spectrum by Pascal's rule, and ud_i matches du_{i+1}."""
    r = i if family == "ud" else i - 1
    out = {2 * j: comb(n, j) * comb(j - 1, r) for j in range(1, n + 1)} if r >= 0 else {}
    return {lam: m for lam, m in out.items() if m}


def cube_tree_count(n: int, k: int) -> int:
    """Torsion-weighted k-tree count of the n-cube, 1 <= k <= n:
    the product over j = k+1..n of (2j)^(C(n, j) C(j-2, k-1))."""
    return prod((2 * j) ** (comb(n, j) * comb(j - 2, k - 1))
                for j in range(k + 1, n + 1))


def multipartite_tree_count(a) -> int:
    """Spanning trees of the complete multipartite graph with parts of
    sizes a: N^(m-2) times the product of (N - a_i)^(a_i - 1), N = sum a."""
    n, m = sum(a), len(a)
    return n ** (m - 2) * prod((n - ai) ** (ai - 1) for ai in a)


def as_dict(pairs) -> dict:
    return {int(lam): int(m) for lam, m in pairs}


def nonzero(spec: dict) -> Counter:
    return Counter({lam: m for lam, m in spec.items() if lam})


def check_spectrum(pairs, side: int, trace: int, zeros: int | None = None) -> list:
    """Shape of one reported spectrum: distinct non-negative eigenvalues in
    increasing order with positive multiplicities that sum to the side,
    eigenvalue sum equal to the trace, and (when given) the expected
    number of zero eigenvalues, which is the Betti number."""
    if pairs is None:
        return ["spectrum is not integral"]
    errs = []
    lams = [lam for lam, _ in pairs]
    if lams != sorted(set(lams)) or any(lam < 0 for lam in lams):
        errs.append(f"eigenvalues not distinct, sorted and non-negative: {lams}")
    if any(m <= 0 for _, m in pairs):
        errs.append("non-positive multiplicity")
    total = sum(m for _, m in pairs)
    if total != side:
        errs.append(f"multiplicities sum to {total}, side is {side}")
    tr = sum(lam * m for lam, m in pairs)
    if tr != trace:
        errs.append(f"eigenvalue sum {tr} != trace {trace}")
    if zeros is not None and as_dict(pairs).get(0, 0) != zeros:
        errs.append(f"{as_dict(pairs).get(0, 0)} zero eigenvalues, Betti number {zeros}")
    return errs


def check_homology(rows, dims) -> list:
    """Every reduced Betti number 0 and every torsion order 1, one row per
    dimension: what any contractible complex has."""
    errs = []
    if [r["dim"] for r in rows] != list(dims):
        errs.append(f"homology rows for dims {[r['dim'] for r in rows]}")
    for r in rows:
        if r["betti"] != 0 or r["torsion"] != "1":
            errs.append(f"dim {r['dim']}: betti {r['betti']} torsion {r['torsion']}")
    return errs


def check_brute(report: dict, size: int, tau: int) -> list:
    """A brute-force tree report: every tree has the forced size and no
    repeated cell, the count matches the list, and the squared torsions
    add up to tau, which must equal the independent count."""
    errs = []
    trees = report["per_tree"]
    if report["trees"] != len(trees):
        errs.append(f"trees {report['trees']} != {len(trees)} listed")
    bad = [t["cells"] for t in trees if len(set(t["cells"])) != size]
    if bad:
        errs.append(f"{len(bad)} trees without {size} distinct cells")
    if len({tuple(sorted(t["cells"])) for t in trees}) != len(trees):
        errs.append("a tree is listed twice")
    squares = sum(int(t["torsion"]) ** 2 for t in trees)
    if squares != int(report["tau"]):
        errs.append(f"sum of squared torsions {squares} != tau {report['tau']}")
    if int(report["tau"]) != tau:
        errs.append(f"tau {report['tau']} != {tau}")
    return errs


def check_weighted(tau: dict, universe, unweighted: int) -> list:
    """A weighted 2-tree enumerator of a cubical complex.  Each face
    weighs one variable per direction (q where the face is free, x or y
    where it is pinned to 0 or 1), so every monomial, a product over the
    |T| faces of a tree, has exponents q_d + x_d + y_d = |T| in every
    direction d, and q exponents summing to 2|T|.  Every coefficient is
    positive, and setting all weights to 1 gives the unweighted count."""
    errs = []
    vs = tau["vars"]
    if sorted(vs) != sorted(f"{v}{d}" for d in universe for v in "qxy"):
        errs.append(f"variables {vs}")
        return errs
    pos = {v: j for j, v in enumerate(vs)}
    sizes = set()
    for t in tau["terms"]:
        e = t["exp"]
        per_dir = {sum(e[pos[f"{v}{d}"]] for v in "qxy") for d in universe}
        q_sum = sum(e[pos[f"q{d}"]] for d in universe)
        if len(per_dir) != 1 or q_sum != 2 * min(per_dir):
            errs.append(f"monomial {e} is not a product of square weights")
            break
        sizes |= per_dir
    if len(sizes) > 1:
        errs.append(f"trees of sizes {sorted(sizes)}")
    coefs = [int(t["coef"]) for t in tau["terms"]]
    if any(c <= 0 for c in coefs):
        errs.append("a coefficient is not positive")
    if sum(coefs) != unweighted:
        errs.append(f"value at weights 1 is {sum(coefs)}, want {unweighted}")
    return errs


def check_verify(out: dict, suite: str, min_rows: int) -> list:
    """A verify suite: its name, no hard failure, every hard row ok, and
    at least as many rows as the suite has always reported."""
    errs = []
    if out.get("suite") != suite:
        errs.append(f"suite {out.get('suite')!r}")
    if out.get("failed") != 0:
        errs.append(f"failed = {out.get('failed')}")
    bad = [c["name"] for c in out["checks"] if c["hard"] and not c["ok"]]
    if bad:
        errs.append(f"hard rows failed: {bad}")
    if len(out["checks"]) < min_rows:
        errs.append(f"{len(out['checks'])} rows, expected at least {min_rows}")
    return errs
