"""Command-line surface.

Inputs are JSON files or inline generators (cube:n, colorful:a1,a2,...,
rp2, mirror:path).  Output is deterministic: JSON with sorted keys and
compact separators, or aligned text tables.  Exit codes: 0 success,
2 validation error, 3 cap exceeded, 4 hard identity failure in verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .chain import FAMILIES, ChainComplex, as_int, as_list
from .colorful import (colorful_complex, colorful_etot, colorful_omega,
                       colorful_spec_poly, colorful_tree_count,
                       cross_polytope_cube_duality, weighted_duality_check)
from .corpus import rp2
from .cubical import CubicalComplex, cube, mirror, shifted_spectrum, spectrum_direct
from .trees import (BRUTE_CAP, METHODS, WEIGHTED_METHODS, CapExceeded, TreeQuery,
                    _as_chain, f_recurrence_check, run_query, verify_conjecture)
from .verify import SUITES, VERIFY_CAP

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_FAILURE = 4


class CliError(Exception):
    """A validation error found by the CLI itself: exit 2."""


def _cap(args, default: int) -> int:
    """--cap, else CELLSPAN_CAP (read only when --cap is absent), else
    default."""
    if args.cap is not None:
        if args.cap < 1:
            raise CliError("--cap must be positive")
        return args.cap
    raw = os.environ.get("CELLSPAN_CAP")
    try:
        v = default if raw is None else int(raw)
        if v < 1:
            raise ValueError
        return v
    except ValueError:
        raise CliError(f"CELLSPAN_CAP must be a positive integer, got {raw!r}")


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON: {e}")


def _mirror_from_dict(data: dict) -> CubicalComplex:
    try:
        n = as_int(data["vertices"], "vertex count")
        facets = [tuple(as_int(v, "facet vertex") for v in as_list(f, f"facet {j}"))
                  for j, f in enumerate(as_list(data["facets"], "facets"))]
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"mirror input needs vertices and facets: {e}")
    try:
        return mirror(n, facets)
    except ValueError as e:
        raise CliError(str(e))


def _colorful_sizes(spec: str) -> tuple:
    """The class sizes of a colorful:a1,a2,... generator."""
    try:
        return tuple(int(v) for v in spec[9:].split(","))
    except ValueError:
        raise CliError(f"bad colorful generator {spec!r}")


def load_input(spec: str):
    """Generator string or JSON path -> ChainComplex or CubicalComplex."""
    if spec == "rp2":
        return rp2()
    if spec.startswith("cube:"):
        try:
            n = int(spec[5:])
        except ValueError:
            raise CliError(f"bad cube generator {spec!r}")
        return cube(n, cap=10)
    if spec.startswith("colorful:"):
        return colorful_complex(_colorful_sizes(spec))
    if spec.startswith("mirror:"):
        return _mirror_from_dict(_read_json(spec[7:]))
    data = _read_json(spec)
    try:
        if isinstance(data, dict):
            if "universe" in data:
                return CubicalComplex.from_json_dict(data)
            if "vertices" in data and "facets" in data:
                return _mirror_from_dict(data)
        return ChainComplex.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"invalid complex in {spec}: {e}")


def _need_cubical(x) -> CubicalComplex:
    if not isinstance(x, CubicalComplex):
        raise CliError("this subcommand needs a cubical complex "
                       "(faces over {0,1,*})")
    return x


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_table(rows) -> None:
    """Rows of tuples, read once, columns padded to equal width."""
    rows = [tuple(str(c) for c in row) for row in rows]
    if not rows:
        return
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


# ---------------------------------------------------------------------------
# subcommands: each returns (the JSON object, its tables as lists of rows,
# the exit code); main prints the one that --format names.


def cmd_spectrum(args) -> tuple:
    c = _as_chain(load_input(args.input))
    if args.dim is None:
        raise CliError("spectrum needs --dim")
    s = c.spectrum(args.dim, args.family)
    if s.is_integral():
        items = s.items()
        return {"spectrum": items}, [[("eigenvalue", "multiplicity")] + items], EXIT_OK
    coeffs = [str(s.charpoly().coeff(j))
              for j in range(s.charpoly().degree + 1)]
    header = ("spectrum is not integral; characteristic polynomial "
              "coefficients (ascending):",)
    return ({"spectrum": None, "charpoly": coeffs},
            [[header], [(f"y^{j}", c) for j, c in enumerate(coeffs)]], EXIT_OK)


def cmd_homology(args) -> tuple:
    c = _as_chain(load_input(args.input))
    dims = [args.dim] if args.dim is not None else c.homology_range()
    rows = []
    for i in dims:
        h = c.homology(i)
        rows.append({"dim": i, "betti": h.betti, "torsion": str(h.torsion)})
    table = ([("dim", "betti", "torsion")]
             + [(r["dim"], r["betti"], r["torsion"]) for r in rows])
    return {"homology": rows}, [table], EXIT_OK


def _tree_query(args) -> TreeQuery:
    x = load_input(args.input)
    if args.k is None:
        raise CliError("trees need --k")
    return TreeQuery(x, args.k, method=args.method or "matrix-tree",
                     weighted=args.weighted, cap=_cap(args, BRUTE_CAP))


def cmd_trees(args) -> tuple:
    rep = run_query(_tree_query(args))
    out = rep.to_json_dict()
    if args.weighted:
        tau = out["tau"]
        terms = ((_fmt_exp(t["exp"], tau["vars"]), t["coef"]) for t in tau["terms"])
        return out, [[("method", rep.method)], terms], EXIT_OK
    rows = [("tau", rep.tau), ("method", rep.method)]
    if rep.trees is not None:
        rows.append(("trees", rep.trees))
    if rep.u_cells is not None:
        rows.append(("U", " ".join(rep.u_cells) or "-"))
    return out, [rows], EXIT_OK


def _fmt_exp(exp, vars) -> str:
    parts = [f"{v}^{e}" for v, e in zip(vars, exp) if e]
    return "*".join(parts) if parts else "1"


def cmd_conjecture(args) -> tuple:
    if args.n is None or args.k is None:
        raise CliError("conjecture needs --n and --k")
    cap = _cap(args, BRUTE_CAP)
    rep = verify_conjecture(args.n, args.k, cap=cap)
    if args.n >= 2 and args.n - 2 <= args.k <= args.n - 1:
        rep["f_recurrence"] = f_recurrence_check(args.n, args.k)["holds"]
    else:
        rep["f_recurrence"] = None
    return rep, [[("status", "equal" if rep["equal"] else "counterexample"),
                  ("trees", rep["trees"]),
                  ("f-recurrence", rep["f_recurrence"])]], EXIT_OK


def cmd_colorful(args) -> tuple:
    spec = args.input
    if not spec.startswith("colorful:"):
        raise CliError("colorful subcommand needs --input colorful:a1,a2,...")
    a = _colorful_sizes(spec)
    colorful_complex(a)
    n = len(a)
    out = {
        "a": list(a),
        "spec_poly": colorful_spec_poly(a).to_json_dict(),
        "etot": {str(i): [[e, m] for e, m in sorted(colorful_etot(a, i).items())]
                 for i in range(-1, n)},
        "omega": {str(i): str(colorful_omega(a, i)) for i in range(n)},
        "tau": {str(k): str(colorful_tree_count(a, k)) for k in range(n)},
    }
    # each dict's keys were inserted in ascending order
    rows = [("tau", k, v) for k, v in out["tau"].items()]
    rows += [("omega", k, v) for k, v in out["omega"].items()]
    rows += [("etot", k, " ".join(f"{e}:{m}" for e, m in v))
             for k, v in out["etot"].items()]
    return out, [rows], EXIT_OK


def cmd_dual(args) -> tuple:
    if args.n is None:
        raise CliError("dual needs --n")
    rep = cross_polytope_cube_duality(args.n, seed=args.seed)
    if args.n <= 3:
        rep["weighted_match"] = weighted_duality_check(args.n, seed=args.seed)
    else:
        rep["weighted_match"] = None
    return rep, [sorted(rep.items())], EXIT_OK


def cmd_shifted_check(args) -> tuple:
    x = _need_cubical(load_input(args.input))
    out = {"is_shifted": x.is_shifted(), "pure": x.is_pure()}
    try:
        out["direct"] = list(spectrum_direct(x))
    except ValueError:
        # a non-integral spectrum has no integer sequence
        out["direct"] = None
    try:
        rec = list(shifted_spectrum(x))
        out["recursion"] = rec
        out["match"] = rec == out["direct"]
    except ValueError as e:
        out["recursion"] = None
        out["match"] = None
        out["error"] = str(e)
    out["near_prisms"] = [{"direction": i, "holds": bool(x.near_prism(i).holds)}
                          for i in x.universe]
    rows = [(k, out[k]) for k in ("is_shifted", "pure", "recursion",
                                  "direct", "match", "error") if k in out]
    rows += [(f"near-prism dir {d['direction']}", d["holds"])
             for d in out["near_prisms"]]
    return out, [rows], EXIT_OK


def _mirror_rows(x):
    """The mirror table, counted only when it is printed."""
    yield "universe", " ".join(map(str, x.universe))
    for i in range(x.dim + 1):
        yield f"dim {i}", x.n_faces(i)


def cmd_mirror(args) -> tuple:
    x = load_input(args.input)
    x = _need_cubical(x)
    return x.to_json_dict(), [_mirror_rows(x)], EXIT_OK


def cmd_verify(args) -> tuple:
    if args.suite not in SUITES:
        raise CliError(f"unknown suite {args.suite!r}; "
                       f"choose from {', '.join(sorted(SUITES))}")
    cap = _cap(args, VERIFY_CAP)
    rows = SUITES[args.suite](cap=cap, seed=args.seed)
    hard_failures = [r for r in rows if not r.ok and r.hard]
    out = {"suite": args.suite,
           "checks": [{"name": r.name, "ok": r.ok, "hard": r.hard,
                       "detail": r.detail} for r in rows],
           "failed": len(hard_failures)}
    # one column: every detail ends in a non-space, so rstrip keeps it
    lines = ((f"[{'PASS' if r.ok else 'FAIL'}] {r.name}: {r.detail}",) for r in rows)
    return out, [lines], EXIT_FAILURE if hard_failures else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cellspan",
        description="Exact Laplacian spectra, homology, and spanning-tree "
                    "enumeration for cell complexes.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, input_flag=True):
        if input_flag:
            sp.add_argument("--input", required=True,
                            help="JSON file or generator "
                                 "(cube:n | colorful:a1,a2,... | rp2 | mirror:file)")
        sp.add_argument("--format", choices=("json", "table"), default="json")

    sp = sub.add_parser("spectrum", help="Laplacian spectrum in one dimension")
    common(sp)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--family", choices=FAMILIES, default="tot")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("homology", help="reduced homology (betti, torsion)")
    common(sp)
    sp.add_argument("--dim", type=int)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("trees", help="spanning tree enumeration")
    common(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--method", choices=METHODS)
    sp.add_argument("--cap", type=int)
    sp.set_defaults(fn=cmd_trees, weighted=False)

    sp = sub.add_parser("weighted-trees",
                        help="weighted tree enumerator (cubical complexes)")
    common(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--method", choices=WEIGHTED_METHODS)
    sp.add_argument("--cap", type=int)
    sp.set_defaults(fn=cmd_trees, weighted=True)

    sp = sub.add_parser("conjecture",
                        help="weighted cube enumerator vs closed-form candidate")
    common(sp, input_flag=False)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--cap", type=int)
    sp.set_defaults(fn=cmd_conjecture)

    sp = sub.add_parser("colorful", help="closed forms for colorful complexes")
    common(sp)
    sp.set_defaults(fn=cmd_colorful)

    sp = sub.add_parser("dual", help="cube / cross-polytope duality report")
    common(sp, input_flag=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("shifted-check",
                        help="shifted spectrum recursion vs direct computation")
    common(sp)
    sp.set_defaults(fn=cmd_shifted_check)

    sp = sub.add_parser("mirror", help="mirror of a simplicial complex")
    common(sp)
    sp.set_defaults(fn=cmd_mirror)

    sp = sub.add_parser("verify", help="run a property suite over the corpus")
    sp.add_argument("suite")
    sp.add_argument("--format", choices=("json", "table"), default="table")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int)
    sp.set_defaults(fn=cmd_verify)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves it as it
    was, and help text reads the terminal width when it is printed."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result, tables, code = args.fn(args)
        if args.format == "json":
            _emit_json(result)
        else:
            for rows in tables:
                _emit_table(rows)
        return code
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
