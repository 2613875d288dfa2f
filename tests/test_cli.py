"""End-to-end command line behavior: frozen outputs, exit codes,
deterministic bytes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import cellspan
from cellspan import exact
from cellspan.chain import ChainComplex
from cellspan.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_cube2_json_oracle(capsys):
    rc, out, _ = run(capsys, "spectrum", "--input", "cube:2", "--dim", "1",
                     "--family", "tot", "--format", "json")
    assert rc == 0
    assert out == '{"spectrum":[[2,2],[4,2]]}\n'


def test_spectrum_table(capsys):
    rc, out, _ = run(capsys, "spectrum", "--input", "cube:2", "--dim", "1",
                     "--family", "tot", "--format", "table")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["eigenvalue", "multiplicity"]
    assert lines[1].split() == ["2", "2"]
    assert lines[2].split() == ["4", "2"]


def path4(tmp_path):
    bnd = [[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1]]
    c = ChainComplex({0: ("1", "2", "3", "4"), 1: ("12", "23", "34")},
                     {1: bnd})
    p = tmp_path / "p4.json"
    p.write_text(json.dumps(c.to_json_dict()))
    return str(p)


@pytest.mark.parametrize("weight, eigenvalue", [
    (3000, 18_000_000), (10_000, 200_000_000), (10**30, 2 * 10**60)])
def test_spectrum_of_a_heavy_edge(capsys, tmp_path, weight, eigenvalue):
    """One edge with boundary entries +-weight: L^ud_0 has eigenvalues 0
    and 2 weight^2, found by bisection rather than by trying every
    integer below them."""
    p = tmp_path / "edge.json"
    p.write_text(json.dumps({"dims": 1, "cells": [["a", "b"], ["e"]],
                             "boundary": {"1": [[weight], [-weight]]}}))
    rc, out, _ = run(capsys, "spectrum", "--input", str(p), "--dim", "0", "--family", "ud")
    assert rc == 0
    assert out == f'{{"spectrum":[[0,1],[{eigenvalue},1]]}}\n'


def test_spectrum_nonintegral_reports_charpoly(capsys, tmp_path):
    rc, out, _ = run(capsys, "spectrum", "--input", path4(tmp_path),
                     "--dim", "0", "--family", "ud")
    assert rc == 0
    assert json.loads(out) == {"spectrum": None,
                               "charpoly": ["0", "-4", "10", "-6", "1"]}


def test_spectrum_dim_out_of_range_is_validation_error(capsys):
    rc, _, err = run(capsys, "spectrum", "--input", "cube:2", "--dim", "7")
    assert rc == 2
    assert "out of range" in err


# ---------------------------------------------------------------------------
# homology and trees


def test_homology_rp2(capsys):
    rc, out, _ = run(capsys, "homology", "--input", "rp2")
    assert rc == 0
    assert json.loads(out) == {"homology": [
        {"dim": 0, "betti": 0, "torsion": "1"},
        {"dim": 1, "betti": 0, "torsion": "2"},
        {"dim": 2, "betti": 0, "torsion": "1"}]}


def test_trees_cube3_table_has_384(capsys):
    rc, out, _ = run(capsys, "trees", "--input", "cube:3", "--k", "1",
                     "--method", "matrix-tree", "--format", "table")
    assert rc == 0
    assert "384" in out
    assert "matrix-tree" in out


def test_trees_cube3_json(capsys):
    rc, out, _ = run(capsys, "trees", "--input", "cube:3", "--k", "1",
                     "--method", "matrix-tree")
    assert rc == 0
    d = json.loads(out)
    assert d["tau"] == "384"
    assert d["U"] == ["000"]


def test_trees_brute_counts_trees(capsys):
    rc, out, _ = run(capsys, "trees", "--input", "cube:2", "--k", "1",
                     "--method", "brute")
    assert rc == 0
    d = json.loads(out)
    assert d["tau"] == "4" and d["trees"] == 4


def test_trees_closed_form_rejects_non_cubes(capsys):
    rc, _, err = run(capsys, "trees", "--input", "rp2", "--k", "1",
                     "--method", "closed-form")
    assert rc == 2
    assert "full cubes" in err


def test_trees_closed_form_is_checked_before_k(capsys):
    """The full-cube rule comes first, so a non-cube with k out of
    range still names the method, not the range."""
    rc, out, err = run(capsys, "trees", "--input", "rp2", "--k", "5",
                       "--method", "closed-form")
    assert (rc, out) == (2, "")
    assert err == "error: closed-form method applies to full cubes only\n"


def test_trees_alternating_answers_through_torsion(capsys):
    """H_1(rp2) = Z/2 lies below k = 2; the engine takes the same APC
    rule as matrix-tree and gives its count."""
    rc, out, err = run(capsys, "trees", "--input", "rp2", "--k", "2",
                       "--method", "alternating-product")
    assert (rc, err) == (0, "")
    assert '"tau":"4"' in out


def test_trees_engines_share_one_apc_rule(capsys, tmp_path):
    """A circle of squares has H_1 = Z below k = 2; every counting
    engine refuses it with the same message."""
    p = tmp_path / "circle.json"
    p.write_text(json.dumps({"vertices": 3, "facets": [[1, 2], [1, 3]]}))
    for method in ("brute", "matrix-tree", "alternating-product"):
        rc, out, err = run(capsys, "trees", "--input", str(p), "--k", "2",
                           "--method", method)
        assert (rc, out) == (2, ""), method
        assert err == "error: skeleton is not acyclic in positive codimension\n"


@pytest.mark.parametrize("cells", [[["a", "b"], [], ["f"]], [["a"], [], ["f"]]])
def test_trees_engines_refuse_a_skeleton_with_no_k_cells(capsys, tmp_path, cells):
    """The 1-skeleton of these complexes has no edges: every engine,
    the alternating-product one included, refuses k = 1 with one
    message."""
    p = tmp_path / "gap.json"
    p.write_text(json.dumps({"cells": cells, "boundary": {"2": []}}))
    for method in ("brute", "matrix-tree", "alternating-product"):
        rc, out, err = run(capsys, "trees", "--input", str(p), "--k", "1",
                           "--method", method)
        assert (rc, out, err) == (2, "", "error: dimension 1 out of range [0, 0]\n"), method


def test_weighted_trees_q1(capsys):
    rc, out, _ = run(capsys, "weighted-trees", "--input", "cube:1",
                     "--k", "1", "--method", "matrix-tree")
    assert rc == 0
    d = json.loads(out)
    assert d["tau"] == {"vars": ["q1", "x1", "y1"],
                        "terms": [{"coef": "1", "exp": [1, 0, 0]}]}


@pytest.mark.parametrize("method", ["brute", "matrix-tree"])
def test_weighted_trees_start_at_k1_with_either_method(capsys, method):
    rc, out, err = run(capsys, "weighted-trees", "--input", "cube:2", "--k", "0",
                       "--method", method)
    assert (rc, out, err) == (2, "", "error: k=0 out of range [1, 2]\n")


# sha256 of stdout, as first recorded, for the commands whose output the
# weighted Laplacians, the brute engine's list of trees or the near-prism
# test decide.
PINNED_STDOUT = {
    "trees --input rp2 --k 2 --method brute":
        "dfe2be452e686d60835908222dcad98e78d0b847ee0e979d4386c662e1d2aead",
    "trees --input colorful:1,2,2,2 --k 1 --method brute":
        "31cd401fbd6d61011222c351a0595953c913be118f00b2d367f5b61db2196b69",
    "shifted-check --input cube:3":
        "0f9e44a4c9601294fa18bec899522092687cd91c38975a0618112007db3a91a2",
    "weighted-trees --input cube:3 --k 1 --method brute":
        "d102ea265c9f188756a6bbbede45b756423e252ae41d4f6be1bd48d549c71e84",
    "weighted-trees --input cube:3 --k 2 --method brute":
        "f8eb0089f60c204668c4cec2a0b57a09dc5820927885a87d1bb27cfb9433807f",
    "weighted-trees --input cube:3 --k 3 --method brute":
        "9ef7b70a04424cd72142255324fe86ac8b4b2439af3a864e76b8aae7c5345d88",
    "weighted-trees --input cube:3 --k 1 --method matrix-tree":
        "aafa75544471a25c28f776bdfc417502294c2c0a315395880a7652b113bb3b24",
    "weighted-trees --input cube:3 --k 2 --method matrix-tree":
        "ca28ddcc4a0fa4184276ac4653533f9d72c3bd8f67e8f84cd6c893c6095e59a5",
    "weighted-trees --input cube:3 --k 3 --method matrix-tree":
        "24e4989cedb6d6d38a4dbe44ccad211a284ce72909669f5e9fae9e86704e486b",
    "conjecture --n 3 --k 2":
        "403fe263b17bd41471dfb94e8ca9f947f1393b82a301ad7f39341d81ec94b870",
    "verify duality --format json --seed 0":
        "b72ff313474bc28baece3574a1e542d5becae24bf1e919825f0098848e25d6e2",
    "verify duality --format json --seed 1":
        "b72ff313474bc28baece3574a1e542d5becae24bf1e919825f0098848e25d6e2",
    "verify identities --format json --seed 0":
        "e5bfc75495601c1d0058fc70a324b834eee61a075c584a31fc6a01f24dff04af",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_weighted_outputs_are_pinned(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


# (exit code, sha256 of stdout), as first recorded, of the suites whose
# corpora and engines verify.py builds; shifted exits 4 by design.
PINNED_VERIFY = {
    "verify engines --format json --seed 0":
        (0, "b57945f632ad24c022542cb208104585d3ae15868dc03a24d1cf2b6495098a11"),
    "verify shifted --format json --seed 0":
        (4, "97ec3b41ee3d55193b07af5876574725176fef96ef8e306938b7ba8e49db6193"),
    "verify conjectures --format json --seed 0":
        (0, "a9d6123d25519310d1b84304e9fe3b109f3b2b42b94b7ae47e4b204008b03000"),
}


@pytest.mark.parametrize("command", sorted(PINNED_VERIFY))
def test_verify_outputs_are_pinned(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINNED_VERIFY[command]


@pytest.mark.parametrize("n", range(4))
def test_every_tree_engine_counts_vertices_at_k0(capsys, n):
    """A 0-tree of a cube is one vertex: every engine gives 2^n."""
    for method in ("brute", "matrix-tree", "alternating-product", "closed-form"):
        rc, out, _ = run(capsys, "trees", "--input", f"cube:{n}", "--k", "0",
                         "--method", method)
        assert (rc, json.loads(out)["tau"]) == (0, str(2 ** n)), method


# ---------------------------------------------------------------------------
# conjecture, colorful, dual, shifted-check, mirror


def test_conjecture_3_2(capsys):
    rc, out, _ = run(capsys, "conjecture", "--n", "3", "--k", "2")
    assert rc == 0
    assert out == '{"equal":true,"f_recurrence":true,"k":2,"n":3,"trees":6}\n'


def test_conjecture_3_3_skips_recurrence(capsys):
    rc, out, _ = run(capsys, "conjecture", "--n", "3", "--k", "3")
    assert rc == 0
    assert json.loads(out) == {"n": 3, "k": 3, "trees": 1, "equal": True,
                               "f_recurrence": None}


def test_colorful_2_2(capsys):
    rc, out, _ = run(capsys, "colorful", "--input", "colorful:2,2")
    assert rc == 0
    d = json.loads(out)
    assert d["etot"]["0"] == [[2, 2], [4, 2]]
    assert d["etot"]["-1"] == [[4, 1]]
    assert d["tau"] == {"0": "4", "1": "4"}
    assert d["omega"] == {"0": "64", "1": "16"}


def test_dual_n2(capsys):
    rc, out, _ = run(capsys, "dual", "--n", "2")
    assert rc == 0
    assert json.loads(out) == {
        "n": 2, "spectra_match": True, "pairing_consistent": True,
        "complementation_holds": True, "complementation_checked": 8,
        "weighted_match": True}


def test_dual_n4_samples_subsets_without_listing_them(capsys):
    """The 1-trees of the 4-cube are 15 of its 32 edges: C(32, 15) is
    about 5.7e8 subsets, of which 200 are sampled."""
    rc, out, _ = run(capsys, "dual", "--n", "4")
    assert rc == 0
    assert out == ('{"complementation_checked":424,"complementation_holds":true,'
                   '"n":4,"pairing_consistent":true,"spectra_match":true,'
                   '"weighted_match":null}\n')


def test_shifted_check_cube2(capsys):
    rc, out, _ = run(capsys, "shifted-check", "--input", "cube:2")
    assert rc == 0
    d = json.loads(out)
    assert d["is_shifted"] and d["pure"] and d["match"]
    assert d["recursion"] == [4] and d["direct"] == [4]
    assert d["near_prisms"] == [{"direction": 1, "holds": True},
                                {"direction": 2, "holds": True}]


def mirror_file(tmp_path):
    p = tmp_path / "circ.json"
    p.write_text('{"vertices": 3, "facets": [[1, 2], [1, 3]]}')
    return str(p)


def test_mirror_subcommand(capsys, tmp_path):
    rc, out, _ = run(capsys, "mirror", "--input", mirror_file(tmp_path))
    assert rc == 0
    d = json.loads(out)
    assert d["universe"] == [1, 2, 3]
    assert len(d["faces"]) == 24 and "***" not in d["faces"]


def test_mirror_generator_feeds_other_commands(capsys, tmp_path):
    rc, out, _ = run(capsys, "spectrum",
                     "--input", "mirror:" + mirror_file(tmp_path),
                     "--dim", "1", "--family", "ud")
    assert rc == 0
    assert json.loads(out) == {"spectrum": [[0, 8], [2, 1], [4, 2], [6, 1]]}


def test_shifted_check_reports_a_nonintegral_direct_spectrum_as_null(capsys, tmp_path):
    p = tmp_path / "path.json"
    p.write_text('{"vertices": 4, "facets": [[1, 2], [1, 3], [2, 4]]}')
    rc, out, _ = run(capsys, "shifted-check", "--input", "mirror:" + str(p))
    assert rc == 0
    d = json.loads(out)
    assert d["direct"] is None and d["recursion"] is None and d["match"] is None
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6fef4c5d7ddd2215a93686eff396b596663f914e57a03d01183a799a0f894206")


# ---------------------------------------------------------------------------
# validation and caps


@pytest.mark.parametrize("argv", [
    ("spectrum", "--input", "cube:99", "--dim", "0"),
    ("spectrum", "--input", "nope:1", "--dim", "0"),
    ("spectrum", "--input", "/does/not/exist.json", "--dim", "0"),
    ("colorful", "--input", "colorful:0,2"),
    ("trees", "--input", "cube:2"),
    ("weighted-trees", "--input", "rp2", "--k", "1"),
    ("conjecture", "--n", "7", "--k", "1"),
])
def test_validation_errors_exit_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "--input", "cube:11", "--dim", "0"),
     "cube dimension 11 out of range [0, 10]"),
    (("spectrum", "--input", "cube:-1", "--dim", "0"),
     "cube dimension -1 out of range [0, 10]"),
    (("spectrum", "--input", "cube:2", "--dim", "7"),
     "dimension 7 out of range [0, 2]"),
    (("homology", "--input", "cube:2", "--dim", "7"),
     "dimension 7 out of range [0, 2]"),
    (("weighted-trees", "--input", "rp2", "--k", "1"),
     "weighted enumeration needs a cubical complex"),
    (("weighted-trees", "--input", "rp2"), "trees need --k"),
    (("conjecture", "--n", "2", "--k", "3"), "k=3 out of range [1, 2]"),
    (("conjecture", "--n", "3", "--k", "0"), "k=0 out of range [1, 3]"),
])
def test_library_rules_reach_the_cli_verbatim(capsys, argv, message):
    """The CLI leaves these rules to the library functions that own
    them and prints their messages as they are."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--input", "cube:2", "--dim", "0"),
    ("homology", "--input", "cube:2"),
    ("trees", "--input", "cube:2", "--k", "1"),
    ("weighted-trees", "--input", "cube:2", "--k", "1"),
    ("conjecture", "--n", "2", "--k", "1"),
    ("colorful", "--input", "colorful:2,2"),
    ("shifted-check", "--input", "cube:2"),
    ("mirror", "--input", "cube:2"),
])
def test_seed_is_refused_where_nothing_is_random(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_the_parser_is_built_once_per_process(capsys):
    """main reuses one parser; help, usage errors and their exit codes
    are those of a freshly built parser, after other calls too."""
    from cellspan import cli
    assert cli._parser() is cli._parser()
    run(capsys, "spectrum", "--input", "cube:2", "--dim", "1")
    for argv in (["--help"], ["trees", "--help"], ["trees", "--bogus"], []):
        got = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            got.append((exc.value.code, capsys.readouterr()))
        assert got[0] == got[1]


# sha256 of --help at 80 columns, as first recorded.
PINNED_HELP = {
    "spectrum": "c4334018b0684cbc6ffcb75f4bc04f93ae484b7a174a243eeec0a2dd27bd428e",
    "trees": "416f54cd202f335b26d7b811d5663e0f70e2372c551418ebb93b5ef22b872e6f",
    "weighted-trees": "cc8df7a531bfe25eabcbe20811e9331b4988e40449fe5de9525477610acd2a1e",
}


@pytest.mark.parametrize("subcommand", sorted(PINNED_HELP))
def test_help_is_pinned(capsys, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[subcommand]


def test_choices_are_the_library_constants():
    """The parser offers the library's own tuples, not copies."""
    from cellspan import chain, cli, trees
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))

    def choices(subcommand, flag):
        action, = (a for a in sub.choices[subcommand]._actions if flag in a.option_strings)
        return action.choices

    assert choices("trees", "--method") is trees.METHODS
    assert choices("weighted-trees", "--method") is trees.WEIGHTED_METHODS
    assert choices("spectrum", "--family") is chain.FAMILIES


@pytest.mark.parametrize("rows, message", [
    ([["x"], [1]], "invalid literal for int() with base 10: 'x'"),
    ([[None], [1]], "int() argument must be a string, a bytes-like object "
                    "or a real number, not 'NoneType'"),
    ([[1, 2], [1]], "ragged rows"),
    ([[1], [1]], None),
])
def test_malformed_boundary_entries_exit_2(capsys, tmp_path, rows, message):
    """Entries are converted once, by SparseMatrix.from_rows; a bad one
    still exits 2 and names what is wrong.  The last boundary is well
    formed but its composition with the 2-cell's boundary is not zero."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"cells": [["a", "b"], ["e"], ["F"]],
                             "boundary": {"1": rows, "2": [[1]]}}))
    rc, _, err = run(capsys, "homology", "--input", str(p))
    assert rc == 2
    want = message or "boundary composition fails at (1, 0, 0)"
    assert err == f"error: invalid complex in {p}: {want}\n"


@pytest.mark.parametrize("document", ['[1, 2]', '"abc"', '{"boundary": []}'])
def test_non_object_chain_json_exits_2(capsys, tmp_path, document):
    p = tmp_path / "bad.json"
    p.write_text(document)
    rc, out, err = run(capsys, "homology", "--input", str(p))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: invalid complex in {p}: ")


@pytest.mark.parametrize("document, kind", [('"universe"', "str"),
                                            ('"vertices facets"', "str"),
                                            ("7", "int")])
def test_json_scalar_is_read_as_a_chain_complex(capsys, tmp_path, document, kind):
    """The cubical and mirror keys are looked up in objects only: a
    JSON string holding them is not a cubical or mirror document."""
    p = tmp_path / "bad.json"
    p.write_text(document)
    rc, out, err = run(capsys, "homology", "--input", str(p))
    assert (rc, out) == (2, "")
    assert err == (f"error: invalid complex in {p}: "
                   f"a chain complex is a JSON object, not {kind}\n")


@pytest.mark.parametrize("command", ["colorful", "homology"])
@pytest.mark.parametrize("spec", ["colorful:a,2", "colorful:"])
def test_bad_colorful_generator_exits_2(capsys, command, spec):
    rc, out, err = run(capsys, command, "--input", spec)
    assert (rc, out) == (2, "")
    assert err == f"error: bad colorful generator {spec!r}\n"


@pytest.mark.parametrize("command", [("homology",), ("spectrum", "--dim", "0")])
@pytest.mark.parametrize("literal, shown", [("1.5", "1.5"), ("true", "True"),
                                            ("1e400", "inf")])
def test_non_integer_boundary_entries_exit_2(capsys, tmp_path, command, literal, shown):
    """A JSON float or boolean is no boundary entry: 1.5 and true are
    not truncated to 1, and 1e400 (a float infinity) does not crash."""
    p = tmp_path / "bad.json"
    p.write_text('{"cells": [["a", "b"], ["e"]], '
                 f'"boundary": {{"1": [["-1"], [{literal}]]}}}}')
    rc, out, err = run(capsys, command[0], "--input", str(p), *command[1:])
    assert (rc, out) == (2, "")
    assert err == (f"error: invalid complex in {p}: "
                   f"boundary 1 entry {shown} is not an integer\n")


@pytest.mark.parametrize("data, message", [
    ({"universe": [1.5, 2], "faces": ["**"]}, "universe entry 1.5 is not an integer"),
    ({"universe": [True, 2], "faces": ["**"]}, "universe entry True is not an integer"),
    ({"universe": [1, 2], "faces": [10]}, "malformed face 10 for universe (1, 2)"),
])
def test_non_integer_cubical_json_exits_2(capsys, tmp_path, data, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    rc, out, err = run(capsys, "homology", "--input", str(p))
    assert (rc, out) == (2, "")
    assert err == f"error: invalid complex in {p}: {message}\n"


@pytest.mark.parametrize("data, message", [
    ({"vertices": 2.9, "facets": [[1, 2]]}, "vertex count 2.9 is not an integer"),
    ({"vertices": True, "facets": [[1]]}, "vertex count True is not an integer"),
    ({"vertices": 2, "facets": [[1.7, 2]]}, "facet vertex 1.7 is not an integer"),
])
def test_non_integer_mirror_json_exits_2(capsys, tmp_path, data, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    for spec in (str(p), "mirror:" + str(p)):
        rc, out, err = run(capsys, "homology", "--input", spec)
        assert (rc, out) == (2, "")
        assert err == f"error: mirror input needs vertices and facets: {message}\n"


def test_negative_mirror_vertex_count_exits_2(capsys, tmp_path):
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({"vertices": -3, "facets": [[]]}))
    for cmd in ("mirror", "homology"):
        for spec in (str(p), "mirror:" + str(p)):
            rc, out, err = run(capsys, cmd, "--input", spec)
            assert (rc, out) == (2, "")
            assert err == "error: mirror vertex count -3 is negative\n"


def test_oversized_mirror_json_exits_2(capsys, tmp_path):
    # 2^16 vertices alone; the bound is 3 * 2^15
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"vertices": 16, "facets": [[1]]}))
    rc, out, err = run(capsys, "homology", "--input", str(p))
    assert (rc, out) == (2, "")
    assert err == "error: up to 98304 faces exceed cap 59049\n"


def test_oversized_cubical_json_exits_2(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"universe": list(range(1, 13)), "faces": ["*" * 12]}))
    rc, out, err = run(capsys, "homology", "--input", str(p))
    assert (rc, out) == (2, "")
    assert err == f"error: invalid complex in {p}: up to 531441 faces exceed cap 59049\n"


def test_cubical_json_face_cap_is_the_10_cube(capsys, tmp_path):
    """The cap counts faces lying in no other listed face, so the
    mirror command's own output, which lists every face, reads back."""
    p = tmp_path / "q10.json"
    p.write_text(json.dumps({"universe": list(range(1, 11)), "faces": ["*" * 10]}))
    rc, out, _ = run(capsys, "mirror", "--input", str(p))
    assert rc == 0 and len(json.loads(out)["faces"]) == 3 ** 10
    m = tmp_path / "simplex7.json"
    m.write_text(json.dumps({"vertices": 7, "facets": [list(range(1, 8))]}))
    rc, out, _ = run(capsys, "mirror", "--input", str(m))
    assert rc == 0 and len(json.loads(out)["faces"]) == 3 ** 7
    q7 = tmp_path / "q7.json"
    q7.write_text(out)
    rc, out, _ = run(capsys, "homology", "--input", str(q7), "--dim", "6")
    assert rc == 0


def test_cap_exceeded_exits_3(capsys):
    rc, _, err = run(capsys, "trees", "--input", "cube:3", "--k", "1",
                     "--method", "brute", "--cap", "5")
    assert rc == 3
    assert "cap" in err


@pytest.mark.parametrize("k, side", [(2, 49), (3, 31)])
def test_weighted_side_cap_exits_3(capsys, k, side):
    """The weighted engine names its side cap before it builds the
    Laurent Laplacian: cube:5 leaves 49 rows at k = 2 and 31 at k = 3."""
    rc, out, err = run(capsys, "weighted-trees", "--input", "cube:5", "--k", str(k))
    assert (rc, out) == (3, "")
    assert err == (f"error: weighted matrix-tree side cap (WEIGHTED_SIDE_CAP): "
                   f"needs {side}, cap is 20\n")


def test_env_cap_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("CELLSPAN_CAP", "3")
    rc, _, _ = run(capsys, "trees", "--input", "cube:3", "--k", "1",
                   "--method", "brute")
    assert rc == 3


def test_flag_cap_beats_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CELLSPAN_CAP", "3")
    rc, out, _ = run(capsys, "trees", "--input", "cube:2", "--k", "1",
                     "--method", "brute", "--cap", "100000")
    assert rc == 0
    assert json.loads(out)["trees"] == 4


def test_bad_env_cap_is_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("CELLSPAN_CAP", "bogus")
    rc, _, err = run(capsys, "trees", "--input", "cube:2", "--k", "1",
                     "--method", "brute")
    assert rc == 2
    assert "CELLSPAN_CAP" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_conjectures_passes(capsys):
    rc, out, _ = run(capsys, "verify", "conjectures")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "nosuch")
    assert rc == 2
    assert "unknown suite" in err


def test_verify_shifted_reports_pinned_failure_and_exits_4(capsys):
    rc, out, _ = run(capsys, "verify", "shifted")
    assert rc == 4
    failing = [l for l in out.splitlines() if l.startswith("[FAIL]")]
    assert len(failing) == 1
    assert "mirror-matroid-nonintegral" in failing[0]


def test_verify_json_format(capsys):
    rc, out, _ = run(capsys, "verify", "duality", "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert d["suite"] == "duality" and d["failed"] == 0
    assert len(d["checks"]) == 7
    assert all(c["ok"] is True for c in d["checks"])


# ---------------------------------------------------------------------------
# determinism through a real process boundary


def _subprocess_env() -> dict:
    """The environment with this checkout's cellspan first on the path."""
    src = os.path.dirname(os.path.dirname(cellspan.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_repeated_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "cellspan.cli", "colorful",
           "--input", "colorful:3,2,2"]
    env = _subprocess_env()
    a = subprocess.run(cmd, capture_output=True, check=True, env=env)
    b = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert a.stdout == b.stdout and a.stdout


def test_verify_identities_twice_in_one_process_prints_identical_bytes(capsys):
    first = run(capsys, "verify", "identities", "--format", "json")
    assert exact._MEMO.get() is None
    second = run(capsys, "verify", "identities", "--format", "json")
    assert exact._MEMO.get() is None
    assert first == second and first[0] == 0


def test_python_dash_m_cellspan_matches_main(capsys):
    argv = ["verify", "shifted", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "cellspan", *argv],
                          capture_output=True, env=_subprocess_env())
    rc, out, _ = run(capsys, *argv)
    assert proc.returncode == rc == 4
    assert proc.stdout.decode() == out and out
