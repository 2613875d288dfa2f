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
# test decide, and for those that read the three Laplacians (L^tot as one
# Gram sum), the Smith forms of homology and pi off a certified char poly,
# and the matrix-tree and recursion engines, which read t_(k-2) by one rule.
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
    "spectrum --input cube:4 --dim 2 --family ud":
        "5c76704108b54799865cce7186bb76dc02044d20bc142d32da48186f74edf595",
    "spectrum --input cube:4 --dim 2 --family du":
        "9a789a08114f208b5d4b4df8ba0192951b36fedfe46b49f36197d8cbfaee4e98",
    "spectrum --input cube:4 --dim 2 --family tot":
        "ba578348a106ca9b36a0252d8d9eda26fcf301bf257546c0eb59b1af3374144c",
    "spectrum --input rp2 --dim 1":
        "86dd422d14b69d6f98a5c7d284bab1636876543cfb402ed079771f10fc1686b2",
    "spectrum --input colorful:2,2,2 --dim -1":
        "ebb5a9021fb9011cfcc3411b76517290aff0a260a3973cbcf070cf5902e6d261",
    "spectrum --input cube:6 --dim 3":
        "99af327b46988565ce291f35835d493997e6094e4830f4113766653763ec110f",
    "spectrum --input cube:2 --dim 0 --family du":
        "da6dc6046d4b1e95b6c5c6ee5617c3aa01757a772c1adb6e9d8677e1dc1273c1",
    "spectrum --input colorful:2,3 --dim 1":
        "816efe591b47f4cb43ba60e5e1467eaf89b984151ffdfce3a8b7183dc106156d",
    "spectrum --input cube:4 --dim 2 --format table":
        "ecd81a8b22b682e30a441ae5eb7883600b1fa12b48ec6f41b5ea49c197ee67a3",
    "spectrum --input rp2 --dim 1 --format table":
        "6baeb2ac300d64b7432806aef555c915df8842ea6163250aea2c27105cb79078",
    "homology --input rp2":
        "68092983345c0e3848816eb526af0fa6065ec04b3ec366e31416d4f20ca7e0b6",
    "homology --input colorful:2,2,2":
        "3c01583b2595faed852f3e85bf7c4623d322d0cc1b6aedb4f8bd9562d59ac52b",
    "trees --input cube:5 --k 3 --method alternating-product":
        "26d042ed2229ce2a7baf15217827a0fae8b2933e95d47e006540e0d09138c8b0",
    "trees --input cube:5 --k 0 --method matrix-tree":
        "afa66f17c0c6d74f2dd1b81524e55873bf1eabaf9fa8a803506ee1b9a0892fe7",
    "trees --input cube:5 --k 1 --method matrix-tree":
        "386792d08c612bd54b79d89dac4382d40ad05ad93dc60410797f632c308f8ee7",
    "trees --input cube:5 --k 2 --method matrix-tree":
        "aa066d110235a6a06d1baca317837f03c72b07c15860f9be66e99c9a508f571d",
    "trees --input cube:5 --k 3 --method matrix-tree":
        "9791879f7f6e222bc49c611782bdd995cf5d51d741fcd6c5e9a8fb19c3b6b0de",
    "trees --input cube:5 --k 4 --method matrix-tree":
        "9c6bc68c0e0aa45376660967ed27e2077b0c20a3dc38d9be0e90d342661f6947",
    "trees --input cube:5 --k 5 --method matrix-tree":
        "25c17dc2bd1730fb27e3fe97dfa72326e2053c8c4de1775180354881301a0d94",
    "trees --input cube:5 --k 0 --method alternating-product":
        "9f374424f3f07d16f24387975e3091e2a50294c63823a7046b853969bc05fbee",
    "trees --input cube:5 --k 1 --method alternating-product":
        "20edbf8366c139cdc73911e791e5dd07b1701aea5c17084fe180982a5e1b2dbb",
    "trees --input cube:5 --k 2 --method alternating-product":
        "49b7d7e317564af3db4fbba5b81d71f5eac9dd1e4e0806c7d90bb8359dad8421",
    "trees --input colorful:2,2,2 --k 0 --method matrix-tree":
        "1ba3fb1f3b2727d9ca7689eb053e2b028257207ddd048d5f4d51bc52485dcfa7",
    "trees --input colorful:2,2,2 --k 1 --method matrix-tree":
        "522e20166f0d36cbebed8db45d6df8e319a741631a375c349d54d83902e1035c",
    "trees --input colorful:2,2,2 --k 2 --method matrix-tree":
        "e6183f6c7e8d3f1e307a397d05f271fd72242174a71c0e05e00b64e3c7733613",
    "trees --input colorful:2,2,2 --k 0 --method alternating-product":
        "977c731cf7bfe6fa5c83f7d250edeb5b39d01be2a5666d35ca780996fcfae821",
    "trees --input colorful:2,2,2 --k 1 --method alternating-product":
        "2515c05960cb95f0f55d38c9e7160b50650915da1913722c241f16cc86a5bd26",
    "trees --input colorful:2,2,2 --k 2 --method alternating-product":
        "6656106e0080c78429c6705f776798bf2f28cd10527d97c987b047add7e654e5",
    "trees --input cube:3 --k 0 --format table":
        "81abd2945efe77e19a5b11afe265e8933fc023acc2b032931bb2d84bbe2569f8",
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


# (exit code, sha256 of stdout), as first recorded, of the table renderings
# that no other test reaches: the non-integral spectrum's header, the
# weighted terms, the shifted-check error row and verify's [PASS] lines.
# {path4} is the path P_4, {path1432} the mirror of the path 1-4-3-2 and
# {path213} the mirror of the path 2-1-3.
PINNED_TABLES = {
    "spectrum --input {path4} --dim 0 --family ud --format table":
        (0, "4697e43bcff2d4d276dd1a8c65f2c671156bd778a7f237da1e33d6050490823d"),
    "homology --input rp2 --format table":
        (0, "9f5eb5063c35cf86d99b152d3af784abb65402525ebd1cb5e6ad21a870708b54"),
    "homology --input colorful:2,2,2 --format table":
        (0, "4483184807d84faae6f67c561a0bb8cf4e6ede1f7358165428f28c6823407fc7"),
    "trees --input rp2 --k 2 --method brute --format table":
        (0, "12847b86b8ac1a5bceddc4fde4eeb6b924a2d9a4c13b7bf928752031515a4d4a"),
    "weighted-trees --input cube:3 --k 2 --format table":
        (0, "91231dacd871370a58927f1a5f61cd1e499e36aed0946e343ab4a51d718938e9"),
    "conjecture --n 3 --k 2 --format table":
        (0, "5d346b7628251d6732311b0685a33b7466031150fce64a0dae6243500ad10e7b"),
    "colorful --input colorful:2,3 --format table":
        (0, "c6d96a477e8e6a9d20a7cebd541b5dbb6c18598e2b94bbd617c70f60f96976d0"),
    "dual --n 2 --format table":
        (0, "5980a163a08a6a9e49adc3b54af3c1eda0ab6da264324e8aa3932b90386ab599"),
    "dual --n 4 --format table":
        (0, "bd4112f15f2cb124e70a7c9e586e2ebdc4813f96c5d5f46236515f7961437b64"),
    "shifted-check --input cube:3 --format table":
        (0, "c95632bca2d879e0cc289132c45934dddbd8fbd34a993b7a0b6411569795ad42"),
    "shifted-check --input {path1432} --format table":
        (0, "0c66866205ed50c51b7b60748db56af7acc9a9dadbe71992d0377235fa10c7cf"),
    "mirror --input {path213} --format table":
        (0, "bd02c37eef854edef74ba170ab54279dcdeeb790b51c54fd10e95adb7a305388"),
    "verify conjectures --format table":
        (0, "6f6cc5b619e902e4a859c31e8ad5c412e2240f75d792a360861b037f8c867ef3"),
    "verify duality --format table":
        (0, "de6a45db0ed21ec112a6c5821318b93a6a63016806859da13b6ab37e8fa7666b"),
    "verify engines --format table":
        (0, "7d2d8c57d3f8391d1d2f0c7de275b221242daa99528152a39d5c27998e1ea2fe"),
    "verify identities --format table":
        (0, "27c75d447557ede6431a5f67eee4896c2ae167a16e5a52cd0b7a513dcba04182"),
    "verify shifted --format table":
        (4, "f3fcd664116823a5657042a2f11eafff5654f4b7f21c7ab8d05a48927ea17d24"),
}


def input_files(tmp_path) -> dict:
    """The files that PINNED_TABLES and the usage errors name."""
    p1432 = tmp_path / "p1432.json"
    p1432.write_text(json.dumps({"vertices": 4, "facets": [[1, 4], [4, 3], [3, 2]]}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"cells": [')
    return {"path4": path4(tmp_path), "path1432": "mirror:" + str(p1432),
            "path213": mirror_file(tmp_path), "bad": str(bad)}


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_table_outputs_are_pinned(capsys, tmp_path, command):
    rc, out, err = run(capsys, *command.format(**input_files(tmp_path)).split())
    assert err == ""
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINNED_TABLES[command]


@pytest.mark.parametrize("command, env, message", [
    ("trees --input cube:2 --k 1 --cap 0", None, "--cap must be positive"),
    ("trees --input cube:2 --k 1", "0", "CELLSPAN_CAP must be a positive integer, got '0'"),
    ("spectrum --input cube:2", None, "spectrum needs --dim"),
    ("spectrum --input cube:x --dim 0", None, "bad cube generator 'cube:x'"),
    ("conjecture --n 3", None, "conjecture needs --n and --k"),
    ("colorful --input cube:2", None,
     "colorful subcommand needs --input colorful:a1,a2,..."),
    ("dual", None, "dual needs --n"),
    ("mirror --input rp2", None,
     "this subcommand needs a cubical complex (faces over {0,1,*})"),
    ("homology --input {bad}", None,
     "{bad} is not valid JSON: Expecting value: line 1 column 12 (char 11)"),
])
def test_usage_errors_exit_2_with_their_message(capsys, monkeypatch, tmp_path,
                                                command, env, message):
    files = input_files(tmp_path)
    if env is None:
        monkeypatch.delenv("CELLSPAN_CAP", raising=False)
    else:
        monkeypatch.setenv("CELLSPAN_CAP", env)
    rc, out, err = run(capsys, *command.format(**files).split())
    assert (rc, out) == (2, "")
    assert err == "error: " + message.replace("{bad}", files["bad"]) + "\n"


@pytest.mark.parametrize("n", range(4))
def test_every_tree_engine_counts_vertices_at_k0(capsys, n):
    """A 0-tree of a cube is one vertex: every engine gives 2^n."""
    for method in ("brute", "matrix-tree", "alternating-product", "closed-form"):
        rc, out, _ = run(capsys, "trees", "--input", f"cube:{n}", "--k", "0",
                         "--method", method)
        assert (rc, json.loads(out)["tau"]) == (0, str(2 ** n)), method


_DOUBLED_EDGE = ('{"cells": [["v", "w"], ["e"]], "empty_cell": true, '
                 '"boundary": {"0": [[2, 2]], "1": [[-1], [1]]}}')


@pytest.mark.parametrize("doc, k, tau", [
    pytest.param(_DOUBLED_EDGE, 0, "8", id="0-8"),
    pytest.param(_DOUBLED_EDGE, 1, "1", id="1-1"),
    pytest.param('{"cells": [["v", "w"]], "boundary": {"0": [[2, 0]]}, "empty_cell": true}',
                 0, "4", id="zero-entry-0-4"),
])
def test_engines_agree_on_a_doubled_augmentation(capsys, tmp_path, doc, k, tau):
    """An edge whose stored augmentation row is (2, 2): H_(-1) = Z/2, so
    tau_0 = 2^2 + 2^2 and tau_1 = pi_1 t_(-1)^2 / tau_0 = 2 * 4 / 8.
    Two vertices with augmentation entries 2 and 0: only the first is a
    0-tree, so tau_0 = 2^2 and brute and matrix-tree count one tree."""
    p = tmp_path / "edge.json"
    p.write_text(doc)
    counts = set()
    for method in ("brute", "matrix-tree", "alternating-product"):
        rc, out, _ = run(capsys, "trees", "--input", str(p), "--k", str(k),
                         "--method", method)
        rep = json.loads(out)
        assert (rc, rep["tau"]) == (0, tau), method
        if rep["trees"] is not None:
            counts.add(rep["trees"])
    assert len(counts) == 1, counts


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


@pytest.mark.parametrize("document, shown", [
    ({"cells": [[{"x": 1}, None]]}, "{'x': 1}"),
    ({"cells": [[True, 1.5], ["e"]], "boundary": {"1": [[-1], [1]]}}, "True"),
    ({"cells": [["a", "b"], [None]], "boundary": {"1": [[-1], [1]]}}, "None"),
])
def test_non_label_cells_exit_2(capsys, tmp_path, document, shown):
    """A cell label is a JSON string or integer: objects, null, booleans
    and floats are refused, not named by str()."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(document))
    rc, out, err = run(capsys, "homology", "--input", str(p))
    assert (rc, out) == (2, "")
    assert err == (f"error: invalid complex in {p}: "
                   f"cell label {shown} is not a string or an integer\n")


def test_integer_labels_read_as_decimal_strings(capsys, tmp_path):
    p = tmp_path / "edge.json"
    p.write_text('{"cells": [[1, 2], [3]], "boundary": {"1": [[-1], [1]]}}')
    rc, out, _ = run(capsys, "trees", "--input", str(p), "--k", "1", "--method", "brute")
    assert rc == 0
    assert json.loads(out)["per_tree"] == [{"cells": ["3"], "torsion": "1"}]


@pytest.mark.parametrize("command", ["colorful", "homology"])
@pytest.mark.parametrize("spec", ["colorful:a,2", "colorful:"])
def test_bad_colorful_generator_exits_2(capsys, command, spec):
    rc, out, err = run(capsys, command, "--input", spec)
    assert (rc, out) == (2, "")
    assert err == f"error: bad colorful generator {spec!r}\n"


@pytest.mark.parametrize("command", [("homology",), ("spectrum", "--dim", "0")])
@pytest.mark.parametrize("literal, shown", [("1.5", "1.5"), ("true", "True"),
                                            ("1e400", "inf"), ("0.0", "0.0"),
                                            ("-0.0", "-0.0"), ("false", "False")])
def test_non_integer_boundary_entries_exit_2(capsys, tmp_path, command, literal, shown):
    """A JSON float or boolean is no boundary entry: 1.5 and true are
    not truncated to 1, 1e400 (a float infinity) does not crash, and
    0.0, -0.0 and false are refused although they equal 0."""
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


@pytest.mark.parametrize("command", [("homology",), ("weighted-trees", "--k", "1")])
@pytest.mark.parametrize("data, message", [
    ({"universe": [2, 1], "faces": ["0*"]}, "universe (2, 1) is not strictly increasing"),
    ({"universe": [1, 1], "faces": ["0*"]}, "universe (1, 1) is not strictly increasing"),
    ({"cells": [["a", "b"], ["e"]], "boundary": {"1": [[-1], [1]]}, "empty_cell": "false"},
     "empty_cell must be true or false, not 'false'"),
    ({"cells": [["a", "b"], ["e"]], "boundary": {"1": [[-1], [1]]}, "empty_cell": "no"},
     "empty_cell must be true or false, not 'no'"),
    ({"cells": [["a", "b"], ["e"]], "boundary": {"1": [[-1], [1]]}, "empty_cell": 1},
     "empty_cell must be true or false, not 1"),
    # a string where a list belongs is not read one character at a time
    ({"cells": [["a"], "xy"], "boundary": {}},
     "cells of dimension 1 must be a JSON list, not str"),
    ({"cells": "ab"}, "cells must be a JSON list, not str"),
    ({"cells": [["a", "b"], ["e", "f"]], "boundary": {"1": ["11", "99"]}},
     "boundary 1 row 0 must be a JSON list, not str"),
    ({"cells": [["a", "b"], ["e", "f"]], "boundary": {"1": "11"}},
     "boundary 1 must be a JSON list, not str"),
    ({"universe": "12", "faces": ["**"]}, "universe must be a JSON list, not str"),
    ({"universe": [1, 2], "faces": "**"}, "faces must be a JSON list, not str"),
])
def test_unordered_universe_or_non_boolean_empty_cell_exits_2(capsys, tmp_path, command,
                                                              data, message):
    """A universe is not sorted under its faces, empty_cell is not read
    by truthiness, and a string is not read as a list of its
    characters: each would silently answer for another complex."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    rc, out, err = run(capsys, command[0], "--input", str(p), *command[1:])
    assert (rc, out) == (2, "")
    assert err == f"error: invalid complex in {p}: {message}\n"


@pytest.mark.parametrize("data, message", [
    ({"vertices": 2.9, "facets": [[1, 2]]}, "vertex count 2.9 is not an integer"),
    ({"vertices": True, "facets": [[1]]}, "vertex count True is not an integer"),
    ({"vertices": 2, "facets": [[1.7, 2]]}, "facet vertex 1.7 is not an integer"),
    ({"vertices": 3, "facets": ["12", [2, 3]]}, "facet 0 must be a JSON list, not str"),
    ({"vertices": 3, "facets": "12"}, "facets must be a JSON list, not str"),
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


def test_face_caps_past_4300_digits_name_the_cap(capsys, tmp_path):
    """A bound str() would refuse to print shows as ~10^e, the exponent
    of its leading digit; a small one stays in full."""
    mir = tmp_path / "mirror.json"
    mir.write_text(json.dumps({"vertices": 20000, "facets": [[1]]}))
    cub = tmp_path / "cubical.json"
    cub.write_text(json.dumps({"universe": list(range(1, 10001)), "faces": ["*" * 10000]}))
    for spec, err in [
            (str(mir), "error: up to ~10^6020 faces exceed cap 59049\n"),
            (str(cub), f"error: invalid complex in {cub}: up to ~10^4771 faces exceed cap 59049\n"),
            ("colorful:" + ",".join(["1"] * 15000), "error: ~10^4515 faces exceed cap 4096\n"),
            ("colorful:" + ",".join(["1"] * 13), "error: 8192 faces exceed cap 4096\n")]:
        assert run(capsys, "homology", "--input", spec) == (2, "", err)


def test_mirror_vertex_count_is_capped_before_building(capsys, tmp_path):
    """A void mirror on more vertices than FACE_CAP is refused, as is a
    count whose face bound 2^(n-1) would take long to form; at the cap
    the void mirror is still built."""
    for n, facets in [(16_000_000, []), (10 ** 9, [[1]]), (59_050, [])]:
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"vertices": n, "facets": facets}))
        assert run(capsys, "homology", "--input", str(p)) == (
            2, "", f"error: mirror vertex count {n} exceeds cap 59049\n")
    p.write_text(json.dumps({"vertices": 59_049, "facets": []}))
    assert run(capsys, "homology", "--input", str(p)) == (0, '{"homology":[]}\n', "")


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
