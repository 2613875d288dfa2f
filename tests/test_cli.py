"""End-to-end command line behavior: frozen outputs, exit codes,
deterministic bytes."""

import json
import os
import subprocess
import sys

import pytest

import cellspan
from cellspan import exact
from cellspan.chain import ChainComplex
from cellspan.cli import main
from cellspan.exact import IntMatrix


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
    bnd = IntMatrix([[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1]])
    c = ChainComplex({0: ("1", "2", "3", "4"), 1: ("12", "23", "34")},
                     {1: bnd})
    p = tmp_path / "p4.json"
    p.write_text(c.to_json())
    return str(p)


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


def test_weighted_trees_q1(capsys):
    rc, out, _ = run(capsys, "weighted-trees", "--input", "cube:1",
                     "--k", "1", "--method", "matrix-tree")
    assert rc == 0
    d = json.loads(out)
    assert d["tau"] == {"vars": ["q1", "x1", "y1"],
                        "terms": [{"coef": "1", "exp": [1, 0, 0]}]}


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


# ---------------------------------------------------------------------------
# validation and caps


@pytest.mark.parametrize("argv", [
    ("spectrum", "--input", "cube:99", "--dim", "0"),
    ("spectrum", "--input", "nope:1", "--dim", "0"),
    ("spectrum", "--input", "/does/not/exist.json", "--dim", "0"),
    ("colorful", "--input", "colorful:0,2"),
    ("trees", "--input", "cube:2"),
    ("weighted-trees", "--input", "rp2", "--k", "1"),
])
def test_validation_errors_exit_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("rows, message", [
    ([["x"], [1]], "invalid literal for int() with base 10: 'x'"),
    ([[None], [1]], "int() argument must be a string, a bytes-like object "
                    "or a real number, not 'NoneType'"),
    ([[1, 2], [1]], "ragged rows"),
    ([[1], [1]], None),
])
def test_malformed_boundary_entries_exit_2(capsys, tmp_path, rows, message):
    """Entries are converted once, by IntMatrix; a bad one still exits 2
    and names what is wrong.  The last boundary is well formed but its
    composition with the 2-cell's boundary is not zero."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"cells": [["a", "b"], ["e"], ["F"]],
                             "boundary": {"1": rows, "2": [[1]]}}))
    rc, _, err = run(capsys, "homology", "--input", str(p))
    assert rc == 2
    want = message or "boundary composition fails at (1, 0, 0)"
    assert err == f"error: invalid complex in {p}: {want}\n"


def test_cap_exceeded_exits_3(capsys):
    rc, _, err = run(capsys, "trees", "--input", "cube:3", "--k", "1",
                     "--method", "brute", "--cap", "5")
    assert rc == 3
    assert "cap" in err


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
