"""Tests of the benchmark itself: its checks reject wrong answers, its
inputs are seeded and valid, its wrappers see the calls they should, and
its speed sampler and metric names behave.

    python3 -m pytest perfbench -q

The traced-round tests run one round of each workload, and the metric
name test one more of verify-corpus (under a minute in all).
"""

from __future__ import annotations

import copy
import json
import os
import random
import signal
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks as ck  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

from cellspan.chain import ChainComplex  # noqa: E402
from cellspan.cli import main as cli_main  # noqa: E402


def pairs(spec: dict) -> list:
    return [[lam, m] for lam, m in sorted(spec.items())]


def with_zeros(nonzero: dict, side: int) -> dict:
    out = dict(nonzero)
    zeros = side - sum(nonzero.values())
    if zeros:
        out[0] = zeros
    return out


@pytest.fixture(scope="module")
def spectra_inputs(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("spectra"))
    inputs.make_inputs("spectra-large", 5, d)
    return d


@pytest.fixture(scope="module")
def tree_inputs(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("trees"))
    inputs.make_inputs("tree-engines", 5, d)
    return d


def right_spectra() -> dict:
    """Outputs of spectra-large as the closed forms say they must be."""
    out = {}
    for inp, i, fam in wl.SPECTRA:
        if inp == "colorful2x6":
            spec = ck.cube_tot_spectrum(6, 5 - i)
        elif fam == "tot":
            spec = ck.cube_tot_spectrum(6, i)
        else:
            spec = with_zeros(ck.cube_updown_spectrum(6, i, fam), wl.CUBE6_CELLS[i])
        out[("spectrum", inp, i, fam)] = {"spectrum": pairs(spec)}
    out[("homology",)] = {"homology": [{"dim": wl.HOMOLOGY_DIM, "betti": 0,
                                        "torsion": "1"}]}
    return out


# -- checks accept right answers and reject wrong ones


def test_spectra_checks_accept_the_closed_forms(spectra_inputs):
    assert wl.check_round("spectra-large", right_spectra(), spectra_inputs, None) == []


@pytest.mark.parametrize("key", [("spectrum", "cube6", 2, "tot"),
                                 ("spectrum", "cube6", 3, "ud"),
                                 ("spectrum", "cube6", 4, "du"),
                                 ("spectrum", "colorful2x6", 1, "tot"),
                                 ("spectrum", "mirror6", 3, "tot")])
def test_spectra_checks_reject_one_multiplicity_off(spectra_inputs, key):
    out = right_spectra()
    out[key]["spectrum"][-1][1] += 1
    assert wl.check_round("spectra-large", out, spectra_inputs, None)


def test_spectra_checks_reject_a_moved_eigenvalue(spectra_inputs):
    # same side, wrong trace: one eigenvalue 8 reported as 10
    out = right_spectra()
    spec = ck.cube_tot_spectrum(6, 2)
    spec[8] -= 1
    spec[10] += 1
    out[("spectrum", "cube6", 2, "tot")] = {"spectrum": pairs(spec)}
    errs = wl.check_round("spectra-large", out, spectra_inputs, None)
    assert any("trace" in e for e in errs)


def test_spectra_checks_reject_torsion_in_the_cube(spectra_inputs):
    out = right_spectra()
    out[("homology",)]["homology"][0]["torsion"] = "2"
    assert wl.check_round("spectra-large", out, spectra_inputs, None)


BALL4_TAU = 1000   # any count: the tests stand in for the reference engine


def right_trees() -> dict:
    out = {("matrix-tree", n, k): {"tau": str(ck.cube_tree_count(n, k))}
           for _inp, n, k in wl.MATRIX_TREE}
    # spanning trees of the complete multipartite graph, torsion 1; the
    # count checks need distinct trees of the right size, not real ones
    n = ck.multipartite_tree_count(wl.COLORFUL_BRUTE)
    size = sum(wl.COLORFUL_BRUTE) - 1
    out[("brute-colorful",)] = {
        "tau": str(n), "trees": n,
        "per_tree": [{"cells": [f"t{t}e{j}" for j in range(size)], "torsion": "1"}
                     for t in range(n)]}
    out[("brute-rp2",)] = {"tau": "4", "trees": 1,
                           "per_tree": [{"cells": ["f"], "torsion": "2"}]}
    return out


def weighted_output(universe, total: int, size: int = 3) -> dict:
    """A weighted enumerator with two monomials, each the weight of
    `size` squares: per direction the q, x and y exponents sum to
    `size`, and the q exponents to 2 * size."""
    vs = [f"{v}{d}" for d in universe for v in "qxy"]
    pos = {v: j for j, v in enumerate(vs)}
    a, b, c, _ = universe
    # every square free in directions a and b, pinned to 0 elsewhere
    e1 = [0] * len(vs)
    for d in universe:
        e1[pos[f"q{d}" if d in (a, b) else f"x{d}"]] = size
    # one square free in a and c instead, pinned to 1 in b
    e2 = list(e1)
    e2[pos[f"q{b}"]] -= 1
    e2[pos[f"y{b}"]] += 1
    e2[pos[f"x{c}"]] -= 1
    e2[pos[f"q{c}"]] += 1
    return {"tau": {"vars": vs, "terms": [{"exp": e1, "coef": str(total - 5)},
                                          {"exp": e2, "coef": "5"}]}}


def tree_run_cli(argv):
    assert argv[-1] == "matrix-tree"
    name = os.path.basename(argv[2])
    tau = BALL4_TAU if name == "ball4.json" else ck.multipartite_tree_count(wl.COLORFUL_BRUTE)
    return 0, json.dumps({"tau": str(tau)})


def ball4_universe(tree_inputs):
    with open(os.path.join(tree_inputs, "ball4.json")) as fh:
        return json.load(fh)["universe"]


def test_tree_checks_accept_the_closed_forms(tree_inputs):
    out = right_trees()
    out[("weighted",)] = weighted_output(ball4_universe(tree_inputs), BALL4_TAU)
    assert wl.check_round("tree-engines", out, tree_inputs, tree_run_cli) == []


@pytest.mark.parametrize("key", [("matrix-tree", 6, 3), ("matrix-tree", 5, 2),
                                 ("brute-colorful",), ("brute-rp2",)])
@pytest.mark.parametrize("delta", [1, -1])
def test_tree_checks_reject_tau_off_by_one(tree_inputs, key, delta):
    out = right_trees()
    out[key]["tau"] = str(int(out[key]["tau"]) + delta)
    assert wl.check_round("tree-engines", out, tree_inputs, tree_run_cli)


def test_tree_checks_reject_a_tree_of_the_wrong_size(tree_inputs):
    out = right_trees()
    out[("brute-colorful",)]["per_tree"][7]["cells"].pop()
    assert wl.check_round("tree-engines", out, tree_inputs, tree_run_cli)


def test_tree_checks_reject_engines_that_disagree(tree_inputs):
    errs = wl.check_round("tree-engines", right_trees(), tree_inputs,
                          lambda argv: (0, json.dumps({"tau": "29999"})))
    assert any("disagree" in e for e in errs)


@pytest.mark.parametrize("total_delta", [1, -1])
def test_tree_checks_reject_a_wrong_weighted_count(tree_inputs, total_delta):
    out = {("weighted",): weighted_output(ball4_universe(tree_inputs),
                                          BALL4_TAU + total_delta)}
    assert wl.check_round("tree-engines", out, tree_inputs, tree_run_cli)


def test_tree_checks_reject_a_monomial_that_is_no_tree(tree_inputs):
    out = {("weighted",): weighted_output(ball4_universe(tree_inputs), BALL4_TAU)}
    exp = out[("weighted",)]["tau"]["terms"][1]["exp"]
    exp[exp.index(0)] += 1   # one extra variable: not a product of square weights
    assert wl.check_round("tree-engines", out, tree_inputs, tree_run_cli)


def verify_output(suite: str) -> dict:
    return {"suite": suite, "failed": 0,
            "checks": [{"name": f"row{j}", "ok": True, "hard": True, "detail": ""}
                       for j in range(wl.VERIFY_MIN_ROWS[suite])]}


@pytest.fixture()
def verify_inputs(tmp_path):
    inputs.make_inputs("verify-corpus", 0, str(tmp_path))
    return str(tmp_path)


def test_verify_checks_accept_full_suites(verify_inputs):
    out = {("verify", s): verify_output(s) for s in wl.VERIFY_SUITES}
    assert wl.check_round("verify-corpus", out, verify_inputs, None) == []


@pytest.mark.parametrize("suite", wl.VERIFY_SUITES)
def test_verify_checks_reject_a_dropped_row(verify_inputs, suite):
    out = {("verify", s): verify_output(s) for s in wl.VERIFY_SUITES}
    out[("verify", suite)]["checks"].pop()
    assert wl.check_round("verify-corpus", out, verify_inputs, None)


def test_verify_checks_reject_a_failed_hard_row(verify_inputs):
    out = {("verify", s): verify_output(s) for s in wl.VERIFY_SUITES}
    bad = copy.deepcopy(out[("verify", "identities")])
    bad["checks"][0]["ok"] = False
    bad["failed"] = 1
    out[("verify", "identities")] = bad
    assert wl.check_round("verify-corpus", out, verify_inputs, None)


# -- seeded inputs


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        inputs.make_inputs("tree-engines", seed, str(tmp_path / name))
    read = lambda d: (tmp_path / d / "cube6.json").read_text()
    assert read("a") == read("b")
    assert read("a") != read("c")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelled_cubes_keep_their_spectra(tmp_path, seed):
    """A signed permutation of the cells leaves the closed forms true;
    the program itself checks that the boundaries compose to zero."""
    c = inputs.relabel(inputs.cube_complex(3), random.Random(seed))
    path = tmp_path / "cube3.json"
    inputs.write_json(str(path), c.to_json_dict())
    cx = ChainComplex.from_json_dict(json.loads(path.read_text()))
    for i in range(4):
        assert cx.spectrum(i, "tot").eigs == ck.cube_tot_spectrum(3, i)
        assert cx.laplacian(i, "tot").trace() == c.laplacian_trace(i, "tot")


def test_written_colorful_complex_is_the_programs(tmp_path):
    c = inputs.relabel(inputs.colorful_complex((2, 2, 2)), random.Random(0))
    path = tmp_path / "colorful.json"
    inputs.write_json(str(path), c.to_json_dict())
    code, text = worker.call_cli(cli_main, ["spectrum", "--input", str(path),
                                            "--dim", "2", "--family", "tot"])
    assert code == 0
    assert ck.as_dict(json.loads(text)["spectrum"]) == ck.cube_tot_spectrum(3, 0)


# -- tracing


def test_tracer_counts_nested_calls_once_and_uninstalls():
    import cellspan.chain as chain
    import cellspan.exact as exact
    before = (exact.char_poly, chain.char_poly, chain.ChainComplex.__dict__["laplacian"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert chain.char_poly is not before[1]
        tracer.enabled = True
        with tracer.span("cli.test"):
            code, _ = worker.call_cli(cli_main, ["spectrum", "--input", "cube:3",
                                                 "--dim", "1", "--family", "tot"])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert code == 0
    assert (exact.char_poly, chain.char_poly,
            chain.ChainComplex.__dict__["laplacian"]) == before
    m = tracer.metrics()
    # tot calls itself for ud and du: three calls, one outermost span
    assert m["chain.laplacian.calls"] == 3
    assert m["exact.char_poly.calls"] == 1
    assert m["exact.char_poly.side_max"] == 12
    assert 0 < m["chain.laplacian.s"] <= m["cli.test.s"]


# Wrappers each workload must exercise, beyond the cli.<job> spans.
EXERCISED = {
    "spectra-large": [
        "exact.char_poly", "exact.integer_spectrum", "exact.rank_exact",
        "exact.smith_normal_form", "chain.from_json_dict", "chain.laplacian",
        "chain.spectrum", "chain.homology", "cubical.to_chain", "cubical.mirror"],
    "tree-engines": [
        "exact.char_poly", "exact.rank_exact", "exact.smith_normal_form",
        "exact.det_exact", "exact.det_ring", "chain.from_json_dict",
        "chain.laplacian", "chain.homology", "chain.char_polynomial",
        "trees.enumerate_trees", "trees.tau_matrix_tree",
        "trees.weighted_tau_matrix_tree", "trees.tau_alternating",
        "cubical.to_chain", "cubical.weighted_diag_laplacian"],
    "verify-corpus": [
        "exact.char_poly", "exact.integer_spectrum", "exact.rank_exact",
        "exact.smith_normal_form", "chain.laplacian", "chain.spectrum",
        "chain.homology", "chain.char_polynomial", "trees.enumerate_trees",
        "cubical.to_chain", "colorful.colorful_complex", "colorful.colorful_etot",
        "colorful.cross_polytope_cube_duality", "corpus.identity_corpus",
        "corpus.mirror_corpus", "corpus.colorful_corpus", "verify.identities",
        "verify.duality", "verify.conjectures"],
}
COUNTERS = {
    "spectra-large": ["exact.char_poly.distinct", "exact.char_poly.side_max"],
    "tree-engines": ["trees.enumerate_trees.subsets", "trees.enumerate_trees.trees",
                     "trees.tau_matrix_tree.rank_calls"],
    "verify-corpus": ["exact.char_poly.distinct", "trees.enumerate_trees.subsets"],
}


def test_every_wrapper_is_meant_for_some_workload():
    named = {n for names in EXERCISED.values() for n in names}
    assert named == {name for name, _m, _p in spans.TARGETS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_round_exercises_its_wrappers(tmp_path, workload):
    inputs.make_inputs(workload, 7, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rnd = worker.run_round(workload, 7, str(tmp_path), cli_main, tracer)
    finally:
        tracer.uninstall()
    assert rnd.failed == 0 and rnd.errors == []
    m = tracer.metrics()
    for name in EXERCISED[workload]:
        key = f"{name}.calls" if f"{name}.calls" in m else f"{name}.s"
        assert m[key] > 0, name
    for key in COUNTERS[workload]:
        assert m[key] > 0, key
    for job in wl.jobs(workload, 7, str(tmp_path)):
        assert m[f"cli.{job.group}.s"] > 0


# -- speed sampling and the metrics printed


def test_sampler_scales_by_the_probe_speed_and_removes_its_own_time():
    sampler = speed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t = time.perf_counter() - t0
        inside = sampler.busy - mark[2]
        (ref,), f = sampler.scaled(mark, t)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    n = sampler.count - mark[1]
    assert n >= speed.BURST + 5   # ticks every 20 ms, plus the burst
    assert f == pytest.approx(speed.REF_PROBE_S * n / (sampler.time - mark[0]))
    assert 0 < inside < t
    assert ref == pytest.approx((t - inside) * f)


def test_printed_metrics_are_those_of_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    inputs.make_inputs("verify-corpus", 3, str(tmp_path))
    args = SimpleNamespace(workload="verify-corpus", seed=3, inputs=str(tmp_path),
                           seconds=0, trace=0)
    sampler = speed.Sampler()
    sampler.start()
    try:
        rounds, metrics = worker.measure(args, cli_main, sampler)
    finally:
        sampler.stop()
    # run.py adds setup_s from the set-up processes
    assert set(metrics) | {"setup_s"} == {m["name"] for m in bench["end_to_end"]}
    assert len(rounds) == 1 and rounds[0].errors == []
    assert all(v > 0 for v, _unit in metrics.values())
    per_layer = {m["name"] for m in bench["per_layer"]}
    traced = set(spans.Tracer().metrics()) | {f"cli.{g}.s" for g in wl.job_groups()}
    assert per_layer <= traced | {"trace_overhead_s"}
