"""Self-tests of the benchmark on its shrunken ("small") op lists.

    python3 -m pytest -q perfbench/tests
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from beatty_kfree import beatty, discrepancy, expsums, fixed, kfree, smoothing  # noqa: E402

EXPSUMS = ("double_kfree_sum_naive", "double_kfree_sum_hyperbola", "linear_exp_sum",
           "double_sum_bound_check")
SMOOTHING = ("build_smoothed", "smoothed_beatty_count", "eval_truncated_series")
DISCREPANCY = ("build_pointset", "extreme_discrepancy", "decay_fit")

# Functions each workload must exercise, and those its op list predicts idle.
EXPECTED = {
    "count": (
        ["fixed.frac_vector", "beatty.beatty_terms_block", "beatty.count_kfree_beatty",
         "kfree.sieve_kfree", "kfree.count_kfree", "kfree.sieve_moebius", "kfree.zeta",
         "cfrac.estimate_type", "cli.main"],
        [f"expsums.{f}" for f in EXPSUMS] + [f"smoothing.{f}" for f in SMOOTHING]
        + [f"discrepancy.{f}" for f in DISCREPANCY],
    ),
    "expsum": (
        ["fixed.frac_vector", "kfree.sieve_kfree", "kfree.sieve_moebius", "kfree.zeta",
         "cfrac.estimate_type", "cfrac.dirichlet_approx", "cli.main"]
        + [f"expsums.{f}" for f in EXPSUMS],
        ["beatty.beatty_terms_block", "beatty.count_kfree_beatty", "kfree.count_kfree"]
        + [f"smoothing.{f}" for f in SMOOTHING] + [f"discrepancy.{f}" for f in DISCREPANCY],
    ),
    "membership": (
        ["fixed.frac_vector", "beatty.beatty_terms_block", "beatty.member_flags_block",
         "beatty.beatty_term", "beatty.is_member", "beatty.member_witness",
         "beatty.count_kfree_beatty", "kfree.sieve_kfree", "kfree.zeta", "cfrac.estimate_type",
         "cli.main"] + [f"smoothing.{f}" for f in SMOOTHING]
        + [f"discrepancy.{f}" for f in DISCREPANCY],
        [f"expsums.{f}" for f in EXPSUMS] + ["kfree.count_kfree"],
    ),
}
BIG_ALPHA_OP = f"beatty_terms_block {workloads.BIG_ALPHA} beta=0 n=2^30"


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: layer metrics of set-up plus one traced pass, and both passes' results."""
    out = {}
    for workload in EXPECTED:
        tmp = str(tmp_path_factory.mktemp(workload))
        t = tracing.Tracer()
        t.install()
        try:
            t.recording = True
            workloads.setup(workload)
            t.recording = False
            ops = workloads.build(workload, seed=7, size="small", tmp_dir=tmp)
            _, traced = child.run_pass(ops, t)
        finally:
            t.uninstall()
        _, untraced = child.run_pass(ops)
        out[workload] = (tracing.layer_metrics(t.spans, t.names), traced, untraced)
    return out


def test_tracer_patches_every_importing_binding():
    bindings = [
        (fixed, beatty, "frac_vector"), (fixed, smoothing, "frac_vector"),
        (fixed, discrepancy, "frac_vector"), (fixed, expsums, "frac_vector"),
        (kfree, beatty, "sieve_kfree"), (kfree, smoothing, "sieve_kfree"),
        (kfree, expsums, "sieve_kfree"), (beatty, smoothing, "beatty_term"),
        (beatty, smoothing, "is_member"), (kfree, beatty, "zeta"),
        (kfree, expsums, "sieve_moebius"),
    ]
    originals = [getattr(src, name) for src, _, name in bindings]
    t = tracing.Tracer()
    t.install()
    try:
        for (src, user, name), original in zip(bindings, originals):
            assert getattr(src, name) is not original, f"{src.__name__}.{name}"
            assert getattr(user, name) is getattr(src, name), f"{user.__name__}.{name}"
    finally:
        t.uninstall()
    for (src, user, name), original in zip(bindings, originals):
        assert getattr(src, name) is original and getattr(user, name) is original


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_spans_where_work_is_predicted(traced_runs, workload):
    layers = traced_runs[workload][0]
    busy, idle = EXPECTED[workload]
    assert [f for f in busy if layers[f"{f}.calls"] == 0] == []
    assert [f for f in idle if layers[f"{f}.calls"] != 0] == []


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_traced_and_untraced_outputs_match(traced_runs, workload):
    _, traced, untraced = traced_runs[workload]
    assert [(n, d) for n, _, d in traced] == [(n, d) for n, _, d in untraced]


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_no_workload_op_fails(traced_runs, workload):
    for results in traced_runs[workload][1:]:
        assert [(name, problem) for name, problem, _ in results if problem is not None] == []


def test_known_defect_is_probed_apart_from_the_timed_ops(tmp_path):
    probes = [op.name for op in workloads.known_defects("membership", 7, "full")]
    assert probes == [BIG_ALPHA_OP]
    timed = [op.name for op in workloads.build("membership", 7, "small", str(tmp_path))]
    assert BIG_ALPHA_OP not in timed
    assert workloads.known_defects("count", 7, "full") == []
    assert workloads.known_defects("expsum", 7, "full") == []


def test_layer_metrics_self_time_and_fallbacks():
    # span tuples: (name id, start, end, parent, op, quantity)
    names = list(tracing.LAYERS)
    block, term = names.index("beatty.beatty_terms_block"), names.index("beatty.beatty_term")
    frac = names.index("fixed.frac_vector")
    spans = [(block, 0, 100, -1, 0, 8), (frac, 10, 40, 0, 0, 8), (term, 50, 60, 0, 0, 0),
             (term, 200, 210, -1, 0, 0)]
    m = tracing.layer_metrics(spans, names)
    assert m["beatty.beatty_terms_block.self_s"] == pytest.approx(60e-9)
    assert m["beatty.beatty_terms_block.ns_per_elem"] == pytest.approx(60 / 8)
    assert m["fixed.frac_vector.elems"] == 8
    assert m["beatty.beatty_term.calls"] == 2
    assert m["beatty.border_fallbacks"] == 1


def test_benchmark_json_names_are_reported(traced_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layers = traced_runs["count"][0]
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in layers and not m["name"].startswith(("trace.", "known_defects."))]
    assert missing == []
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb", "pass_share"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_contract_json():
    proc = _run(ROOT, "--workload", "expsum", "--seed", "3", "--seconds", "1", "--trace", "0",
                "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb", "pass_share"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
