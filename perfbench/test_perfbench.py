"""Tests of the benchmark itself, on reduced job lists.

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as W

run.import_weylpi()
GOLDEN = json.loads(run.GOLDEN.read_text())


def test_all_workloads_print_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, run.__file__, "--all", "--smoke", "--seconds", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {tuple(line.split()[:2]): line.split() for line in proc.stdout.splitlines()}
    for workload in W.WORKLOADS:
        for name, unit in run.END_TO_END.items():
            assert rows[(workload, name)][3] == unit
            assert float(rows[(workload, name)][2]) > 0
        assert float(rows[(workload, "fail_ratio")][2]) == 0


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    wl = W.Workload(workload, GOLDEN)
    tally = run.Tally()
    values = run.per_layer(wl, W.make_jobs(workload, 3, smoke=True), 0, 3, tally)
    assert set(values) == set(run.PER_LAYER)
    assert tally.failed == 0 and tally.attempted == 3 * W.SMOKE_JOBS[workload]
    if workload == "check-d5":
        assert values["evaluation.tuple_calls"] > 0
    if workload == "normalize-d7":
        assert values["evaluation.inclusive_share"] == values["linalg.self_share"] == 0
        assert values["rewriter.steps"] > 0


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload):
    wl = W.Workload(workload, GOLDEN)
    first, _ = run.count_pass(wl, W.make_jobs(workload, 5, smoke=True), run.Tally())
    second, _ = run.count_pass(wl, W.make_jobs(workload, 5, smoke=True), run.Tally())
    assert first == second
    assert first["bench.op.calls"] == W.SMOKE_JOBS[workload]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_corrupted_golden_entry_is_a_failure(workload):
    jobs = W.make_jobs(workload, W.DEFAULT_SEED, smoke=True)
    golden = copy.deepcopy(GOLDEN)
    entries = golden[workload]
    key = jobs[0].key if workload in ("verify-d6", "crosscheck-d5") else W.digest(jobs[0].key)
    if workload == "verify-d6":
        entries[key]["dim_id"] += 1
    elif workload == "crosscheck-d5":
        entries[key]["digest"] = "0" * 16
    elif workload == "normalize-d7":
        entries[key] = "0" * 16
    else:
        entries[key] = not entries[key]
    _, _, failures = run.run_pass(W.Workload(workload, golden), jobs)
    assert failures == [jobs[0]]
    _, _, failures = run.run_pass(W.Workload(workload, GOLDEN), jobs)
    assert failures == []


def test_each_time_is_scaled_by_the_quanta_that_bracket_it(monkeypatch):
    # A clock that moves 1 s a reading makes every operation take 1 s and be
    # followed by a quantum; quanta alternate between 1x and 3x the nominal.
    ticks, quanta = iter(range(10**6)), iter([1, 3] * 50)
    monkeypatch.setattr(run, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(run, "reference_quantum", lambda: next(quanta) * run.REFERENCE_S)
    jobs = W.make_jobs("verify-d6", W.DEFAULT_SEED, smoke=True)
    lat, _, failures = run.run_pass(W.Workload("verify-d6", GOLDEN), jobs)
    assert failures == [] and lat == [0.5] * len(jobs)


def test_wrong_normal_form_fails_the_seed_independent_check():
    wl = W.Workload("normalize-d7")
    job = W.make_jobs("normalize-d7", 7, smoke=True)[0]
    f, forms, _ = wl.op(job)
    assert W.normal_form_is_valid(wl.api, f, forms)
    nf = next(iter(forms.values()))
    nf.beta += 1
    assert not W.normal_form_is_valid(wl.api, f, forms)


def test_jobs_come_from_the_seed():
    for workload in W.WORKLOADS:
        assert W.make_jobs(workload, 11) == W.make_jobs(workload, 11)
        assert W.make_jobs(workload, 11) != W.make_jobs(workload, 12)
    ids = [j for j in W.make_jobs("check-d5", 11) if j.identity]
    assert len(ids) == W.N_CHECK // 3


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES
                        + (("linalg.gone", "weylpi.linalg", "no_such_function"),))
    import weylpi.linalg

    original = weylpi.linalg.row_reduce_sparse
    with tracing.Tracer() as tracer:
        assert weylpi.linalg.row_reduce_sparse is not original
    assert weylpi.linalg.row_reduce_sparse is original
    assert tracer.absent == ["linalg.gone"]


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-d6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
