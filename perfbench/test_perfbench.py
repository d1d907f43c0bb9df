"""Tests of the benchmark itself, on tiny runs of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run
from hostspeed import NOMINAL_S, HostSpeed
from spans import SpanRecorder

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402  (needs the package sources on the path)
from maskterm import tasks, training  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = run.load_bench()
NAMES = [w["name"] for w in BENCH["workloads"]]
TINY = ["--seed", "5", "--seconds", "0.1"]


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    """Every workload at 2 % of its size, at least two inputs a set."""
    for name, wl in list(WORKLOADS.items()):
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(
            wl, train_size=max(2, round(wl.train_size * 0.02)),
            heldout_size=max(2, round(wl.heldout_size * 0.02))))


def tiny_run(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--trace", str(trace), *TINY]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_exactly_the_declared_metrics(capsys, workload, trace, section):
    result = tiny_run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload,method,flip", [
    ("ate-actm-short", "predict_bio", lambda tags: ["O" if tags[0] != "O" else "B"] + tags[1:]),
    ("asc-aam-long", "predict_polarity", lambda label: "neutral" if label != "neutral" else "positive"),
])
def test_planted_prediction_mismatch_counts_a_failure(capsys, monkeypatch, workload, method, flip):
    """The one-instance path disagrees with the full-set path on every call."""
    real_one_by_one = harness.evaluate_one_by_one
    real_predict = getattr(tasks.AbsaModel, method)

    def planted(*args):
        with monkeypatch.context() as m:
            m.setattr(tasks.AbsaModel, method, lambda *a: flip(real_predict(*a)))
            return real_one_by_one(*args)

    monkeypatch.setattr(harness, "evaluate_one_by_one", planted)
    result = tiny_run(capsys, workload, 0)
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_non_finite_loss_counts_a_failure_and_still_reports(capsys, monkeypatch, trace):
    """train() raises NumericError on the NaN loss; the run reports it."""
    real_batch_loss = training.batch_loss

    def planted(*args, **kwargs):
        loss = real_batch_loss(*args, **kwargs)
        loss.data = loss.data * math.nan
        return loss

    monkeypatch.setattr(training, "batch_loss", planted)
    result = tiny_run(capsys, "ate-actm-short", trace)
    assert result["correct"] is False and result["failed"] >= 1 and result["attempted"] >= 3
    assert result["metrics"] == {}


def test_counts_repeat_exactly(capsys):
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    counts.append("masking.kept_ratio")
    first, second = (tiny_run(capsys, "asc-amom-short", 1)["metrics"] for _ in range(2))
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["masking.amom_forwards_per_train_inst"]["value"] == 4.0


def test_self_time_subtracts_child_spans_and_restore_puts_originals_back():
    class Layers:
        @staticmethod
        def inner():
            time.sleep(0.02)

        @staticmethod
        def outer():
            time.sleep(0.01)
            Layers.inner()

    originals = (Layers.inner, Layers.outer)
    rec = SpanRecorder()
    rec.wrap(Layers, "inner", "inner")
    rec.wrap(Layers, "outer", "outer")
    Layers.outer()
    rec.restore()
    assert (Layers.inner, Layers.outer) == originals
    inclusive, own = rec.totals()
    assert [s[:1] + s[3:] for s in rec.spans] == [["outer", -1], ["inner", 0]]
    assert own["inner"] == pytest.approx(inclusive["inner"])
    assert own["outer"] == pytest.approx(inclusive["outer"] - inclusive["inner"])
    assert 0.009 < own["outer"] < inclusive["inner"]


def test_scaled_through_scales_each_stretch_between_probes():
    host = HostSpeed()
    for mid, seconds in ((1.0, NOMINAL_S), (3.0, 2 * NOMINAL_S)):  # instant probes
        host.starts.append(mid)
        host.ends.append(mid)
        host.mids.append(mid)
        host.seconds.append(seconds)
    # speed 1 up to the first probe, 1/1.5 at the middle stretch, 1/2 after the last
    assert host.scaled_through((0.0, 4.0)) == pytest.approx(1.0 + 2.0 / 1.5 + 0.5)
    assert host.scaled_through((1.5, 2.5)) == pytest.approx(host.scaled((1.5, 2.5)))


def test_fails_without_a_result_where_only_the_benchmark_is(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ate-actm-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
