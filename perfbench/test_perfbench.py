"""Tests of the benchmark harness itself (not of qsu2)."""
import json
import os
import re
import subprocess
import sys

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = run.Workload(("all", "--q", "1.2", "--lmax", "16"),
                    ("validate", "haar", "commutators", "heat", "modular"))


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_names_and_units_match_the_harness():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A tiny workload with its reference artifacts written by the current program."""
    ref = tmp_path / "reference" / "tiny"
    ref.mkdir(parents=True)
    out, _ = run.artifact_paths(TINY, str(ref))
    subprocess.run([sys.executable, "-m", "qsu2.cli"] + list(TINY.argv) + ["--out", out],
                   cwd=run.ROOT, env=dict(os.environ, PYTHONPATH=run.SRC),
                   check=True, capture_output=True)
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": TINY})
    monkeypatch.setattr(run, "REFERENCE", str(tmp_path / "reference"))
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    monkeypatch.setattr(run, "PROBE_SEEDS", 2)
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(tiny, trace):
    record = run.run("tiny", seed=3, seconds=0.1, trace=trace)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in record["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in record["metrics"].values())
    assert (tiny / "out" / ("tiny_seed3_trace%d.json" % trace)).exists()
    if trace:  # the two counting passes agree, and count real work
        counts = {m: record["metrics"][m]["value"] for m in run.worker.COUNTED}
        assert counts == record["counts_pass2"] and counts["qarith.cg_calls"] > 0


def test_missing_program_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "haar-ld62", "--seed", "1", "--seconds", "1"]) != 0
