"""Tests of the benchmark itself: references, failure counting, determinism.

    python -m pytest bench/tests -q

They run small instances of the workloads against the checkout's
src/, some through fake_vt.py, which breaks the real CLI's output in
one way per mode.
"""
import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAKE = Path(__file__).with_name("fake_vt.py")
SMALL = {
    "scan-stream": workloads.ScanStream(rows=3000),
    "run-search": workloads.RunSearch(length=200_000, min_len=3),
    "wide-runs": workloads.WideRuns(length=3000),
    "sweep": workloads.Sweep(conjecture_bits=12, census_bits=12),
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def measure(workload, mode: str, workdir: Path) -> run.Runner:
    """One repeat of the workload through fake_vt.py in the given mode."""
    runner = run.Runner(ROOT, workdir, [sys.executable, str(FAKE), mode])
    run.end_to_end(runner, workload.plan(7, workdir), seconds=0)
    return runner


@pytest.mark.parametrize("name", sorted(SMALL))
def test_unchanged_output_passes(name, tmp_path):
    runner = measure(SMALL[name], "none", tmp_path)
    assert runner.failures == []
    assert runner.attempted == len(SMALL[name].plan(7, tmp_path).commands) + 1


def test_corrupted_stream_counts_as_failed(tmp_path):
    runner = measure(SMALL["scan-stream"], "corrupt-stdout", tmp_path)
    assert len(runner.failures) == 1
    assert "stdout differs" in runner.failures[0]


def test_wrong_run_list_counts_as_failed(tmp_path):
    runner = measure(SMALL["wide-runs"], "drop-line", tmp_path)
    assert len(runner.failures) == 1
    assert "stdout differs" in runner.failures[0]


def test_leftover_checkpoint_counts_as_failed(tmp_path):
    runner = measure(SMALL["scan-stream"], "keep-checkpoint", tmp_path)
    assert len(runner.failures) == 1
    assert "checkpoint file left behind" in runner.failures[0]
    assert not (tmp_path / "scan.ckpt").exists()  # removed so the next repeat starts fresh


def test_same_seed_same_arguments(tmp_path):
    for workload in workloads.WORKLOADS.values():
        if hasattr(workload, "range"):
            assert workload.range(11) == workload.range(11)
            assert workload.range(11) != workload.range(12)
    for workload in SMALL.values():
        first = [c.args for c in workload.plan(11, tmp_path).commands]
        assert first == [c.args for c in workload.plan(11, tmp_path).commands]


def test_ranges_stay_in_their_tier():
    for seed in range(50):
        lo, hi = workloads.WORKLOADS["scan-stream"].range(seed)
        assert 1 << 31 <= lo and hi < 1 << 32
        lo, hi = workloads.WORKLOADS["run-search"].range(seed)
        assert 1 <= lo and hi < 1 << 32
        lo, hi = workloads.WORKLOADS["wide-runs"].range(seed)
        assert 1 << 33 <= lo and hi < 1 << 63


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, code in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == code
    for name in [*run.END_TO_END, *layers.PER_LAYER, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", ["scan-stream", "sweep"])
def test_traced_run_measures_every_layer_metric(name, tmp_path):
    runner = run.Runner(ROOT, tmp_path, [sys.executable, "-m", "vtnum"])
    metrics = run.per_layer(runner, SMALL[name].plan(3, tmp_path), seconds=0)
    assert runner.failures == []
    assert list(metrics) == list(layers.PER_LAYER)
    # layers the workload's own commands skip are timed by its side commands
    timed = [k for k, (unit, _) in layers.PER_LAYER.items() if unit in ("s", "1/s")]
    assert [k for k in timed if metrics[k][0] == 0] == []
    assert metrics["analysis.census_hits"][0] == 4
    # the census's four formatted rows are too few to time formatting by
    assert metrics["scanner.format_idx_per_s"][0] > 1e5


def test_wrong_side_command_output_counts_as_failed(tmp_path):
    plan = SMALL["scan-stream"].plan(3, tmp_path)
    census = plan.side[-1]
    wrong = dataclasses.replace(census, stdout_sha256=workloads.EMPTY_SHA256)
    runner = run.Runner(ROOT, tmp_path, [sys.executable, "-m", "vtnum"])
    run.per_layer(runner, dataclasses.replace(plan, side=(*plan.side[:-1], wrong)), seconds=0)
    assert len(runner.failures) == 1
    assert runner.failures[0].startswith("traced census") and "stdout differs" in runner.failures[0]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys):
    argv = ["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv, root=tmp_path) != 0
    assert capsys.readouterr().out == ""


def test_reference_finds_the_readme_run():
    out = reference.runs_jsonl(1, 40000, 6).decode()
    assert '{"start":30301,"length":6,"popcounts":[15,15,15,15,15,21]' in out


def test_reference_tiers_agree_at_2_to_the_32():
    lo, hi = (1 << 32) - 500, (1 << 32) + 500
    wide = reference.popcounts(lo, hi)  # Python ints: hi is past the uint64 tier
    narrow = reference.popcounts(lo, (1 << 32) - 1)  # numpy uint64
    assert wide[: len(narrow)].tolist() == narrow.tolist()


def test_census_reference():
    assert reference.census_jsonl().splitlines()[0] == b'{"n":6,"t":"21","pc":3,"vt":true}'
