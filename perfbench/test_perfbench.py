"""Tests of the benchmark's own checks, and a tiny smoke run of each workload.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from repro.store import Campaign, ResultStore, SeedPolicy, SweepSpec

from perfbench import checks, inputs, workloads
from perfbench.common import beyond, tail_percentile

FRAME = "/frame?k=2"
FRAME_AGG = "/frame?groupby=g_n&aggregate=mean&column=mean"


def _tiny_specs(seed: int, *_: object, **__: object) -> list[SweepSpec]:
    return [SweepSpec(name="tiny", process="cobra", graph="grid",
                      graph_grid={"n": [4, 5], "d": [1]}, params_grid={"k": [2, 3]},
                      trials=2, seed=SeedPolicy(root=seed + 1))]


@pytest.fixture()
def store(tmp_path: Path) -> ResultStore:
    st = ResultStore(tmp_path / "store")
    for spec in _tiny_specs(0):
        Campaign(spec, st).run()
    return ResultStore(tmp_path / "store")


@pytest.fixture()
def expected(store: ResultStore) -> checks.Expected:
    return checks.expected_for(store, [FRAME, FRAME_AGG])


def _frame_body(expected: checks.Expected, path: str) -> bytes:
    return json.dumps(expected.frames[path], sort_keys=True).encode()


def test_correct_responses_pass(expected: checks.Expected) -> None:
    h = next(iter(expected.records))
    cell = json.dumps(expected.records[h], sort_keys=True).encode()
    etag = {"ETag": f'"{h}"'}
    assert checks.response_failure(
        inputs.Request("cell", f"/cell/{h}"), 200, etag, cell, expected) is None
    assert checks.response_failure(
        inputs.Request("cell_304", f"/cell/{h}", f'"{h}"'), 304, etag, b"", expected) is None
    for path in (FRAME, FRAME_AGG):
        assert checks.response_failure(
            inputs.Request("frame", path), 200, {}, _frame_body(expected, path), expected) is None


def test_truncated_frame_fails(expected: checks.Expected) -> None:
    doc = copy.deepcopy(expected.frames[FRAME])
    doc["rows"] = doc["rows"][:-1]
    body = json.dumps(doc).encode()
    failure = checks.response_failure(inputs.Request("frame", FRAME), 200, {}, body, expected)
    assert failure is not None and "rows" in failure
    cut = _frame_body(expected, FRAME)[:-40]
    assert checks.response_failure(inputs.Request("frame", FRAME), 200, {}, cut, expected)


def test_altered_aggregate_fails(expected: checks.Expected) -> None:
    doc = copy.deepcopy(expected.frames[FRAME_AGG])
    doc["rows"][0]["mean"] += 1.0
    body = json.dumps(doc).encode()
    assert checks.response_failure(
        inputs.Request("frame_agg", FRAME_AGG), 200, {}, body, expected) is not None


def test_altered_record_fails(expected: checks.Expected) -> None:
    h = next(iter(expected.records))
    record = copy.deepcopy(expected.records[h])
    values = record["result"]["values"]
    record["result"]["values"] = [v + 1.0 for v in values]
    body = json.dumps(record).encode()
    assert checks.response_failure(
        inputs.Request("cell", f"/cell/{h}"), 200, {"ETag": f'"{h}"'}, body, expected)
    assert checks.cell_failure(record, budgeted=False, reference=values) is not None
    assert checks.cell_failure(expected.records[h], budgeted=False, reference=values) is None


def test_304_for_stale_etag_fails(expected: checks.Expected) -> None:
    h, other = list(expected.records)[:2]
    req = inputs.Request("cell_304", f"/cell/{h}", f'"{other}"')
    failure = checks.response_failure(req, 304, {"ETag": f'"{h}"'}, b"", expected)
    assert failure is not None and "stale" in failure


def test_error_status_and_nan_without_budget_fail(expected: checks.Expected) -> None:
    h = next(iter(expected.records))
    assert checks.response_failure(inputs.Request("cell", f"/cell/{h}"), 500, {}, b"{}", expected)
    record = copy.deepcopy(expected.records[h])
    record["result"]["values"][0] = float("nan")
    assert checks.cell_failure(record, budgeted=False) is not None
    assert checks.cell_failure(record, budgeted=True) is None
    assert checks.cell_failure(None, budgeted=False) == "cell not committed"


def test_torn_shard_fails_fsck(store: ResultStore) -> None:
    assert checks.fsck_failure(store) is None
    shard = store.shard_paths()[0]
    shard.write_text(shard.read_text() + '{"hash": "torn\n')
    assert checks.fsck_failure(ResultStore(store.root)) is not None


def test_tail_percentile_needs_ten_samples_beyond() -> None:
    assert beyond(1010, 99) == 10 and tail_percentile(1010) == 99
    assert beyond(1000, 99) == 10 and beyond(999, 99) < 10
    assert tail_percentile(600) == 90
    assert tail_percentile(9) is None


# ----------------------------------------------------------------------
# tiny smoke runs: the real harness, launcher and program processes
# ----------------------------------------------------------------------

@pytest.fixture()
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(inputs, "engine_specs", _tiny_specs)
    monkeypatch.setattr(inputs, "drain_specs", _tiny_specs)
    monkeypatch.setattr(inputs, "serve_specs", _tiny_specs)
    monkeypatch.setattr(workloads, "MIN_REQUESTS", 40)
    monkeypatch.setattr(workloads, "TRACED_REQUESTS", 40)
    monkeypatch.setattr(workloads, "COLD_STARTS", 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name: str, trace: bool, tiny: None, tmp_path: Path) -> None:
    outcome, metrics = workloads.WORKLOADS[name](7, 0.0, trace, tmp_path)
    assert outcome.failed == 0, outcome.reasons
    assert outcome.attempted > 0
    if trace:
        assert metrics["obs.named_layer_share"].value > 0
        assert metrics["sim.facade.run_batch.calls"].value > 0 or name == "serve_mixed"
    else:
        assert set(metrics) == {"setup_s", "ops_per_s", "latency_p50_ms",
                                "latency_tail_ms", "peak_rss_mb"}
        assert all(m.value > 0 for m in metrics.values())


def test_without_program_source_exits_nonzero(tmp_path: Path) -> None:
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drain_many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
