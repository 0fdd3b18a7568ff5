"""BENCHMARK.json is well formed, and the command keeps its contract."""

import json
import re
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

from bench import ROOT
from bench.__main__ import declared, main
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "results.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30
    spec = declared()
    results = json.loads(out.read_text())["workloads"]
    for workload in WORKLOADS:
        for mode, group in (("untraced", "end_to_end"), ("traced", "per_layer")):
            run = results[workload][mode]
            assert run["result"]["failed"] == 0
            got = run["result"]["metrics"]
            assert set(got) == {m["name"] for m in spec[group]}
            assert all(isinstance(m["value"], float) for m in got.values())
        traced = results[workload]["traced"]["result"]["metrics"]
        assert traced["ledger.missing"]["value"] == 0
        # the named layers take most of each op's wall time (full-length
        # runs measure >= 90%; three round trips only bound it loosely)
        assert traced["app.compress_other_share"]["value"] < 0.2
        assert traced["app.decompress_other_share"]["value"] < 0.2


def test_corrupted_output_is_counted_and_fails_the_run(monkeypatch, capsys):
    from repro.app import compressor

    decompress = compressor.decompress_symbols

    def corrupting(blob, *args, **kwargs):
        out = decompress(blob, *args, **kwargs).copy()
        out[0] ^= 1
        return out

    monkeypatch.setattr(compressor, "decompress_symbols", corrupting)
    status = main(["--workload", "text-1m", "--quick", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2 > 0


def _session_members(sid: int) -> list[int]:
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with suppress(OSError):
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_leaves_no_process_running(trace):
    """field-16m encodes through the process pool and shared memory; once
    the command exits, nothing it started is still running."""
    with subprocess.Popen(
        [sys.executable, "-m", "bench", "--workload", "field-16m", "--quick",
         "--seed", "1", "--trace", trace],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as proc:
        assert proc.wait(timeout=120) == 0
    assert _session_members(proc.pid) == []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program(tmp_path, trace):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    (tmp_path / "bench").mkdir()
    for f in ROOT.joinpath("bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "text-1m",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
