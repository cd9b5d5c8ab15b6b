"""Script mode of ``benchmarks/bench_obs_overhead.py`` writes valid JSON."""

import json

from benchmarks import bench_obs_overhead
from repro.api import BenchSpec


def _stub_arms(repeats=5):
    return {
        "plain": {"wall_seconds": 1.0, "events_processed": 1000, "events_per_s": 1000.0},
        "obs": {
            "wall_seconds": 1.01,
            "events_processed": 1000,
            "events_per_s": 990.0,
            "windows": 3,
            "records": 9,
        },
        "overhead": 1000.0 / 990.0 - 1.0,
    }


def test_main_writes_a_json_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_obs_overhead, "measure_arms", _stub_arms)
    out = tmp_path / "BENCH_obs.json"
    assert bench_obs_overhead.main(["--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["artifact"] == "bench-obs"
    assert payload["plain"]["events_per_s"] == 1000.0
    assert payload["obs"]["windows"] == 3
    # The scenario is embedded as the spec's plain-data form.
    assert BenchSpec.from_json(payload["scenario"]) == bench_obs_overhead.SCENARIO
    assert "obs overhead gate: OK" in capsys.readouterr().out
