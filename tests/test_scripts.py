"""Smoke tests for the scripts under scripts/: each runs in a subprocess
against the sources in src/, as a user would run it.  The ones that import
gemstore from their own checkout run with PYTHONPATH naming a decoy
gemstore instead, which they must not import.  The revision scenario of
artefact_hashes.py is also imported, to read its journal."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gemstore.transaction import DELTA_KINDS

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str, pythonpath: Path = ROOT / "src", **env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **env)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def decoy(tmp_path) -> Path:
    """A directory holding a `gemstore` package that fails to import."""
    (tmp_path / "gemstore").mkdir()
    (tmp_path / "gemstore" / "__init__.py").write_text('raise ImportError("decoy gemstore imported")\n')
    return tmp_path


def test_run_deadline_answers_the_moved_deadline():
    result = _run("run_deadline.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "website-redesign.Deadline = 'April 20' (tick 12)" in result.stdout
    assert "PASS C1-C6" in result.stdout


def test_soak_audit_runs_clean():
    result = _run("soak_audit.py", "3", "50")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "3 workloads x 50 events, 0 failures" in result.stdout


def test_artefact_hashes_quick_profile_is_deterministic(decoy):
    # two string-hash seeds, so that no byte may follow the order of a set or a hash
    first = _run("artefact_hashes.py", "--quick", PYTHONHASHSEED="1")
    second = _run("artefact_hashes.py", "--quick", pythonpath=decoy, PYTHONHASHSEED="2")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    lines = first.stdout.splitlines()
    assert lines == second.stdout.splitlines()
    assert any(line.startswith("perfbench.store-large.31.0.journal ") for line in lines)
    assert any(line.startswith("deadline.audit ") for line in lines)
    assert any(line.startswith("deadline.digests ") for line in lines)
    assert any(line.startswith("deadline.snapshot ") for line in lines)
    assert any(line.startswith("compare.1.3.baseline.journal ") for line in lines)
    assert any(line.startswith("compare.1.3.baseline.digests ") for line in lines)
    for suffix in ("journal", "audit", "answers", "digests"):
        assert any(line.startswith(f"revision.{suffix} ") for line in lines)


def test_the_revision_scenario_journals_every_delta_kind_but_topic_removed():
    spec = importlib.util.spec_from_file_location("artefact_hashes", ROOT / "scripts" / "artefact_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    engine, _ = script.revision_run()
    records = engine.journal.records
    assert all(r.committed for r in records)
    assert {d["kind"] for r in records for d in r.deltas} == set(DELTA_KINDS) - {"topic_removed"}


def test_hot_field_reports_each_window_of_updates(decoy):
    result = _run("hot_field.py", "--updates", "120", "--block", "50", pythonpath=decoy)
    assert result.returncode == 0, result.stdout + result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [row["updates"] for row in rows] == [[0, 50], [0, 50], [50, 100], [100, 120]]
    assert [row["retrieves"] for row in rows] == [10, 10, 10, 4]
    for row in rows:
        assert row["correct"] is True and row["entries"] == row["updates"][0]
        assert row["ingest_p50_ms"] > 0 and row["retrieve_p50_ms"] > 0
    assert rows[0]["ingest_p50_ratio"] == rows[0]["retrieve_p50_ratio"] == 1.0


PER_RECORD = ("engine_ms_per_record", "write_ms_per_record", "replay_ms_per_record", "audit_ms_per_record")


def test_store_sweep_reports_each_size_and_operator(decoy):
    result = _run("store_sweep.py", "--sizes", "20,40", pythonpath=decoy)
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [row["n"] for row in rows] == [20, 40], result.stderr
    # at N = 40 the harness's audit reports the C3 false positive kept as a
    # strict xfail in perfbench/test_known_defects.py; the sweep prints that
    # size's line all the same and exits 1
    assert result.returncode == (0 if all(row["correct"] for row in rows) else 1)
    operators = {"ingest_hinted", "ingest_unhinted", "retrieve", "revise", "tick"}
    for row in rows:
        assert row["correct"] is (row["failures"] == [])
        assert set(row["operators"]) == operators
        for stats in row["operators"].values():
            assert 0 < stats["p50_ms"] <= stats["p99_ms"]
        for key in PER_RECORD:
            assert row[key] > 0 and row[f"{key}_ratio"] == row[key] / rows[0][key]
    first = rows[0]
    assert all(stats["p50_ratio"] == stats["p99_ratio"] == 1.0 for stats in first["operators"].values())
    assert all(first[f"{key}_ratio"] == 1.0 for key in PER_RECORD)
