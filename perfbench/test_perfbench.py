"""Tests for the benchmark itself.  Run: python3 -m pytest -q perfbench"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402
from terracini import cli  # noqa: E402

GAMMA = "analyze --variety veronese:4:2 --check gamma15 --seed 3".split()
GAMMA_RANDOM = "analyze --variety random:5:2:17:3 --check gamma15 --seed 3".split()
SECANT = "analyze --variety veronese:4:2 --check secant:2 --check speciality:3 --trials 2".split()
AUDIT = "audit-theorem --variety random:2:4:8:5 --trials 1".split()


def _report(argv):
    code, report, _, _ = run.invoke(cli.main, argv)
    assert code == 0
    return report


def _bindings():
    """Every attribute of every terracini module and traced class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "terracini" or name.startswith("terracini."):
            out.update({(name, k): id(v) for k, v in vars(mod).items()})
    for short, cls_name in tracing.TRACED_CLASSES:
        cls = getattr(sys.modules[f"terracini.{short}"], cls_name)
        out.update({(cls_name, k): id(v) for k, v in vars(cls).items()})
    return out


@pytest.mark.parametrize("argv", [GAMMA, SECANT, AUDIT], ids=["gamma15", "secant", "audit"])
def test_traced_run_leaves_reports_byte_identical(argv):
    plain = _report(argv)
    tr = tracing.Tracer()
    with tr.installed(), tr.request():
        traced = _report(argv)
    assert traced == plain
    assert tr.layer_table()["cli.main"]["calls"] == 1


def test_wrappers_are_removed_after_the_run():
    before = _bindings()
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert _bindings() != before
            raise RuntimeError("leave the traced block early")
    assert _bindings() == before


def test_every_binding_of_a_from_import_is_patched():
    from terracini import chart, exactlin, gamma15, secants

    tr = tracing.Tracer()
    with tr.installed():
        wrapped = {mod.span_rank for mod in (chart, exactlin, gamma15, secants)}
        assert len(wrapped) == 1 and wrapped.pop().__wrapped__ is not None
        assert exactlin.bareiss_echelon.__wrapped__ is not None
        assert exactlin.mod_rank.__wrapped__ is not None
        assert inspect.unwrap(chart.Chart.derivative_vector) is not chart.Chart.derivative_vector


def test_layer_counters():
    tr = tracing.Tracer()
    with tr.installed():
        with tr.request():
            _report(GAMMA)
        with tr.request():
            _report(SECANT)
    table = tr.layer_table()
    assert tr.sz_trials == 20  # D is identically zero, so every trial runs
    assert table["gamma15.gamma15_matrix"]["calls"] == 20
    assert table["exactlin.span_rank"]["calls"] > 0 and tr.cells > 0
    assert 0 < tr.screen_hit_ratio() <= 1
    assert 0 < tr.repeat_share() < 1
    for row in table.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    root = tr._name_id("outer")
    child = tr._name_id("inner")
    tr.spans[:] = [(root, -1, 0, 0, 100), (child, 0, 0, 10, 40), (child, 0, 0, 50, 60)]
    table = tr.layer_table()
    assert table["outer"]["self_s"] == pytest.approx(60e-9)
    assert table["inner"] == {"calls": 2, "self_s": pytest.approx(40e-9),
                              "total_s": pytest.approx(40e-9)}


def test_correct_report_passes_the_gate():
    report = _report(SECANT)
    key = " ".join(SECANT)
    assert verify.call_problems(SECANT, 0, report, {key: verify.digest(report)}) == []


def test_corrupted_digest_is_a_failure():
    report = _report(SECANT)
    corrupted = {" ".join(SECANT): "0" * 64}
    assert verify.call_problems(SECANT, 0, report, corrupted) == [
        "report digest differs from the recorded one"]


def test_wrong_exit_code_is_a_failure():
    report = _report(SECANT)
    assert verify.call_problems(SECANT, 2, report, {}) == ["exit code 2"]


def test_wrong_secant_verdict_is_a_failure():
    doc = json.loads(_report(SECANT))
    assert doc["results"][0]["observed"] == 11  # rank <= 3 symmetric 5x5 matrices
    doc["results"][0]["observed"] = 12
    problems = verify.call_problems(SECANT, 0, json.dumps(doc).encode(), {})
    assert problems == ["secant:2: observed 12, oracle 11"]


@pytest.mark.parametrize("argv", [GAMMA, GAMMA_RANDOM], ids=["veronese", "random"])
def test_wrong_identity_verdict_is_a_failure(argv):
    doc = json.loads(_report(argv))
    doc["results"][0]["identically_zero"] = False
    problems = verify.call_problems(argv, 0, json.dumps(doc).encode(), {})
    assert problems == ["gamma15: D is not identically zero on a quadratic chart"]


def test_secant_oracles():
    assert verify.expected_secant_dim("veronese:10:2", 4, 65) == 44  # delta_4 = 10
    assert verify.expected_secant_dim("segre:6:7", 6, 55) == 55
    assert verify.expected_secant_dim("veronese:2:12", 29, 90) == 89
    assert verify.expected_secant_dim("veronese:2:4", 4, 14) is None  # AH exception
    assert verify.expected_secant_dim("random:4:4:14:1", 2, 14) is None


def test_setup_is_measured_against_the_reference_imports():
    pairs = [(0.04, 0.02), (0.08, 0.04), (0.04, 0.1)]  # (reference, program)
    assert run.setup_seconds(pairs) == pytest.approx(0.5 * reference.IMPORTS_NOMINAL_S)


def test_tail_keeps_ten_calls_beyond_it():
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0, 40)
    assert run.tail(times[:5]) == (5.0, 100.0, 5)


def test_every_workload_template_is_recorded_for_the_default_seed():
    digests = verify.load_digests()
    for workload in run.WORKLOADS:
        first_round = [" ".join(a) for a, _ in zip(run.invocations(workload, 1),
                                                   run.WORKLOADS[workload])]
        assert all(key in digests for key in first_round)


def test_run_prints_the_contracted_result(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "identity-test", "--seed", "1",
                     "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1
    names = [m for m, _ in run.metric_specs("per_layer")]
    assert list(result["metrics"]) == names
    assert result["metrics"]["exactlin.sz_zero_test.trials"]["value"] == 20
    assert list(tmp_path.glob("spans-identity-test-seed1.tsv.gz"))


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "identity-test", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["attempted"] == 1
    assert list(result["metrics"]) == [m for m, _ in run.metric_specs("end_to_end")]
    p50 = result["metrics"]["call_ref.p50"]["value"]
    assert p50 == pytest.approx(meta["call_s.p50"] / meta["reference_s.p50"])
    assert len(meta["setup_samples_s"]) == run.SETUP_PAIRS
    assert result["metrics"]["setup_s"]["value"] == run.setup_seconds(meta["setup_samples_s"])


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jet-audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
