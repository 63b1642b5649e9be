"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from terracini.catalog import MAX_COORDINATES, make_veronese
from terracini.chart import MAX_TABLE_ENTRIES, load_chart, save_chart
from terracini.cli import MAX_TRIALS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_secant_on_quadratic_veronese(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:4:2",
                       "--check", "secant:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["chart"] == {"label": "veronese-4-2", "n": 4, "r": 14}
    result = doc["results"][0]
    assert result["check"] == "secant:2"
    assert result["observed"] == 11 and result["defect"] == 3
    assert doc["config"]["seed"] == 1009  # default seed always echoed


def test_analyze_gamma15_on_quintic_curve(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:1:5",
                       "--check", "gamma15")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["identically_zero"] is False
    assert result["witness_lam"] is not None
    assert result["witness_value"] not in (None, "0")


def test_analyze_file_with_projection(capsys, tmp_path):
    path = tmp_path / "chart.json"
    save_chart(make_veronese(2, 3), path)
    code, out, _ = run(capsys, "analyze", "--variety", f"file:{path}",
                       "--check", "speciality:3", "--project", "3n+2")
    assert code == 0
    doc = json.loads(out)
    assert doc["chart"]["r"] == 8
    assert doc["results"][0]["special"] is False


def test_analyze_multiple_checks_and_markdown(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:1:5",
                       "--check", "secant:2", "--check", "osc:2",
                       "--format", "markdown")
    assert code == 0
    assert "## secant:2" in out and "## osc:2" in out


def test_analyze_pi_constancy(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:4:2",
                       "--check", "pi-constancy")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["constant"] is True and result["tangent_contained"] is True


def test_analyze_audit_check(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "random:2:5:8:7",
                       "--check", "audit")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["consistent"] is True


def test_audit_theorem_positive_and_negative(capsys):
    code, out, _ = run(capsys, "audit-theorem", "--variety", "veronese:4:2")
    assert code == 0
    doc = json.loads(out)
    rep = doc["results"][0]
    assert rep["secant"]["defect"] == 3
    assert rep["theorem_violated"] is False
    code, out, _ = run(capsys, "audit-theorem", "--variety", "veronese:1:5")
    assert code == 0
    assert json.loads(out)["results"][0]["secant"]["defect"] == 0


def test_catalog_list_formats_agree(capsys):
    code, text_out, _ = run(capsys, "catalog-list")
    assert code == 0
    code, json_out, _ = run(capsys, "catalog-list", "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    assert len(doc["entries"]) >= 3
    for entry in doc["entries"]:
        assert entry["id"] in text_out
        for kd in entry["known_defects"]:
            assert f"delta_{kd['k']}={kd['delta']}" in text_out


def test_input_errors_exit_1(capsys):
    assert run(capsys, "analyze", "--variety", "catalog:nope",
               "--check", "secant:1")[0] == 1
    assert run(capsys, "analyze", "--variety", "veronese:4:2",
               "--check", "bogus")[0] == 1
    assert run(capsys, "analyze", "--variety", "veronese:4:2",
               "--check", "secant:x")[0] == 1
    assert run(capsys, "analyze", "--variety", "file:/does/not/exist.json",
               "--check", "secant:1")[0] == 1
    # gamma15 needs r = 3n+2: flagged as an input problem with guidance
    code, _, err = run(capsys, "analyze", "--variety", "veronese:2:2",
                       "--check", "gamma15")
    assert code == 1 and "project" in err


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--variety", "veronese:2:2", "--check", "secant:0"), "k >= 1"),
    (("analyze", "--variety", "veronese:2:2", "--check", "secant:-2"), "k >= 1"),
    (("analyze", "--variety", "veronese:2:2", "--check", "secant:1",
      "--trials", "0"), "--trials must be >= 1"),
    (("analyze", "--variety", "veronese:2:2", "--check", "speciality:2",
      "--trials", "-3"), "--trials must be >= 1"),
    (("analyze", "--variety", "veronese:2:3", "--check", "osc:1",
      "--trials", "0"), "--trials must be >= 1"),
    (("audit-theorem", "--variety", "random:2:3:8:1", "--trials", "0"),
     "--trials must be >= 1"),
])
def test_bad_counts_exit_1_with_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("terracini: error:") and message in err
    assert "Traceback" not in err


def _monomial_chart(label, exps):
    """Chart document whose coordinates are the monomials u^e, e in exps."""
    return {"label": label, "n": 2, "r": len(exps) - 1,
            "coords": [[{"exp": list(e), "num": "1", "den": "1"}] for e in exps]}


# Jacobian rank 1 everywhere, so no sample point is smooth.
U1_ONLY = _monomial_chart("u1-only", [(0, 0), (1, 0), (2, 0)])
# Homogeneous: x lies in the span of x_1, x_2, so every tangent span has rank 2.
HOMOGENEOUS = _monomial_chart("homogeneous", [(2, 0), (1, 1), (0, 2)])


@pytest.mark.parametrize("doc, check, message", [
    (U1_ONLY, "secant:1", "no smooth sample found on u1-only"),
    (U1_ONLY, "osc:1", "no smooth sample found on u1-only"),
    (U1_ONLY, "speciality:2", "no smooth sample found on u1-only"),
    (HOMOGENEOUS, "secant:1", "tangent rank 2 < n+1 at ("),
    # these read no tangent space and terminate with a report
    (HOMOGENEOUS, "osc:1", None),
    (HOMOGENEOUS, "speciality:2", None),
], ids=["u1-secant", "u1-osc", "u1-speciality", "homogeneous-secant",
        "homogeneous-osc", "homogeneous-speciality"])
def test_chart_without_usable_points_exits_1_with_message(capsys, tmp_path, doc, check,
                                                          message):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--variety", f"file:{path}", "--check", check)
    assert "Traceback" not in err
    if message is None:
        assert code == 0 and json.loads(out)["results"][0]["check"] == check
        return
    assert code == 1
    assert out == ""
    assert err.startswith("terracini: error:") and message in err


def test_audit_theorem_without_smooth_points_exits_1(capsys, tmp_path):
    doc = _monomial_chart("u1-only-p8", [(k, 0) for k in range(9)])
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "audit-theorem", "--variety", f"file:{path}")
    assert code == 1
    assert out == ""
    assert err.startswith("terracini: error:") and "no smooth sample found" in err


def _limit_child_memory():
    # Runs in the child only: a size check that let the work start would hit
    # this limit (or the timeout) instead of the host's memory.
    limit = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("variety", ["veronese:40:40", "segre:40:40",
                                     "random:40:40:100:1"])
def test_oversized_variety_is_refused_before_any_work(variety):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "terracini.cli", "analyze", "--variety", variety,
         "--check", "secant:1"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_child_memory)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("terracini: error:")
    assert f"above the cap of {MAX_COORDINATES}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "--variety", "veronese:900:1", "--check", "speciality:2"],
    # secant:1 fits (15,376 entries); osc:2 would build 2.7e6 per table
    ["analyze", "--variety", "veronese:30:2", "--check", "secant:1", "--check", "osc:2"],
    ["audit-theorem", "--variety", "veronese:11:2"],
], ids=["speciality", "second-check", "audit-theorem"])
def test_oversized_derivative_table_is_refused_before_any_work(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "terracini.cli", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_child_memory)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("terracini: error:")
    assert f"above the cap of {MAX_TABLE_ENTRIES}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # without the cap this runs far past the timeout, its trial lists growing
    ["analyze", "--variety", "veronese:2:2", "--check", "secant:1", "--trials", "100000000"],
    ["audit-theorem", "--variety", "veronese:4:2", "--trials", str(MAX_TRIALS + 1)],
], ids=["analyze", "audit-theorem"])
def test_oversized_trial_count_is_refused_before_any_work(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "terracini.cli", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_child_memory)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("terracini: error:")
    assert f"above the cap of {MAX_TRIALS}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trial_count_at_the_cap_is_accepted(capsys):
    # MAX_TRIALS itself passes the cap; the bad variety then stops the run
    # before any trial, and is what the error names
    code, _, err = run(capsys, "analyze", "--variety", "veronese:0:2", "--check", "secant:1",
                       "--trials", str(MAX_TRIALS))
    assert code == 1 and "bad variety spec" in err


@pytest.mark.parametrize("variety, k, points", [("veronese:1:3", 11, 11),
                                                ("veronese:2:2", 121, 121)])
def test_secant_beyond_the_sample_lattice_is_refused(variety, k, points):
    # k+1 distinct points cannot be drawn from the 11^n points of [-5, 5]^n;
    # without the refusal the draw loops forever
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "terracini.cli", "analyze", "--variety", variety,
         "--check", "secant:1", "--check", f"secant:{k}"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_child_memory)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("terracini: error:")
    assert f"k+1 = {k + 1} distinct sample points" in proc.stderr
    assert f"holds only {points}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("k, code", [(10, 1), (9, 0)])
def test_secant_beyond_the_smooth_lattice_points_exits_1(tmp_path, k, code):
    # the cusp (1, u^2, u^3) is singular at u = 0 only, so [-5, 5] holds 10
    # smooth points: k+1 = 11 of them can never be drawn, 10 can
    doc = {"label": "cusp", "n": 1, "r": 2,
           "coords": [[{"exp": [e], "num": "1", "den": "1"}] for e in (0, 2, 3)]}
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "terracini.cli", "analyze", "--variety", f"file:{path}",
         "--check", f"secant:{k}", "--trials", "1"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_child_memory)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["results"][0]["observed"] == 2
        return
    assert proc.stdout == ""
    assert proc.stderr.startswith("terracini: error:")
    assert "k+1 = 11 distinct smooth points needed" in proc.stderr
    assert "holds only 10 on cusp" in proc.stderr


def test_oversized_chart_file_is_refused(capsys, tmp_path):
    # 1001 coordinates 1, u, ..., u^1000; without the cap secant:1 would run
    r = MAX_COORDINATES
    doc = {"label": "long-curve", "n": 1, "r": r,
           "coords": [[{"exp": [k], "num": "1", "den": "1"}] for k in range(r + 1)]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--variety", f"file:{path}", "--check", "secant:1")
    assert code == 1
    assert out == ""
    assert err.startswith("terracini: error:")
    assert f"{r + 1} coordinates, above the cap of {MAX_COORDINATES}" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--check", "secant:1"])  # missing --variety
    assert exc.value.code == 1


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["analyze", "--variety", "veronese:4:2", "--check", "secant:2",
            "--check", "speciality:3", "--seed", "7"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_shipped_fixture_chart_loads(capsys, tmp_path):
    data = resources.files("terracini").joinpath("data/v1/veronese-2-2.chart.json")
    target = tmp_path / "fixture.json"
    target.write_text(data.read_text(encoding="utf-8"), encoding="utf-8")
    chart = load_chart(target)
    assert (chart.n, chart.r) == (2, 5)
    code, out, _ = run(capsys, "analyze", "--variety", f"file:{target}",
                       "--check", "secant:1")
    assert code == 0
    assert json.loads(out)["results"][0]["defect"] == 1
