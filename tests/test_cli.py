"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
from importlib import resources

import pytest

from terracini.catalog import make_veronese
from terracini.chart import load_chart, save_chart
from terracini.cli import main


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
