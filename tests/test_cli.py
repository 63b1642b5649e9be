"""Command-line interface: dispatch, formats, exit codes, determinism.

Most tests call ``cli.main`` in this process.  The inputs that must be
refused, some of which would exhaust memory or time if the refusal failed,
are rows of ``REFUSALS`` and run in the capped children of
``children.run_cli``.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from terracini.catalog import MAX_COORDINATES, make_veronese
from terracini.chart import (MAX_CHART_BYTES, MAX_DEGREE, MAX_FORM_WORK, MAX_MONOMIAL_ENTRIES,
                             MAX_TABLE_ENTRIES, Chart, TooLargeError, check_form_work, load_chart)
from fractions import Fraction

from terracini import cli
from terracini.cli import MAX_TRIALS, MAX_WORK, main
from children import run_cli
from oracles import save_chart


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


# Markdown reports that together render nested dicts, lists of lists, None
# and fractions; recorded from the renderer that wrote the config, chart and
# check sections each on its own path, and only read here.
MARKDOWN_DIGESTS = {
    "analyze --variety veronese:4:2 --check secant:2 --check speciality:3 --check osc:2"
    " --trials 2": "9eb186e54a3a41d642944598a03aa1a7842e47bc169629a35ff291ca5011e3f0",
    "analyze --variety veronese:4:2 --check gamma15 --check pi-constancy --check audit"
    " --seed 7": "5c33981d5d1428c660746cc0983f3c3667cb1aed6a8c8476bdecc18d7edfb230",
    "audit-theorem --variety random:2:4:8:5 --trials 1":
        "208ed078629a61efa91b71198c8020c3ea605a9a8c5b610b23d1d38ef2b24175",
}


@pytest.mark.parametrize("command", list(MARKDOWN_DIGESTS))
def test_markdown_report_matches_recorded_digest(capsys, command):
    code, out, _ = run(capsys, *command.split(), "--format", "markdown")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MARKDOWN_DIGESTS[command]


def test_analyze_pi_constancy(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:4:2",
                       "--check", "pi-constancy")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["constant"] is True and result["tangent_contained"] is True


def test_pi_constancy_reports_a_failed_precondition(capsys):
    # the quintic curve's u_1 line has five-jet rank n+5 = 6 at its first sample
    code, out, err = run(capsys, "analyze", "--variety", "veronese:1:5",
                         "--check", "pi-constancy")
    assert code == 0 and err == ""
    assert json.loads(out)["results"] == [{
        "check": "pi-constancy", "precondition_failed": True,
        "detail": "u_1-coordinate curve is not quasi-asymptotic at u1=0 (rank 6 > 5)"}]


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


@pytest.mark.parametrize("argv, name, change, key, value", [
    (("analyze", "--variety", "random:2:5:8:7", "--check", "audit"), "equivalence_audit",
     lambda rep: dataclasses.replace(rep, consistent=False), "consistent", False),
    (("analyze", "--variety", "veronese:1:5", "--check", "osc:2"), "osc2_regular",
     lambda v: dataclasses.replace(v, regular=not v.regular), "routes_agree", False),
    (("audit-theorem", "--variety", "veronese:1:5"), "defect_pipeline",
     lambda rep: dataclasses.replace(rep, theorem_violated=True), "theorem_violated", True),
], ids=["audit-inconsistent", "osc2-routes-disagree", "theorem-violated"])
def test_consistency_failure_exits_2_and_prints_the_report(capsys, monkeypatch, argv, name,
                                                           change, key, value):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: change(real(*args, **kwargs)))
    code, out, err = run(capsys, *argv, "--trials", "1")
    assert code == 2 and err == ""
    assert json.loads(out)["results"][0][key] is value


def test_catalog_variety_reports_as_its_constructor(capsys):
    # catalog:ID builds the entry's chart; only config.variety may tell them apart
    argv = ("analyze", "--check", "secant:1", "--trials", "2", "--variety")
    code, via_catalog, _ = run(capsys, *argv, "catalog:veronese-2-2")
    assert code == 0
    assert run(capsys, *argv, "veronese:2:2")[1] == via_catalog.replace(
        '"variety": "catalog:veronese-2-2"', '"variety": "veronese:2:2"')


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
    (("analyze", "--variety", "veronese:-1:3", "--check", "secant:1"),
     "bad variety spec 'veronese:-1:3': need n >= 1 and d >= 1"),
    (("analyze", "--variety", "veronese:2:2", "--check", "secant:1", "--project", "-1"),
     "projection target -1 invalid for r=5, n=2"),
    (("analyze", "--variety", "veronese:2:2", "--check", "gamma15:3"),
     "check gamma15 takes no argument, got 'gamma15:3'"),
    (("analyze", "--variety", "veronese:2:2", "--check", "secant:1", "--project", "9"),
     "--project 9 exceeds the chart's ambient dimension r=5"),
    (("analyze", "--variety", "cone:2:2", "--check", "secant:1"),
     "unknown variety kind 'cone'"),
    # a spec with the wrong count of integers names the count its kind needs
    (("analyze", "--variety", "veronese:2", "--check", "secant:1"),
     "bad variety spec 'veronese:2': veronese needs 2 integers\n"),
    (("analyze", "--variety", "segre:1:2:3", "--check", "secant:1"),
     "bad variety spec 'segre:1:2:3': segre needs 2 integers\n"),
    (("analyze", "--variety", "random:1:2:3", "--check", "secant:1"),
     "bad variety spec 'random:1:2:3': random needs 4 integers\n"),
    # r+1 = 5001 is refused by the coordinate cap before the monomial count prints it
    (("analyze", "--variety", "random:1:1:5000:1", "--check", "secant:1"),
     "bad variety spec 'random:1:1:5000:1': random(r >= 1000) needs more than 1000"
     " coordinates, above the cap of 1000\n"),
    # int() reads 4,300 digits, but r+1 has 4,301, which Python cannot print
    (("analyze", "--variety", f"random:1:1:{'9' * 4300}:1", "--check", "secant:1"),
     "terracini: error: integer 999999999999... has 4300 digits, above the cap of 100\n"),
])
def test_bad_counts_exit_1_with_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("terracini: error:") and message in err
    assert "Traceback" not in err


def test_projection_to_the_chart_s_own_ambient_dimension_runs(capsys):
    # --project r is allowed (r+1 is refused above): it keeps the ambient space
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:2:2", "--check", "secant:1",
                       "--trials", "1", "--project", "5")
    assert code == 0 and json.loads(out)["chart"]["r"] == 5


# int() also reads these, so secant:1_0 would run secant:10 under a config echoing 1_0
@pytest.mark.parametrize("token", ["1_0", "+2", " 2", "2\n", "\u0662"],
                         ids=["underscore", "plus", "space", "newline", "arabic-indic"])
@pytest.mark.parametrize("argv, message", [
    (("--variety", "veronese:1:3", "--check", "secant:{}"),
     "check secant needs an integer argument, got {!r}"),
    (("--variety", "veronese:{}:3", "--check", "secant:1"), "bad variety spec {!r}"),
    (("--variety", "segre:1:{}", "--check", "secant:1"), "bad variety spec {!r}"),
    (("--variety", "random:2:3:8:{}", "--check", "secant:1"), "bad variety spec {!r}"),
    (("--variety", "veronese:2:2", "--check", "secant:1", "--project", "{}"),
     "bad --project value {!r}"),
], ids=["check", "veronese", "segre", "random", "project"])
def test_integers_other_than_ascii_digits_exit_1(capsys, token, argv, message):
    argv = [arg.format(token) for arg in argv]
    code, out, err = run(capsys, "analyze", *argv)
    spelled = next(arg for arg in argv if token in arg)
    assert (code, out) == (1, "")
    assert err.startswith(f"terracini: error: {message.format(spelled)}")


# int() also reads the first three, so --trials 1_0 would run 10 trials
@pytest.mark.parametrize("token", ["1_0", " +7", "\u0662", "abc"],
                         ids=["underscore", "space-plus", "arabic-indic", "letters"])
@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_trials_and_seed_take_ascii_digits_only(capsys, flag, token):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--variety", "veronese:1:3", "--check", "secant:1", flag, token])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert err.startswith("usage: terracini analyze")
    assert err.endswith(f"terracini: error: argument {flag}:"
                        f" invalid int value: {token!r}\n")


@pytest.mark.parametrize("argv, digits", [
    # the pipeline reports seed + 1..3, and seed + 1 has 4,301 digits, which Python cannot print
    (["audit-theorem", "--variety", "veronese:1:5", "--trials", "1", "--seed", "9" * 4300], 4300),
    (["analyze", "--variety", "veronese:1:3", "--check", "secant:1", "--seed", "-1" + "0" * 100],
     101),
    (["analyze", "--variety", "veronese:1:3", "--check", "secant:1", "--trials", "1" * 101], 101),
    (["analyze", "--variety", "veronese:1:3", "--check", "secant:" + "9" * 4300], 4300),
    (["analyze", "--variety", "random:1:1:3:" + "1" * 101, "--check", "secant:1"], 101),
    (["analyze", "--variety", "veronese:1:3", "--check", "secant:1", "--project", "1" * 101], 101),
], ids=["audit-theorem-seed", "negative-seed", "trials", "check", "variety", "project"])
def test_integers_above_the_digit_cap_exit_1_before_any_work(capsys, monkeypatch, argv, digits):
    def no_work(*_):
        raise AssertionError("work started")

    for name in ("check_work", "project_generic"):
        monkeypatch.setattr(cli, name, no_work)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag's value
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.endswith(f"has {digits} digits, above the cap of {cli.MAX_DIGITS}\n")
    assert "terracini: error: " in err and "Traceback" not in err


def test_integers_at_the_digit_cap_run(capsys):
    seed = "9" * cli.MAX_DIGITS
    code, out, _ = run(capsys, "analyze", "--variety", f"random:1:3:3:{seed}",
                       "--check", "secant:1", "--trials", "1", "--seed", seed)
    assert code == 0 and json.loads(out)["config"]["seed"] == int(seed)


def test_negative_seed_is_read_and_echoed(capsys):
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:1:3", "--check", "secant:1",
                       "--trials", "2", "--seed", "-7")
    assert code == 0 and json.loads(out)["config"]["seed"] == -7


def curve(label, *exps):
    return surface(label, *((e,) for e in exps))


def surface(label, *exps):
    """Chart document whose coordinates are the monomials u^e, e in exps."""
    return {"label": label, "n": len(exps[0]), "r": len(exps) - 1,
            "coords": [[{"exp": list(e), "num": "1", "den": "1"}] for e in exps]}


# Jacobian rank 1 everywhere, so no sample point is smooth.
U1_ONLY = surface("u1-only", (0, 0), (1, 0), (2, 0))
# Homogeneous: x lies in the span of x_1, x_2, so every tangent span has rank 2.
HOMOGENEOUS = surface("homogeneous", (2, 0), (1, 1), (0, 2))


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


@pytest.mark.parametrize("check", ["gamma15", "audit"])
@pytest.mark.parametrize("power, code", [(900, 1), (100, 0)])
def test_report_value_above_the_digit_limit_exits_1(capsys, tmp_path, check, power, code):
    # (1, 10^p u, ..., 10^p u^5): at 10^900 the determinant's witness value has
    # more than Python's default 4,300 printable digits, at 10^100 it prints
    coords = [[{"exp": [0], "num": "1", "den": "1"}]] + [
        [{"exp": [k], "num": str(10 ** power), "den": "1"}] for k in range(1, 6)]
    path = tmp_path / "steep-coefficients.json"
    path.write_text(json.dumps({"label": "big", "n": 1, "r": 5, "coords": coords}),
                    encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argv = ["analyze", "--variety", f"file:{path}", "--check", check, "--trials", "1"]
        got, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == code
    if code == 0:
        assert json.loads(out)["results"][0]["check"] == check
        return
    assert out == ""
    assert err == (f"terracini: error: check {check}: a report value has more than 4300 digits,"
                   " too many for Python to print\n")


class Refusal(NamedTuple):
    """A command line, and the fragments its stderr (stdout if it exits 0) must hold.

    ``argv`` may be a function that writes the row's chart file at the path it
    is given and returns the command; "{path}" in a fragment is that path.
    ``seconds`` bounds the time spent inside ``main``.
    """

    id: str
    argv: tuple[str, ...] | Callable[[Path], tuple[str, ...]]
    fragments: tuple[str, ...]
    code: int = 1
    seconds: float | None = None


def command(variety, *checks, trials=None):
    """``analyze`` with the given checks, or ``audit-theorem`` given none."""
    argv = (("analyze", "--variety", variety, *(a for c in checks for a in ("--check", c)))
            if checks else ("audit-theorem", "--variety", variety))
    return argv + (("--trials", str(trials)) if trials else ())


def chart_file(content, *checks, trials=None):
    """Write ``content`` (a chart document, or its text) and run ``command`` on it."""
    def build(path):
        path.write_text(content if isinstance(content, str) else
                        json.dumps(content, separators=(",", ":")), encoding="utf-8")
        return command(f"file:{path}", *checks, trials=trials)
    return build


def sparse_file(path):
    # MAX_CHART_BYTES + 1 bytes of holes: the reader stops one byte past the
    # cap, before json reads any of it
    with open(path, "wb") as fh:
        fh.truncate(MAX_CHART_BYTES + 1)
    return command(f"file:{path}", "secant:1")


# Inputs that exit 1 with a message, most of them before any work that could
# exhaust memory or time.  All rows run in one children.run_cli call.
REFUSALS = [
    # C(2*10^5, 10^5) has too many digits to print, C(2*10^6, 10^6) takes 30 s
    # to compute and C(2*10^7, 10^7) tens of minutes: each is refused uncounted
    *(Refusal(f"coordinates-{variety}", command(variety, "secant:1"),
              (f"above the cap of {MAX_COORDINATES}",))
      for variety in ("veronese:40:40", "segre:40:40", "random:40:40:100:1",
                      "veronese:100000:100000", "veronese:1000000:1000000",
                      "random:1000000:1000000:2000000:1", "veronese:10000000:10000000")),
    *(Refusal(f"table-{name}", argv, (f"above the cap of {MAX_TABLE_ENTRIES}",))
      for name, argv in (("speciality", command("veronese:900:1", "speciality:2")),
                         # secant:1 fits (15,376 entries); osc:2 would build 2.7e6 per table
                         ("second-check", command("veronese:30:2", "secant:1", "osc:2")),
                         ("audit-theorem", command("veronese:11:2")))),
    # without the cap this runs far past the alarm, its trial lists growing
    Refusal("trials-analyze", command("veronese:2:2", "secant:1", trials=100_000_000),
            (f"above the cap of {MAX_TRIALS}",)),
    Refusal("trials-audit-theorem", command("veronese:4:2", trials=MAX_TRIALS + 1),
            (f"above the cap of {MAX_TRIALS}",)),
    # k+1 distinct points cannot be drawn from the 11^n points of [-5, 5]^n;
    # without the refusal the draw loops forever
    *(Refusal(f"lattice-{variety}", command(variety, "secant:1", f"secant:{k}"),
              (f"k+1 = {k + 1} distinct sample points", f"holds only {points}"))
      for variety, k, points in (("veronese:1:3", 11, 11), ("veronese:2:2", 121, 121))),
    # the cusp (1, u^2, u^3) is singular at u = 0 only, so [-5, 5] holds 10
    # smooth points: k+1 = 11 of them can never be drawn, 10 can
    Refusal("cusp-secant:10", chart_file(curve("cusp", 0, 2, 3), "secant:10", trials=1),
            ("k+1 = 11 distinct smooth points needed", "holds only 10 on cusp")),
    Refusal("cusp-secant:9", chart_file(curve("cusp", 0, 2, 3), "secant:9", trials=1),
            ('"observed": 2,',), code=0),
    Refusal("file-no-smooth-point", chart_file(surface("u1-only-p8", *((k, 0) for k in range(9)))),
            ("no smooth sample found",)),
    # 1001 coordinates 1, u, ..., u^1000; without the cap secant:1 would run
    Refusal("file-coordinates", chart_file(curve("long-curve", *range(MAX_COORDINATES + 1)),
                                           "secant:1"),
            (f"{MAX_COORDINATES + 1} coordinates, above the cap of {MAX_COORDINATES}",)),
    # (1, u, u^100000): without the cap secant:1 grows past 1.5 GB resident
    Refusal("file-degree", chart_file(curve("steep-curve", 0, 1, 100000), "secant:1", trials=1),
            (f"total degree 100000, above the cap of {MAX_DEGREE}",), seconds=1),
    # the JSON reader recurses once per bracket and raises RecursionError
    Refusal("file-nested", chart_file("[" * 100_000 + "]" * 100_000, "secant:1"),
            ("{path}: JSON nested too deeply to read",)),
    Refusal("file-bytes", sparse_file,
            (f"{{path}}: file above the cap of {MAX_CHART_BYTES} bytes",)),
    # /dev/zero reports size 0 and never ends: a reader that trusted its size
    # would read until the child's address space ran out
    Refusal("file-dev-zero", command("file:/dev/zero", "secant:1"),
            (f"/dev/zero: file above the cap of {MAX_CHART_BYTES} bytes",)),
    Refusal("file-missing", command("file:/does/not/exist.json", "secant:1"),
            ("bad variety spec 'file:/does/not/exist.json'",)),
    # 61 bytes that would build a 10^8-entry exponent tuple before the table cap is checked
    Refusal("file-width", chart_file(
        '{"label": "wide", "n": 100000000, "r": 1, "coords": [[], []]}', "secant:1"),
            ("chart declares n=100000000 and r=1: (n+1)(r+1) = 200000002 table entries,"
             f" above the cap of {MAX_TABLE_ENTRIES}",), seconds=1),
    # r = 1: the constant 1 and the sum of u_s...u_{s+998} over s; each monomial
    # enters its chain of ancestors, one n-tuple each, and the first file's
    # partial in u_j enters j-1 more: uncapped, each ends in MemoryError
    *(Refusal(f"chains-{size}", chart_file({"label": "chains", "n": n, "r": 1, "coords": [
        [{"exp": [0] * n, "num": "1", "den": "1"}],
        [{"exp": [int(s <= i < s + 999) for i in range(n)], "num": "1", "den": "1"}
         for s in starts]]}, "secant:1"),
              (f"monomial list would pass the cap of {MAX_MONOMIAL_ENTRIES} exponent entries",))
      for size, n, starts in (("8kB-in-a-partial", 2_000, [0]),
                              ("400kB-in-the-chart", 99_999, [0]),
                              ("1MB-in-the-chart", 5_000, range(0, 4_000, 40)))),
    # uncapped, the first built its chart and exited 0 after 2.7 s and 51 MB,
    # the second after about 12 s and 150 MB
    *(Refusal(f"form-work-{variety}", command(variety, "secant:1", trials=1),
              (f"{terms} form terms in n={n} variables: order-1 work {terms} x {n + 1}"
               f" = {terms * (n + 1)}, above the cap of {MAX_FORM_WORK}",), seconds=1)
      for variety, terms, n in (("random:30:2:495:1", 496 * 496, 30),
                                ("random:43:2:989:1", 990 * 990, 43))),
    # n = 1999 and 501 terms, the constant and u_1..u_500: 1,002,000 > 1,000,000
    Refusal("form-work-file", chart_file({"label": "many-terms", "n": 1999, "r": 1, "coords": [
        [{"exp": [0] * 1999, "num": "1", "den": "1"}],
        [{"exp": [int(i == j) for i in range(1999)], "num": "1", "den": "1"} for j in range(500)],
    ]}, "secant:1"), ("chart has 501 form terms in n=1999 variables: order-1 work 501 x 2000"
                      f" = 1002000, above the cap of {MAX_FORM_WORK}",)),
    # the file states 1 + 2 as x_0; a reader keeping the last term would load 2
    Refusal("file-repeated-exponent", chart_file({"label": "repeated", "n": 1, "r": 2, "coords": [
        [{"exp": [0], "num": "1", "den": "1"}, {"exp": [0], "num": "2", "den": "1"}],
        *curve("", 1, 2)["coords"]]}, "secant:1"),
            ("coords[0][1] repeats the exponent [0] of an earlier term",)),
    # the reader's other refusals, each at the first field it reads wrong
    *(Refusal(f"file-{name}", chart_file(content, "secant:1"), (fragment,))
      for name, content, fragment in (
          ("not-an-object", [1, 2], "chart document must be a JSON object"),
          ("bad-json", '{"label": "x", "n": 1,\n', "{path}: line 2 col 1: Expecting property name"),
          ("table-cap", {"label": "x", "n": 200, "r": 999, "coords": []},
           f"(n+1)(r+1) = 201000 table entries, above the cap of {MAX_TABLE_ENTRIES}"),
          ("coords-not-a-list", {"label": "x", "n": 1, "r": 2, "coords": {}},
           "coords must be a list of r+1=3 polynomials"),
          ("coords-a-number", {"label": "x", "n": 1, "r": 2, "coords": 3},
           "coords must be a list of r+1=3 polynomials"),
          ("coord-not-a-list", {"label": "x", "n": 1, "r": 1, "coords": [3, []]},
           "coords[0] must be a list of terms"),
          ("term-not-an-object", {"label": "x", "n": 1, "r": 1, "coords": [[3], []]},
           "coords[0][0] must be an object"),
          ("no-coords", {"label": "x", "n": 1, "r": 1}, "missing key 'coords'"))),
    Refusal("catalog-unknown", command("catalog:nope", "secant:1"), ("no catalog entry 'nope'",)),
    Refusal("check-unknown", command("veronese:4:2", "bogus"), ("unknown check 'bogus'",)),
    Refusal("check-not-an-integer", command("veronese:4:2", "secant:x"),
            ("check secant needs an integer argument, got 'secant:x'",)),
    # the length-3 checks need r >= 3n+2 and gamma15 r = 3n+2, and say to project
    Refusal("ambient-pipeline", command("veronese:2:2"),
            ("pipeline needs r >= 3n+2 = 8, have r=5",)),
    Refusal("ambient-length-3", command("veronese:2:2", "speciality:3"),
            ("length-3 analysis needs r >= 3n+2 = 8",)),
    *(Refusal(f"ambient-gamma15-{variety}", command(variety, "gamma15"), (fragment,))
      for variety, fragment in (("veronese:1:3", "need r = 3n+2 = 5, have r = 3"),
                                ("veronese:2:2", "(generically project the chart first)"))),
]


@pytest.fixture(scope="module")
def refusal_outcomes(tmp_path_factory):
    """The rows' chart file folder, and every row's outcome by id, from one run_cli call."""
    folder = tmp_path_factory.mktemp("refusals")
    argvs = [list(row.argv(folder / f"{row.id}.json") if callable(row.argv) else row.argv)
             for row in REFUSALS]
    return folder, dict(zip((row.id for row in REFUSALS), run_cli(argvs)))


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_refusal(refusal_outcomes, row):
    folder, outcomes = refusal_outcomes
    got = outcomes[row.id]
    assert got.code == row.code
    assert "Traceback" not in got.err
    if row.code == 1:
        assert got.out == "" and got.err.startswith("terracini: error:")
    else:
        json.loads(got.out)
    printed = got.err if row.code == 1 else got.out
    path = str(folder / f"{row.id}.json")
    assert [f for f in row.fragments if f.replace("{path}", path) not in printed] == []
    assert row.seconds is None or got.seconds < row.seconds


# Every check and argument, the last one audit-theorem's pipeline.  The cubic
# chart reads every check's highest order: a quadratic chart's gamma15 reads
# no table, since its quintic column is structurally zero.
ORDER_RUNS = ["secant:1", "secant:2", "osc:1", "osc:2", "speciality:2", "speciality:3",
              "gamma15", "pi-constancy", "audit", "defect-pipeline"]


@pytest.mark.parametrize("token", ORDER_RUNS)
def test_table_cap_reads_the_order_the_check_requests(capsys, monkeypatch, token):
    # check_work caps the table of order CHECKS[name].order(arg); the library
    # must request no table above it, and the cubic chart requests that one
    orders = []
    integer_table = Chart.integer_table
    monkeypatch.setattr(Chart, "integer_table",
                        lambda self, pt, h: orders.append(h) or integer_table(self, pt, h))
    name, arg = (token, None) if token == "defect-pipeline" else cli.parse_check(token)

    def highest(variety: str) -> int:
        orders.clear()
        argv = (["audit-theorem", "--variety", variety] if name == "defect-pipeline" else
                ["analyze", "--variety", variety, "--check", token])
        assert main(argv + ["--trials", "1"]) == 0
        capsys.readouterr()
        return max(orders, default=0)

    order = cli.CHECKS[name].order(arg)
    assert highest("random:2:3:8:1") == order
    assert highest("veronese:4:2") <= order


def test_trial_count_at_the_cap_is_accepted(capsys):
    # MAX_TRIALS itself passes the cap; the bad variety then stops the run
    # before any trial, and is what the error names
    code, _, err = run(capsys, "analyze", "--variety", "veronese:0:2", "--check", "secant:1",
                       "--trials", str(MAX_TRIALS))
    assert code == 1 and "bad variety spec" in err


def test_oversized_secant_work_is_refused_before_any_work(capsys, monkeypatch):
    # k+1 = 121 is the whole 11x11 lattice, about 121 H_121 = 651 draws per
    # sample; 10,000 samples of them would run for hours
    monkeypatch.setattr(cli, "secant_defect", None)  # any call would raise
    code, out, err = run(capsys, "analyze", "--variety", "random:2:3:8:1",
                         "--check", "secant:120", "--trials", "10000")
    assert code == 1 and out == ""
    # past the cap the count stops at one draw per point: 10,000 x 121
    assert err.startswith("terracini: error: check secant:120 with --trials 10000 draws at least"
                          " 1,210,000 sample points of 27 order-1 table entries each,"
                          " 32,670,000 entries in all")
    assert err.rstrip().endswith(f"above the cap of {MAX_WORK:,}")
    code, _, err = run(capsys, "analyze", "--variety", "random:2:3:8:1",
                       "--check", "secant:120", "--trials", "1000")
    assert code == 1 and "draws about 650,633 sample points of 27" in err


def test_secant_work_estimate_meets_the_cap_exactly(capsys, monkeypatch):
    # one sample of 121 distinct points of 121 takes 121 H_121 draws in
    # expectation, each an order-1 table of (2+1)(8+1) = 27 entries
    work = 121 * sum(Fraction(1, m) for m in range(1, 122)) * 27
    argv = ("analyze", "--variety", "random:2:3:8:1", "--check", "secant:120", "--trials", "1")
    monkeypatch.setattr(cli, "MAX_WORK", int(work))
    code, _, err = run(capsys, *argv)
    assert code == 1 and f"{round(work):,} entries in all" in err
    monkeypatch.setattr(cli, "MAX_WORK", int(work) + 1)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["results"][0]["observed"] == 8
    # one draw per point, 121 x 27 = 3,267 entries, meets the cap: the estimate
    # still sums the expected draws, and refuses
    monkeypatch.setattr(cli, "MAX_WORK", 121 * 27)
    code, _, err = run(capsys, *argv)
    assert code == 1 and "draws about 651 sample points of 27" in err


def test_table_cap_may_be_met_but_not_passed(capsys, monkeypatch):
    # secant:1 on veronese:2:2 reads order-1 tables of (2+1)(5+1) = 18 entries
    argv = ("analyze", "--variety", "veronese:2:2", "--check", "secant:1", "--trials", "1")
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 17)
    code, _, err = run(capsys, *argv)
    assert code == 1 and "(r+1) = 18 entries, above the cap of 17" in err
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 18)
    assert run(capsys, *argv)[0] == 0


SAMPLED_CHECKS = ("osc_variety_dim", "osc2_regular", "generic_speciality",
                  "equivalence_audit", "defect_pipeline")


@pytest.mark.parametrize("argv, what, work", [
    # 10,000 trials of v_12(P^2) osc:2 ran for about 20 s, of v_2(P^10) osc:2
    # for about 2 min; the estimate is trials x C(n+h, h) x (r+1)
    (("analyze", "--variety", "veronese:2:12", "--check", "osc:2"), "check osc:2", 9_100_000),
    (("analyze", "--variety", "veronese:10:2", "--check", "osc:2"), "check osc:2", 188_760_000),
    (("analyze", "--variety", "veronese:2:12", "--check", "speciality:3"),
     "check speciality:3", 19_110_000),
    (("analyze", "--variety", "veronese:4:2", "--check", "audit"), "check audit", 18_900_000),
    (("audit-theorem", "--variety", "veronese:4:2"), "audit-theorem", 18_900_000),
], ids=["osc-v2-12", "osc-v10-2", "speciality", "audit", "audit-theorem"])
def test_oversized_sampled_work_is_refused_before_any_work(capsys, monkeypatch, argv, what, work):
    for name in SAMPLED_CHECKS:
        monkeypatch.setattr(cli, name, None)  # any call would raise
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--trials", "10000")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith(f"terracini: error: {what} with --trials 10000 is estimated at"
                          f" {work:,} table entries")
    assert err.rstrip().endswith(f"above the cap of {MAX_WORK:,}")


def test_sampled_work_below_the_cap_runs(capsys):
    # 50 trials of the refused v_12(P^2) osc:2 probe estimate 45,500 entries
    code, out, _ = run(capsys, "analyze", "--variety", "veronese:2:12", "--check", "osc:2",
                       "--trials", "50")
    assert code == 0 and json.loads(out)["results"][0]["dim"] == 6


@pytest.mark.parametrize("argv, work", [
    # 3 trials x C(2+3, 3) x (9+1) and 3 x C(1+5, 5) x (5+1)
    (("analyze", "--variety", "veronese:2:3", "--check", "osc:2", "--trials", "3"), 300),
    (("audit-theorem", "--variety", "veronese:1:5", "--trials", "3"), 108),
], ids=["osc", "audit-theorem"])
def test_sampled_work_estimate_meets_the_cap_exactly(capsys, monkeypatch, argv, work):
    monkeypatch.setattr(cli, "MAX_WORK", work - 1)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and f"estimated at {work:,} table entries" in err
    monkeypatch.setattr(cli, "MAX_WORK", work)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["results"]


def test_chart_file_at_the_width_cap_is_read(tmp_path):
    # (n+1)(r+1) = MAX_TABLE_ENTRIES: an order-1 table just fits, so the reader builds it
    n = MAX_TABLE_ENTRIES // 2 - 1
    path = tmp_path / "at-cap.json"
    path.write_text(json.dumps({"label": "at-cap", "n": n, "r": 1, "coords": [[], []]}),
                    encoding="utf-8")
    assert load_chart(path).n == n


def test_form_work_may_reach_the_cap_but_not_pass_it():
    check_form_work("at-cap", MAX_FORM_WORK // 2, 1)
    with pytest.raises(TooLargeError, match=f"= {MAX_FORM_WORK + 2}, above the cap"):
        check_form_work("past-cap", MAX_FORM_WORK // 2 + 1, 1)


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--check", "secant:1"])  # missing --variety
    assert exc.value.code == 1


REENTRY_ARGVS = [
    ("analyze", "--variety", "veronese:2:2", "--check", "secant:1", "--check", "osc:1",
     "--seed", "7", "--trials", "2", "--format", "markdown"),
    ("analyze", "--variety", "veronese:2:2", "--check", "secant:1"),
    ("audit-theorem", "--variety", "veronese:1:5", "--trials", "1"),
    ("catalog-list",),
]


def test_one_parser_serves_alternating_calls(capsys):
    # main() reuses one parser per process, so no --check list, flag value or
    # default may carry over from one call to the next
    src = str(Path(__file__).resolve().parent.parent / "src")
    fresh = []
    for argv in REENTRY_ARGVS:
        proc = subprocess.run([sys.executable, "-m", "terracini.cli", *argv], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for _ in range(2):
        for argv, report in zip(REENTRY_ARGVS, fresh):
            assert run(capsys, *argv) == report, argv
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["analyze", "--help"], 0),
    (["analyze", "--check", "secant:1"], 1),  # missing --variety
    (["catalog-list", "--format", "yaml"], 1),
])
def test_help_and_usage_errors_repeat_in_one_process(capsys, argv, code):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert (outputs[0].out if code == 0 else outputs[0].err).startswith("usage: terracini")


def test_check_help_lists_the_analyze_checks(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help at the terminal width
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("--check CHECK secant:K | osc:M | speciality:LEN | gamma15 | pi-constancy | audit"
            " (repeatable)") in help_text


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
