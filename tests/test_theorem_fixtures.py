"""The theorem audit on four surfaces in P^8 read from chart files.

Each file under ``tests/fixtures/`` is a chart with n = 2 and r = 8, so
length-3 schemes are expected to span min{8, 3 * 3 - 1} = 8 and the
secant variety sigma_3 is expected to fill P^8:

- ``septic-cone``, [1 : v : vu : ... : vu^7], the cone over the rational
  normal septic C in P^7: sigma_3 is the cone over sigma_3(C), of dimension
  5 + 1 = 6, so the defect is 2;
- ``sextic-cone-surface``, [v : v^2 : 1 : u : ... : u^6], a surface in the
  threefold cone with vertex a line over the rational normal sextic:
  sigma_3 lies in the join of the line with sigma_3 of the sextic, of
  dimension at most 7, and the defect is 1;
- ``scroll-3-4``, the rational normal scroll S(3,4), [u^i : v u^j] for
  i <= 3 and j <= 4: not special, 2-osculating regular and not defective;
- ``octic-tangent-developable``, c(u) + v c'(u) for the rational normal
  octic c: special and not 2-osculating regular, yet not defective.

The two cones are defective and fail the osculating hypothesis of the
theorem, so each is defective without the hypotheses
(``converse_observed``); none of the four has both hypotheses.  The
verdicts are those of ``audit-theorem --trials 4 --seed 1`` and of the
``osc:2`` and ``gamma15`` checks at the same flags.

Two Segre-Veronese charts with r = 3n + 2 have both hypotheses, so the
theorem's implication fires on them:

- ``p1xp1-2-2``, P^1 x P^1 embedded by O(2,2), [s^a t^b] for a, b <= 2
  (n = 2, r = 8): the classical (2,2d) double-point family on a quadric
  (Laface, Geom. Dedicata 2002);
- ``p1xp1xp1-1-1-2``, (P^1)^3 embedded by O(1,1,2), [s^a t^b w^c] for
  a, b <= 1 and c <= 2 (n = 3, r = 11).

Each is special and 2-osculating regular, and 2-secant defective with
delta = 1.  Terracini's lemma (Terracini 1911) gives delta >= 1 exactly:
a hyperplane section singular at three general points exists where the
count of conditions expects none.  On P^1 x P^1 it is the square of the
(1,1)-form through the three points; on (P^1)^3 it is the product of the
(1,0,1)- and (0,1,1)-forms through them, each unique (4 sections, 3
conditions).  ``test_singular_hyperplane_section_proves_the_defect``
builds that section with exact arithmetic, independent of sampling.
"""

import hashlib
import json
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest

from terracini.catalog import make_segre_veronese
from terracini.chart import load_chart
from terracini.cli import main
from oracles import Matrix, dot, rref_rank, symbolic_table

FIXTURES = Path(__file__).parent / "fixtures"

# name: (defect, special, best length-3 span dim, osc2 regular, osc2 rank, converse observed)
EXPECTED = {
    "septic-cone": (2, True, 6, False, 5, True),
    "sextic-cone-surface": (1, True, 7, False, 6, True),
    "scroll-3-4": (0, False, 8, True, 7, False),
    "octic-tangent-developable": (0, True, 6, False, 5, False),
}


def run(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_fixture_is_a_surface_in_p8(name):
    chart = load_chart(FIXTURES / f"{name}.json")
    assert (chart.label, chart.n, chart.r) == (name, 2, 8)
    assert chart.is_nondegenerate()


@pytest.mark.parametrize("name", list(EXPECTED))
def test_audit_theorem_verdicts(name, capsys):
    defect, special, best, regular, rank, converse = EXPECTED[name]
    variety = f"file:{FIXTURES / name}.json"
    flags = ("--trials", "4", "--seed", "1")
    report = run(capsys, "audit-theorem", "--variety", variety, *flags)["results"][0]
    assert report["secant"]["defect"] == defect
    assert report["secant"]["observed"] == 8 - defect
    assert report["speciality"]["special"] is special
    assert report["speciality"]["best_dim"] == best
    assert report["osc2"]["regular"] is regular and report["osc2"]["max_rank"] == rank
    assert report["hypotheses_hold"] is False and report["theorem_violated"] is False
    assert report["converse_observed"] is converse
    osc, gamma15 = run(capsys, "analyze", "--variety", variety, "--check", "osc:2",
                       "--check", "gamma15", *flags)["results"]
    assert osc["routes_agree"] is True and osc["criterion"]["regular"] is regular
    assert osc["dim"] == rank - 1
    # speciality along general length-3 schemes is the identical vanishing of D
    assert gamma15["identically_zero"] is special


# name: (dims, degrees) of make_segre_veronese, the charts with both hypotheses
HYPOTHESES_HOLD = {"p1xp1-2-2": ((1, 1), (2, 2)), "p1xp1xp1-1-1-2": ((1, 1, 1), (1, 1, 2))}
# SHA-256 of the audit-theorem report, run from tests/fixtures with
# --variety file:NAME.json --trials 4 --seed 1; only read here
AUDIT_DIGESTS = {
    "p1xp1-2-2": "99c4889baa05ec278c6dbae18ef026c775ee2ce9fbe5337447049adb2b723ef9",
    "p1xp1xp1-1-1-2": "a4a5a372bfa71827e12c33b71c1fcbe22caabc66426476a5302b3e4054c7c906",
}


@pytest.mark.parametrize("name", list(HYPOTHESES_HOLD))
def test_segre_veronese_fixture_is_the_constructor_chart(name):
    dims, degrees = HYPOTHESES_HOLD[name]
    assert load_chart(FIXTURES / f"{name}.json") == make_segre_veronese(dims, degrees, name)


@pytest.mark.parametrize("name, n", [("p1xp1-2-2", 2), ("p1xp1xp1-1-1-2", 3)])
def test_audit_theorem_with_both_hypotheses(name, n, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)  # the report echoes the path as given
    assert main(["audit-theorem", "--variety", f"file:{name}.json",
                 "--trials", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)["results"][0]
    assert report["hypotheses_hold"] is True and report["theorem_violated"] is False
    assert report["secant"]["defect"] == 1 and report["secant"]["observed"] == 3 * n + 1
    assert report["speciality"]["special"] is True and report["spot_all_special"] is True
    assert report["speciality"]["best_dim"] == 3 * n + 1 < report["speciality"]["expected"]
    assert report["osc2"]["regular"] is True
    assert report["osc2"]["max_rank"] == report["osc2"]["needed"] == 3 * n + 1
    assert report["converse_observed"] is False
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == AUDIT_DIGESTS[name]


def _form_through(points, exps) -> dict:
    """The form sum c_e u^e over exps that vanishes at every point; it must be unique."""
    values = [[prod(F(x) ** k for x, k in zip(pt, e)) for e in exps] for pt in points]
    basis = Matrix(values).right_nullspace()
    assert len(basis) == 1
    return dict(zip(exps, basis[0]))


def _times(f: dict, g: dict) -> dict:
    out = {}
    for e, a in f.items():
        for d, b in g.items():
            key = tuple(map(sum, zip(e, d)))
            out[key] = out.get(key, 0) + a * b
    return out


def _singular_section(name: str, points) -> dict:
    """The hyperplane section singular at the points, as a polynomial in the chart's variables."""
    if name == "p1xp1-2-2":
        f = _form_through(points, [(a, b) for a in (0, 1) for b in (0, 1)])  # (1,1)
        return _times(f, f)
    g = _form_through(points, [(a, 0, c) for a in (0, 1) for c in (0, 1)])  # (1,0,1)
    h = _form_through(points, [(0, b, c) for b in (0, 1) for c in (0, 1)])  # (0,1,1)
    return _times(g, h)


@pytest.mark.parametrize("name, triples", [
    ("p1xp1-2-2", [((0, 0), (1, 2), (-1, 3)), ((-2, -1), (-4, 1), (2, -3))]),
    ("p1xp1xp1-1-1-2", [((0, 0, 0), (1, 2, -1), (-1, 3, 2)),
                        ((-2, -1, -4), (1, 2, -3), (-4, -4, -5))]),
])
def test_singular_hyperplane_section_proves_the_defect(name, triples):
    chart = load_chart(FIXTURES / f"{name}.json")
    coords = [exps[0] for _, _, exps in chart.forms]  # one monomial per coordinate
    for points in triples:
        section = _singular_section(name, points)
        assert set(section) <= set(coords)
        covector = [section.get(e, 0) for e in coords]
        assert any(covector)
        # x and x_1..x_n at the three points: 3(n+1) = r + 1 vectors, which a
        # nondefective chart would span P^r with
        tangents = [v for pt in points for v in symbolic_table(chart, pt, 1).values()]
        assert len(tangents) == chart.r + 1
        assert all(dot(covector, v) == 0 for v in tangents)
        # and they span the hyperplane: delta = 1 at these points
        assert rref_rank(tangents) == chart.r
