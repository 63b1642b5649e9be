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
(``converse_observed``); no fixture has both hypotheses.  The verdicts are
those of ``audit-theorem --trials 4 --seed 1`` and of the ``osc:2`` and
``gamma15`` checks at the same flags.
"""

import json
from pathlib import Path

import pytest

from terracini.chart import load_chart
from terracini.cli import main

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
