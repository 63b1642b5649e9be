"""Tangent spaces along curvilinear schemes: spans, duality, speciality."""

import random
import sys
from fractions import Fraction as F

import pytest

from terracini.catalog import make_random_variety, make_veronese
from terracini.chart import AmbientTooSmallError, CurvilinearJet
from terracini.curvilinear import (
    expected_tangent_dim,
    generic_speciality,
    random_jet,
    special_position_jets,
    tangent_along,
)
from oracles import dot, generators, hyperplane_system, zero_generators


def make_jet(rng, n, length):
    lam = tuple(F(rng.randint(-4, 4)) for _ in range(n))
    while all(x == 0 for x in lam):
        lam = tuple(F(rng.randint(-4, 4)) for _ in range(n))
    return CurvilinearJet(base=tuple(F(rng.randint(-2, 2)) for _ in range(n)),
                          lam=lam,
                          mu=tuple(F(rng.randint(-4, 4)) for _ in range(n)),
                          length=length)


RANDOM_CHART_PARAMS = [(1, 5, 5), (2, 3, 8), (2, 4, 9), (3, 3, 11), (2, 5, 8)]


def random_chart(rng):
    n, d, r = RANDOM_CHART_PARAMS[rng.randrange(len(RANDOM_CHART_PARAMS))]
    return make_random_variety(n, d, r, rng.randrange(10 ** 6))


# ---------------------------------------------------------------------------
# tangent_along
# ---------------------------------------------------------------------------

def test_quadratic_veronese_fourfold_is_special_along_length3():
    c = make_veronese(4, 2)
    rng = random.Random(50)
    for _ in range(3):
        jet = make_jet(rng, 4, 3)
        tas = tangent_along(c, jet)
        assert tas.dim < expected_tangent_dim(4, 3, c.r)  # special
        assert tas.dim <= 3 * 4 + 1  # never the full expected 14
        # order->=3 derivatives vanish on a quadratic chart, so the final
        # generator is structurally the zero vector
        assert len(tas.rows) - 1 in zero_generators(tas)


def test_quintic_curve_is_regular_along_length3():
    c = make_veronese(1, 5)
    jet = CurvilinearJet(base=(F(1),), lam=(F(2),), mu=(F(3),), length=3)
    tas = tangent_along(c, jet)
    assert tas.dim == 5 == expected_tangent_dim(1, 3, 5)  # not special
    assert len(tas.rows) == 6  # 3n+3


def test_generic_surface_regular_along_length2_and_3():
    c = make_random_variety(2, 5, 8, 7)
    jet2 = CurvilinearJet(base=(F(0), F(0)), lam=(F(1), F(2)), mu=(F(0), F(1)),
                          length=2)
    tas2 = tangent_along(c, jet2)
    assert tas2.dim == 5 == expected_tangent_dim(2, 2, 8)  # 2n+1, not special
    jet3 = CurvilinearJet(base=(F(0), F(0)), lam=(F(1), F(2)), mu=(F(0), F(1)),
                          length=3)
    tas3 = tangent_along(c, jet3)
    assert tas3.dim == 8 == expected_tangent_dim(2, 3, 8)  # not special


def test_length3_generator_count_is_3n_plus_3():
    rng = random.Random(51)
    for n, d, r in [(1, 5, 5), (2, 5, 8), (3, 3, 11)]:
        c = make_random_variety(n, d, r, 9)
        tas = tangent_along(c, make_jet(rng, n, 3))
        assert len(tas.rows) == 3 * n + 3
        assert len(generators(tas)) == 3 * n + 3


def test_length3_needs_ambient_room():
    c = make_veronese(2, 2)  # r = 5 < 3n+2 = 8
    jet = CurvilinearJet(base=(F(0), F(0)), lam=(F(1), F(0)), mu=(F(0), F(0)),
                         length=3)
    with pytest.raises(AmbientTooSmallError):
        tangent_along(c, jet)
    # length 2 is fine in the same ambient
    jet2 = CurvilinearJet(base=(F(0), F(0)), lam=(F(1), F(0)), mu=(F(0), F(0)),
                          length=2)
    assert tangent_along(c, jet2).dim == 4


def test_eqtan_bound_and_duality_battery():
    rng = random.Random(52)
    for _ in range(30):
        c = random_chart(rng)
        length = rng.choice([2, 3])
        jet = make_jet(rng, c.n, length)
        tas = tangent_along(c, jet)
        assert tas.dim <= expected_tangent_dim(c.n, length, c.r)
        hs = hyperplane_system(c, jet)
        assert hs.tangent_dim == tas.dim
        assert hs.dim + tas.dim == c.r - 1
        assert hs.special == (tas.dim < expected_tangent_dim(c.n, length, c.r))


def test_hyperplane_system_covectors_annihilate_generators():
    c = make_veronese(4, 2)
    jet = CurvilinearJet(base=(F(1), F(0), F(2), F(-1)),
                         lam=(F(1), F(2), F(0), F(1)),
                         mu=(F(0), F(1), F(3), F(0)), length=3)
    tas = tangent_along(c, jet)
    hs = hyperplane_system(c, jet)
    assert len(hs.covectors) == c.r + 1 - tas.rank
    for a in hs.covectors:
        assert all(dot(a, v) == 0 for v in generators(tas))


def test_hyperplane_system_runs_no_package_elimination(monkeypatch):
    # the duality route is a second route only if its nullspace shares no
    # kernel with span_rank, which decides the speciality it cross-checks
    c = make_veronese(4, 2)
    jet = make_jet(random.Random(55), c.n, 3)
    expected = hyperplane_system(c, jet)

    def refuse(*_):
        raise AssertionError("a package elimination kernel ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("terracini") or name == "oracles":
            for kernel in ("bareiss_echelon", "mod_rank", "span_rank"):
                if hasattr(module, kernel):
                    monkeypatch.setattr(module, kernel, refuse)
    assert hyperplane_system(c, jet) == expected


def test_speciality_threshold_equivalence():
    # special <=> hyperplane system dim > r - length*(n+1)
    rng = random.Random(53)
    charts = [make_veronese(4, 2), make_random_variety(2, 5, 8, 7)]
    for c in charts:
        for _ in range(5):
            jet = make_jet(rng, c.n, 3)
            tas = tangent_along(c, jet)
            hs = hyperplane_system(c, jet)
            special = tas.dim < expected_tangent_dim(c.n, 3, c.r)
            assert special == (hs.dim > c.r - 3 * (c.n + 1))


def test_normalization_invariance_of_dimension():
    rng = random.Random(54)
    c = make_random_variety(2, 5, 8, 3)
    for _ in range(5):
        jet = make_jet(rng, 2, 3)
        tas = tangent_along(c, jet)
        # feeding the already-normalized jet through again changes nothing
        tas2 = tangent_along(c, CurvilinearJet(jet.base, jet.lam, jet.mu, 3))
        assert tas.dim == tas2.dim


# ---------------------------------------------------------------------------
# generic speciality
# ---------------------------------------------------------------------------

def test_generic_speciality_verdicts():
    assert generic_speciality(make_veronese(4, 2), 3, trials=4, seed=2).special
    assert not generic_speciality(make_veronese(1, 5), 3, trials=4, seed=2).special
    assert not generic_speciality(make_random_variety(2, 5, 8, 7), 3,
                                  trials=4, seed=2).special


def test_generic_speciality_length2():
    assert generic_speciality(make_veronese(2, 2), 2, trials=4, seed=2).special
    assert not generic_speciality(make_veronese(1, 5), 2, trials=4, seed=2).special


def test_speciality_witness_and_trials_recorded():
    v = generic_speciality(make_veronese(4, 2), 3, trials=4, seed=9)
    assert len(v.trial_dims) == 4
    assert v.best_dim == max(v.trial_dims)
    assert v.witness is not None
    assert tangent_along(make_veronese(4, 2), v.witness).dim == v.best_dim


def test_speciality_witness_is_the_first_trial_at_the_maximum():
    chart = make_veronese(4, 2)
    v = generic_speciality(chart, 3, trials=4, seed=9)
    rng = random.Random(9)
    jets = [random_jet(chart, rng, 3) for _ in range(4)]
    assert v.trial_dims == (11,) * 4  # every trial ties at the maximum
    assert v.witness == jets[0] != jets[1]


def test_random_jet_respects_chart_dimensions():
    rng = random.Random(55)
    c = make_veronese(2, 3)
    jet = random_jet(c, rng, 3)
    assert jet.n == 2 and jet.length == 3 and any(x != 0 for x in jet.lam)


def test_special_position_jets_shape():
    jets = special_position_jets(make_veronese(4, 2), 5, seed=3)
    assert len(jets) == 5
    for jet in jets:
        assert sum(1 for x in jet.lam if x != 0) == 1
        assert all(x == 0 for x in jet.mu)
