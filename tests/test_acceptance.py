"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they execute.  Every tolerance is exact (rational arithmetic);
runtime limits are wall-clock.

Criteria 2 and 7 run on the quadratic Veronese fourfold v_2(P^4), which is
special and 2-secant defective but not 2-osculating regular, so it is a
converse case of the audited theorem, not a counterexample.  Its
osculating planes, spanned by p^2, p*lam and lam^2 + p*mu, sweep exactly
Sec_2, the rank <= 3 locus of symmetric 5x5 matrices, of dimension
3n - 1 = 11; the criterion rank is the dimension 3n of its affine cone,
one short of the 3n + 1 that regularity needs.  Criterion 2 asserts that
closed form, and criterion 7 asserts the closed-form dim Pi = 2n that the
vanishing third and fourth derivatives give, in place of the [3n, 3n+1]
window that holds only under regularity.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from terracini.catalog import load_catalog, make_random_variety, make_segre, make_veronese
from terracini.chart import FiveJet, composed_curve_series, curve_derivatives
from terracini.cli import main as cli_main
from terracini.curvilinear import (
    expected_tangent_dim,
    generic_speciality,
    hyperplane_system,
    random_jet,
    tangent_along,
)
from terracini.exactlin import Matrix, rank_exact, rank_modular
from terracini.gamma15 import (
    equivalence_audit,
    gamma15_identically_zero,
    pi_constancy_check,
)
from terracini.secants import osc2_regular, secant_defect
from oracles import rref_rank, symmetric_rank_locus_dim, vaccum

SEED = 20240


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


def _assert_clauses(clauses: dict[str, bool]) -> None:
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, f"failed clauses: {failed}"


def test_criterion_01_classical_terracini_reproduction():
    t0 = time.time()
    v22 = secant_defect(make_veronese(2, 2), 1, samples=5, seed=SEED)
    t_v22 = time.time() - t0
    t0 = time.time()
    s22 = secant_defect(make_segre(2, 2), 1, samples=5, seed=SEED)
    t_s22 = time.time() - t0
    clauses = {
        "v_2(P^2): delta_1 = 1 (rank<=2 symmetric 3x3 stratum, codim 1)":
            (v22.expected, v22.observed, v22.defect) == (5, 4, 1),
        "Segre(2,2): delta_1 = 1": (s22.expected, s22.observed, s22.defect) == (8, 7, 1),
        "runtime < 1 s each": t_v22 < 1.0 and t_s22 < 1.0,
    }
    _line(1, all(clauses.values()),
          f"classical defects: v_2(P^2) delta_1={v22.defect},"
          f" Segre(2,2) delta_1={s22.defect}")
    _assert_clauses(clauses)


def test_criterion_02_main_theorem_audit():
    t0 = time.time()
    chart = make_veronese(4, 2)
    spec = generic_speciality(chart, 3, trials=5, seed=SEED)
    osc = osc2_regular(chart, trials=5, seed=SEED)
    gz = gamma15_identically_zero(chart, seed=SEED)
    rec = secant_defect(chart, 2, samples=5, seed=SEED)
    elapsed = time.time() - t0
    n = chart.n
    # The osculating planes of v_2(P^n) are spanned by p^2, p*lam and
    # lam^2 + p*mu, so the osculating variety is the rank <= 3 locus of
    # symmetric (n+1)x(n+1) matrices, i.e. Sec_2, of projective dimension
    # 3(n+1) - 3 - 1 = 3n - 1.  The criterion vectors span the tangent space
    # of its affine cone: rank 3n, one short of the 3n + 1 regularity needs.
    osc_dim = symmetric_rank_locus_dim(n + 1, 3)
    clauses = {
        "generic_speciality(length 3) = special": spec.special,
        "osc2_regular = not regular (criterion rank 3n of 3n+1)":
            osc.regular is False and osc.max_rank == osc_dim + 1 == 3 * n
            and osc.needed == 3 * n + 1,
        "gamma15_identically_zero = identically-zero": gz.identically_zero,
        "secant_defect(k=2) = (dim 11, delta 3)":
            (rec.observed, rec.defect) == (11, 3),
        "runtime < 30 s": elapsed < 30.0,
    }
    _line(2, all(clauses.values()),
          f"v_2(P^4) audit, converse case: special={spec.special},"
          f" osc2 rank {osc.max_rank}/{osc.needed} (expected {3 * n}/{3 * n + 1},"
          f" osculating variety = Sec_2 of dim {osc_dim}),"
          f" D==0:{gz.identically_zero}, delta_2={rec.defect},"
          f" {elapsed:.1f}s")
    _assert_clauses(clauses)


def test_criterion_03_negative_controls():
    results = {}
    for label, chart in [("quintic RNC", make_veronese(1, 5)),
                         ("degree-5 surface", make_random_variety(2, 5, 8, 7))]:
        t0 = time.time()
        spec = generic_speciality(chart, 3, trials=5, seed=SEED)
        gz = gamma15_identically_zero(chart, seed=SEED)
        rec = secant_defect(chart, 2, samples=5, seed=SEED)
        results[label] = (spec, gz, rec, time.time() - t0)
    clauses = {}
    for label, (spec, gz, rec, dt) in results.items():
        clauses[f"{label}: length-3 regular"] = not spec.special
        clauses[f"{label}: D nonzero with explicit witness"] = (
            not gz.identically_zero and gz.witness_lam is not None
            and gz.witness_value != 0)
        clauses[f"{label}: delta_2 = 0"] = rec.defect == 0
        clauses[f"{label}: runtime < 10 s"] = dt < 10.0
    _line(3, all(clauses.values()),
          "negative controls regular, D nonzero, delta_2 = 0")
    _assert_clauses(clauses)


def test_criterion_04_equivalence_across_catalog():
    eligible = [e for e in load_catalog() if e.equivalence_eligible]
    verdicts = {}
    for entry in eligible:
        chart = entry.build_for_length3(seed=SEED)
        rep = equivalence_audit(chart, trials=5, seed=SEED)
        verdicts[entry.id] = rep.consistent
    clauses = {"catalog has >= 6 eligible entries": len(eligible) >= 6}
    for entry_id, consistent in verdicts.items():
        clauses[f"{entry_id}: speciality == gamma15 verdict"] = consistent
    _line(4, all(clauses.values()),
          f"speciality == determinant-vanishing on {len(eligible)} charts")
    _assert_clauses(clauses)


def test_criterion_05_taylor_consistency_25_pairs():
    rng = random.Random(SEED)
    params = [(1, 5, 5), (2, 3, 6), (2, 4, 9), (3, 3, 9), (2, 5, 8)]
    checked = 0
    all_exact = True
    for i in range(25):
        n, d, r = params[i % len(params)]
        chart = make_random_variety(n, d, r, seed=SEED + i)
        lam = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        if all(x == 0 for x in lam):
            lam = (F(1),) * n
        jet = FiveJet(
            base=tuple(F(rng.randint(-2, 2)) for _ in range(n)), lam=lam,
            mu=tuple(F(rng.randint(-4, 4)) for _ in range(n)),
            nu=tuple(F(rng.randint(-4, 4)) for _ in range(n)),
            rho=tuple(F(rng.randint(-4, 4)) for _ in range(n)),
            sigma=tuple(F(rng.randint(-4, 4)) for _ in range(n)))
        derivs = curve_derivatives(chart, jet)
        series = composed_curve_series(chart, jet)
        for k in range(1, 6):
            if derivs[k - 1] != tuple(math.factorial(k) * s[k] for s in series):
                all_exact = False
        checked += 1
    clauses = {"25 pairs checked": checked == 25,
               "k! * composition coefficients == assembled derivatives, k=1..5":
                   all_exact}
    _line(5, all(clauses.values()), "Taylor consistency on 25 seeded pairs")
    _assert_clauses(clauses)


def test_criterion_06_tangent_bound_and_duality_100_jets():
    rng = random.Random(SEED + 1)
    params = [(1, 5, 5), (2, 4, 9), (2, 5, 8), (3, 3, 11)]
    bound_ok = duality_ok = True
    for i in range(100):
        n, d, r = params[i % len(params)]
        chart = make_random_variety(n, d, r, seed=SEED + 100 + i)
        length = 2 if i % 2 == 0 else 3
        jet = random_jet(chart, rng, length)
        tas = tangent_along(chart, jet)
        if tas.dim > expected_tangent_dim(n, length, r):
            bound_ok = False
        hs = hyperplane_system(chart, jet)
        if tas.dim + hs.dim != r - 1:
            duality_ok = False
    clauses = {"dim T_gamma <= tau_{n,k} on all 100": bound_ok,
               "dim T_gamma + dim(hyperplane system) = r - 1 on all 100":
                   duality_ok}
    _line(6, all(clauses.values()), "tangent bound and duality on 100 seeded jets")
    _assert_clauses(clauses)


def test_criterion_07_pi_constancy_on_quadratic_veronese():
    chart = make_veronese(4, 2)
    samples = (F(0), F(1), F(2), F(1, 2), F(-1))
    rep = pi_constancy_check(chart, samples)
    n = chart.n
    # On a quadratic chart x_11k and x_1111 vanish, so Pi = T_p + e_1*V with
    # T_p = p*V.  The two meet in the line p*e_1, so Pi has rank
    # (n+1) + (n+1) - 1 = 2n+1 and dimension 2n, below the [3n, 3n+1]
    # window that holds only under 2-osculating regularity.
    pi_dim = 2 * n
    clauses = {
        "Pi constant across 5 samples of u_1": rep.constant,
        "tangent space contained in Pi at each sample": rep.tangent_contained,
        "dim Pi = 2n at each sample, outside [3n, 3n+1]":
            rep.dims == (pi_dim,) * len(samples) and rep.dims_within_bounds is False,
    }
    _line(7, all(clauses.values()),
          f"Pi constancy: constant={rep.constant},"
          f" contained={rep.tangent_contained}, dims={list(rep.dims)}"
          f" (expected 2n = {pi_dim}; [{rep.dim_lower}, {rep.dim_upper}]"
          f" needs regularity)")
    _assert_clauses(clauses)


def test_criterion_08_suppressed_vector_property():
    from terracini.exactlin import span_rank

    rng = random.Random(SEED + 2)
    all_contained = True
    for entry in load_catalog():
        chart = entry.build()
        n, width = chart.n, chart.r + 1
        for _ in range(50):
            pt = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            lam = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            if all(x == 0 for x in lam):
                lam = (F(1),) * n
            mu = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            d = chart.derivative_table(pt, 3)

            def dv(*idx):
                return d[tuple(sorted(idx))]

            span_vecs = [dv(i) for i in range(n)]
            span_vecs += [vaccum(width, ((lam[i], dv(i, j)) for i in range(n)))
                          for j in range(n)]
            for k in range(n):
                parts = [(2 * mu[i], dv(i, k)) for i in range(n)]
                parts += [(lam[i] * lam[j], dv(i, j, k))
                          for i in range(n) for j in range(n)]
                span_vecs.append(vaccum(width, parts))
            cubic = vaccum(width, ((lam[i] * lam[j] * lam[k], dv(i, j, k))
                                   for i in range(n) for j in range(n)
                                   for k in range(n)))
            if span_rank(span_vecs + [cubic]) != span_rank(span_vecs):
                all_contained = False
    clauses = {"cubic vector in documented span, 50 draws per catalog chart":
                   all_contained}
    _line(8, all_contained, "suppressed-vector property across the catalog")
    _assert_clauses(clauses)


def test_criterion_09_linear_algebra_oracles():
    rng = random.Random(SEED + 3)
    prime = (1 << 31) - 1
    oracle_agree = 0
    modular_agree = 0
    for _ in range(100):
        m = Matrix([[F(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)])
        exact = rank_exact(m)
        if exact == rref_rank(m.entries):
            oracle_agree += 1
        if rank_modular(m, prime) == exact:
            modular_agree += 1
    clauses = {
        "rank_exact == independent elimination oracle on 100/100": oracle_agree == 100,
        "rank_modular(31-bit prime) == rank_exact on >= 99/100": modular_agree >= 99,
    }
    _line(9, all(clauses.values()),
          f"rank oracles: exact {oracle_agree}/100, modular {modular_agree}/100")
    _assert_clauses(clauses)


def test_criterion_10_byte_identical_reports(capsys):
    argv = ["analyze", "--variety", "veronese:4:2", "--check", "secant:2",
            "--check", "speciality:3", "--check", "gamma15",
            "--seed", str(SEED), "--format", "json"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    doc = json.loads(out1)
    clauses = {
        "both runs exit 0": code1 == 0 and code2 == 0,
        "byte-identical JSON": out1 == out2,
        "report echoes config and seed": doc["config"]["seed"] == SEED,
    }
    _line(10, all(clauses.values()), "determinism of repeated seeded runs")
    _assert_clauses(clauses)
