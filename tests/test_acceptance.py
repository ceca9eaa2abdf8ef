"""Acceptance suite: one test per criterion, each printing a PASS line on
success (pytest shows the captured output and a FAILED marker otherwise).

Criteria 1-7, 9 and 10 are invariants that the verify suites state: each of
these tests runs its suite through verify.run_suites and asserts that the
suite's checks of that criterion pass (all of them where it names none), so
every grid, tolerance and comparison is written once, in paulifish.verify.
Criteria 2 and 3 share one run of the stationary suite, each asserting its
own checks. Criterion 1 also runs the dense eigendecomposition bridge at
n = 5.
Criterion 8 and the t = 0.22 T2 part of criterion 10 state facts that no
suite holds.

Criterion 10's suite checks the all-qubit (n = m = 5) gain at t = 0.2 T2,
where lam = 0.0906 and the gain is 5.047. The n-fold gain is promised only
up to lam = lambda_threshold_gain_n(5) = 0.0911, i.e.
t* = T2 ln5 / 8 = 0.2012 T2; the suite pins that boundary. Past it the gain
stays below 5 at every polarization: at t = 0.22 T2 (lam = 0.0987) it is
4.3011, and at the rounded lam = 0.0986 it is 4.3132. Both agree with the
dense eigendecomposition oracle to 1e-15 (at r = 0.01 and 0.1), with an
80-digit mpmath j-sum, and with the r -> 0 limit 25 (1-2 lam)^8, so the
test checks the 0.22 T2 gain against that limit as a fact, not as a target.
"""

import pytest

from paulifish import mc, protocol, verify


def assert_checks_pass(result, *checks):
    """Assert that the named checks of a suite result pass, or all of them
    if none is named."""
    checks = set(checks or result.checks)
    assert checks <= set(result.checks) and not checks & set(result.failed), result


def passing_suite(name, *checks):
    """The verify suite `name` at n_max = 5, asserted to pass the named
    checks, or all of them if none is named."""
    (result,) = verify.run_suites(name, n_max=5)
    assert_checks_pass(result, *checks)
    return result


@pytest.fixture(scope="module")
def stationary_suite():
    """One run of the stationary suite, which criteria 2 and 3 share."""
    (result,) = verify.run_suites("stationary", n_max=5)
    return result


def test_criterion_01_oracle_equivalence(monkeypatch):
    monkeypatch.setattr(verify, "DENSE_BRIDGE_N_MAX", 5)
    worst = passing_suite("oracle", "closed-form", "dense-bridge").max_error
    print(f"criterion 1 (oracle equivalence, worst rel {worst:.2e}): PASS")


def test_criterion_02_two_qubit_gain_anchors(stationary_suite):
    assert_checks_pass(stationary_suite, "closed-forms")
    print("criterion 2 (closed-form gain anchors at 1e-12): PASS")


def test_criterion_03_stationary_polarization_table(stationary_suite):
    assert_checks_pass(stationary_suite, "root", "gain-slope")
    print("criterion 3 (stationary polarizations 0.66/0.83/0.48/0.76): PASS")


def test_criterion_04_absolute_bound_and_pure_limit():
    passing_suite("bounds")
    print("criterion 4 (absolute bound + pure-state limit): PASS")


def test_criterion_05_weight_and_gain_inequalities():
    passing_suite("weight-inequalities")
    print("criterion 5 (weight inequalities and single-use gain floor): PASS")


def test_criterion_06_separability_threshold_and_gainful_separable_points():
    detail = passing_suite("separability").detail
    print(f"criterion 6 (threshold flip + separable gainful points; {detail}): PASS")


def test_criterion_07_discord():
    passing_suite("discord")
    print("criterion 7 (discord: zero at half strength, definition route, monotone): PASS")


def test_criterion_08_monte_carlo_cramer_rao():
    cfg = mc.ExperimentConfig(
        r=0.8, lambda_true=0.3, m=1, trials=200, shots_per_trial=100_000, seed=7
    )
    result = mc.run_experiment(cfg)
    ratio = result.sample_variance * cfg.shots_per_trial * result.fisher_classical
    assert 0.9 <= ratio <= 1.1, f"variance/CRB ratio {ratio:.4f}"
    born_fisher = mc.classical_fisher(
        mc.outcome_probs(0.8, 0.3), mc.outcome_prob_derivs(0.8, 0.3)
    )
    closed = 4.0 * 0.8**2 / (1.0 - (1.0 - 2.0 * 0.3) ** 2 * 0.8**2)
    assert abs(born_fisher - closed) < 1e-10
    print(f"criterion 8 (Monte Carlo bound saturation, ratio {ratio:.3f}): PASS")


def test_criterion_09_preparation_unitary_structure():
    passing_suite("preparation")
    print("criterion 9 (preparation unitary two-amplitude structure): PASS")


def test_criterion_10_dephasing_time_mapping_and_all_qubit_gain():
    passing_suite("threshold-gain")
    lam_nmr = protocol.lambda_from_t2(0.22, 1.0)
    assert lam_nmr <= 0.10
    # past t* the gain matches its small-r limit m n (1-2 lam)^(2m-2) < n
    g_nmr = protocol.gain(5, 5, 1e-4, lam_nmr)
    limit = 25.0 * (1.0 - 2.0 * lam_nmr) ** 8
    assert abs(g_nmr - limit) <= 5e-7 * limit, f"gain {g_nmr!r} vs limit {limit!r}"
    assert g_nmr < 5, f"gain {g_nmr:.4f} at t=0.22 T2 lies past t*"
    print("criterion 10 (dephasing-time mapping + all-qubit gain): PASS")
