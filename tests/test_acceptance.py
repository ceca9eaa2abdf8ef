"""Acceptance suite: one test per criterion, each printing a PASS line on
success (pytest shows the captured output and a FAILED marker otherwise).

Criterion 10 checks the all-qubit (n = m = 5) gain at t = 0.2 T2, where
lam = 0.0906 and the gain is 5.047. The n-fold gain is promised only up to
lam = lambda_threshold_gain_n(5) = 0.0911, i.e. t* = T2 ln5 / 8 = 0.2012 T2;
the test pins that boundary. Past it the gain stays below 5 at every
polarization: at t = 0.22 T2 (lam = 0.0987) it is 4.3011, and at the rounded
lam = 0.0986 it is 4.3132. Both agree with the dense SLD oracle to 1e-15 (at
r = 0.01 and 0.1), with an 80-digit mpmath j-sum, and with the r -> 0 limit
25 (1-2 lam)^8, so the test checks the 0.22 T2 gain against that limit as
a fact, not as a target.
"""

import math

import numpy as np
import pytest

from paulifish import channels, correlations, linop, mc, protocol, qfi

LAM_GRID = [round(0.1 * k, 10) for k in range(1, 10)]
R_GRID = [round(0.1 * k, 10) for k in range(1, 10)]


def dense_oracle_grids(n_max=5):
    """For each (n, m), the dense eigendecomposition oracle's Fisher
    information on the whole LAM_GRID x R_GRID grid from one stacked
    solve, and the grid's points (i, j, r, lam)."""
    points = [
        (i, j, r, lam) for i, lam in enumerate(LAM_GRID) for j, r in enumerate(R_GRID)
    ]
    lam_col = np.array(LAM_GRID)[:, None]
    for n in range(2, n_max + 1):
        for m in range(1, n + 1):
            rho, drho = channels.correlated_state(n, np.array(R_GRID), lam_col, m)
            yield n, m, qfi.sld_eig(rho, drho).H, points


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    for n, m, h_oracle, points in dense_oracle_grids():
        for i, j, r, lam in points:
            h_closed = protocol.qfi_correlated(protocol.ProtocolPoint(n, m, r, lam))
            rel = abs(h_oracle[i, j] - h_closed) / max(abs(h_closed), 1e-300)
            worst = max(worst, rel)
    assert worst < 1e-8, f"worst relative error {worst:.3e}"
    print(f"criterion 1 (oracle equivalence, worst rel {worst:.2e}): PASS")


def test_criterion_02_two_qubit_gain_anchors():
    for r in R_GRID:
        g_min = protocol.gain_min(2, 1, r)
        g_max = protocol.gain_max(2, 1, r)
        assert abs(g_min - 2.0 / (1.0 + r * r)) < 1e-10
        assert abs(g_max - 2.0 * (1.0 + r * r) / (1.0 - r * r)) < 1e-10
    print("criterion 2 (closed-form gain anchors at 1e-10): PASS")


def test_criterion_03_stationary_polarization_table():
    reference = [(1, 0.95, 0.66), (1, 0.99, 0.83), (2, 0.95, 0.48), (2, 0.99, 0.76)]
    h = 1e-4
    for m, lam, expected in reference:
        roots = protocol.stationary_polarizations(m, lam)
        assert roots, f"no root for m={m}, lam={lam}"
        best = min(roots, key=lambda root: abs(root - expected))
        assert abs(best - expected) <= 0.005, (m, lam, best)
        up = protocol.gain(protocol.ProtocolPoint(2, m, best + h, lam))
        down = protocol.gain(protocol.ProtocolPoint(2, m, best - h, lam))
        slope = abs(up - down) / (2 * h)
        assert slope < 1e-5, (m, lam, slope)
    print("criterion 3 (stationary polarizations 0.66/0.83/0.48/0.76): PASS")


def test_criterion_04_absolute_bound_and_pure_limit():
    from conftest import block_route_sld

    for n, m, h_oracle, points in dense_oracle_grids():
        for i, j, r, lam in points:
            bound = qfi.qfi_upper_bound(lam, m)
            h_closed = protocol.qfi_correlated(protocol.ProtocolPoint(n, m, r, lam))
            h_blocks = block_route_sld(n, r, lam, m).H
            h_ind = qfi.qfi_independent_opt(r, lam, m)
            assert max(h_closed, h_oracle[i, j], h_blocks, h_ind) <= bound + 1e-8
    for m in (1, 2, 4):
        for lam in LAM_GRID:
            h = qfi.qfi_independent_opt(1.0 - 1e-8, lam, m)
            bound = qfi.qfi_upper_bound(lam, m)
            assert abs(h - bound) / bound < 1e-4
    print("criterion 4 (absolute bound + pure-state limit): PASS")


def test_criterion_05_weight_and_gain_inequalities():
    violations = 0
    for n in range(2, 9):
        for r in [round(0.02 * k, 10) for k in range(1, 50)]:
            weighted_sum = 0.0
            for j in range(n + 1):
                w = protocol.weight_pair(n, j, r)
                if 2 * j != n and (w.diff / w.total) ** 2 < r * r - 1e-12:
                    violations += 1
                if w.total < 2.0 * (1.0 - r * r) ** (n - 1) - 1e-12:
                    violations += 1
                weighted_sum += math.comb(n, j) * w.diff**2 / w.total
            if weighted_sum < 2.0 ** (n + 1) * r * r - 1e-9:
                violations += 1
            for lam in [round(0.05 * k, 10) for k in range(0, 21)]:
                if protocol.gain(protocol.ProtocolPoint(n, 1, r, lam)) <= 1.0:
                    violations += 1
    assert violations == 0
    print("criterion 5 (weight inequalities and single-use gain floor): PASS")


def test_criterion_06_separability_threshold_and_gainful_separable_points():
    margin = 1e-6
    for m in (1, 2, 3):
        for lam in [round(0.1 * k, 10) for k in range(0, 11)]:
            thr = correlations.separability_threshold(m, lam)
            if thr - margin > 0.0:
                sep, _ = correlations.is_separable_ppt(
                    correlations.rho_final_two_qubit(thr - margin, lam, m)
                )
                assert sep, (m, lam, "below")
            if thr + margin < 1.0:
                sep, _ = correlations.is_separable_ppt(
                    correlations.rho_final_two_qubit(thr + margin, lam, m)
                )
                assert not sep, (m, lam, "above")
    witnesses = []
    for lam in LAM_GRID:
        for r in R_GRID:
            sep, _ = correlations.is_separable_ppt(
                correlations.rho_final_two_qubit(r, lam, 1)
            )
            if sep and protocol.gain(protocol.ProtocolPoint(2, 1, r, lam)) > 1.0:
                witnesses.append((r, lam))
    assert witnesses
    print(f"criterion 6 (threshold flip + {len(witnesses)} separable gainful points): PASS")


def test_criterion_07_discord():
    for r in R_GRID:
        assert correlations.discord_protocol(r, 0.5, 1).Q <= 1e-12
        g = protocol.gain(protocol.ProtocolPoint(2, 1, r, 0.5))
        assert abs(g - 2.0 / (1.0 + r * r)) < 1e-10
        assert g > 1.0
    for r in R_GRID:
        for lam in LAM_GRID + [0.0, 1.0]:
            for m in (1, 2):
                coeffs = correlations.bell_diagonalize(
                    correlations.rho_final_two_qubit(r, lam, m)
                )
                q_generic = correlations.discord_xstate(coeffs).Q
                q_closed = correlations.discord_protocol(r, lam, m).Q
                assert abs(q_generic - q_closed) < 1e-10
    h = 1e-4
    for r in [round(0.05 * k, 10) for k in range(1, 20)]:
        for mu in [round(0.05 * k, 10) for k in range(1, 20)]:
            assert correlations.discord_rmu(r, mu + h).Q > correlations.discord_rmu(r, mu - h).Q
            assert correlations.discord_rmu(r + h, mu).Q > correlations.discord_rmu(r - h, mu).Q
    assert abs(correlations.discord_prep(0.5) - 0.18872) < 1e-5
    print("criterion 7 (discord: zero at half strength, routes, monotone): PASS")


def test_criterion_08_monte_carlo_cramer_rao():
    cfg = mc.ExperimentConfig(
        r=0.8, lambda_true=0.3, trials=200, shots_per_trial=100_000, seed=7
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
    plus = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)
    for n in (2, 3, 4):
        u = channels.preparation_unitary(n)
        big_n = 2**n - 1
        for x in range(2**n):
            vec = np.array([1.0], dtype=complex)
            for bit_pos in reversed(range(n)):
                vec = np.kron(vec, minus if (x >> bit_pos) & 1 else plus)
            out = u @ vec
            assert abs(out[x] - (1 + 1j) / 2) <= 1e-12
            assert abs(out[big_n - x] - (1 - 1j) / 2) <= 1e-12
            rest = np.delete(out, [x, big_n - x])
            assert np.max(np.abs(rest)) <= 1e-12
    print("criterion 9 (preparation unitary two-amplitude structure): PASS")


def test_criterion_10_dephasing_time_mapping_and_all_qubit_gain():
    lam_nmr = protocol.lambda_from_t2(0.22, 1.0)
    assert lam_nmr <= 0.10
    # the n-fold gain threshold is the strength reached at t* = T2 ln(m)/(2m-2)
    t_star = math.log(5) / 8
    lam_star = protocol.lambda_from_t2(t_star, 1.0)
    assert abs(lam_star - protocol.lambda_threshold_gain_n(5)) <= 1e-12
    lam_gain = protocol.lambda_from_t2(0.2, 1.0)
    g = protocol.gain(protocol.ProtocolPoint(5, 5, 1e-4, lam_gain))
    print(
        f"criterion 10: strength at t=0.22 T2 is {lam_nmr:.4f} (<= 0.10 ok); "
        f"all-qubit gain at (n=m=5, r=1e-4, t=0.2 T2, lam={lam_gain:.4f}) is "
        f"{g:.4f}, required >= 4.9"
    )
    assert g >= 5 - 0.1, f"gain {g:.4f} < 4.9 at t=0.2 T2 (lam={lam_gain:.4f})"
    # past t* the gain matches its small-r limit m n (1-2 lam)^(2m-2) < n
    g_nmr = protocol.gain(protocol.ProtocolPoint(5, 5, 1e-4, lam_nmr))
    limit = 25.0 * (1.0 - 2.0 * lam_nmr) ** 8
    assert abs(g_nmr - limit) <= 5e-7 * limit, f"gain {g_nmr!r} vs limit {limit!r}"
    assert g_nmr < 5, f"gain {g_nmr:.4f} at t=0.22 T2 lies past t*={t_star:.4f} T2"
    print("criterion 10 (dephasing-time mapping + all-qubit gain): PASS")
