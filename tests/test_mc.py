import math

import numpy as np
import pytest

from paulifish import mc, qfi


class TestOutcomeProbs:
    def test_half_strength_is_unbiased_coin(self):
        p_plus, p_minus = mc.outcome_probs(0.7, 0.5)
        assert p_plus == pytest.approx(0.5, abs=1e-14)
        assert p_minus == pytest.approx(0.5, abs=1e-14)

    def test_pure_state_at_zero_strength_is_deterministic(self):
        p_plus, p_minus = mc.outcome_probs(1.0, 0.0)
        assert p_plus == pytest.approx(1.0, abs=1e-14)
        assert p_minus == pytest.approx(0.0, abs=1e-14)

    def test_interior_point(self):
        p_plus, p_minus = mc.outcome_probs(0.5, 0.25)
        assert p_plus == pytest.approx(0.625, abs=1e-14)
        assert p_minus == pytest.approx(0.375, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            r, lam = rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0)
            p_plus, p_minus = mc.outcome_probs(r, lam)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_derivatives_sum_to_zero_and_match_finite_difference(self):
        r, lam, h = 0.6, 0.3, 1e-6
        dp, dm = mc.outcome_prob_derivs(r, lam)
        assert dp + dm == pytest.approx(0.0, abs=1e-12)
        pp1, _ = mc.outcome_probs(r, lam + h)
        pp0, _ = mc.outcome_probs(r, lam - h)
        assert dp == pytest.approx((pp1 - pp0) / (2 * h), abs=1e-8)


class TestClassicalFisher:
    def test_matches_single_use_quantum_information(self):
        # the +-y measurement extracts everything the state offers
        for r in (0.3, 0.5, 0.8):
            for lam in (0.1, 0.3, 0.5, 0.9):
                f = mc.classical_fisher(
                    mc.outcome_probs(r, lam), mc.outcome_prob_derivs(r, lam)
                )
                expected = 4 * r * r / (1 - (1 - 2 * lam) ** 2 * r * r)
                assert f == pytest.approx(expected, abs=1e-10)
                assert f <= qfi.qfi_single_use((0, r, 0), lam) + 1e-9

    def test_uniform_distribution_with_flat_derivative(self):
        assert mc.classical_fisher([0.5, 0.5], [0.0, 0.0]) == 0.0

    def test_interior_value(self):
        f = mc.classical_fisher(mc.outcome_probs(0.5, 0.5), mc.outcome_prob_derivs(0.5, 0.5))
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_suboptimal_basis_loses_information(self):
        # measuring along x on a y-polarized dephased state reveals nothing
        r, lam = 0.8, 0.3
        f_x = mc.classical_fisher([0.5, 0.5], [0.0, 0.0])
        assert f_x == 0.0
        assert f_x < qfi.qfi_single_use((0, r, 0), lam)

    def test_zero_probability_with_information_signals_infinity(self):
        assert mc.classical_fisher([1.0, 0.0], [-0.5, 0.5]) == math.inf

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValueError):
            mc.classical_fisher([0.6, 0.6], [0.5, -0.5])
        with pytest.raises(ValueError):
            mc.classical_fisher([0.5, 0.5], [0.5, 0.5])


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        cfg = mc.ExperimentConfig(r=0.8, lambda_true=0.3, trials=50, shots_per_trial=1000, seed=11)
        a, b = mc.run_experiment(cfg), mc.run_experiment(cfg)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert a.sample_variance == b.sample_variance

    def test_different_seed_changes_draws(self):
        base = dict(r=0.8, lambda_true=0.3, trials=50, shots_per_trial=1000)
        a = mc.run_experiment(mc.ExperimentConfig(seed=1, **base))
        b = mc.run_experiment(mc.ExperimentConfig(seed=2, **base))
        assert not np.array_equal(a.estimates, b.estimates)

    def test_variance_tracks_cramer_rao(self):
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, trials=200, shots_per_trial=100_000, seed=7
        )
        res = mc.run_experiment(cfg)
        assert 0.9 <= res.sample_variance / res.crb <= 1.1
        assert res.n_clamped == 0

    def test_estimator_is_unbiased_in_the_interior(self):
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, trials=200, shots_per_trial=100_000, seed=7
        )
        res = mc.run_experiment(cfg)
        assert abs(res.mean - 0.3) < 4.0 * math.sqrt(res.crb / cfg.trials)

    def test_symmetric_point_estimates_center(self):
        cfg = mc.ExperimentConfig(
            r=0.5, lambda_true=0.5, trials=100, shots_per_trial=10_000, seed=3
        )
        res = mc.run_experiment(cfg)
        assert abs(res.mean - 0.5) < 3.0 * math.sqrt(res.crb / cfg.trials)

    def test_crb_uses_total_draw_count(self):
        cfg = mc.ExperimentConfig(
            r=0.6, lambda_true=0.4, m=3, trials=5, shots_per_trial=100, seed=0
        )
        res = mc.run_experiment(cfg)
        assert res.crb == pytest.approx(
            1.0 / (300 * res.fisher_classical), rel=1e-12
        )

    def test_fisher_comes_from_born_rule(self):
        cfg = mc.ExperimentConfig(r=0.8, lambda_true=0.3, trials=2, shots_per_trial=10, seed=0)
        res = mc.run_experiment(cfg)
        expected = 4 * 0.64 / (1 - 0.16 * 0.64)
        assert res.fisher_classical == pytest.approx(expected, abs=1e-10)

    def test_tiny_polarization_clamps_are_recorded(self):
        cfg = mc.ExperimentConfig(
            r=0.01, lambda_true=0.5, trials=100, shots_per_trial=10, seed=5
        )
        res = mc.run_experiment(cfg)
        assert res.n_clamped > 0
        assert np.all(res.estimates >= 0.0)
        assert np.all(res.estimates <= 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mc.ExperimentConfig(r=0.0, lambda_true=0.3)
        with pytest.raises(ValueError):
            mc.ExperimentConfig(r=0.5, lambda_true=0.0)
        with pytest.raises(ValueError):
            mc.ExperimentConfig(r=0.5, lambda_true=0.3, trials=0)
        with pytest.raises(ValueError, match="seed"):
            mc.ExperimentConfig(r=0.5, lambda_true=0.3, seed=-1)
        with pytest.raises(ValueError, match="trials"):
            mc.ExperimentConfig(r=0.5, lambda_true=0.3, trials=10**7 + 1)
        mc.ExperimentConfig(r=0.5, lambda_true=0.3, trials=10**7)


def reference_run(cfg):
    """The per-trial route: one spawned child, Philox and Generator per trial."""
    p_plus, _ = mc.outcome_probs(cfg.r, cfg.lambda_true)
    draws = cfg.shots_per_trial * cfg.m
    estimates = np.empty(cfg.trials)
    n_clamped = 0
    for t, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        rng = np.random.Generator(np.random.Philox(child))
        est = 0.5 * (1.0 - (2.0 * (rng.binomial(draws, p_plus) / draws) - 1.0) / cfg.r)
        if est < 0.0 or est > 1.0:
            n_clamped += 1
            est = min(max(est, 0.0), 1.0)
        estimates[t] = est
    return estimates, n_clamped


# 1, 2, 4, 5 and 7 entropy words; past four words the root hash runs longer.
WIDE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128 + 3, 2**200 + 11]


@pytest.mark.filterwarnings("error")
class TestTrialSubstreams:
    @pytest.mark.parametrize("trials", [1, 300])
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_trial_keys_match_spawned_children(self, seed, trials):
        keys = mc._trial_keys(seed, trials)
        assert keys.dtype == np.uint64 and keys.shape == (trials, 2)
        children = np.random.SeedSequence(seed).spawn(trials)
        np.testing.assert_array_equal(
            keys, [c.generate_state(2, np.uint64) for c in children]
        )

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**128 + 1])
    def test_draws_match_one_generator_per_spawned_child(self, seed):
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=2, trials=400, shots_per_trial=500, seed=seed
        )
        estimates, n_clamped = reference_run(cfg)
        res = mc.run_experiment(cfg)
        np.testing.assert_array_equal(res.estimates, estimates)
        assert res.n_clamped == n_clamped == 0

    def test_clamped_draws_match_one_generator_per_spawned_child(self):
        # four shots at r = 1/2 put estimates exactly on 0 and 1 as well as past them
        cfg = mc.ExperimentConfig(
            r=0.5, lambda_true=0.5, trials=300, shots_per_trial=4, seed=5
        )
        estimates, n_clamped = reference_run(cfg)
        res = mc.run_experiment(cfg)
        np.testing.assert_array_equal(res.estimates, estimates)
        assert res.n_clamped == n_clamped > 0

    def test_no_generator_per_trial(self, monkeypatch):
        built = {"Philox": 0, "Generator": 0}

        class Philox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                built["Philox"] += 1
                super().__init__(*args, **kwargs)

        class Generator(np.random.Generator):
            def __init__(self, *args, **kwargs):
                built["Generator"] += 1
                super().__init__(*args, **kwargs)

        class SeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("spawned a child per trial")

        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(np.random, "Generator", Generator)
        monkeypatch.setattr(np.random, "SeedSequence", SeedSequence)
        mc.run_experiment(
            mc.ExperimentConfig(r=0.8, lambda_true=0.3, trials=50, shots_per_trial=100)
        )
        assert built == {"Philox": 1, "Generator": 1}
