import math
import tracemalloc
import types

import numpy as np
import pytest

from conftest import ChannelSpec, apply_pauli_channel, binomial, bloch_state, rejects, run_child
from paulifish import linop, mc, qfi

# the projectors of the +-y measurement, onto (|0> +- i|1>)/sqrt(2)
PLUS = (linop.identity() + linop.sigma_y()) / 2.0
MINUS = linop.identity() - PLUS


def dense_born_rule(r, lam):
    """(p_+, p_-, dp_+, dp_-) through the dense matrices of tests/conftest.py:
    the channel map on (I + r sigma_y)/2 and its derivative Z rho Z - rho,
    each traced against the projectors."""
    rho = bloch_state((0.0, r, 0.0))
    out = apply_pauli_channel(rho, ChannelSpec("z", lam), [1])
    z = linop.sigma_z()
    drho = z @ rho @ z - rho
    return tuple(float(np.trace(a @ p).real) for a in (out, drho) for p in (PLUS, MINUS))


def stacked_born_rule(rs, lams):
    """dense_born_rule at every (r, lam) pair at once, on stacks of the same
    2x2 matrices built by the same entrywise sums and products."""
    r, lam = (np.asarray(v, dtype=float)[:, None, None] for v in (rs, lams))
    zero, z = np.zeros_like(r), linop.sigma_z()
    rho = 0.5 * (linop.identity() + zero * linop.sigma_x() + r * linop.sigma_y() + zero * z)
    out = (1.0 - lam) * rho + lam * (z @ rho @ z)
    drho = z @ rho @ z - rho
    cols = [np.trace(a @ p, axis1=-2, axis2=-1).real for a in (out, drho) for p in (PLUS, MINUS)]
    return list(zip(*(c.tolist() for c in cols)))


# signed zeros, subnormals, the pure state and r just past 1 (accepted up to
# 1 + 1e-12), against the ends of [0, 1] and strengths 10**-k from each end
EDGE_R = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, 0.5, -0.5, 1.0, -1.0,
          1.0 + 1e-13, -(1.0 + 1e-13)]
EDGE_LAM = [0.0, 5e-324, 1e-310, 0.5, 1.0, *(10.0**-k for k in range(1, 17)),
            *(1.0 - 10.0**-k for k in range(1, 17))]
EDGE = [(r, lam) for r in EDGE_R for lam in EDGE_LAM]


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


class TestDenseBornRule:
    """The closed outcome model against the dense Born rule it replaced, bit
    for bit, signed zeros included."""

    def test_stacked_route_is_the_dense_route(self):
        rng = np.random.default_rng(19)
        pts = EDGE + list(zip(rng.uniform(-1.0, 1.0, 2000).tolist(), rng.random(2000).tolist()))
        stacked = stacked_born_rule(*zip(*pts))
        for (r, lam), want in zip(pts, stacked):
            assert str(dense_born_rule(r, lam)) == str(want), (r, lam)

    def test_closed_form_is_the_dense_route(self):
        rng = np.random.default_rng(20)
        n = 10**5
        pts = EDGE + list(zip(rng.uniform(-1.0, 1.0, n).tolist(), rng.random(n).tolist()))
        pts += [(r, lam) for r in rng.random(200).tolist() for lam in EDGE_LAM]
        pts += [(r, lam) for r in EDGE_R for lam in rng.random(200).tolist()]
        want = np.array(stacked_born_rule(*zip(*pts)))
        got = np.array([(*mc.outcome_probs(*p), *mc.outcome_prob_derivs(*p)) for p in pts])
        # the bit patterns, which tell signed zeros apart as str() does
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "r, lam",
        [(1.0 + 1e-11, 0.3), (-1.5, 0.3), (math.nan, 0.3), (math.inf, 0.3),
         (-(1.0 + 2e-12), 0.3), (0.5, -1e-300), (0.5, 1.5), (0.5, math.nan), (2.0, math.nan)],
    )
    def test_rejects_what_the_dense_route_rejects(self, r, lam):
        with pytest.raises(ValueError) as want:
            dense_born_rule(r, lam)
        with pytest.raises(ValueError) as got:
            mc.outcome_probs(r, lam)
        assert str(got.value) == str(want.value)
        if "Bloch" in str(want.value):
            with pytest.raises(ValueError) as got:
                mc.outcome_prob_derivs(r, lam)
            assert str(got.value) == str(want.value)


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

    def test_zero_probability_without_information_adds_nothing(self):
        assert mc.classical_fisher([1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValueError):
            mc.classical_fisher([0.6, 0.6], [0.5, -0.5])
        with pytest.raises(ValueError):
            mc.classical_fisher([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="differ in length"):
            mc.classical_fisher([0.5, 0.5], [0.0, 0.0, 0.0])
        for p, dp in [(np.array([[0.5, 0.5]]), np.array([[0.1, -0.1]])),
                      ([[0.5, 0.5]], [[0.1, -0.1]])]:
            with rejects("p and dp must be one-dimensional, got shapes (1, 2) and (1, 2)"):
                mc.classical_fisher(p, dp)


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=50, shots_per_trial=1000, seed=11
        )
        a, b = mc.run_experiment(cfg), mc.run_experiment(cfg)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert a.sample_variance == b.sample_variance

    def test_different_seed_changes_draws(self):
        base = dict(r=0.8, lambda_true=0.3, m=1, trials=50, shots_per_trial=1000)
        a = mc.run_experiment(mc.ExperimentConfig(seed=1, **base))
        b = mc.run_experiment(mc.ExperimentConfig(seed=2, **base))
        assert not np.array_equal(a.estimates, b.estimates)

    def test_variance_tracks_cramer_rao(self):
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=200, shots_per_trial=100_000, seed=7
        )
        res = mc.run_experiment(cfg)
        assert 0.9 <= res.sample_variance / res.crb <= 1.1
        assert res.n_clamped == 0

    def test_estimator_is_unbiased_in_the_interior(self):
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=200, shots_per_trial=100_000, seed=7
        )
        res = mc.run_experiment(cfg)
        assert abs(res.mean - 0.3) < 4.0 * math.sqrt(res.crb / cfg.trials)

    def test_symmetric_point_estimates_center(self):
        cfg = mc.ExperimentConfig(
            r=0.5, lambda_true=0.5, m=1, trials=100, shots_per_trial=10_000, seed=3
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
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=2, shots_per_trial=10, seed=0
        )
        res = mc.run_experiment(cfg)
        expected = 4 * 0.64 / (1 - 0.16 * 0.64)
        assert res.fisher_classical == pytest.approx(expected, abs=1e-10)

    def test_tiny_polarization_clamps_are_recorded(self):
        cfg = mc.ExperimentConfig(
            r=0.01, lambda_true=0.5, m=1, trials=100, shots_per_trial=10, seed=5
        )
        res = mc.run_experiment(cfg)
        assert res.n_clamped > 0
        assert np.all(res.estimates >= 0.0)
        assert np.all(res.estimates <= 1.0)

    def test_working_set_is_one_block(self):
        # besides the estimates, BTPE's temporaries, the shared tail and the
        # variance stay within a few blocks of trials
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=200_000, shots_per_trial=100_000, seed=1
        )
        tracemalloc.start()
        try:
            res = mc.run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < res.estimates.nbytes + 4 * 2**20

    def test_numpy_integer_counts_give_the_plain_ints_run(self):
        # BTPE's 2000 draws per trial and the seed's words take Python ints
        plain = dict(r=0.8, lambda_true=0.3, m=2, trials=50, shots_per_trial=1000, seed=7)
        as_numpy = {k: np.int64(v) if type(v) is int else np.float64(v) for k, v in plain.items()}
        cfg = mc.ExperimentConfig(**as_numpy)
        assert cfg == mc.ExperimentConfig(**plain) and type(cfg.seed) is type(cfg.m) is int
        assert type(cfg.r) is type(cfg.lambda_true) is float
        got, want = mc.run_experiment(cfg), mc.run_experiment(mc.ExperimentConfig(**plain))
        assert got.estimates.tobytes() == want.estimates.tobytes()

    @pytest.mark.parametrize("field, bad", [("seed", -1), ("m", 0)])
    def test_runs_only_a_checked_config(self, field, bad, monkeypatch):
        # unchecked, seed=-1 would hash to seed=2**128-1's entropy words and m=0 divide by 0
        settings = dict(r=0.8, lambda_true=0.3, m=1, trials=3, shots_per_trial=10, seed=0)
        monkeypatch.setattr(mc, "_trial_keys", lambda *a: pytest.fail("a trial was drawn"))
        with pytest.raises(TypeError, match="^run_experiment takes an ExperimentConfig, "
                                            "got SimpleNamespace$"):
            mc.run_experiment(types.SimpleNamespace(**settings | {field: bad}))


# numpy's pairwise sum adds ranges of up to 128 values whole and halves
# longer ones, the first half a multiple of 8; sizes on each side of those
# splits and of a 4096-value block
VARIANCE_SIZES = [2, 3, 7, 8, 9, 127, 128, 129, 4095, 4096, 4097, 8193,
                  2**16 - 1, 2**16, 2**16 + 1, 2**17 + 1, 10**6]


@pytest.mark.parametrize("block", [7, 2**12])
@pytest.mark.parametrize("n", VARIANCE_SIZES)
def test_sample_variance_is_np_var(n, block, monkeypatch):
    # fails loudly if numpy changes how np.var sums
    monkeypatch.setattr(mc, "_BLOCK_TRIALS", block)
    rng = np.random.default_rng(n)
    for x in (rng.random(n), 1e3 + rng.standard_normal(n), np.round(20.0 * rng.random(n)) / 20.0):
        assert mc._sample_variance(x) == float(np.var(x, ddof=1))


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


# 1, 2, 3, 4, 5 and 7 entropy words: below four the seed's words are padded
# to the pool size, past four the hash runs longer.
WIDE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128 + 3, 2**200 + 11]


@pytest.mark.filterwarnings("error")
class TestTrialSubstreams:
    @pytest.mark.parametrize("trials", [1, 300])
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_trial_keys_match_spawned_children(self, seed, trials):
        keys = mc._trial_keys(seed, 0, trials)
        assert keys.dtype == np.uint64 and keys.shape == (trials, 2)
        children = np.random.SeedSequence(seed).spawn(trials)
        want = [c.generate_state(2, np.uint64) for c in children]
        np.testing.assert_array_equal(keys, want)
        # a block of trials that starts past trial 0
        start = trials // 3
        np.testing.assert_array_equal(mc._trial_keys(seed, start, trials), want[start:])

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
            r=0.5, lambda_true=0.5, m=1, trials=300, shots_per_trial=4, seed=5
        )
        estimates, n_clamped = reference_run(cfg)
        res = mc.run_experiment(cfg)
        np.testing.assert_array_equal(res.estimates, estimates)
        assert res.n_clamped == n_clamped > 0

    def test_blocks_of_trials_match_one_generator_per_spawned_child(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 7)  # 8 blocks, the last one partial
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=50, shots_per_trial=500, seed=3
        )
        estimates, n_clamped = reference_run(cfg)
        res = mc.run_experiment(cfg)
        np.testing.assert_array_equal(res.estimates, estimates)
        assert res.n_clamped == n_clamped

    @pytest.mark.parametrize("shots, deepest_block", [(200, 2), (100, 3)])
    def test_btpe_tail_matches_one_generator_per_spawned_child(
        self, shots, deepest_block, monkeypatch
    ):
        # 25 blocks of 4 trials at n p near 30-70: the trials BTPE rejects at
        # attempts 0 and 1 fill the shared tail mid-run, and at 100 shots
        # some trial needs attempt 4 or 5, which read Philox block 3
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 4)
        firsts, counters = [], []
        btpe, philox_block = mc._btpe, mc._philox_block

        def spy_btpe(keys, n, r, first=0, stop=None):
            firsts.append(first)
            return btpe(keys, n, r, first, stop)

        def spy_block(keys, counter):
            counters.append(int(np.max(counter)))
            return philox_block(keys, counter)

        monkeypatch.setattr(mc, "_btpe", spy_btpe)
        monkeypatch.setattr(mc, "_philox_block", spy_block)
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=1, trials=100, shots_per_trial=shots, seed=0
        )
        estimates, n_clamped = reference_run(cfg)
        res = mc.run_experiment(cfg)
        np.testing.assert_array_equal(res.estimates, estimates)
        assert res.n_clamped == n_clamped
        # the tail ran before the last block was drawn: it filled a block mid-run
        assert 2 in firsts[: max(i for i, first in enumerate(firsts) if first == 0)]
        assert max(counters) == deepest_block

    def test_draw_fraction_rounds_once_past_two_to_the_53(self):
        # 9e18 draws: float(count) / float(draws) rounds twice and differs
        # from count / draws on about a quarter of the trials
        cfg = mc.ExperimentConfig(
            r=0.8, lambda_true=0.3, m=9, trials=200, shots_per_trial=10**18, seed=4
        )
        estimates, _ = reference_run(cfg)
        np.testing.assert_array_equal(mc.run_experiment(cfg).estimates, estimates)

    def test_no_generator_per_trial(self, monkeypatch):
        built = {"Philox": 0, "Generator": 0, "SeedSequence": 0}

        class Philox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                built["Philox"] += 1
                super().__init__(*args, **kwargs)

        class Generator(np.random.Generator):
            def __init__(self, *args, **kwargs):
                built["Generator"] += 1
                super().__init__(*args, **kwargs)

        class SeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built["SeedSequence"] += 1
                super().__init__(*args, **kwargs)

            def spawn(self, n_children):
                raise AssertionError("spawned a child per trial")

        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(np.random, "Generator", Generator)
        monkeypatch.setattr(np.random, "SeedSequence", SeedSequence)
        mc.run_experiment(
            mc.ExperimentConfig(
                r=0.8, lambda_true=0.3, m=1, trials=50, shots_per_trial=100, seed=0
            )
        )
        assert built == {"Philox": 0, "Generator": 0, "SeedSequence": 0}

    def test_mc_command_leaves_numpy_random_unimported(self, tmp_path):
        script = (
            "import sys\n"
            "from paulifish import cli\n"
            f"cli.main(['mc', '--r', '0.8', '--lambda', '0.3', '--trials', '3', "
            f"'--out', {str(tmp_path / 'trials.csv')!r}])\n"
            "print('numpy.random' in sys.modules)\n"
        )
        done = run_child(["-c", script])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "trials.csv").read_text().count("\n") == 4


BINOMIAL_TRIALS = 20_000

# (n, p) for the vector sampler, 20 000 trials each:
#   inversion (n p <= 30): a small n; 1 - p rounding to 1 (only log1p(-p)
#   gives numpy's q^n); n p near 22 at n = 2**40; p > 1/2 through n - X;
#   BTPE at small n p: the ratio f(y)/f(m) taken upwards, downwards and over
#   k > 20 steps (k >= n p q / 2 - 1), and the left tail rejecting y < 0;
#   BTPE at n p q = 22 440 (the benchmark's p): the squeeze, and Stirling's
#   bound both accepting and rejecting;
#   BTPE at n >= 2**33, p below, at and above 1/2: the squeeze with -k*k
#   wrapping in int64 (k > 3.04e9 from n = 2**62 on), up to n = 2**63 - 1;
#   there, at n p = 461, the ratio's factors s (n + 1) / i - s take n + 1
#   wrapped to -2**63 (at larger n p, y is a multiple of 512 and the ratio
#   only runs at k = 0).
BINOMIAL_CASES = [
    (10, 0.3), (2**62, 1e-18), (2**40, 2e-11), (100, 0.71),
    (100, 0.31), (1000, 0.031), (61, 0.5), (100, 0.7),
    (10**5, 0.66), (10**5, 0.2),
    (2**33, 0.3), (2**40, 0.5), (2**62, 0.3), (2**62, 0.5),
    (2**63 - 1, 0.25), (2**63 - 1, 0.5), (2**63 - 1, 0.9), (2**63 - 1, 5e-17),
]


@pytest.fixture(scope="module")
def spawned():
    """Trial keys of a seed and a fresh Generator on each spawned child's
    Philox, BINOMIAL_TRIALS of each.

    Each child's Philox is seeded once per seed, which is most of the cost,
    and its initial state kept; every call restores that state and wraps
    each bit generator in a new Generator."""
    cache = {}

    def get(seed):
        if seed not in cache:
            bitgens = [
                np.random.Philox(c) for c in np.random.SeedSequence(seed).spawn(BINOMIAL_TRIALS)
            ]
            cache[seed] = (
                mc._trial_keys(seed, 0, BINOMIAL_TRIALS),
                bitgens,
                [b.state for b in bitgens],
            )
        keys, bitgens, states = cache[seed]
        for bitgen, state in zip(bitgens, states):
            bitgen.state = state
        return keys, [np.random.Generator(b) for b in bitgens]

    return get


def _numpy_draws(keys, n, p, first_block):
    """Generator.binomial(n, p) on each key's Philox, whose buffer holds
    first_block as the words of the block at counter 1."""
    out = []
    for key in keys:
        bitgen = np.random.Philox(key=key)
        state = bitgen.state
        state["state"]["counter"][0] = 1
        state["buffer"] = np.array(first_block, dtype=np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        out.append(np.random.Generator(bitgen).binomial(n, p))
    return out


HALF, QUARTER, TOP = 1 << 63, 1 << 62, 2**64 - 1


@pytest.mark.filterwarnings("error")
class TestBinomialMatchesNumpy:
    @pytest.mark.parametrize(
        "n, p, seed", [(n, p, 1 + i % 2) for i, (n, p) in enumerate(BINOMIAL_CASES)]
    )
    def test_every_spawned_child(self, n, p, seed, spawned):
        keys, generators = spawned(seed)
        want = [g.binomial(n, p) for g in generators]
        np.testing.assert_array_equal(binomial(keys, n, p), want)

    # Branches no seed reaches in practice, taken by putting chosen words in
    # the first block of every stream, in numpy's Philox buffer and in the
    # vector route alike. next_double of TOP is 1 - 2**-53, of 1 << 11 it is
    # 2**-53, and of 0 it is 0.
    @pytest.mark.parametrize(
        "n, p, first_block, block_calls",
        [
            # inversion: the probabilities up to the bound sum to 1 - 4.4e-15,
            # so U = 1 - 2**-53 runs past the bound and restarts
            (2**50, 2.1257839932786738e-14, [TOP, HALF, HALF, HALF], 2),
            # BTPE: right tail past n; right tail and left tail with v = 0
            (61, 0.5, [TOP, 1 << 11, QUARTER, QUARTER], 1),
            (61, 0.5, [TOP, 0, QUARTER, QUARTER], 1),
            (61, 0.5, [int(0.88 * 2**53) << 11, 0, QUARTER, QUARTER], 1),
        ],
    )
    def test_crafted_first_block(self, n, p, first_block, block_calls, monkeypatch):
        keys = mc._trial_keys(5, 0, 4)
        blocks = []
        philox_block = mc._philox_block

        def crafted(keys, counter):
            block = philox_block(keys, counter)
            first = np.broadcast_to(np.asarray(counter), len(keys)) == 1
            block[:, first] = np.array(first_block, dtype=np.uint64)[:, None]
            blocks.append(counter)
            return block

        monkeypatch.setattr(mc, "_philox_block", crafted)
        got = binomial(keys, n, p)
        # the restart reads a second block; a BTPE retry reads words 2 and 3
        # of the first, which put it in the triangle
        assert len(blocks) == block_calls
        np.testing.assert_array_equal(got, _numpy_draws(keys, n, p, first_block))


@pytest.mark.parametrize("trials", [1, 4096, 4097, 8193])
def test_trial_csv_matches_one_row_at_a_time(trials, tmp_path):
    # the command formats each block of rows with one %; the reference, one
    # row at a time. 4096 trials fill one block, 4097 and 8193 start another
    from paulifish import cli

    out_path = tmp_path / "trials.csv"
    args = ["mc", "--r", "0.8", "--lambda", "0.3", "--shots", "100", "--seed", "3"]
    assert cli.main([*args, "--trials", str(trials), "--out", str(out_path)]) == 0
    res = mc.run_experiment(
        mc.ExperimentConfig(r=0.8, lambda_true=0.3, m=1, trials=trials, shots_per_trial=100, seed=3)
    )
    rows = "".join("%d,%.12g\n" % (t, est) for t, est in enumerate(res.estimates.tolist()))
    assert out_path.read_bytes() == ("trial,lambda_hat\n" + rows).encode()
