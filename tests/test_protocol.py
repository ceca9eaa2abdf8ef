import math
import sys

import numpy as np
import pytest

from conftest import mp_correlated_reference
from paulifish import correlations, protocol, qfi


class TestGain:
    def test_gain_is_information_ratio(self):
        for (n, m, r, lam) in [(2, 1, 0.5, 0.3), (4, 2, 0.6, 0.1), (5, 5, 0.3, 0.8)]:
            ratio = protocol.qfi_correlated(n, m, r, lam) / qfi.qfi_independent_opt(r, lam, m)
            assert protocol.gain(n, m, r, lam) == pytest.approx(ratio, rel=1e-12)

    def test_symmetric_in_strength_reflection(self):
        for (n, m, r) in [(2, 1, 0.5), (3, 2, 0.7), (5, 4, 0.2)]:
            for lam in (0.05, 0.2, 0.45):
                g1 = protocol.gain(n, m, r, lam)
                g2 = protocol.gain(n, m, r, 1.0 - lam)
                assert g1 == pytest.approx(g2, rel=1e-12)

    def test_monotone_in_squared_contrast(self):
        # fixed polarization: gain grows with (1-2 lam)^2
        for (n, m, r) in [(2, 1, 0.5), (3, 2, 0.4), (6, 3, 0.8)]:
            lams = np.linspace(0.5, 0.0, 51)  # (1-2 lam)^2 increasing
            gains = [protocol.gain(n, m, r, lam) for lam in lams]
            assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

class TestHighPrecisionReference:
    """The kernel against the defining j-sum at 80 digits, over the whole
    accepted domain: tiny and near-pure polarizations, strengths at and
    next to 0, 1/2 and 1, and n up to the analytic cap."""

    RS = (1e-12, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9)
    LAMS = (0.0, 1e-12, 1e-3, 0.3, 0.5 - 1e-4, 0.5 + 1e-4, 0.7, 1 - 1e-9)
    TINY, HUGE = sys.float_info.min, sys.float_info.max

    @pytest.mark.parametrize("n", [2, 5, 16, 40, 64])
    def test_relative_error_or_range_error(self, n):
        ms = sorted({1, 2, min(3, n), n})
        checked = raised = 0
        for r in self.RS:
            ref = mp_correlated_reference(n, r, ms, self.LAMS)
            for (m, lam), (h, g) in ref.items():
                for fn, want in ((protocol.qfi_correlated, h), (protocol.gain, g)):
                    if want != 0 and not self.TINY <= abs(want) <= self.HUGE:
                        with pytest.raises(ValueError, match="float64 range"):
                            fn(n, m, r, lam)
                        raised += 1
                        continue
                    got = fn(n, m, r, lam)
                    assert abs(got - want) <= 1e-10 * abs(want), (fn.__name__, m, r, lam, got)
                    checked += 1
        assert checked > 0
        # only the largest n takes (1-2 lam)^(2m-2) out of range near lam = 1/2
        assert (raised > 0) == (n >= 40)

    @pytest.mark.parametrize("columns", [1, 2, 8])
    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (6, 6), (17, 4), (33, 2), (64, 1), (64, 64)])
    def test_grid_form_matches_scalar_wrappers(self, n, m, columns):
        # The same bits in every grid shape. Summed over an axis, the classes
        # gave a grid other bits than the scalar wrappers in cells of r = 0.38
        # or 0.86 with lam = 0.02 or 0.03, and of the r and lam with 17 digits.
        rs = np.array([1e-9, 0.05, 0.38, 0.42174797787009743, 0.5, 0.86, 0.95, 0.99])
        lams = np.array([0.0, 0.02, 0.03, 0.2, 0.3518427835974599, 0.5, 0.8, 1.0])[:, None]
        for start in range(0, rs.size, columns):
            h, g = protocol.qfi_and_gain(n, m, rs[start : start + columns], lams)
            assert h.shape == g.shape == (lams.size, min(columns, rs.size - start))
            for a, lam in enumerate(lams[:, 0]):
                for b, r in enumerate(rs[start : start + columns]):
                    assert h[a, b] == protocol.qfi_correlated(n, m, float(r), float(lam))
                    assert g[a, b] == protocol.gain(n, m, float(r), float(lam))

    def test_subnormal_result_raises(self):
        # true H ~ 2e-314 and gain ~ 3e-316: representable only as subnormals
        h, g = mp_correlated_reference(64, 0.5, [64], [0.4985])[64, 0.4985]
        assert 0 < g < h < self.TINY
        for fn in (protocol.qfi_correlated, protocol.gain):
            with pytest.raises(ValueError, match="float64 range"):
                fn(64, 64, 0.5, 0.4985)

    def test_grid_form_gives_inf_above_the_range_without_warning(self):
        # true H ~ 1e403; the scalar wrapper raises, the grid form returns inf,
        # and numpy's overflow warning would be an error under this suite
        h_ref, g_ref = mp_correlated_reference(64, 0.999999, [1], [0.0])[1, 0.0]
        assert h_ref > g_ref > self.HUGE
        assert protocol.qfi_and_gain(64, 1, 0.999999, 0.0) == (math.inf, math.inf)
        with pytest.raises(ValueError, match="float64 range"):
            protocol.qfi_correlated(64, 1, 0.999999, 0.0)

    def test_exact_zeros_stay_zero(self):
        for n in (2, 5, 64):
            assert protocol.qfi_correlated(n, 1, 0.0, 0.3) == 0.0
            assert protocol.qfi_correlated(n, 2, 0.4, 0.5) == 0.0
            assert protocol.gain(n, n, 0.4, 0.5) == 0.0
            # one invocation keeps nu^(m-1) = 1 at lam = 1/2
            assert protocol.gain(n, 1, 0.4, 0.5) > 1.0


class TestGainExtremes:
    def test_minimum_with_repeats_is_zero(self):
        assert protocol.gain_min(3, 2, 0.5) == 0.0

    def test_minimum_attained_at_half_strength(self):
        n, r = 3, 0.5
        grid = [protocol.gain(n, 1, r, lam) for lam in np.arange(0.0, 1.005, 0.01)]
        assert protocol.gain_min(n, 1, r) == pytest.approx(min(grid), abs=1e-6)

    def test_maximum_scales_with_invocations_and_matches_limit(self):
        assert protocol.gain_max(2, 2, 0.5) == pytest.approx(20.0 / 3.0, rel=1e-12)
        for (n, m, r) in [(2, 2, 0.5), (3, 2, 0.3), (4, 4, 0.7)]:
            near_zero = protocol.gain(n, m, r, 1e-10)
            assert protocol.gain_max(n, m, r) == pytest.approx(near_zero, rel=1e-6)
            assert protocol.gain_max(n, m, r) == pytest.approx(
                m * protocol.gain_max(n, 1, r), rel=1e-12
            )

    def test_maximum_approaches_product_limit_at_small_polarization(self):
        assert protocol.gain_max(3, 2, 1e-6) == pytest.approx(6.0, rel=1e-4)


class TestGainLimits:
    def test_small_polarization_limit_values(self):
        assert protocol.gain_limit_r0(4, 1, 0.77) == pytest.approx(4.0)
        assert protocol.gain_limit_r0(3, 2, 0.5) == 0.0
        assert protocol.gain_limit_r0(5, 3, 0.1) == pytest.approx(6.144, rel=1e-12)

    def test_small_polarization_limit_matches_gain(self):
        for (n, m, lam) in [(2, 1, 0.3), (4, 2, 0.1), (5, 3, 0.45)]:
            g = protocol.gain(n, m, 1e-6, lam)
            assert protocol.gain_limit_r0(n, m, lam) == pytest.approx(g, rel=1e-4)

    def test_pure_limit_values(self):
        for lam in (0.0, 0.2, 0.5, 1.0):
            assert protocol.gain_limit_r1(1, lam) == 1.0
        assert protocol.gain_limit_r1(2, 0.25) == pytest.approx(0.4, rel=1e-12)

    def test_pure_limit_matches_gain(self):
        for (n, m, lam) in [(2, 1, 0.3), (3, 2, 0.2), (4, 4, 0.6)]:
            g = protocol.gain(n, m, 1.0 - 1e-6, lam)
            assert protocol.gain_limit_r1(m, lam) == pytest.approx(g, rel=1e-4)

    def test_pure_limit_against_mpmath(self):
        import mpmath

        lams = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9]
        lams += [1.0 - lam for lam in lams[:4]]
        with mpmath.workdps(60):
            for m in (2, 3, 8):
                for lam in lams:
                    nu = (1 - 2 * mpmath.mpf(lam)) ** 2
                    ref = m * nu ** (m - 1) * (1 - nu) / (1 - nu**m)
                    got = protocol.gain_limit_r1(m, lam)
                    assert abs(got - ref) <= 1e-13 * ref, (m, lam)


class TestTwoQubitGain:
    def test_half_strength_single_use(self):
        for r in (0.2, 0.5, 0.8):
            assert protocol.gain_two_qubit(1, r, 0.5) == pytest.approx(
                2.0 / (1.0 + r * r), rel=1e-12
            )

    def test_regular_at_zero_polarization(self):
        assert protocol.gain_two_qubit(1, 0.0, 0.3) == pytest.approx(2.0)
        assert protocol.gain_two_qubit(1, 0.0, 0.3) == pytest.approx(
            protocol.gain_limit_r0(2, 1, 0.3)
        )


class TestStationaryPolarizations:
    def test_no_root_in_range_gives_empty_list(self):
        assert protocol.stationary_polarizations(1, 0.4) == []


class TestThresholdAndDephasingMap:
    def test_two_invocation_threshold(self):
        expected = 0.5 * (1.0 - 1.0 / math.sqrt(2.0))
        assert protocol.lambda_threshold_gain_n(2) == pytest.approx(expected, rel=1e-12)

    def test_threshold_decreases_with_invocations(self):
        values = [protocol.lambda_threshold_gain_n(m) for m in range(2, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_dephasing_map_values(self):
        assert protocol.lambda_from_t2(0.0, 1.0) == 0.0
        lam = protocol.lambda_from_t2(0.22, 1.0)
        assert lam == pytest.approx(0.0987, abs=5e-4)
        assert lam <= 0.10
        assert protocol.lambda_from_t2(1e9, 1.0) == pytest.approx(0.5, abs=1e-12)


#: The two-qubit closed forms among TestStrengthBroadcast.FUNCTIONS, which
#: take m in {1, 2} only.
TWO_QUBIT = {"discord_protocol", "gain_two_qubit", "ppt_closed_form", "separability_threshold"}


class TestStrengthBroadcast:
    """The closed forms a sweep or a verify suite evaluates once per block take
    lam as an array that broadcasts against r, and give the same bits as
    scalar calls."""

    # each returns a tuple of outputs; r is ignored by the lam-only limits
    FUNCTIONS = {
        "qfi_independent_opt": lambda r, lam, m: (qfi.qfi_independent_opt(r, lam, m),),
        "gain_limit_r0": lambda r, lam, m: (protocol.gain_limit_r0(3, m, lam),),
        "gain_limit_r1": lambda r, lam, m: (protocol.gain_limit_r1(m, lam),),
        "gain_two_qubit": lambda r, lam, m: (protocol.gain_two_qubit(m, r, lam),),
        "discord_protocol": lambda r, lam, m: (correlations.discord_protocol(r, lam, m),),
        "ppt_closed_form": lambda r, lam, m: correlations.ppt_closed_form(r, lam, m),
        "separability_threshold": lambda r, lam, m: (correlations.separability_threshold(m, lam),),
        "qfi_upper_bound": lambda r, lam, m: (qfi.qfi_upper_bound(lam, m),),
    }
    LAMS = [0.0, 0.013, 0.25, 0.5, 0.61, 0.999, 1.0]
    RS = [0.0, 0.1, 0.5, 0.8, 0.999]

    @pytest.mark.parametrize(
        "name, m",
        [(n, m) for n in sorted(FUNCTIONS) for m in (1, 2, 3) if m < 3 or n not in TWO_QUBIT],
    )
    def test_mesh_equals_scalar_calls(self, name, m):
        fn = self.FUNCTIONS[name]
        # the pure-state limit excludes lam in {0, 1} for repeated invocations
        lams = self.LAMS if name != "gain_limit_r1" or m == 1 else self.LAMS[1:-1]
        lam_col, r_row = np.array(lams)[:, None], np.array(self.RS)[None, :]
        outs = fn(r_row, lam_col, m)
        for i, lam in enumerate(lams):
            for j, r in enumerate(self.RS):
                for out, want in zip(outs, fn(r, lam, m)):
                    assert type(want) in (float, bool)
                    got = np.broadcast_to(out, (len(lams), len(self.RS)))[i, j]
                    assert got == want, (name, m, lam, r)
