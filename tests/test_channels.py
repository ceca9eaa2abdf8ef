import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ChannelSpec,
    apply_pauli_channel,
    bitstring_weight,
    bloch_state,
    kron_all,
    qubit_swap,
    raise_peak,
)
from paulifish import channels, linop


def exact_weight(zeros, n, r):
    """(1+r)^zeros (1-r)^(n-zeros) / 2^n, the weight of a bitstring with that
    many zero bits, in exact arithmetic: the float r is a dyadic rational."""
    r = Fraction(r)
    return (1 + r) ** zeros * (1 - r) ** (n - zeros) / 2**n


def ulps(got, exact):
    """Relative error of the float got from the Fraction exact, in units of
    eps; 0 only where both are 0."""
    if exact == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(Fraction(float(got)) - exact) / abs(exact)) / sys.float_info.epsilon


def random_bloch(rng):
    v = rng.normal(size=3)
    return v * rng.uniform(0.0, 1.0) / np.linalg.norm(v)


def y_basis_string(x, n):
    """n-qubit product of sigma_y eigenstates encoding the bits of x."""
    plus = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    vec = np.array([1.0], dtype=complex)
    for bit_pos in reversed(range(n)):
        vec = np.kron(vec, minus if (x >> bit_pos) & 1 else plus)
    return vec


class TestBlochState:
    def test_origin_is_maximally_mixed(self):
        np.testing.assert_allclose(bloch_state((0, 0, 0)), np.eye(2) / 2)

    def test_pure_y_state(self):
        rho = bloch_state((0, 1, 0))
        np.testing.assert_allclose(rho, (np.eye(2) + linop.sigma_y()) / 2, atol=1e-15)
        evals = np.linalg.eigvalsh(rho)
        np.testing.assert_allclose(evals, [0.0, 1.0], atol=1e-12)

    def test_half_polarized_spectrum(self):
        evals = np.linalg.eigvalsh(bloch_state((0, 0.5, 0)))
        np.testing.assert_allclose(evals, [0.25, 0.75], atol=1e-12)

    @pytest.mark.parametrize("v", [(1.0, 0.2, 0.0), (math.nan, 0.0, 0.0)])
    def test_overlong_vector_rejected(self, v):
        with pytest.raises(ValueError, match="Bloch vector norm"):
            bloch_state(v)


class TestPauliChannel:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(0)
        rho = bloch_state(random_bloch(rng))
        out = apply_pauli_channel(rho, ChannelSpec("z", 0.0), [1])
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_phase_flip_shrinks_transverse_bloch_component(self):
        r, lam = 0.7, 0.2
        rho = bloch_state((0, r, 0))
        out = apply_pauli_channel(rho, ChannelSpec("z", lam), [1])
        np.testing.assert_allclose(
            out, bloch_state((0, r * (1 - 2 * lam), 0)), atol=1e-14
        )

    def test_half_strength_fully_dephases(self):
        rho = bloch_state((0, 0.8, 0))
        out = apply_pauli_channel(rho, ChannelSpec("z", 0.5), [1])
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_z_channel_preserves_diagonal(self):
        rng = np.random.default_rng(1)
        rho = bloch_state(random_bloch(rng))
        joint = kron_all([rho, rho])
        out = apply_pauli_channel(joint, ChannelSpec("z", 0.3), [2])
        np.testing.assert_allclose(np.diag(out), np.diag(joint), atol=1e-14)
        assert abs(np.trace(out) - 1) < 1e-12
        assert linop.frobenius_max(out - linop.dagger(out)) < 1e-14

    def test_duplicate_targets_rejected(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError, match="duplicate"):
            apply_pauli_channel(rho, ChannelSpec("z", 0.1), [1, 1])

    def test_x_axis_channel_acts_in_rotated_frame(self):
        r, lam = 0.6, 0.3
        rho = bloch_state((0, 0, r))
        out = apply_pauli_channel(rho, ChannelSpec("x", lam), [1])
        np.testing.assert_allclose(
            out, bloch_state((0, 0, r * (1 - 2 * lam))), atol=1e-14
        )


class TestPreparationUnitary:
    def expected_from_bit_algebra(self, n):
        # independent construction straight from the bit-string algebra:
        # entry (y, z) = (-1)**(y.z + s(z)) / 2**(n/2), s(z) = pairs of set bits
        d = 2**n
        u = np.zeros((d, d), dtype=complex)
        for z in range(d):
            pc = bin(z).count("1")
            s_sign = -1.0 if (pc * (pc - 1) // 2) % 2 else 1.0
            for y in range(d):
                dot = bin(y & z).count("1")
                u[y, z] = s_sign * (-1.0) ** dot
        return u / 2 ** (n / 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_bit_algebra_construction(self, n):
        u = channels.preparation_unitary(n)
        assert linop.frobenius_max(u - self.expected_from_bit_algebra(n)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitary(self, n):
        u = channels.preparation_unitary(n)
        assert linop.frobenius_max(u @ linop.dagger(u) - np.eye(2**n)) < 1e-12

    def test_two_qubit_plus_plus_splits_between_extremal_states(self):
        u = channels.preparation_unitary(2)
        out = u @ y_basis_string(0, 2)
        expected = np.zeros(4, dtype=complex)
        expected[0] = (1 + 1j) / 2
        expected[3] = (1 - 1j) / 2
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_diagonal_overlap_is_constant(self):
        n = 2
        u = channels.preparation_unitary(n)
        for x in range(2**n):
            amp = np.vdot(np.eye(2**n)[x], u @ y_basis_string(x, n))
            assert abs(amp - (1 + 1j) / 2) < 1e-14

    def test_swap_symmetry(self):
        u = channels.preparation_unitary(3)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            s = qubit_swap(3, i, j)
            assert linop.frobenius_max(s @ u - u @ s) < 1e-12

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            channels.preparation_unitary(1)

    def test_dimension_cap_checked_before_allocating(self):
        # at n = 13 the Hadamard layer alone would take 2**26 complex numbers
        assert raise_peak("dense cap", channels.preparation_unitary, 13) < 2**14


class TestBitstringWeight:
    def test_unpolarized_is_uniform(self):
        for x in range(8):
            assert abs(bitstring_weight(x, 3, 0.0) - 1 / 8) < 1e-15

    def test_hand_value(self):
        # n=2, r=0.5, x=0: both bits clear, (1.5)**2 / 4
        assert abs(bitstring_weight(0, 2, 0.5) - 0.5625) < 1e-15

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=60)
    def test_normalization(self, n, r):
        total = sum(bitstring_weight(x, n, r) for x in range(2**n))
        assert abs(total - 1.0) < 1e-12

    def test_pure_polarization_rejected(self):
        with pytest.raises(ValueError):
            bitstring_weight(0, 2, 1.0)


class TestBlocks:
    """The dense post-channel state as a direct sum of two-level blocks on
    the basis pairs (x, N-x)."""

    def test_unpolarized_state_is_maximally_mixed(self):
        rho, _ = channels.correlated_state(3, 0.0, 0.3, 1)
        np.testing.assert_array_equal(rho, np.eye(8) / 8)

    def test_hand_block_entries(self):
        rho, _ = channels.correlated_state(2, 0.5, 0.0, 1)
        np.testing.assert_allclose(
            rho[np.ix_([0, 3], [0, 3])], [[0.3125, 0.25j], [-0.25j, 0.3125]], rtol=0.0, atol=1e-15
        )
        assert rho[1, 2] == rho[2, 1] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_reconstruction_matches_conjugation(self, n):
        # the paper's direct sum: U rho^(x)n U† is block diagonal on (|x>, |N-x>)
        rng = np.random.default_rng(n)
        r = rng.uniform(0.05, 0.95)
        u = channels.preparation_unitary(n)
        rho_i = kron_all([bloch_state((0, r, 0))] * n)
        direct = u @ rho_i @ linop.dagger(u)
        for m in range(1, n + 1):
            dense, _ = channels.correlated_state(n, r, 0.0, m)
            assert linop.frobenius_max(dense - direct) < 1e-10

    @staticmethod
    def _block_matrix(x, n, r):
        big_n = 2**n - 1
        fx = bitstring_weight(x, n, r)
        fnx = bitstring_weight(big_n - x, n, r)
        m = np.zeros((2**n, 2**n), dtype=complex)
        m[x, x] = m[big_n - x, big_n - x] = (fx + fnx) / 2
        m[x, big_n - x] = 1j * (fx - fnx) / 2
        m[big_n - x, x] = -1j * (fx - fnx) / 2
        return m

    def test_block_supports_are_mutually_orthogonal(self):
        n, r = 3, 0.4
        mats = [self._block_matrix(x, n, r) for x in range(2 ** (n - 1))]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert linop.frobenius_max(mats[i] @ mats[j]) < 1e-14

    def test_block_of_complement_index_is_the_same_operator(self):
        n, r = 3, 0.6
        big_n = 2**n - 1
        for x in range(big_n // 2 + 1):
            np.testing.assert_allclose(
                self._block_matrix(x, n, r),
                self._block_matrix(big_n - x, n, r),
                atol=1e-15,
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_weight_invariants(self, n):
        rng = np.random.default_rng(17 + n)
        rho, _ = channels.correlated_state(n, rng.uniform(0.0, 0.999, size=5), 0.0, 1)
        x = np.arange(2 ** (n - 1))
        diag, off = rho[..., x, x].real, rho[..., x, 2**n - 1 - x].imag
        assert np.all(diag >= np.abs(off))
        np.testing.assert_allclose(np.trace(rho, axis1=-2, axis2=-1), 1.0, rtol=0.0, atol=1e-12)

    def test_post_channel_zero_strength_is_noop(self):
        prepared, _ = channels.correlated_state(3, 0.4, 0.0, 1)
        for m in (2, 3):
            np.testing.assert_array_equal(channels.correlated_state(3, 0.4, 0.0, m)[0], prepared)

    def test_post_channel_half_strength_kills_offdiagonals(self):
        rho, _ = channels.correlated_state(3, 0.4, 0.5, 2)
        assert np.count_nonzero(rho - np.diag(np.diagonal(rho))) == 0

    def test_post_channel_dense_matches_direct_channel(self):
        n, m, lam, r = 3, 2, 0.2, 0.4
        u = channels.preparation_unitary(n)
        rho_i = kron_all([bloch_state((0, r, 0))] * n)
        prep = u @ rho_i @ linop.dagger(u)
        direct = apply_pauli_channel(
            prep, ChannelSpec("z", lam), list(range(1, m + 1))
        )
        dense, _ = channels.correlated_state(n, r, lam, m)
        assert linop.frobenius_max(dense - direct) < 1e-10

    def test_correlated_state_derivative_matches_finite_difference(self):
        n, m, r, lam = 3, 2, 0.35, 0.27
        h = 1e-6
        _, drho = channels.correlated_state(n, r, lam, m)
        plus, _ = channels.correlated_state(n, r, lam + h, m)
        minus, _ = channels.correlated_state(n, r, lam - h, m)
        assert linop.frobenius_max(drho - (plus - minus) / (2 * h)) < 1e-6

    @pytest.mark.parametrize("r", [0.0, 1e-12, 0.3, 0.8])
    def test_correlated_state_matches_exact_weights(self, r):
        # every entry of rho and drho within 4 ulps of its exact value from
        # the bitstring weights f(x), f(N-x) and the float lam (2.1 measured).
        # Formed in floats as (f(x) -+ f(N-x))/2, the weights were 3.3e-5 off
        # at r = 1e-12
        n, m = 4, 3
        big_n = 2**n - 1
        lams = [0.0, 0.2, 0.5, 1.0]
        rho, drho = channels.correlated_state(n, r, np.array(lams), m)
        assert rho.shape == drho.shape == (4, 16, 16)
        x = np.arange(2 ** (n - 1))
        block = np.zeros((16, 16), dtype=bool)
        block[x, x] = block[big_n - x, big_n - x] = block[x, big_n - x] = block[big_n - x, x] = True
        assert not np.any(rho[:, ~block]) and not np.any(drho[:, ~block])
        for i, lam in enumerate(lams):
            c = 1 - 2 * Fraction(lam)
            for x in range(2 ** (n - 1)):
                zeros = n - bin(x).count("1")
                fx, fnx = exact_weight(zeros, n, r), exact_weight(n - zeros, n, r)
                d, o = (fx + fnx) / 2, (fx - fnx) / 2
                y = big_n - x
                expected = [  # entry, its exact real and imaginary parts
                    (rho[i, x, x], d, 0),
                    (rho[i, y, y], d, 0),
                    (rho[i, x, y], 0, o * c**m),
                    (drho[i, x, y], 0, -2 * m * o * c ** (m - 1)),
                ]
                for got, re, im in expected:
                    assert ulps(got.real, re) <= 4 and ulps(got.imag, im) <= 4, (lam, x)
                assert rho[i, y, x] == -rho[i, x, y] and drho[i, y, x] == -drho[i, x, y]
                assert drho[i, x, x] == drho[i, y, y] == 0.0

    def test_class_weights_are_those_of_their_blocks(self):
        # class j holds the blocks whose x, or N-x, has j zero bits
        n, r = 5, 0.35
        mult, p, t = channels.hamming_classes(n, r)
        d = p / (2.0 * np.array(mult, dtype=float))
        rho, _ = channels.correlated_state(n, r, 0.0, 1)
        zero_bits = [n - bin(x).count("1") for x in range(2 ** (n - 1))]
        for j, count in enumerate(mult):
            members = [x for x, z in enumerate(zero_bits) if min(z, n - z) == j]
            assert len(members) == count
            for x in members:
                sign = 1.0 if zero_bits[x] > n - zero_bits[x] else -1.0
                assert rho[x, x].real == d[j] and rho[x, 2**n - 1 - x].imag == sign * d[j] * t[j]

    def test_correlated_state_grid_matches_points(self):
        rs, lams = np.array([0.1, 0.6]), np.array([0.3, 0.7])[:, None]
        rho, drho = channels.correlated_state(3, rs, lams, 2)
        assert rho.shape == drho.shape == (2, 2, 8, 8)
        for i, lam in enumerate(lams.ravel().tolist()):
            for k, r in enumerate(rs.tolist()):
                one_rho, one_drho = channels.correlated_state(3, r, lam, 2)
                np.testing.assert_array_equal(rho[i, k], one_rho)
                np.testing.assert_array_equal(drho[i, k], one_drho)

    @pytest.mark.parametrize("n", [13, 64])
    def test_dimension_cap_checked_before_allocating(self, n):
        # at n = 13 the dense state alone would take 2**26 complex numbers
        assert raise_peak("dense cap", channels.correlated_state, n, 0.5, 0.2, 1) < 2**14

    def test_correlated_state_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"n=1 must lie in 2\.\.64"):
            channels.correlated_state(1, 0.5, 0.2, 1)
        with pytest.raises(ValueError, match="invocation"):
            channels.correlated_state(3, 0.5, 0.2, 4)
        with pytest.raises(ValueError, match="strength"):
            channels.correlated_state(3, 0.5, np.array([0.2, 1.2]), 1)
        with pytest.raises(ValueError, match="polarization"):
            channels.correlated_state(3, np.array([0.5, 1.0]), 0.2, 1)
        for n in (13, 64):
            with pytest.raises(ValueError, match="dense cap"):
                channels.correlated_state(n, 0.5, 0.2, 1)


class TestHammingClasses:
    """The class probabilities p_j and block polarizations t_j, j <= n/2."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_class_multiplicities_count_every_block(self, n):
        # Python ints: 2^63 overflows int64 and C(64, 32) is not exact in float64
        mult, p, t = channels.hamming_classes(n, np.array([0.0, 0.5]))
        assert all(isinstance(k, int) for k in mult)
        assert sum(mult) == 2 ** (n - 1)
        assert len(mult) == n // 2 + 1 and p.shape == t.shape == (2, n // 2 + 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unpolarized(self, n):
        # no polarization, and every block weighs 2/2^n
        mult, p, t = channels.hamming_classes(n, 0.0)
        np.testing.assert_array_equal(t, 0.0)
        np.testing.assert_array_equal(p, np.array(mult, dtype=float) * 2.0 ** (1 - n))

    def test_middle_class_has_no_polarization(self):
        _, _, t = channels.hamming_classes(4, np.array([0.3, 0.7, 0.999]))
        np.testing.assert_array_equal(t[:, 2], 0.0)
        assert np.all(t[:, :2] != 0.0)

    def test_hand_values(self):
        # n = 2, r = 0.5: w_0 = 0.25**2, w_2 = 0.75**2, w_1 = 0.75 * 0.25
        _, p, t = channels.hamming_classes(2, 0.5)
        np.testing.assert_allclose(p, [0.625, 0.375], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(t, [0.8, 0.0], rtol=1e-15, atol=0.0)

    def test_block_eigenvalues_are_the_bitstring_weights(self):
        # a block of class j, p_j/(2 mult_j) (I +- t_j sigma_y), has the
        # eigenvalues w_(n-j) and w_j, the weights of its two bitstrings
        rs = np.array([0.1, 0.5, 0.9])[:, None]
        for n in (2, 4, 7):
            mult, p, t = channels.hamming_classes(n, rs[:, 0])
            d, j = p / (2.0 * np.array(mult, dtype=float)), np.arange(n // 2 + 1)
            w, w_c = bitstring_weight(2 ** (n - j) - 1, n, rs), bitstring_weight(2**j - 1, n, rs)
            np.testing.assert_allclose(d * (1.0 + t), w_c, rtol=1e-14, atol=0.0)
            assert np.all(np.abs(d * (1.0 - t) - w) <= 1e-15 * w_c)  # 1 - t cancels

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_probabilities_and_polarizations(self, n):
        _, p, t = channels.hamming_classes(n, np.array([0.0, 0.01, 0.5, 0.9, 0.999]))
        assert np.all(p >= 0.0) and np.all((t >= 0.0) & (t <= 1.0))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    @pytest.mark.parametrize("r", [1e-12, 1e-6, 0.5, 1 - 1e-9])
    def test_classes_match_exact_weights(self, n, r):
        # within 3 ulps of the exact values from (1 +- r)^j: 1.4 measured for
        # p and 1.0 for t on this grid. The weights' difference formed in
        # floats, (w_j - w_(n-j))/2, was 3.3e-5 off at r = 1e-12
        mult, p, t = channels.hamming_classes(n, r)
        for j, count in enumerate(mult):
            w, w_c = exact_weight(j, n, r), exact_weight(n - j, n, r)
            assert ulps(p[j], count * (w + w_c)) <= 3, j
            assert ulps(t[j], (w_c - w) / (w_c + w)) <= 3, j

    def test_hamming_classes_reject_bad_arguments(self):
        for n in (1, 65):
            with pytest.raises(ValueError, match="2..64"):
                channels.hamming_classes(n, 0.5)
        with pytest.raises(ValueError, match="polarization"):
            channels.hamming_classes(4, 1.0)
        with pytest.raises(ValueError, match=r"polarization must lie in \[0, 1\), got 1.0"):
            channels.hamming_classes(3, np.array([0.2, 1.0, 0.4]))
