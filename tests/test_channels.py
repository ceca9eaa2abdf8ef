import math

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

    def test_too_many_invocations_rejected(self):
        with pytest.raises(ValueError, match="invocation"):
            channels.correlated_state(2, 0.3, 0.1, 3)

    def test_correlated_state_derivative_matches_finite_difference(self):
        n, m, r, lam = 3, 2, 0.35, 0.27
        h = 1e-6
        _, drho = channels.correlated_state(n, r, lam, m)
        plus, _ = channels.correlated_state(n, r, lam + h, m)
        minus, _ = channels.correlated_state(n, r, lam - h, m)
        assert linop.frobenius_max(drho - (plus - minus) / (2 * h)) < 1e-6

    def test_correlated_state_matches_bitstring_weights(self):
        n, m = 4, 3
        big_n = 2**n - 1
        rs, lams = np.array([0.0, 0.3, 0.8]), np.array([0.0, 0.2, 0.5, 1.0])[:, None]
        rho, drho = channels.correlated_state(n, rs, lams, m)
        assert rho.shape == drho.shape == (4, 3, 16, 16)
        for i, lam in enumerate(lams.ravel().tolist()):
            for k, r in enumerate(rs.tolist()):
                scale = (1.0 - 2.0 * lam) ** m
                dscale = -2.0 * m * (1.0 - 2.0 * lam) ** (m - 1)
                expected, dexpected = np.zeros((2, 16, 16), dtype=complex)
                for x in range(2 ** (n - 1)):
                    fx = bitstring_weight(x, n, r)
                    fnx = bitstring_weight(big_n - x, n, r)
                    d, o = (fx + fnx) / 2, (fx - fnx) / 2
                    expected[x, x] = expected[big_n - x, big_n - x] = d
                    expected[x, big_n - x] = 1j * o * scale
                    expected[big_n - x, x] = -1j * o * scale
                    dexpected[x, big_n - x] = 1j * o * dscale
                    dexpected[big_n - x, x] = -1j * o * dscale
                np.testing.assert_array_equal(rho[i, k], expected)
                np.testing.assert_array_equal(drho[i, k], dexpected)

    def test_class_weights_are_those_of_their_blocks(self):
        # class j holds the blocks whose x, or N-x, has j zero bits
        n, r = 5, 0.35
        mult, diag, off = channels.hamming_classes(n, r)
        rho, _ = channels.correlated_state(n, r, 0.0, 1)
        zero_bits = [n - bin(x).count("1") for x in range(2 ** (n - 1))]
        for j, count in enumerate(mult):
            members = [x for x, z in enumerate(zero_bits) if min(z, n - z) == j]
            assert len(members) == count
            for x in members:
                sign = -1.0 if zero_bits[x] > n - zero_bits[x] else 1.0
                assert rho[x, x].real == diag[j] and rho[x, 2**n - 1 - x].imag == sign * off[j]

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
        with pytest.raises(ValueError, match="qubits"):
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
    """The class weights d_j, o_j, j <= n/2: 2^(n+1) (o_j, d_j) is the
    paper's weight pair (diff_j, total_j)."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_class_multiplicities_count_every_block(self, n):
        # Python ints: 2^63 overflows int64 and C(64, 32) is not exact in float64
        mult, diag, off = channels.hamming_classes(n, np.array([0.0, 0.5]))
        assert all(isinstance(k, int) for k in mult)
        assert sum(mult) == 2 ** (n - 1)
        assert len(mult) == n // 2 + 1 and diag.shape == off.shape == (2, n // 2 + 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unpolarized(self, n):
        # no weight difference without polarization: every total is 2
        _, diag, off = channels.hamming_classes(n, 0.0)
        np.testing.assert_array_equal(off, 0.0)
        np.testing.assert_array_equal(2.0 ** (n + 1) * diag, 2.0)

    def test_middle_class_has_no_difference(self):
        _, _, off = channels.hamming_classes(4, np.array([0.3, 0.7, 0.999]))
        np.testing.assert_array_equal(off[:, 2], 0.0)
        assert np.all(off[:, :2] != 0.0)

    def test_hand_values(self):
        # n = 2, r = 0.5: w_0 = 0.25**2, w_2 = 0.75**2, w_1 = 0.75 * 0.25
        _, diag, off = channels.hamming_classes(2, 0.5)
        np.testing.assert_array_equal(8.0 * diag, [2.5, 1.5])
        np.testing.assert_array_equal(8.0 * off, [-2.0, 0.0])

    def test_square_identity(self):
        # d_j^2 - o_j^2 = w_j w_(n-j) = (1-r^2)^n / 4^n, in the weight pair's
        # scale diff^2 = total^2 - 4 (1-r^2)^n
        for n in (2, 4, 7):
            rs = np.array([0.1, 0.5, 0.9])
            _, diag, off = channels.hamming_classes(n, rs)
            diff, total = 2.0 ** (n + 1) * off, 2.0 ** (n + 1) * diag
            pure = 4.0 * (1.0 - rs * rs)[:, None] ** n
            np.testing.assert_allclose(diff**2, total**2 - pure, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_difference_bounded_by_total(self, n):
        _, diag, off = channels.hamming_classes(n, np.array([0.0, 0.01, 0.5, 0.9, 0.999]))
        assert np.all(diag >= np.abs(off))

    def test_hamming_classes_reject_bad_arguments(self):
        for n in (1, 65):
            with pytest.raises(ValueError, match="2..64"):
                channels.hamming_classes(n, 0.5)
        with pytest.raises(ValueError, match="polarization"):
            channels.hamming_classes(4, 1.0)
        with pytest.raises(ValueError, match=r"polarization must lie in \[0, 1\), got 1.0"):
            channels.hamming_classes(3, np.array([0.2, 1.0, 0.4]))
