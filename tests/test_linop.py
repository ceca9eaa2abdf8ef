import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulifish import linop


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestGates:
    def test_pauli_and_clifford_builders_are_unitary(self):
        for g in (
            linop.sigma_x(),
            linop.sigma_y(),
            linop.sigma_z(),
            linop.hadamard(),
            linop.controlled_z(),
            linop.swap(),
        ):
            d = g.shape[0]
            assert linop.frobenius_max(g @ linop.dagger(g) - np.eye(d)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_coin_toss_is_unitary(self, lam):
        v = linop.coin_toss(lam)
        assert linop.frobenius_max(v @ linop.dagger(v) - np.eye(2)) < 1e-12

    def test_coin_toss_endpoints(self):
        v0 = linop.coin_toss(0.0)
        np.testing.assert_allclose(v0, np.array([[0, -1], [1, 0]]), atol=1e-15)
        np.testing.assert_allclose(v0 @ np.array([1, 0]), np.array([0, 1]), atol=1e-15)
        np.testing.assert_allclose(linop.coin_toss(1.0), np.eye(2), atol=1e-15)

    def test_coin_toss_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            linop.coin_toss(-0.1)
        with pytest.raises(ValueError):
            linop.coin_toss(1.1)

    def test_cz_truth_table(self):
        cz = linop.controlled_z()
        for x in range(4):
            e = np.zeros(4)
            e[x] = 1
            sign = -1.0 if x == 3 else 1.0
            np.testing.assert_allclose(cz @ e, sign * e, atol=1e-15)

    def test_swap_exchanges_the_two_one_hot_indices(self):
        s = linop.swap()
        e1, e2 = np.zeros(4), np.zeros(4)
        e1[1], e2[2] = 1, 1
        np.testing.assert_allclose(s @ e1, e2, atol=1e-15)
        np.testing.assert_allclose(s @ e2, e1, atol=1e-15)


class TestTensor:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(
            linop.tensor([np.eye(2), np.eye(2)]), np.eye(4)
        )

    def test_zz_sign_on_single_flipped_bit(self):
        zz = linop.tensor([linop.sigma_z(), linop.sigma_z()])
        e = np.zeros(4)
        e[1] = 1.0  # qubit 1 set, qubit 2 clear
        np.testing.assert_allclose(zz @ e, -e, atol=1e-15)

    def test_last_factor_acts_on_least_significant_bit(self):
        zi = linop.tensor([linop.sigma_z(), np.eye(2)])
        iz = linop.tensor([np.eye(2), linop.sigma_z()])
        np.testing.assert_allclose(np.diag(zi), [1, 1, -1, -1])
        np.testing.assert_allclose(np.diag(iz), [1, -1, 1, -1])

    def test_trace_multiplicativity_of_states(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            rho = 0.5 * (
                np.eye(2)
                + v[0] * linop.sigma_x()
                + v[1] * linop.sigma_y()
                + v[2] * linop.sigma_z()
            )
            assert abs(np.trace(linop.tensor([rho, rho])) - 1.0) < 1e-12

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            linop.tensor([])

    def test_dimension_cap(self):
        with pytest.raises(linop.DimensionError):
            linop.tensor([np.eye(2)] * 13)


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 2)
        a = a @ a.conj().T
        a /= np.trace(a)
        b = random_hermitian(rng, 2)
        b = b @ b.conj().T
        b /= np.trace(b)
        joint = linop.tensor([a, b])
        np.testing.assert_allclose(linop.partial_trace(joint, [2]), a, atol=1e-12)
        np.testing.assert_allclose(linop.partial_trace(joint, [1]), b, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        for q in (1, 2):
            np.testing.assert_allclose(
                linop.partial_trace(rho, [q]), np.eye(2) / 2, atol=1e-12
            )

    def test_general_factor_scaling(self):
        # tracing out B from A (x) B leaves A scaled by tr B
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 2)
            joint = linop.tensor([a, b])
            np.testing.assert_allclose(
                linop.partial_trace(joint, [2, 3]),
                a * np.trace(b),
                atol=1e-10,
            )

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        assert abs(np.trace(linop.partial_trace(a, [2])) - np.trace(a)) < 1e-12

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            linop.partial_trace(np.eye(4), [3])
        with pytest.raises(ValueError):
            linop.partial_trace(np.eye(4), [])


class TestPartialTranspose:
    def test_product_state_transposes_one_factor(self):
        rng = np.random.default_rng(8)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        joint = linop.tensor([a, b])
        np.testing.assert_allclose(
            linop.partial_transpose(joint, [1]), linop.tensor([a, b.T]), atol=1e-12
        )

    def test_involution(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 4)
        twice = linop.partial_transpose(linop.partial_transpose(a, [1]), [1])
        assert linop.frobenius_max(twice - a) == 0.0

    def test_corner_elements_move_to_inner_block(self):
        # the four-corner structure with +-i c should land on the middle block
        c = 0.3
        rho = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)
        rho[0, 3], rho[3, 0] = 1j * c, -1j * c
        pt = linop.partial_transpose(rho, [1])
        expected = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)
        expected[1, 2], expected[2, 1] = 1j * c, -1j * c
        np.testing.assert_allclose(pt, expected, atol=0.0)


class TestHermitianEig:
    def test_pauli_z_spectrum(self):
        spec = linop.hermitian_eig(linop.sigma_z())
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_maximally_mixed_qubit(self):
        spec = linop.hermitian_eig(np.eye(2) / 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5], atol=1e-14)

    def test_polarized_qubit_spectrum(self):
        # (I + 0.6 sigma_y)/2 has eigenvalues (1 +- 0.6)/2
        rho = 0.5 * (np.eye(2) + 0.6 * linop.sigma_y())
        spec = linop.hermitian_eig(rho)
        np.testing.assert_allclose(spec.eigenvalues, [0.2, 0.8], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(rng, dim)
        spec = linop.hermitian_eig(a)
        assert linop.frobenius_max(spec.reconstruct() - a) < 1e-10
        v = spec.eigenvectors
        assert linop.frobenius_max(linop.dagger(v) @ v - np.eye(dim)) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-14)

    def test_non_hermitian_rejected_with_deviation(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            linop.hermitian_eig(a)

    def test_stack_matches_one_solve_per_operator(self):
        rng = np.random.default_rng(5)
        stack = np.array([[random_hermitian(rng, 4) for _ in range(3)] for _ in range(2)])
        spec = linop.hermitian_eig(stack)
        assert spec.eigenvalues.shape == (2, 3, 4)
        assert spec.eigenvectors.shape == (2, 3, 4, 4)
        assert linop.frobenius_max(spec.reconstruct() - stack) < 1e-10
        for i in range(2):
            for k in range(3):
                one = linop.hermitian_eig(stack[i, k])
                np.testing.assert_allclose(spec.eigenvalues[i, k], one.eigenvalues, atol=1e-13)

    def test_non_hermitian_member_of_a_stack_rejected(self):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        stack[1, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            linop.hermitian_eig(stack)
        with pytest.raises(linop.DimensionError):
            linop.hermitian_eig(np.zeros((2, 3, 3)))


class TestHelpers:
    def test_qubit_swap_commutes_qubits(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        s13 = linop.qubit_swap(3, 1, 3)
        swapped = s13 @ linop.tensor([a, b, c]) @ linop.dagger(s13)
        np.testing.assert_allclose(swapped, linop.tensor([c, b, a]), atol=1e-12)

    def test_embed_two_level(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        full = linop.embed_two_level(block, 0, 3, 4)
        assert full[0, 0] == 1 and full[0, 3] == 2 and full[3, 0] == 3 and full[3, 3] == 4
        assert np.count_nonzero(full) == 4

    def test_density_operator_predicate(self):
        assert linop.is_density_operator(np.eye(2) / 2)
        assert not linop.is_density_operator(np.eye(2))
        assert not linop.is_density_operator(np.diag([1.5, -0.5]))
