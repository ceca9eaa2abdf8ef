import numpy as np
import pytest

from conftest import kron_all, qubit_swap, random_hermitian, swap
from paulifish import linop


class TestGates:
    def test_pauli_and_clifford_builders_are_unitary(self):
        for g in (
            linop.sigma_x(),
            linop.sigma_y(),
            linop.sigma_z(),
            linop.hadamard(),
            swap(),
        ):
            d = g.shape[0]
            assert linop.frobenius_max(g @ linop.dagger(g) - np.eye(d)) < 1e-12

    def test_swap_exchanges_the_two_one_hot_indices(self):
        s = swap()
        e1, e2 = np.zeros(4), np.zeros(4)
        e1[1], e2[2] = 1, 1
        np.testing.assert_allclose(s @ e1, e2, atol=1e-15)
        np.testing.assert_allclose(s @ e2, e1, atol=1e-15)


class TestHelpers:
    def test_qubit_swap_commutes_qubits(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        s13 = qubit_swap(3, 1, 3)
        swapped = s13 @ kron_all([a, b, c]) @ linop.dagger(s13)
        np.testing.assert_allclose(swapped, kron_all([c, b, a]), atol=1e-12)

    def test_density_operator_predicate(self):
        assert linop.is_density_operator(np.eye(2) / 2)
        assert not linop.is_density_operator(np.eye(2))
        assert not linop.is_density_operator(np.diag([1.5, -0.5]))

    def test_density_operator_predicate_on_a_stack(self):
        skew = np.eye(2, dtype=complex) / 2
        skew[0, 1] = 1e-6  # not Hermitian
        members = [np.eye(2) / 2, np.eye(2), np.diag([1.5, -0.5]), skew, np.diag([0.3, 0.7])]
        verdicts = linop.is_density_operator(np.array([members, members[::-1]]))
        assert verdicts.dtype == bool and verdicts.shape == (2, 5)
        for row, ops in zip(verdicts, (members, members[::-1])):
            for got, op in zip(row, ops):
                want = linop.is_density_operator(op)
                assert type(want) is bool and got == want

    @pytest.mark.parametrize(
        "interval, inside, outside",
        [
            ("[0, 1]", [0.0, 0.5, 1.0], [-1e-300, 1.5, np.nan]),
            ("[0, 1)", [0.0, 0.5], [1.0, -0.1, np.inf]),
            ("(0, 1]", [5e-324, 1.0], [0.0, 1.5, np.nan]),
            ("(0, 1)", [5e-324, 0.5], [0.0, 1.0, np.nan]),
        ],
    )
    def test_unit_interval_check_names_the_first_element_outside(
        self, interval, inside, outside
    ):
        got = linop.check_unit_interval(np.array(inside), "polarization", interval)
        assert got.dtype == float and np.array_equal(got, inside)
        for bad in outside:
            with pytest.raises(ValueError) as err:
                linop.check_unit_interval([[inside[-1], bad, outside[0]]], "polarization", interval)
            assert str(err.value) == f"polarization must lie in {interval}, got {bad}"
