import numpy as np
import pytest

from conftest import kron_all, qubit_swap, random_hermitian, rejects, swap
from paulifish import linop, protocol


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


class TestInputRules:
    """Each input rule once, at every edge it decides. tests/test_package.py's
    DOMAINS table states which rule guards each argument of each public
    function."""

    @pytest.mark.parametrize(
        "interval, inside, outside",
        [
            ("[0, 1]", [0.0, -0.0, 1.0], [-5e-324, 1.0000000000000002, np.nan, -np.inf]),
            ("[0, 1)", [0.0, 0.9999999999999999], [-5e-324, 1.0, np.nan, np.inf]),
            ("(0, 1]", [5e-324, 1.0], [0.0, -0.0, 1.0000000000000002, np.nan]),
            ("(0, 1)", [5e-324, 0.9999999999999999], [0.0, 1.0, np.nan]),
        ],
    )
    def test_unit_interval_check_names_the_first_element_outside(self, interval, inside, outside):
        got = linop.check_unit_interval(np.array(inside), "polarization", interval)
        assert got.dtype == float and np.array_equal(got, inside)
        for bad in outside:
            for at in range(4):  # anywhere in an array, other elements outside after it
                v = np.array([inside[-1]] * at + [bad] + [outside[0]] * (3 - at)).reshape(2, 2)
                with rejects(f"polarization must lie in {interval}, got {bad}"):
                    linop.check_unit_interval(v, "polarization", interval)

    def test_integer_check_takes_what_operator_index_takes(self):
        for v in (0, 7, True, np.int64(7), np.uint8(7), 2**70):
            got = linop.check_integer(v, "seed")
            assert type(got) is int and got == v
        for bad in (3.5, 2.0, np.float64(2.0), "2", None, np.array([2])):
            with rejects(f"seed must be an integer, got {bad!r}"):
                linop.check_integer(bad, "seed")

    def test_invocation_check(self):
        for m in (1, 2, np.int64(64), 2**63 - 1):
            linop.check_invocations(m)
        for m, message in [
            (0, "invocation count must be >= 1, got 0"),
            (-1, "invocation count must be >= 1, got -1"),
            (2**63, f"invocation count must be <= 2**63 - 1, got {2**63}"),
            (10**400, f"invocation count must be <= 2**63 - 1, got {10**400}"),
            (1.5, "m must be an integer, got 1.5"),
            (2.0, "m must be an integer, got 2.0"),
        ]:
            with rejects(message):
                linop.check_invocations(m)

    def test_qubit_and_invocation_counts(self):
        for n, m in [(2, 1), (2, 2), (64, 1), (64, 64), (np.int64(3), np.int64(2))]:
            got = protocol._validate_nm(n, m)
            assert got == (n, m) and all(type(c) is int for c in got)
        assert protocol._validate_nm(5) == (5, 1)
        for n, m, message in [
            (1, 1, "n=1 must lie in 2..64"),
            (65, 1, "n=65 must lie in 2..64"),
            (3, 0, "invocations m=0 must lie in 1..3"),
            (3, 4, "invocations m=4 must lie in 1..3"),
            (3.5, 1, "n must be an integer, got 3.5"),
            (3.0, 1, "n must be an integer, got 3.0"),
            (3, 1.5, "m must be an integer, got 1.5"),
            (3, 2.0, "m must be an integer, got 2.0"),
        ]:
            with rejects(message):
                protocol._validate_nm(n, m)

    def test_pure_corner_check(self):
        # r = 1 with lam inside (0, 1), and r just below 1 with lam at an end, pass
        linop.reject_pure_corner(np.array([0.5, 1.0]), np.array([[5e-324], [0.5]]))
        linop.reject_pure_corner(np.array([0.5, 0.9999999999999999]), np.array([[0.0], [1.0]]))
        message = "pure state with lam in {0, 1} is outside the closed form's domain"
        for end in (0.0, 1.0):
            with rejects(message):
                linop.reject_pure_corner(1.0, end)
            for at in range(6):  # the corner at each cell of a 3 x 2 (lam, r) mesh
                r, lam = np.full(2, 0.5), np.full((3, 1), 0.3)
                r[at % 2], lam[at // 2] = 1.0, end
                with rejects(message):
                    linop.reject_pure_corner(r, lam)

    def test_scalar_check_takes_one_number(self):
        for v in (3, 0.25, np.float64(0.25), np.float32(0.1), np.array(0.25)):
            got = linop.check_scalar(v, "channel strength")
            assert type(got) is float and got == v
        for shape in ((0,), (1,), (2,), (2, 2)):
            with rejects(f"channel strength must be a scalar, got shape {shape}"):
                linop.check_scalar(np.full(shape, 0.25), "channel strength")

    def test_bloch_norm_check(self):
        for norm in (0.0, 1.0, 1.0 + 8e-13):
            assert linop.check_bloch_norm(norm) == norm
        for norm in (1.0 + 2e-12, np.nan, np.inf):
            with rejects(f"Bloch vector norm must be <= 1, got {norm}"):
                linop.check_bloch_norm(norm)
