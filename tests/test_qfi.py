import math
import warnings

import numpy as np
import pytest

from conftest import bloch_state, class_route, kron_all, raise_peak, random_hermitian, sld_2x2
from paulifish import channels, linop, protocol, qfi, verify


def coin_toss_pure_family(lam):
    """|psi(lam)><psi(lam)| with psi the first coin-toss column, and its
    analytic parameter derivative."""
    s, c = np.sqrt(lam), np.sqrt(1 - lam)
    psi = np.array([s, c], dtype=complex)
    dpsi = np.array([0.5 / s, -0.5 / c], dtype=complex)
    rho = np.outer(psi, psi.conj())
    drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    return rho, drho


def dephased_qubit_family(r, lam):
    """Phase-flipped y-polarized qubit and its analytic derivative."""
    rho = bloch_state((0, r * (1 - 2 * lam), 0))
    drho = -r * linop.sigma_y()
    return rho, drho


class TestSld2x2:
    def test_coin_toss_information(self):
        for lam in (0.1, 0.25, 0.5, 0.9):
            rho, drho = coin_toss_pure_family(lam)
            res = sld_2x2(rho, drho)
            assert res.H == pytest.approx(1.0 / (lam * (1 - lam)), rel=1e-12)

    def test_zero_derivative_gives_zero_information(self):
        rho = bloch_state((0, 0.5, 0))
        res = sld_2x2(rho, np.zeros((2, 2)))
        assert linop.frobenius_max(res.L) == 0.0
        assert res.H == 0.0

    def test_mixed_qubit_closed_form(self):
        # 4 r^2 / (1 - (1-2 lam)^2 r^2) at r=0.5, lam=0.25 -> 1/(1-0.0625)
        rho, drho = dephased_qubit_family(0.5, 0.25)
        res = sld_2x2(rho, drho)
        assert res.H == pytest.approx(1.0 / 0.9375, rel=1e-12)

    def test_defining_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
            rho = bloch_state(v)
            drho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            drho = (drho + drho.conj().T) / 2
            drho -= np.trace(drho) / 2 * np.eye(2)  # keep the family trace-flat
            res = sld_2x2(rho, drho)
            residual = drho - (res.L @ rho + rho @ res.L) / 2
            assert linop.frobenius_max(residual) < 1e-8
            assert linop.frobenius_max(res.L - linop.dagger(res.L)) < 1e-9

    def test_traceless_operator_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            sld_2x2(linop.sigma_z(), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", [0, 1])
    @pytest.mark.parametrize("entry", range(4))
    def test_non_finite_input_rejected(self, bad, arg, entry):
        args = [np.eye(2) / 2, np.diag([0.5, -0.5])]
        sld_2x2(*args)
        args[arg].flat[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sld_2x2(*args)


class TestFisherEig:
    def test_maximally_mixed_with_z_derivative(self):
        kappa = 0.7
        h = qfi.fisher_eig(np.eye(2) / 2, kappa * linop.sigma_z() / 2)
        assert type(h) is float
        assert h == pytest.approx(kappa**2, rel=1e-12)

    def test_matches_closed_2x2_route(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=3)
            v *= rng.uniform(0.05, 0.95) / np.linalg.norm(v)
            rho = bloch_state(v)
            drho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            drho = (drho + drho.conj().T) / 2
            drho -= np.trace(drho) / 2 * np.eye(2)
            h_closed = sld_2x2(rho, drho).H
            h_eig = qfi.fisher_eig(rho, drho)
            assert h_eig == pytest.approx(h_closed, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_bridge_stacks_match_one_solve_per_operator(self, n):
        # the verify oracle's dense stacks give the same bits as the whole
        # grid, one lam row and one operator per call, so however the suite
        # slices them it reads the same numbers
        rs, lams = np.array(verify._EDGE_RS), np.array(verify._EDGE_LAMS)[:, None]
        for m in range(1, n + 1):
            rho, drho = channels.correlated_state(n, rs, lams, m)
            grid = qfi.fisher_eig(rho, drho).tolist()
            assert grid == [qfi.fisher_eig(rho[i], drho[i]).tolist() for i in range(lams.size)]
            assert grid == [
                [qfi.fisher_eig(rho[i, k], drho[i, k]) for k in range(rs.size)]
                for i in range(lams.size)
            ]

    def test_polarized_qubit(self):
        # (I + 0.6 sigma_y)/2 has eigenvalues 0.2 and 0.8: a derivative along
        # the Bloch vector gives 1/(1 - r^2), one across it gives 1
        rho = (np.eye(2) + 0.6 * linop.sigma_y()) / 2
        assert qfi.fisher_eig(rho, linop.sigma_y() / 2) == pytest.approx(1 / 0.64, rel=1e-12)
        assert qfi.fisher_eig(rho, linop.sigma_x() / 2) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_state_gives_classical_fisher_information(self):
        # unsorted weights: eigh reorders them, and H = sum dp^2 / p must not change
        p = np.array([0.4, 0.1, 0.3, 0.2])
        dp = np.array([0.05, -0.1, 0.02, 0.03])
        h = qfi.fisher_eig(np.diag(p), np.diag(dp))
        assert h == pytest.approx(float(np.sum(dp**2 / p)), rel=1e-12)

    def test_pure_state_gives_four_times_the_variance(self):
        # rho = |psi><psi| and drho = -i[G, rho]: H = 4 (<G^2> - <G>^2)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        g = random_hermitian(rng, 4)
        rho = np.outer(psi, psi.conj())
        drho = -1j * (g @ rho - rho @ g)
        mean = (psi.conj() @ g @ psi).real
        var = (psi.conj() @ g @ g @ psi).real - mean**2
        assert qfi.fisher_eig(rho, drho) == pytest.approx(4 * var, rel=1e-10)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_matches_the_sld_equation_solved_directly(self, dim):
        # for a full-rank rho, rho L + L rho = 2 drho has one solution L and
        # H = tr(drho L); row-major vec turns the equation into one linear solve
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T + 0.1 * np.eye(dim)
        rho /= np.trace(rho).real
        drho = random_hermitian(rng, dim)
        drho -= np.trace(drho) / dim * np.eye(dim)
        eye = np.eye(dim)
        sylvester = np.kron(rho, eye) + np.kron(eye, rho.T)
        sld = np.linalg.solve(sylvester, 2.0 * drho.reshape(-1)).reshape(dim, dim)
        h = qfi.fisher_eig(rho, drho)
        assert h == pytest.approx(np.trace(drho @ sld).real, rel=1e-9)

    NULL_RHO = np.diag([1.0, 0.0, 0.0, 0.0])
    NULL_DRHO = np.pad([[0.0, 0.5], [0.5, 0.0]], ((2, 0), (2, 0)))  # outside the support
    SKEW_RHO = np.array([[0.5, 1e-3], [0.0, 0.5]])

    @pytest.mark.parametrize(
        "rho, drho, match",
        [
            (np.eye(2) / 2, np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
            (NULL_RHO, NULL_DRHO, "ill-defined"),
            (
                np.stack([np.eye(4) / 4, NULL_RHO]),
                np.stack([np.zeros((4, 4)), NULL_DRHO]),
                "ill-defined",
            ),
            (np.eye(2) / 2, np.zeros((4, 4)), "differ in shape"),
            (SKEW_RHO, np.zeros((2, 2)), "^rho is not Hermitian"),
            (np.stack([np.eye(2) / 2, SKEW_RHO]), np.zeros((2, 2, 2)), "^rho is not Hermitian"),
            (
                np.stack([np.eye(2) / 2] * 2),
                np.stack([np.zeros((2, 2)), SKEW_RHO - np.eye(2) / 2]),
                "^drho is not Hermitian",
            ),
            (np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), "not a power of two"),
            (np.zeros((2, 4)), np.zeros((2, 4)), "expected square matrices"),
        ],
    )
    def test_ill_posed_input_rejected(self, rho, drho, match):
        with pytest.raises(ValueError, match=match):
            qfi.fisher_eig(rho, drho)

    def test_dimension_cap_checked_before_copying(self):
        # a broadcast view, which as a dense array would take 1 GiB
        big = np.broadcast_to(np.zeros(1, complex), (8192, 8192))
        assert raise_peak("dense cap", qfi.fisher_eig, big, big) < 2**14

    def test_ill_defined_member_of_a_stack_rejected(self):
        good_rho, good_drho = np.eye(4) / 4, np.diag([0.1, -0.1, 0.0, 0.0])
        bad_rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        bad_drho = np.zeros((4, 4), dtype=complex)
        bad_drho[2, 3] = bad_drho[3, 2] = 0.5  # lives entirely outside the support
        with pytest.raises(ValueError, match="ill-defined"):
            qfi.fisher_eig(np.stack([good_rho, bad_rho]), np.stack([good_drho, bad_drho]))
        with pytest.raises(ValueError, match="ill-defined"):
            qfi.fisher_eig(
                np.stack([good_rho[:2, :2], bad_rho[2:, 2:]]),
                np.stack([good_drho[:2, :2], bad_drho[2:, 2:]]),
            )


class TestOrthogonalPiecesAdd:
    def test_two_orthogonal_blocks_reproduce_protocol_information(self):
        from conftest import block_route_sld

        n, m, r, lam = 2, 1, 0.45, 0.3
        combined = block_route_sld(n, r, lam, m)
        expected = protocol.qfi_correlated(n, m, r, lam)
        assert combined.H == pytest.approx(expected, rel=1e-10)
        # and the summed score operator satisfies the defining relation
        rho, drho = channels.correlated_state(n, r, lam, m)
        residual = drho - (combined.L @ rho + rho @ combined.L) / 2
        assert linop.frobenius_max(residual) < 1e-8

    def test_product_of_independent_qubits_adds_information(self):
        m, r, lam = 3, 0.5, 0.3
        single_rho, single_drho = dephased_qubit_family(r, lam)
        single = sld_2x2(single_rho, single_drho)
        eye = np.eye(2, dtype=complex)
        rho = kron_all([single_rho] * m)
        drho, big_l = np.zeros_like(rho), np.zeros_like(rho)
        for k in range(m):
            factors, l_factors = [single_rho] * m, [eye] * m
            factors[k], l_factors[k] = single_drho, single.L
            drho += kron_all(factors)
            big_l += kron_all(l_factors)
        # the summed score operator satisfies the defining relation and
        # carries m times the single-qubit information
        residual = drho - (big_l @ rho + rho @ big_l) / 2
        assert linop.frobenius_max(residual) < 1e-12
        assert float(np.trace(drho @ big_l).real) == pytest.approx(m * single.H, rel=1e-9)
        # oracle: eigendecomposition route on the full product state
        assert qfi.fisher_eig(rho, drho) == pytest.approx(m * single.H, rel=1e-9)


class TestSingleUseClosedForms:
    def test_z_aligned_state_carries_no_information(self):
        assert qfi.qfi_single_use((0, 0, 0.5), 0.3) == 0.0

    def test_array_strength_equals_scalar_calls(self):
        # at the fifth lam, numpy's square of 1 - 2 lam and the C library's
        # pow differ in the last bit
        lams = np.array([[0.0, 0.1, 0.5, 0.9, 0.9921678865358946, 1.0]])
        for v in [(0, 0, 0.5), (0, 0.7, 0), (0.2, 0.3, 0.4)]:
            h = qfi.qfi_single_use(v, lams)
            assert h.shape == lams.shape
            assert h.tolist() == [[qfi.qfi_single_use(v, lam) for lam in lams[0].tolist()]]

    def test_transverse_half_polarized(self):
        assert qfi.qfi_single_use((0, 0.5, 0), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_pure_transverse_approaches_bound(self):
        h = qfi.qfi_single_use((0, 1.0, 0), 0.25)
        assert h == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_transverse_orientation_is_optimal(self):
        r, lam = 0.7, 0.3
        best = qfi.qfi_single_use((0, r, 0), lam)
        for theta in np.linspace(0.05, np.pi / 2, 7):
            tilted = (0, r * np.cos(theta), r * np.sin(theta))
            assert qfi.qfi_single_use(tilted, lam) <= best + 1e-12

    def test_independent_optimum_values(self):
        assert qfi.qfi_independent_opt(1.0, 0.25, 1) == pytest.approx(16.0 / 3.0)
        assert qfi.qfi_independent_opt(0.0, 0.3, 5) == 0.0
        assert qfi.qfi_independent_opt(0.5, 0.5, 3) == pytest.approx(3.0, rel=1e-12)

    def test_independent_optimum_broadcasts_in_polarization(self):
        rs = np.linspace(0.0, 1.0, 21)
        for lam in (0.1, 0.5, 0.9):
            h = qfi.qfi_independent_opt(rs, lam, 3)
            assert h.shape == rs.shape
            assert h.tolist() == [qfi.qfi_independent_opt(r, lam, 3) for r in rs.tolist()]

    def test_independent_optimum_against_mpmath(self):
        import mpmath

        with mpmath.workdps(60):
            # 1 - 5e-13 lies within 1e-12 of the pure corner and is still mixed
            for r in (1.0 - 5e-13, 1.0 - 1e-9, 0.5):
                for lam in (0.0, 1e-12, 0.3):
                    for m in (1, 3):
                        r_, lam_ = mpmath.mpf(r), mpmath.mpf(lam)
                        ref = 4 * r_**2 * m / (1 - (1 - 2 * lam_) ** 2 * r_**2)
                        got = qfi.qfi_independent_opt(r, lam, m)
                        assert abs(got - ref) / ref <= 1e-13, (r, lam, m)

    def test_upper_bound_values(self):
        assert qfi.qfi_upper_bound(0.5, 1) == pytest.approx(4.0)
        assert qfi.qfi_upper_bound(0.25, 2) == pytest.approx(32.0 / 3.0)
        assert qfi.qfi_upper_bound(0.0, 1) == np.inf
        assert qfi.qfi_upper_bound(1.0, 3) == np.inf
        # +inf at -0.0 as well, which the unit-interval check accepts
        assert qfi.qfi_upper_bound(-0.0, 1) == np.inf
        np.testing.assert_array_equal(qfi.qfi_upper_bound(np.array([-0.0, 0.0]), 1), [np.inf] * 2)

    def test_upper_bound_overflow_is_silent(self):
        # m / (lam (1-lam)) overflows to inf below lam of about 5.6e-309 m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qfi.qfi_upper_bound(1e-310, 1) == np.inf
            bound = qfi.qfi_upper_bound(np.array([0.0, 1e-310, 0.5]), 2)
        np.testing.assert_array_equal(bound, [np.inf, np.inf, 8.0])


class TestRouteEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_three_routes_agree(self, n):
        from conftest import block_route_sld

        lams = np.array([round(0.05 * k, 10) for k in range(1, 20)])
        rs = np.array([round(0.1 * k, 10) for k in range(1, 10)])
        for m in range(1, n + 1):
            # the dense and closed-form routes take the whole grid at once
            h_eig = qfi.fisher_eig(*channels.correlated_state(n, rs, lams[:, None], m))
            h_closed = protocol.qfi_and_gain(n, m, rs, lams[:, None])[0]
            for i, lam in enumerate(lams.tolist()):
                for k, r in enumerate(rs.tolist()):
                    h_blocks = block_route_sld(n, r, lam, m).H
                    assert h_eig[i, k] == pytest.approx(h_closed[i, k], rel=1e-8, abs=1e-12)
                    assert h_blocks == pytest.approx(h_closed[i, k], rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_class_route_matches_closed_form_at_large_n(self, n):
        # at n = 64 and r = 0.1 every block's trace p_j/mult_j lies below
        # SUPPORT_TOL, so the route holds only because it solves each class
        # at unit trace, weighted by p_j
        rs = np.array([0.1, 0.5, 0.9])
        lams = np.array([0.05, 0.3, 0.5, 0.8])[:, None]
        if n == 64:
            mult, p, _ = channels.hamming_classes(n, 0.1)
            assert np.all(p / np.array(mult, dtype=float) < qfi.SUPPORT_TOL)
        for m in (1, 2, n // 2, n - 1, n):
            h_classes = class_route(n, m, rs, lams)
            h_closed = protocol.qfi_and_gain(n, m, rs, lams)[0]
            np.testing.assert_allclose(h_classes, h_closed, rtol=1e-12, atol=0.0)
