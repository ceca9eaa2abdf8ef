import itertools
import math

import numpy as np
import pytest

from conftest import bloch_state, kron_all
from paulifish import channels, correlations, linop, protocol, verify


def reference_final_state(r, lam, m):
    """The displayed 4x4 matrix: diagonal (1+r^2)/4, (1-r^2)/4 pattern with
    +-i r mu / 2 corners, mu = (1-2 lam)**m."""
    mu = (1.0 - 2.0 * lam) ** m
    rho = np.diag(
        [(1 + r * r) / 4, (1 - r * r) / 4, (1 - r * r) / 4, (1 + r * r) / 4]
    ).astype(complex)
    rho[0, 3] = 1j * r * mu / 2
    rho[3, 0] = -1j * r * mu / 2
    return rho


def final_state(r, lam, m):
    """The dense post-channel two-qubit state, the dense routes' input."""
    return channels.correlated_state(2, r, lam, m)[0]


class TestFinalState:
    @pytest.mark.parametrize("r,lam,m", [(0.5, 0.2, 1), (0.8, 0.7, 2), (0.3, 0.0, 2)])
    def test_matches_reference_pattern(self, r, lam, m):
        np.testing.assert_allclose(
            final_state(r, lam, m), reference_final_state(r, lam, m), atol=1e-14
        )

    def test_zero_strength_equals_prepared_state(self):
        r = 0.6
        u = channels.preparation_unitary(2)
        prep = u @ kron_all([bloch_state((0, r, 0))] * 2) @ linop.dagger(u)
        np.testing.assert_allclose(final_state(r, 0.0, 2), prep, atol=1e-14)

    def test_unpolarized_is_maximally_mixed(self):
        np.testing.assert_allclose(final_state(0.0, 0.3, 1), np.eye(4) / 4, atol=1e-15)


class TestSeparability:
    def test_product_state_is_separable(self):
        rho = kron_all(
            [bloch_state((0, 0.5, 0)), bloch_state((0.3, 0, 0))]
        )
        sep, min_eig = correlations.is_separable_ppt(rho)
        assert sep
        assert min_eig > 0

    def test_bell_state_is_entangled_with_known_eigenvalue(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        sep, min_eig = correlations.is_separable_ppt(np.outer(psi, psi.conj()))
        assert not sep
        assert min_eig == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_eigenvalue_is_the_factors_product(self):
        # the transpose of one factor keeps its spectrum
        a, b = bloch_state((0, 0.5, 0)), bloch_state((0.3, 0.4, 0))
        sep, min_eig = correlations.is_separable_ppt(kron_all([a, b]))
        assert sep
        assert min_eig == pytest.approx(0.25 * 0.25, abs=1e-15)

    @pytest.mark.parametrize("corners", [True, False], ids=["corners", "inner-block"])
    def test_partial_transpose_swaps_corner_and_inner_coherences(self, corners):
        # a coherence between |00> and |11> moves to |01><10| under the
        # transpose of qubit 1, and back; beside the 0.15 diagonal it lands
        # on, it leaves the eigenvalue 0.15 - 0.3
        big, small = (0.35, 0.15) if corners else (0.15, 0.35)
        i, j = (0, 3) if corners else (1, 2)
        rho = np.diag([big, small, small, big]).astype(complex)
        rho[i, j], rho[j, i] = 0.3j, -0.3j
        sep, min_eig = correlations.is_separable_ppt(rho)
        assert not sep
        assert min_eig == pytest.approx(-0.15, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.25, 1 / 3, 0.5, 0.9])
    def test_werner_state_threshold(self, p):
        # p |Phi+><Phi+| + (1-p) I/4: the partial transpose of |Phi+><Phi+| is
        # SWAP/2, so its smallest eigenvalue is (1 - 3p)/4, separable iff p <= 1/3
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        rho = p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4
        sep, min_eig = correlations.is_separable_ppt(rho)
        assert min_eig == pytest.approx((1 - 3 * p) / 4, abs=1e-15)
        assert sep == (p <= 1 / 3)

    def test_threshold_values(self):
        assert correlations.separability_threshold(1, 0.5) == pytest.approx(1.0)
        assert correlations.separability_threshold(1, 0.0) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-12
        )

    def test_non_state_rejected(self):
        with pytest.raises(ValueError):
            correlations.is_separable_ppt(np.eye(4))


class TestClosedFormPpt:
    R_GRID = np.round(np.arange(0.0, 1.0, 0.01), 10)  # 0 .. 0.99
    LAM_GRID = np.round(np.linspace(0.0, 1.0, 21), 10)

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_dense_route(self, m):
        lam = self.LAM_GRID[:, None]
        sep, min_eig = correlations.ppt_closed_form(self.R_GRID, lam, m)
        sep_dense, eig_dense = correlations.is_separable_ppt(final_state(self.R_GRID, lam, m))
        assert sep.shape == eig_dense.shape == (self.LAM_GRID.size, self.R_GRID.size)
        np.testing.assert_allclose(min_eig, eig_dense, rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(sep, sep_dense)

    def test_scalar_call_returns_plain_values(self):
        sep, min_eig = correlations.ppt_closed_form(0.5, 0.2, 1)
        assert sep is True and isinstance(min_eig, float)
        assert min_eig == pytest.approx((1 - 0.25 - 2 * 0.5 * 0.6) / 4, abs=1e-16)

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_crossing_is_the_threshold(self, m):
        for lam in self.LAM_GRID:
            thr = correlations.separability_threshold(m, lam)
            if thr >= 1.0:  # lam = 1/2: separable for every r < 1
                continue
            assert correlations.ppt_closed_form(thr, lam, m)[1] == pytest.approx(0.0, abs=1e-16)
            below = correlations.ppt_closed_form(np.nextafter(thr, 0.0) - 1e-12, lam, m)[1]
            above = correlations.ppt_closed_form(thr + 1e-12, lam, m)[1]
            assert below > 0.0 > above


class TestDiscordClosedForms:
    def test_protocol_discord_vanishes_at_half_strength(self):
        for r in (0.1, 0.5, 0.9):
            for m in (1, 2):
                assert correlations.discord_protocol(r, 0.5, m) == 0.0

    def test_unpolarized_has_no_discord(self):
        assert correlations.discord_protocol(0.0, 0.2, 1) == 0.0

    def test_sign_of_offdiagonal_scale_is_irrelevant(self):
        for r in (0.3, 0.7):
            for mu in (0.1, 0.6, 1.0):
                q_plus = correlations.discord_rmu(r, mu)
                q_minus = correlations.discord_rmu(r, -mu)
                assert q_plus == q_minus

    def test_prepared_value_at_half_polarization(self):
        # 0.75 log2(1.5) + 0.25 log2(0.5)
        expected = 0.75 * math.log2(1.5) - 0.25
        assert correlations.discord_prep(0.5) == pytest.approx(expected, abs=1e-12)
        assert correlations.discord_prep(0.5) == pytest.approx(0.18872, abs=1e-5)

    def test_prepared_discord_endpoints_and_monotonicity(self):
        assert correlations.discord_prep(0.0) == 0.0
        assert correlations.discord_prep(1.0) == pytest.approx(1.0)
        rs = np.linspace(0.0, 1.0, 41)
        grid = [correlations.discord_prep(r) for r in rs]
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert correlations.discord_prep(rs).tolist() == grid


class TestBroadcastDiscord:
    GRID = [round(0.05 * k, 10) for k in range(1, 20)]  # the verify discord grid

    def test_array_call_equals_scalar_calls(self):
        r_col, mu_row = np.array(self.GRID)[:, None], np.array(self.GRID)
        for mu_shift in (0.0, 1e-4, -1e-4):
            q = correlations.discord_rmu(r_col, mu_row + mu_shift)
            assert q.shape == (19, 19)
            for a, r in enumerate(self.GRID):
                for b, mu in enumerate(self.GRID):
                    one = correlations.discord_rmu(r, mu + mu_shift)
                    assert type(one) is float
                    assert q[a, b] == one

    def test_protocol_form_broadcasts_in_polarization(self):
        rs = np.array(self.GRID)
        for lam in (0.0, 0.1, 0.3, 0.5, 0.7, 0.95, 1.0):
            for m in (1, 2):
                q = correlations.discord_protocol(rs, lam, m)
                assert q.tolist() == [correlations.discord_protocol(r, lam, m) for r in self.GRID]


class TestStackedDenseRoutes:
    """The dense oracle routes take stacks; each element of a stacked call
    equals the scalar call (exactly, or within 1e-15 where an eigensolve
    sums in its own order)."""

    RS = np.array([0.05, 0.3, 0.5, 0.77, 0.95])
    LAMS = np.array([0.0, 0.1, 0.5, 0.7, 1.0])[:, None]

    def points(self):
        for i, lam in enumerate(self.LAMS[:, 0].tolist()):
            for j, r in enumerate(self.RS.tolist()):
                yield (i, j), r, lam

    @pytest.mark.parametrize("m", [1, 2])
    def test_discord_from_definition(self, m):
        q = verify._discord_from_definition(final_state(self.RS, self.LAMS, m))
        assert q.shape == (5, 5)
        for idx, r, lam in self.points():
            assert abs(q[idx] - verify._discord_from_definition(final_state(r, lam, m))) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2])
    def test_ppt_verdict_and_eigenvalue(self, m):
        sep, min_eig = correlations.is_separable_ppt(final_state(self.RS, self.LAMS, m))
        assert sep.dtype == bool and sep.shape == min_eig.shape == (5, 5)
        assert sep.any() and not sep.all()
        for idx, r, lam in self.points():
            one_sep, one_eig = correlations.is_separable_ppt(final_state(r, lam, m))
            assert type(one_sep) is bool and type(one_eig) is float
            assert sep[idx] == one_sep
            assert abs(min_eig[idx] - one_eig) <= 1e-15

    @staticmethod
    def random_states(seed):
        """A (2, 3) stack of full-rank two-qubit states, not X-shaped: random
        states mixed with I/4 in growing shares, entangled ones first."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        rho = g @ linop.dagger(g)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        share = np.linspace(0.0, 1.0, 6).reshape(2, 3, 1, 1)
        return (1.0 - share) * rho + share * np.eye(4) / 4

    def test_ppt_matches_elementwise_partial_transpose(self):
        # rho^{T_1}[(a b), (c d)] = rho[(a d), (c b)], written out index by index
        rho = self.random_states(12)
        pt = np.empty_like(rho)
        for a, b, c, d in itertools.product((0, 1), repeat=4):
            pt[..., 2 * a + b, 2 * c + d] = rho[..., 2 * a + d, 2 * c + b]
        expected = np.linalg.eigvalsh(pt)[..., 0]
        sep, min_eig = correlations.is_separable_ppt(rho)
        assert sep.shape == min_eig.shape == (2, 3)
        np.testing.assert_allclose(min_eig, expected, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(sep, expected >= -correlations.PPT_TOL)
        assert sep.any() and not sep.all()

    def test_ppt_random_stack_equals_one_call_per_state(self):
        rho = self.random_states(13)
        sep, min_eig = correlations.is_separable_ppt(rho)
        for idx in np.ndindex(2, 3):
            one_sep, one_eig = correlations.is_separable_ppt(rho[idx])
            assert type(one_sep) is bool and type(one_eig) is float
            assert sep[idx] == one_sep
            assert abs(min_eig[idx] - one_eig) <= 1e-15

    def test_one_bad_member_rejects_the_stack(self):
        rho = final_state(self.RS, 0.3, 1)
        not_a_state = rho.copy()
        not_a_state[2] *= 2.0
        with pytest.raises(ValueError, match="not a two-qubit density operator"):
            correlations.is_separable_ppt(not_a_state)
        with pytest.raises(ValueError, match="two-qubit state"):
            correlations.is_separable_ppt(np.eye(8)[None] / 8)


class TestDiscordDefinition:
    """verify's discord from its definition, a search over the measurements
    of qubit 1 that shares no code with the closed form it checks."""

    RS = np.array([round(0.05 * k, 10) for k in range(1, 20)])
    # the tenths 0..1 and 0.95: lam = 0, 1/2 and 1 are on it
    LAMS = np.array(sorted([round(0.1 * k, 10) for k in range(0, 11)] + [0.95]))[:, None]

    def states(self):
        """The post-channel states on the grid, shape (2, 12, 19, 4, 4) for m = 1, 2."""
        return np.stack([final_state(self.RS, self.LAMS, m) for m in (1, 2)])

    def closed_form(self):
        return np.stack([correlations.discord_protocol(self.RS, self.LAMS, m) for m in (1, 2)])

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_closed_form_on_grid(self, m):
        q = verify._discord_from_definition(final_state(self.RS, self.LAMS, m))
        assert q.shape == (12, 19)
        expected = correlations.discord_protocol(self.RS, self.LAMS, m)
        np.testing.assert_allclose(q, expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("qubit", [1, 2])
    def test_local_unitary_leaves_discord_unchanged(self, qubit):
        # a unitary on qubit 1 moves the best measurement off the search's
        # coarse grid
        rho = self.states()
        g = np.random.default_rng(qubit).normal(size=rho.shape[:-2] + (2, 2, 2))
        u = np.linalg.qr(g[..., 0] + 1j * g[..., 1])[0]
        eye = np.broadcast_to(np.eye(2), u.shape)
        local = np.einsum("...ab,...cd->...acbd", *((eye, u) if qubit == 1 else (u, eye)))
        local = local.reshape(rho.shape)
        rotated = local @ rho @ linop.dagger(local)
        np.testing.assert_allclose(
            verify._discord_from_definition(rotated), self.closed_form(), rtol=0.0, atol=1e-14
        )

    @pytest.mark.parametrize(
        "state, bits",
        [
            (np.outer([0.0, 1.0, -1.0, 0.0], [0.0, 1.0, -1.0, 0.0]) / 2.0, 1.0),
            (kron_all([bloch_state((0.3, -0.2, 0.5)), bloch_state((0.1, 0.6, -0.4))]), 0.0),
            (np.eye(4) / 4, 0.0),
        ],
        ids=["singlet", "product", "maximally-mixed"],
    )
    def test_known_values(self, state, bits):
        q = verify._discord_from_definition(state)
        assert q.shape == ()
        assert float(q) == pytest.approx(bits, abs=1e-14)


class TestDiscordGainInterplay:
    def test_zero_discord_with_gain_above_one(self):
        for r in (0.2, 0.5, 0.8):
            assert correlations.discord_protocol(r, 0.5, 1) == 0.0
            g = protocol.gain(protocol.ProtocolPoint(2, 1, r, 0.5))
            assert g == pytest.approx(2.0 / (1.0 + r * r), rel=1e-12)
            assert g > 1.0

    def test_discord_can_rise_while_gain_falls(self):
        lam, m = 0.95, 1
        rs = np.linspace(0.70, 0.90, 21)  # just above the stationary point
        qs = [correlations.discord_protocol(r, lam, m) for r in rs]
        gs = [protocol.gain(protocol.ProtocolPoint(2, m, r, lam)) for r in rs]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert all(b < a for a, b in zip(gs, gs[1:]))
