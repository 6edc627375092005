"""Stochastic master equations: steps, ensembles, feedback, in-loop spectrum."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from literal_generators import master_equation_rhs, real_map
from qfeedback import loop, operators as ops, trajectories as tj
from qfeedback.errors import (DimensionMismatch, JumpFromDarkState,
                              PositivityViolation, TooShort)


def cavity(dim):
    return ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                             ((1.0, ops.destroy(dim)),))


def atom(h=None):
    if h is None:
        h = np.zeros((2, 2), dtype=complex)
    return ops.LindbladModel(np.asarray(h, dtype=complex),
                             ((1.0, ops.sigma_minus()),))


def config(model, detection, dt=1e-3, steps=100, seed=42, **kw):
    return tj.SmeConfig(model=model, detection=detection, dt=dt, steps=steps,
                        seed=seed, **kw)


def lone_step(kernel, rho, noise):
    """One kernel step of rho alone, as _integrate runs a lone trajectory:
    row 0 of a block of _ROW_PAD copies, the other rows idle. Returns the
    row's state, record and failure code (0 if it stepped cleanly)."""
    rows = np.tile(kernel.rows(rho), (tj._ROW_PAD, 1))
    noise_rows = np.full(tj._ROW_PAD, kernel.idle_noise)
    noise_rows[0] = noise
    r, record, bad = kernel.step(rows, noise_rows)
    return kernel.states(r[0]), record[0], 0 if bad is None else bad[0]


def _rate_two_atom():
    return ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                             ((2.0, ops.sigma_minus()),))


_F = 0.1 * ops.sigma_y()

# unravelings at a step dt that SmeConfig rejects, and the error each raises
_ETA = ValueError("eta must be in (0, 1]")
_REJECTED_STEPS = {
    "diffusive eta=1.5": (
        lambda: config(atom(), tj.HomodyneDiffusive(1.5)), _ETA),
    "diffusive eta=0": (
        lambda: config(atom(), tj.HomodyneDiffusive(0.0)), _ETA),
    "diffusive eta=-0.5": (
        lambda: config(atom(), tj.HomodyneDiffusive(-0.5)), _ETA),
    "delayed feedback eta=0": (
        lambda: config(atom(), tj.HomodyneDiffusive(0.0),
                       feedback=tj.Feedback(_F, tj.Delayed(2e-3))), _ETA),
    "jump beta=-1": (
        lambda: config(atom(), tj.HomodyneJump(-1.0)),
        ValueError("beta = -1.0 must be finite and >= 0")),
    "jump beta=nan": (
        lambda: config(atom(), tj.HomodyneJump(math.nan)),
        ValueError("beta = nan must be finite and >= 0")),
    "jump beta^2 dt=0.4": (
        lambda: config(atom(), tj.HomodyneJump(20.0), dt=1e-3),
        ValueError("beta^2 dt must be < 0.1")),
    "counting dt=0.5": (
        lambda: config(atom(), tj.PhotonCounting(), dt=0.5),
        ValueError("dt * max collapse rate must be < 0.1")),
    "counting dt=0": (
        lambda: config(atom(), tj.PhotonCounting(), dt=0.0),
        ValueError("dt = 0.0 must be > 0")),
    "counting dt=-1e-3": (
        lambda: config(atom(), tj.PhotonCounting(), dt=-1e-3),
        ValueError("dt = -0.001 must be > 0")),
    "monitored rate 2": (
        lambda: config(_rate_two_atom(), tj.PhotonCounting()),
        ValueError("first collapse must be the monitored channel with rate 1")),
    "3x3 F on a 2x2 model": (
        lambda: config(atom(), tj.HomodyneDiffusive(0.8),
                       feedback=tj.Feedback(ops.quad_y(3))),
        DimensionMismatch("shapes [(2, 2), (3, 3)] do not match")),
}


class TestConfigValidation:
    def test_first_collapse_rate(self):
        model = ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                                  ((2.0, ops.sigma_minus()),))
        with pytest.raises(ValueError):
            config(model, tj.PhotonCounting())

    def test_dt_times_rate(self):
        model = ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                                  ((1.0, ops.sigma_minus()),
                                   (500.0, ops.sigma_z())))
        with pytest.raises(ValueError):
            config(model, tj.PhotonCounting(), dt=1e-3)

    def test_beta_squared_dt(self):
        with pytest.raises(ValueError):
            config(atom(), tj.HomodyneJump(beta=20.0), dt=1e-3)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            tj.HomodyneDiffusive(eta=0.0)

    @pytest.mark.parametrize("every", [-1, 101])
    def test_snapshot_every_within_steps(self, every):
        with pytest.raises(ValueError, match="snapshot_every"):
            config(atom(), tj.PhotonCounting(), snapshot_every=every)

    def test_delay_must_be_multiple_of_dt(self):
        fb = tj.Feedback(0.1 * ops.sigma_y(), tj.Delayed(delay=1.5e-3))
        with pytest.raises(ValueError):
            config(atom(), tj.HomodyneDiffusive(0.8), dt=1e-3, feedback=fb)

    def test_feedback_needs_diffusive(self):
        fb = tj.Feedback(0.1 * ops.sigma_y())
        with pytest.raises(ValueError):
            config(atom(), tj.PhotonCounting(), feedback=fb)

    @pytest.mark.parametrize("detection, feedback", [
        (None, None), (tj.HomodyneDiffusive, None), ("x", None),
        (tj.HomodyneDiffusive(0.8), "x"),
        (tj.HomodyneDiffusive(0.8), 0.1 * ops.sigma_y()),
    ])
    def test_untyped_unraveling_rejected(self, detection, feedback):
        with pytest.raises(ValueError, match="must be a Detection"):
            config(atom(), detection, feedback=feedback)

    def test_feedback_operator_hermitian(self):
        with pytest.raises(ValueError):
            tj.Feedback(1j * np.eye(2))

    @pytest.mark.parametrize("case", list(_REJECTED_STEPS))
    def test_step_rejects_what_config_rejects(self, case):
        build, want = _REJECTED_STEPS[case]
        with pytest.raises(ValueError) as got:
            build()
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)


class TestSingleSteps:
    def test_dark_state_never_jumps(self):
        cfg = config(cavity(3), tj.PhotonCounting(), dt=1e-2, steps=200,
                     seed=7, snapshot_every=200)
        res = tj.run_trajectory(cfg, ops.fock_dm(3, 0))
        assert not res.record.any()
        assert np.allclose(res.states[-1], ops.fock_dm(3, 0), atol=1e-12)

    def test_jump_from_one_photon(self):
        # a uniform draw of 0 is below any positive detection probability
        kernel = tj._Kernel(cavity(3), 1e-2, tj.PhotonCounting(), None,
                            ops.fock_dm(3, 1))
        rho, dn, code = lone_step(kernel, ops.fock_dm(3, 1), 0.0)
        assert dn == 1 and code == 0
        assert np.allclose(rho, ops.fock_dm(3, 0), atol=1e-12)

    def test_beta_zero_reduces_to_counting(self):
        model = cavity(4)
        rho0 = 0.5 * (ops.fock_dm(4, 0) + ops.fock_dm(4, 2))
        cfg_a = config(model, tj.PhotonCounting(), steps=400, seed=11)
        cfg_b = config(model, tj.HomodyneJump(beta=0.0), steps=400, seed=11)
        a = tj.run_trajectory(cfg_a, rho0)
        b = tj.run_trajectory(cfg_b, rho0)
        assert np.array_equal(a.record, b.record)

    def test_vacuum_local_oscillator_rate(self):
        beta, dt, steps = 2.0, 1e-3, 20000
        cfg = config(cavity(2), tj.HomodyneJump(beta=beta), dt=dt,
                     steps=steps, seed=3)
        res = tj.run_trajectory(cfg, ops.fock_dm(2, 0))
        expected = beta * beta * dt * steps
        assert abs(res.record.sum() - expected) < 4.0 * math.sqrt(expected)

    def test_feedback_f_zero_bit_exact(self):
        # F = 0 Markovian feedback builds the plain diffusive maps
        rho0 = 0.5 * np.eye(2, dtype=complex)
        f0 = np.zeros((2, 2), dtype=complex)
        runs = [tj.run_trajectory(config(atom(), tj.HomodyneDiffusive(0.7),
                                         seed=5, snapshot_every=50,
                                         feedback=fb), rho0)
                for fb in (tj.Feedback(f0), None)]
        assert np.array_equal(runs[0].record, runs[1].record)
        assert np.array_equal(runs[0].states, runs[1].states)

    def test_eta_to_zero_follows_master_equation(self):
        model = atom()
        cfg = config(model, tj.HomodyneDiffusive(eta=1e-8), dt=1e-3,
                     steps=1000, seed=8, snapshot_every=1000)
        res = tj.run_trajectory(cfg, ops.fock_dm(2, 1))
        target = ops.evolve(model, ops.fock_dm(2, 1), 1.0)
        assert np.max(np.abs(res.states[-1] - target)) < 1e-2

    @pytest.mark.parametrize("mode", [None, tj.Delayed(2e-3)])
    def test_feedback_step_needs_hermitian_operator(self, mode):
        f_op = 1j * ops.sigma_x()
        with pytest.raises(ValueError, match="Hermitian"):
            config(atom(), tj.HomodyneDiffusive(0.8),
                   feedback=tj.Feedback(f_op) if mode is None
                   else tj.Feedback(f_op, mode))

    def test_jump_from_dark_state_raises(self):
        eps = 1e-15                       # Tr[c rho c†] below TOL_JUMP
        rho = np.diag([1.0 - eps, eps]).astype(complex)
        kernel = tj._Kernel(atom(), 1e-3, tj.PhotonCounting(), None, rho)
        _, dn, code = lone_step(kernel, rho, 0.0)
        assert dn == 1
        assert isinstance(tj._failure(code), JumpFromDarkState)

    def test_no_jump_step_stays_positive(self):
        # the Kraus no-jump map keeps a pure Fock state positive at any beta;
        # a uniform draw of inf never detects
        rho = ops.fock_dm(6, 3)
        kernel = tj._Kernel(cavity(6), 1e-2, tj.HomodyneJump(3.0), None, rho)
        for _ in range(20):
            rho, dn, code = lone_step(kernel, rho, np.inf)
            assert dn == 0 and code == 0
            assert np.linalg.eigvalsh(rho).min() > -1e-14

    @pytest.mark.parametrize("dt", [1e-2, 3e-2])
    def test_no_jump_map_with_unmonitored_collapses_positive(self, dt):
        # unmonitored collapses enter the no-jump map as Kraus operators
        # sqrt(dt r_k) L_k; a first-order dt D term would push this pure
        # state's smallest eigenvalue to about -8e-8 (dt=1e-2) and -2.5e-6
        # (dt=3e-2), below POSITIVITY_TOL
        a = ops.destroy(4)
        ad = a.conj().T
        model = ops.LindbladModel(0.3 * (a + ad),
                                  ((1.0, a), (2.0, ad @ a), (0.5, ad)))
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1.0, 1j
        rho = np.outer(psi, psi.conj()) / 2
        kernel = tj._Kernel(model, dt, tj.PhotonCounting(), None, rho)
        for _ in range(50):
            rho, dn, code = lone_step(kernel, rho, np.inf)
            assert dn == 0 and code == 0
            assert np.linalg.eigvalsh(rho).min() > -1e-14


class TestKernel:
    def test_dark_jump_flagged_per_row(self):
        # a batch where one row is asked to jump from a (numerically) dark
        # state: only that row fails, with JumpFromDarkState
        eps = 1e-15
        rows = [ops.fock_dm(2, 1), np.diag([1.0 - eps, eps]), ops.fock_dm(2, 0),
                0.5 * np.eye(2)] * 2
        kernel = tj._Kernel(atom(), 1e-3, tj.PhotonCounting(), None, rows[0])
        r = kernel.rows(np.array(rows))
        noise = np.zeros(len(rows))          # every emitting row jumps
        r_new, record, bad = kernel.step(r, noise)
        assert list(record) == [1.0, 1.0, 0.0, 1.0] * 2
        assert [tj._failure(code).__class__ if code else None
                for code in bad] == [None, JumpFromDarkState, None, None] * 2
        assert np.allclose(kernel.states(r_new[0]), ops.fock_dm(2, 0),
                           atol=1e-15)

    def test_rows_match_single_steps(self):
        f_op = -0.15 * ops.quad_y(4)
        rng = np.random.default_rng(3)
        rhos = [ops.fock_dm(4, k % 4) for k in range(9)]
        dws = rng.standard_normal(9) * math.sqrt(1e-3)
        kernel = tj._Kernel(cavity(4), 1e-3, tj.HomodyneDiffusive(0.8),
                            tj.Feedback(f_op), rhos[0])
        r = kernel.rows(np.array(rhos + [rhos[0]] * 7))
        r_new, record, _ = kernel.step(r, np.concatenate([dws, np.zeros(7)]))
        for i, (rho, dw) in enumerate(zip(rhos, dws)):
            one, i_sample, _ = lone_step(kernel, rho, dw)
            assert np.array_equal(one, kernel.states(r_new[i]))
            assert i_sample == record[i]

    @staticmethod
    def random_states(dim, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal(
            (n, dim, dim))
        rhos = g @ g.conj().transpose(0, 2, 1)
        return rhos / np.trace(rhos, axis1=1, axis2=2)[:, None, None]

    @staticmethod
    def jump_model(dim):
        a = ops.destroy(dim)
        return ops.LindbladModel(0.3 * (a + a.conj().T),
                                 ((1.0, a), (2.0, a.conj().T @ a)))

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("jumpers", [(1, 4, 5, 11, 15),
                                         (0, 2, 3, 6, 7, 8, 9, 12, 13, 14)])
    def test_forced_jump_rows_match_single_steps(self, beta, jumpers):
        # the detecting rows are gathered into a padded block (5 rows -> 8,
        # 10 -> 16) and scattered back; every row matches its lone step
        rhos = self.random_states(4, 16, seed=5)
        kernel = tj._Kernel(self.jump_model(4), 1e-3, tj.HomodyneJump(beta),
                            None, rhos[0])
        noise = np.full(16, np.inf)
        noise[list(jumpers)] = 0.0
        r_new, record, bad = kernel.step(kernel.rows(rhos), noise)
        assert bad is None
        assert list(np.flatnonzero(record)) == list(jumpers)
        for i, rho in enumerate(rhos):
            one, dn, _ = lone_step(kernel, rho, noise[i])
            assert np.array_equal(one, kernel.states(r_new[i]))
            assert dn == record[i]

    def test_maps_match_matrix_reference(self):
        # no-jump (M0 rho M0† + dt sum_k r_k L_k rho L_k†)/Tr, jump
        # J rho J†/Tr and the detection probability Tr[J†J rho] dt, from
        # plain matrix products; the monitored collapse has a complex phase,
        # so J†J has complex off-diagonal entries
        dim, dt, beta = 5, 1e-2, 0.7
        a = ops.destroy(dim)
        ad = a.conj().T
        c = np.exp(1j * np.pi / 3) * a
        h = 0.4 * (a + ad) + 0.2 * ad @ ad @ a @ a
        unmonitored = ((2.0, ad @ a), (0.5, ad))
        model = ops.LindbladModel(h, ((1.0, c),) + unmonitored)
        m0 = np.eye(dim) - dt * (1j * h + beta * c + 0.5 * ad @ a + sum(
            0.5 * k * op.conj().T @ op for k, op in unmonitored))
        jump = c + beta * np.eye(dim)
        rhos = self.random_states(dim, 8, seed=9)
        kernel = tj._Kernel(model, dt, tj.HomodyneJump(beta), None, rhos[0])
        r = kernel.rows(rhos)
        no_jump, _, _ = kernel.step(r, np.full(8, np.inf))
        jumped, record, _ = kernel.step(r, np.zeros(8))
        assert record.all()
        for rho, row_nj, row_j in zip(rhos, no_jump, jumped):
            ref_nj = m0 @ rho @ m0.conj().T + dt * sum(
                k * op @ rho @ op.conj().T for k, op in unmonitored)
            ref_j = jump @ rho @ jump.conj().T
            for row, ref in ((row_nj, ref_nj), (row_j, ref_j)):
                err = kernel.states(row) - ref / np.trace(ref)
                assert np.max(np.abs(err)) < 1e-13
        p_jump = dt * np.array([np.trace(jump.conj().T @ jump @ rho).real
                                for rho in rhos])
        _, below, _ = kernel.step(r, p_jump * (1 - 1e-9))
        _, above, _ = kernel.step(r, p_jump * (1 + 1e-9))
        assert below.all() and not above.any()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_rows_round_trip_bit_identical(self, dim):
        # real coordinates hold a Hermitian matrix exactly: gathering them and
        # scattering back (with conjugation) copies every float
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((7, dim, dim)) + 1j * rng.standard_normal(
            (7, dim, dim))
        herm = g + g.conj().transpose(0, 2, 1)
        co = tj._Kernel(cavity(dim), 1e-3, tj.PhotonCounting(), None,
                        ops.fock_dm(dim, 0)).coords
        assert co is ops.coordinates(dim)
        r = co.rows(herm)
        assert r.shape == (7, dim * dim) and r.dtype == np.float64
        assert np.array_equal(co.states(r), herm)
        assert np.array_equal(co.states(co.rows(herm[0])), herm[0])

    @staticmethod
    def diffusive_model(dim):
        # a Hamiltonian, a monitored collapse with a complex phase, an
        # unmonitored collapse, and a feedback operator with a diagonal part
        a = ops.destroy(dim)
        ad = a.conj().T
        c = np.exp(1j * np.pi / 3) * a
        h = 0.4 * (a + ad) + 0.2 * ad @ ad @ a @ a
        model = ops.LindbladModel(h, ((1.0, c), (0.5, ad @ a)))
        f_op = 0.3 * ops.quad_y(dim) + 0.1 * ops.number(dim)
        return model, f_op

    @pytest.mark.parametrize("detection, feedback", [
        (tj.PhotonCounting(), None), (tj.HomodyneJump(0.7), None),
        (tj.HomodyneDiffusive(0.7), None),
        (tj.HomodyneDiffusive(0.7), tj.Markovian()),
        (tj.HomodyneDiffusive(0.7), tj.Delayed(1e-2))],
        ids=["counting", "homodyne-jump", "diffusive", "markovian", "delayed"])
    def test_maps_match_column_stacked_reference(self, detection, feedback):
        # every kernel map against the same Kraus sandwiches formed as
        # column-stacked matrices, weighted there, and gathered by real_map
        dim, dt = 5, 1e-2
        model, f_op = self.diffusive_model(dim)
        fb = None if feedback is None else tj.Feedback(f_op, feedback)
        # a state with every coordinate nonzero: the kernel keeps them all
        kernel = tj._Kernel(model, dt, detection, fb,
                            self.random_states(dim, 1, seed=3)[0])
        assert kernel.width == dim * dim
        co, eye = kernel.coords, np.eye(dim)
        c = model.collapses[0][1]
        cd = c.conj().T

        def real(*terms):
            return real_map(co, sum(w * ops.sprepost(a, b.conj().T)
                                    for w, a, b in terms))

        def kraus(k0, k1, *extra):
            blocks = [real((1.0, k0, k0), *extra),
                      real((1.0, k0, k1), (1.0, k1, k0)), real((1.0, k1, k1))]
            return blocks + [np.stack([b @ co.trace_row for b in blocks], 1)]

        unmonitored = [(dt * r, op, op) for r, op in model.collapses[1:]]
        if not kernel.diffusive:
            beta = getattr(detection, "beta", 0.0)
            m0 = eye - dt * (model.no_jump_generator + beta * c)
            jump = c + beta * eye
            pairs = [(kernel.maps, [real((1.0, m0, m0), *unmonitored),
                                    co.expect_col(jump.conj().T @ jump)]),
                     (kernel.jump, [real((1.0, jump, jump))])]
        else:
            eta = detection.eta
            k1, generator = math.sqrt(eta) * c, model
            if isinstance(feedback, tj.Markovian):
                generator = tj.feedback_master_equation(model, f_op, eta)
                k1 = k1 - 1j * f_op / math.sqrt(eta)
            k0 = eye - dt * generator.no_jump_generator
            pairs = [(kernel.maps, kraus(k0, k1, *unmonitored,
                                         (dt * (1 - eta), c, c))
                      + [co.expect_col(c + cd)])]
            if isinstance(feedback, tj.Delayed):
                pairs.append((kernel.kick, kraus(
                    eye - dt / (2 * eta) * f_op @ f_op, -1j * f_op)))
        for got, blocks in pairs:
            assert got.flags.c_contiguous
            want = np.column_stack(blocks)
            assert np.max(np.abs(got[:, :want.shape[1]] - want)) <= (
                1e-15 * np.max(np.abs(want)))
            assert not got[:, want.shape[1]:].any()

    def test_diffusive_markovian_map_matches_matrix_reference(self):
        # rho' = K rho K† + dt [(1 - eta) c rho c† + sum_k r_k L_k rho L_k†],
        # normalized, with K = K0 + dy K1, dy = sqrt(eta) <x> dt + dW,
        # K0 = I - dt (iH + c†c/2 + sum_k r_k L_k†L_k/2 + iFc + F^2/2 eta)
        # and K1 = sqrt(eta) c - iF / sqrt(eta)
        dim, dt, eta = 5, 1e-2, 0.7
        model, f_op = self.diffusive_model(dim)
        h = model.hamiltonian
        c = model.collapses[0][1]
        cd = c.conj().T
        (rate, op), = model.collapses[1:]
        se = math.sqrt(eta)
        g = (1j * h + 0.5 * cd @ c + 0.5 * rate * op.conj().T @ op
             + 1j * f_op @ c + f_op @ f_op / (2 * eta))
        k0, k1 = np.eye(dim) - dt * g, se * c - (1j / se) * f_op
        rhos = self.random_states(dim, 8, seed=13)
        dws = np.random.default_rng(13).standard_normal(8) * math.sqrt(dt)
        kernel = tj._Kernel(model, dt, tj.HomodyneDiffusive(eta),
                            tj.Feedback(f_op), rhos[0])
        r_new, record, bad = kernel.step(kernel.rows(rhos), dws)
        assert bad is None
        for rho, dw, row, rec in zip(rhos, dws, r_new, record):
            dy = se * np.trace((c + cd) @ rho).real * dt + dw
            k = k0 + dy * k1
            ref = k @ rho @ k.conj().T + dt * (
                (1 - eta) * c @ rho @ cd + rate * op @ rho @ op.conj().T)
            err = kernel.states(row) - ref / np.trace(ref)
            assert np.max(np.abs(err)) < 1e-13
            assert abs(rec - dy / dt) < 1e-12

    def test_diffusive_delayed_map_matches_matrix_reference(self):
        # the measurement step with F = 0, then the kick sandwich
        # K_fb rho K_fb† with K_fb = I - dt F^2 / 2 eta - i theta F and
        # theta = dt I_old / sqrt(eta) for the photocurrent I_old one delay
        # earlier, normalized
        dim, dt, eta = 5, 1e-2, 0.7
        model, f_op = self.diffusive_model(dim)
        h = model.hamiltonian
        c = model.collapses[0][1]
        cd = c.conj().T
        (rate, op), = model.collapses[1:]
        se = math.sqrt(eta)
        g = 1j * h + 0.5 * cd @ c + 0.5 * rate * op.conj().T @ op
        rhos = self.random_states(dim, 8, seed=17)
        rng = np.random.default_rng(17)
        dws, dws_old = rng.standard_normal((2, 8)) * math.sqrt(dt)
        xbars_old = rng.standard_normal(8)
        currents_old = se * xbars_old + dws_old / dt
        kernel = tj._Kernel(model, dt, tj.HomodyneDiffusive(eta),
                            tj.Feedback(f_op, tj.Delayed(dt)), rhos[0])
        r_new, _, bad = kernel.step(kernel.rows(rhos), dws, currents_old)
        assert bad is None
        for i, rho in enumerate(rhos):
            dy = se * np.trace((c + cd) @ rho).real * dt + dws[i]
            k = np.eye(dim) - dt * g + dy * se * c
            measured = k @ rho @ k.conj().T + dt * (
                (1 - eta) * c @ rho @ cd + rate * op @ rho @ op.conj().T)
            theta = dt * currents_old[i] / se
            kick = np.eye(dim) - dt * f_op @ f_op / (2 * eta) - 1j * theta * f_op
            ref = kick @ measured @ kick.conj().T
            err = kernel.states(r_new[i]) - ref / np.trace(ref)
            assert np.max(np.abs(err)) < 1e-13

    def test_delayed_step_matches_twice_normalized_form(self):
        # the measured state reaches the kick unnormalized; normalizing it
        # before the kick as well changes the step by rounding only
        dim, dt, eta = 5, 1e-2, 0.7
        model, f_op = self.diffusive_model(dim)
        rhos = self.random_states(dim, 8, seed=19)
        kernel = tj._Kernel(model, dt, tj.HomodyneDiffusive(eta),
                            tj.Feedback(f_op, tj.Delayed(dt)), rhos[0])
        rng = np.random.default_rng(19)
        dws = rng.standard_normal(8) * math.sqrt(dt)
        currents_old = rng.standard_normal(8) / math.sqrt(dt)
        r = kernel.rows(rhos)
        r_new, _, bad = kernel.step(r, dws, currents_old)
        assert bad is None
        out = r @ kernel.maps
        dy = math.sqrt(eta) * dt * out[:, 3 * kernel.width + 3] + dws
        measured = kernel._combine(out, dy)
        ref = kernel._combine(measured @ kernel.kick,
                              dt / math.sqrt(eta) * currents_old)
        assert np.max(np.abs(r_new - ref)) < 1e-13

    def test_markovian_map_averages_to_feedback_master_equation(self):
        # Ito: with dy^2 -> dt, the blocks average to P0 + dt P2, which is
        # 1 + dt R(L_fb) up to dt^2 R(G . G†), so the gap shrinks as dt^2
        dim, eta = 5, 0.7
        model, f_op = self.diffusive_model(dim)
        liouvillian = tj.feedback_master_equation(model, f_op, eta).liouvillian
        gaps = []
        for dt in (1e-2, 1e-3):
            kernel = tj._Kernel(model, dt, tj.HomodyneDiffusive(eta),
                                tj.Feedback(f_op),
                                self.random_states(dim, 1, seed=7)[0])
            n2 = kernel.width
            assert n2 == dim * dim
            mean = kernel.maps[:, :n2] + dt * kernel.maps[:, 2 * n2:3 * n2]
            drift = np.eye(n2) + dt * real_map(kernel.coords, liouvillian)
            gaps.append(np.max(np.abs(mean - drift)))
        assert 0.0099 < gaps[1] / gaps[0] < 0.0101

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_real_map_of_liouvillian_is_rhs(self, dim):
        # the column-stacked Liouvillian in real coordinates acts on rows as
        # the master equation acts on matrices
        model, _ = self.diffusive_model(dim)
        co = tj._Kernel(model, 1e-3, tj.HomodyneDiffusive(0.8), None,
                        ops.fock_dm(dim, 0)).coords
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((6, dim, dim)) + 1j * rng.standard_normal(
            (6, dim, dim))
        herm = g + g.conj().transpose(0, 2, 1)
        got = co.rows(herm) @ real_map(co, model.liouvillian)
        want = co.rows(np.array([master_equation_rhs(model, rho)
                                 for rho in herm]))
        assert np.max(np.abs(got - want)) < 1e-13
        # the expectation column of a Hermitian op with complex off-diagonals
        op = herm[0]
        traces = np.array([np.trace(op @ rho).real for rho in herm])
        got = co.rows(herm) @ co.expect_col(op)
        assert np.max(np.abs(got - traces)) < 1e-13


def _sme_cavity_unravelings(dim):
    """The unravelings of the damped cavity in the perfbench `sme-cavity`
    workload: counting, homodyne jump, Markovian and delayed F = -0.15 y."""
    f_op = -0.15 * ops.quad_y(dim)
    return {
        "cavity_counting": (tj.PhotonCounting(), None),
        "cavity_homodyne_jump": (tj.HomodyneJump(1.0), None),
        "cavity_markovian_feedback": (tj.HomodyneDiffusive(0.8),
                                      tj.Feedback(f_op)),
        "cavity_delayed_feedback": (tj.HomodyneDiffusive(0.8),
                                    tj.Feedback(f_op, tj.Delayed(5e-2))),
    }


def _full_step(model, dt, detection, feedback, rho, noise, old=None):
    """One step of rho in all d^2 coordinates, its Kraus sandwiches built
    by sandwich_map for this row's noise alone: the jump or the no-jump map,
    or K rho K† + dt [(1 - eta) c rho c† + sum_k r_k L_k rho L_k†] with
    K = K0 + dy K1, then the delayed kick; normalized by the trace."""
    co, dim = ops.coordinates(model.dim), model.dim
    eye, r = np.eye(dim), co.rows(rho)
    c = model.collapses[0][1]
    cd = c.conj().T
    extra = [(op, dt * rate * op.conj().T) for rate, op in model.collapses[1:]]
    if not isinstance(detection, tj.HomodyneDiffusive):
        beta = getattr(detection, "beta", 0.0)
        jump = c + beta * eye
        if noise < dt * np.trace(jump.conj().T @ jump @ rho).real:
            terms = [(jump, jump.conj().T)]
        else:
            m0 = eye - dt * (model.no_jump_generator + beta * c)
            terms = [(m0, m0.conj().T)] + extra
        new = co.sandwich_map(terms) @ r
        return new / (new @ co.trace_row)
    eta = detection.eta
    k1, generator = math.sqrt(eta) * c, model
    f_op = None if feedback is None else feedback.operator
    if feedback is not None and isinstance(feedback.mode, tj.Markovian):
        generator = tj.feedback_master_equation(model, f_op, eta)
        k1 = k1 - 1j * f_op / math.sqrt(eta)
    dy = math.sqrt(eta) * np.trace((c + cd) @ rho).real * dt + noise
    k = eye - dt * generator.no_jump_generator + dy * k1
    new = co.sandwich_map([(k, k.conj().T), (c, dt * (1 - eta) * cd)]
                          + extra) @ r
    if old is not None:
        kick = (eye - dt / (2 * eta) * f_op @ f_op
                - 1j * (dt * old / math.sqrt(eta)) * f_op)
        new = co.sandwich_map([(kick, kick.conj().T)]) @ new
    return new / (new @ co.trace_row)


class TestReachedCoordinates:
    """The kernel steps only the coordinates its initial state can reach,
    and its results keep all d^2 coordinates."""

    @pytest.mark.parametrize("name, width", [
        ("cavity_counting", 4), ("cavity_homodyne_jump", 10),
        ("cavity_markovian_feedback", 78), ("cavity_delayed_feedback", 78)])
    def test_sme_cavity_widths(self, name, width):
        # the perfbench sme-cavity operations: d = 12 from Fock 3. The jump
        # and no-jump maps only lower the level, so counting keeps the
        # diagonal of levels 0-3 and the homodyne jump their real part;
        # the y feedback raises the level, and diffusive detection keeps
        # every real coordinate
        detection, feedback = _sme_cavity_unravelings(12)[name]
        kernel = tj._Kernel(cavity(12), 1e-3, detection, feedback,
                            ops.fock_dm(12, 3))
        assert kernel.width == width
        assert kernel.maps.shape[0] == width
        if kernel.kick is not None:
            assert kernel.kick.shape[0] == width

    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_widths_follow_the_symmetries(self, dim):
        # from Fock 1, counting keeps the diagonal of levels 0-1 (2
        # coordinates) and the homodyne jump their real part (3); real
        # Kraus operators with the level-raising y feedback keep every real
        # coordinate (d(d + 1)/2); an imaginary coherence of levels 0-1
        # reaches their imaginary part too (4 under the jump, d^2 under
        # diffusive feedback)
        fock = ops.fock_dm(dim, 1)
        psi = np.zeros(dim, dtype=complex)
        psi[0], psi[1] = 1.0, 1j
        coherent = np.outer(psi, psi.conj()) / 2
        widths = {"cavity_counting": (2, 3), "cavity_homodyne_jump": (3, 4)}
        for name, (det, fb) in _sme_cavity_unravelings(dim).items():
            want = widths.get(name, (dim * (dim + 1) // 2, dim * dim))
            assert tj._Kernel(cavity(dim), 1e-3, det, fb, fock).width == want[0]
            kernel = tj._Kernel(cavity(dim), 1e-3, det, fb, coherent)
            assert kernel.width == want[1]
        assert np.array_equal(kernel.keep, np.arange(dim * dim))

    def test_atom_under_feedback_keeps_three(self):
        # the in-loop atom of perfbench sme-atom: sigma_y feedback is real
        # in the Kraus operators, so Im rho_eg is never reached
        kernel = tj._Kernel(atom(), 2e-3, tj.HomodyneDiffusive(0.76),
                            tj.Feedback(-0.38 * ops.sigma_y()),
                            ops.fock_dm(2, 0))
        assert kernel.width == 3

    def test_rows_reject_dropped_coordinates(self):
        kernel = tj._Kernel(cavity(4), 1e-3, tj.PhotonCounting(), None,
                            ops.fock_dm(4, 2))
        with pytest.raises(ValueError, match="drops"):
            kernel.rows(0.5 * np.ones((4, 4)))

    @pytest.mark.parametrize("name", list(_sme_cavity_unravelings(6)))
    def test_snapshots_are_zero_off_the_reached_set(self, name):
        detection, feedback = _sme_cavity_unravelings(6)[name]
        rho0 = ops.fock_dm(6, 3)
        cfg = config(cavity(6), detection, dt=1e-3, steps=120, seed=3,
                     snapshot_every=30, feedback=feedback)
        summary = tj.run_ensemble(cfg, 8, rho0, psd_segments=2,
                                  keep_trajectories=True)
        kernel = tj._Kernel(cavity(6), 1e-3, detection, feedback, rho0)
        co = kernel.coords
        for res in summary.trajectories:
            assert res.states.shape == (4, 6, 6)
            r = co.rows(res.states)
            assert not r[..., kernel._dropped].any()
            assert r[..., kernel.keep].any(axis=-1).all()
        assert summary.mean_states.shape == (4, 6, 6)

    @pytest.mark.parametrize("name", list(_sme_cavity_unravelings(6)))
    def test_reduced_step_matches_full_step(self, name):
        # one step of eight rows in the kept coordinates against the same
        # step in all d^2, from states of the reached set: without feedback
        # the maps only lower the level, so the states stay on levels 0-3
        dim, dt = 6, 1e-2
        detection, feedback = _sme_cavity_unravelings(dim)[name]
        if feedback is not None:
            feedback = tj.Feedback(feedback.operator,
                                   tj.Delayed(dt) if isinstance(
                                       feedback.mode, tj.Delayed)
                                   else tj.Markovian())
        model = cavity(dim)
        kernel = tj._Kernel(model, dt, detection, feedback,
                            ops.fock_dm(dim, 3))
        rng = np.random.default_rng(23)
        levels = dim if feedback is not None else 4
        rhos = np.zeros((8, dim, dim))
        if isinstance(detection, tj.PhotonCounting):   # diagonal states
            for rho in rhos:
                rho[:levels, :levels] = np.diag(rng.dirichlet(np.ones(levels)))
        else:                              # real states
            for rho, m in zip(rhos, rng.standard_normal((8, levels, levels))):
                rho[:levels, :levels] = m @ m.T / np.trace(m @ m.T)
        if kernel.diffusive:
            noise = rng.standard_normal(8) * math.sqrt(dt)
        else:                              # half of the rows detect
            noise = np.where(np.arange(8) % 2 == 0, 0.0, np.inf)
        old = (rng.standard_normal(8) / math.sqrt(dt)
               if kernel.kick is not None else None)
        r_new, _, bad = kernel.step(kernel.rows(rhos), noise, old)
        assert bad is None
        for i, rho in enumerate(rhos):
            want = _full_step(model, dt, detection, feedback, rho, noise[i],
                              None if old is None else old[i])
            assert np.max(np.abs(kernel.full(r_new[i]) - want)) < 1e-14


class TestJumpToDiffusiveConvergence:
    def test_ks_distance_decreases_in_beta(self):
        # binned scaled counts (N - beta^2 tau)/(beta tau) from a vacuum
        # (dark) cavity approach the diffusive current, i.e. Normal(0, 1/tau)
        tau_b = 0.125
        dists = []
        for beta, sub in ((4.0, 40), (8.0, 128), (16.0, 512)):
            dt = tau_b / sub
            steps = 8192 * sub // 128      # 8 time units per trajectory
            cfg = config(cavity(2), tj.HomodyneJump(beta=beta), dt=dt,
                         steps=steps, seed=1234, snapshot_every=steps)
            summary = tj.run_ensemble(cfg, 16, ops.fock_dm(2, 0),
                                      keep_trajectories=True)
            samples = []
            for res in summary.trajectories:
                n_w = res.record.reshape(-1, sub).sum(axis=1)
                samples.append((n_w - beta * beta * tau_b) / (beta * tau_b))
            samples = np.concatenate(samples)
            d = stats.kstest(samples, "norm",
                             args=(0.0, math.sqrt(1.0 / tau_b))).statistic
            dists.append(d)
        assert dists[0] > dists[1] > dists[2]


class TestEnsembleMeans:
    def test_counting_matches_master_equation(self):
        dim = 4
        cfg = config(cavity(dim), tj.PhotonCounting(), dt=2e-3, steps=500,
                     seed=17, snapshot_every=250)
        summary = tj.run_ensemble(cfg, 600, ops.fock_dm(dim, 1),
                                  keep_trajectories=True)
        n_op = ops.number(dim)
        per_traj = np.array([ops.expect(n_op, r.states[-1]).real
                             for r in summary.trajectories])
        stderr = per_traj.std(ddof=1) / math.sqrt(len(per_traj))
        assert abs(per_traj.mean() - math.exp(-1.0)) < 3.0 * stderr + 3e-3

    def test_diffusive_matches_master_equation(self):
        cfg = config(atom(), tj.HomodyneDiffusive(0.8), dt=2e-3, steps=500,
                     seed=29, snapshot_every=250)
        summary = tj.run_ensemble(cfg, 600, ops.fock_dm(2, 1),
                                  keep_trajectories=True)
        sz = ops.sigma_z()
        for k, t in enumerate(summary.state_times):
            target = ops.expect(sz, ops.evolve(atom(), ops.fock_dm(2, 1), t)).real
            per_traj = np.array([ops.expect(sz, r.states[k]).real
                                 for r in summary.trajectories])
            stderr = per_traj.std(ddof=1) / math.sqrt(len(per_traj))
            assert abs(per_traj.mean() - target) < 3.0 * stderr + 3e-3

    def test_feedback_matches_feedback_master_equation(self):
        f_op = -0.2 * ops.sigma_y()
        eta = 0.8
        fb = tj.Feedback(f_op)
        cfg = config(atom(), tj.HomodyneDiffusive(eta), dt=2e-3, steps=500,
                     seed=31, snapshot_every=250, feedback=fb)
        summary = tj.run_ensemble(cfg, 600, ops.fock_dm(2, 1),
                                  keep_trajectories=True)
        model_fb = tj.feedback_master_equation(atom(), f_op, eta)
        sz = ops.sigma_z()
        for k, t in enumerate(summary.state_times):
            target = ops.expect(
                sz, ops.evolve(model_fb, ops.fock_dm(2, 1), t)).real
            per_traj = np.array([ops.expect(sz, r.states[k]).real
                                 for r in summary.trajectories])
            stderr = per_traj.std(ddof=1) / math.sqrt(len(per_traj))
            assert abs(per_traj.mean() - target) < 4.0 * stderr + 3e-3

    def test_delayed_t_equals_dt_matches_markovian(self):
        f_op = -0.25 * ops.sigma_y()
        eta = 0.8
        dt, steps = 2e-3, 500

        def mean_sz(mode, seed):
            cfg = config(atom(), tj.HomodyneDiffusive(eta), dt=dt, steps=steps,
                         seed=seed, snapshot_every=steps,
                         feedback=tj.Feedback(f_op, mode))
            s = tj.run_ensemble(cfg, 300, ops.fock_dm(2, 1),
                                keep_trajectories=True)
            vals = np.array([ops.expect(ops.sigma_z(), r.states[-1]).real
                             for r in s.trajectories])
            return vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))

        m_mark, e_mark = mean_sz(tj.Markovian(), 51)
        m_del, e_del = mean_sz(tj.Delayed(delay=dt), 52)
        assert abs(m_mark - m_del) < 3.0 * math.hypot(e_mark, e_del) + 5e-3


class TestConditionedVarianceRiccati:
    def test_linear_cavity_matches_riccati(self):
        from qfeedback import intracavity as ic
        theta, eta, lam = 0.3, 0.8, -0.2
        p = ic.LinearCavityParams(l=0.0, theta=theta,
                                  measurement=ic.Homodyne(eta))
        dim = 12
        model = ic.parametric_model(p, dim)
        f_op = -0.5 * lam * ops.quad_y(dim)
        cfg = config(model, tj.HomodyneDiffusive(eta), dt=1e-3, steps=6000,
                     seed=61, snapshot_every=500,
                     feedback=tj.Feedback(f_op))
        summary = tj.run_ensemble(cfg, 200, ops.fock_dm(dim, 0),
                                  keep_trajectories=True)
        x = ops.quad_x(dim)
        xx = x @ x
        # conditioned normally ordered variance of every trajectory at every
        # snapshot; the ensemble mean follows the Riccati relaxation from the
        # vacuum (U = 0 at t = 0), snapshot by snapshot
        vals = np.array([[ops.expect(xx, r).real - ops.expect(x, r).real ** 2
                          - 1.0 for r in res.states]
                         for res in summary.trajectories])
        t = np.concatenate([[0.0], summary.state_times])
        target = ic.conditioned_variance_trajectory(p, 0.0, t)[1:]
        assert np.max(np.abs(vals.mean(axis=0) - target)) < 1e-3


class TestFeedbackMasterEquation:
    def test_f_zero_unchanged(self):
        model = atom()
        out = tj.feedback_master_equation(model, np.zeros((2, 2)), 0.7)
        assert np.array_equal(out.hamiltonian, model.hamiltonian)
        assert len(out.collapses) == 1
        assert np.array_equal(out.collapses[0][1], model.collapses[0][1])

    def test_perfect_detection_no_extra_diffusion(self):
        out = tj.feedback_master_equation(atom(), 0.3 * ops.sigma_y(), 1.0)
        assert len(out.collapses) == 1

    def test_imperfect_detection_structure(self):
        f_op = 0.3 * ops.sigma_y()
        eta = 0.6
        out = tj.feedback_master_equation(atom(), f_op, eta)
        assert len(out.collapses) == 2
        rate, op = out.collapses[1]
        assert abs(rate - (1.0 - eta) / eta) < 1e-14
        assert np.array_equal(op, f_op)
        sm = ops.sigma_minus()
        assert np.allclose(out.collapses[0][1], sm - 1j * f_op, atol=1e-14)
        h_expected = 0.5 * (sm.conj().T @ f_op + f_op @ sm)
        assert np.allclose(out.hamiltonian, h_expected, atol=1e-14)

    def test_extra_collapses_pass_through(self):
        extra = (0.2, ops.sigma_z())
        model = ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                                  ((1.0, ops.sigma_minus()), extra))
        out = tj.feedback_master_equation(model, 0.1 * ops.sigma_x(), 1.0)
        assert abs(out.collapses[-1][0] - 0.2) < 1e-15
        assert np.array_equal(out.collapses[-1][1], extra[1])


class TestInLoopSpectrum:
    @pytest.mark.parametrize("eta, f_op, match", [
        (2.0, _F, "eta must be in"), (0.0, _F, "eta must be in"),
        (0.8, 1j * ops.sigma_x(), "Hermitian")])
    def test_eta_and_f_checked_like_feedback(self, eta, f_op, match):
        with pytest.raises(ValueError, match=match):
            tj.in_loop_correlation_spectrum(atom(), ops.sigma_minus(), f_op,
                                            eta, [0.0, 1.0])

    @pytest.mark.parametrize("omega", [1.0, np.zeros((2, 3)), [0.0, np.inf]],
                             ids=["scalar", "2-d", "inf"])
    def test_omega_grid_must_be_finite_1d(self, omega):
        model = tj.feedback_master_equation(atom(), _F, 0.8)
        with pytest.raises(ValueError, match="omega_grid"):
            tj.in_loop_correlation_spectrum(model, ops.sigma_minus(), _F, 0.8,
                                            omega)

    def test_f_zero_vacuum_is_shot_noise(self):
        model = cavity(3)
        f0 = np.zeros((3, 3))
        omega = np.linspace(-3, 3, 13)
        for corrected in (True, False):
            s = tj.in_loop_correlation_spectrum(model, ops.destroy(3), f0,
                                                1.0, omega, corrected=corrected)
            assert np.allclose(s.values, 1.0, atol=1e-10)

    def test_cavity_matches_closed_form_loop(self):
        # F = -0.15 y makes x a linear loop: the x current drives x through
        # the cavity response gamma/(gamma + i w), gamma = 1/2, gain 4 f
        dim, f_scale, eta = 10, -0.15, 0.8
        f_op = f_scale * ops.quad_y(dim)
        model_fb = tj.feedback_master_equation(cavity(dim), f_op, eta)
        omega = np.linspace(0.0, 2.0, 41)
        s = tj.in_loop_correlation_spectrum(model_fb, ops.destroy(dim), f_op,
                                            eta, omega)
        closed = loop.in_loop_spectrum(
            loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5),
            loop.LoopFilter(4.0 * f_scale, loop.SinglePole(0.5)), omega)
        assert np.max(np.abs(s.values - closed.values)) < 1e-10

    def test_delayed_cavity_matches_delayed_closed_form(self):
        # the mapping of test_cavity_matches_closed_form_loop with the loop
        # delayed by T = 2: four long Welch segments (d omega ~ 0.1) resolve
        # the ripple of period pi, so the measured spectrum lies within
        # 3 SE of the delayed closed form at every omega <= 3 and misses the
        # Markovian one; d = 4 moves no point by 0.01 SE against d = 6
        dim, f_scale, eta, delay = 4, -0.15, 0.8, 2.0
        cfg = config(cavity(dim), tj.HomodyneDiffusive(eta), dt=5e-3,
                     steps=32768, seed=1000, snapshot_every=32768,
                     feedback=tj.Feedback(f_scale * ops.quad_y(dim),
                                          tj.Delayed(delay)))
        psd = tj.run_ensemble(cfg, 32, ops.fock_dm(dim, 0),
                              psd_segments=4).psd
        sel = psd.omega <= 3.0
        beamline = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5)

        def misses(delay_T):
            closed = loop.in_loop_spectrum(
                beamline, loop.LoopFilter(4.0 * f_scale, loop.SinglePole(0.5),
                                          delay_T), psd.omega[sel])
            return np.abs(psd.values[sel] - closed.values) / psd.stderr[sel]

        assert np.max(misses(delay)) < 3.0
        assert np.max(misses(0.0)) > 3.0

    def test_driven_atom_matches_trajectory_psd(self):
        omega_rabi, eta = 1.0, 0.8
        model = atom(h=0.5 * omega_rabi * ops.sigma_x())
        cfg = config(model, tj.HomodyneDiffusive(eta), dt=1e-2, steps=12800,
                     seed=71, snapshot_every=12800)
        summary = tj.run_ensemble(cfg, 24, ops.fock_dm(2, 0), psd_segments=8)
        sel = np.abs(summary.psd.omega) < 3.0
        analytic = tj.in_loop_correlation_spectrum(
            model, ops.sigma_minus(), np.zeros((2, 2)), eta,
            summary.psd.omega[sel]).values
        dev = np.abs(summary.psd.values[sel] - analytic) / summary.psd.stderr[sel]
        assert np.mean(dev < 3.0) > 0.8


class TestEnsembleContract:
    def cfg(self, seed=42, steps=200, snapshot_every=100):
        return config(atom(), tj.HomodyneDiffusive(0.8), dt=2e-3, steps=steps,
                      seed=seed, snapshot_every=snapshot_every)

    def test_single_trajectory_determinism(self):
        a = tj.run_trajectory(self.cfg(), ops.fock_dm(2, 1))
        b = tj.run_trajectory(self.cfg(), ops.fock_dm(2, 1))
        assert np.array_equal(a.record, b.record)
        assert np.array_equal(a.states, b.states)

    def test_n_traj_one_equals_single_run(self):
        summary = tj.run_ensemble(self.cfg(), 1, ops.fock_dm(2, 1),
                                  keep_trajectories=True)
        single = tj.run_trajectory(self.cfg(), ops.fock_dm(2, 1))
        assert np.array_equal(summary.trajectories[0].record, single.record)

    def test_worker_count_bit_identical(self):
        # trajectories 0..k-1 of a batch of k equal those of a batch of 64,
        # and a repeated batch of 64 gives identical aggregates
        rho0 = ops.fock_dm(2, 1)
        a = tj.run_ensemble(self.cfg(), 64, rho0, keep_trajectories=True)
        for k in (3, 7):
            small = tj.run_ensemble(self.cfg(), k, rho0, keep_trajectories=True)
            for res, ref in zip(small.trajectories, a.trajectories):
                assert np.array_equal(res.record, ref.record)
                assert np.array_equal(res.states, ref.states)
        again = tj.run_ensemble(self.cfg(), 64, rho0)
        assert np.array_equal(a.mean_states, again.mean_states)
        assert np.array_equal(a.psd.values, again.psd.values)
        assert np.array_equal(a.xbar_variance, again.xbar_variance)

    def test_record_is_the_seeded_stream(self):
        # a monitored collapse of zero gives <x>_c = 0, so dy = dW exactly:
        # trajectory i's record is stream seed ^ i scaled by sqrt(dt) / dt,
        # bit for bit, for each of 300 trajectories of 1000 steps
        model = ops.LindbladModel(
            ops.sigma_x(), ((1.0, np.zeros((2, 2))), (0.5, ops.sigma_minus())))
        dt, steps = 2e-3, 1000
        cfg = config(model, tj.HomodyneDiffusive(0.8), dt=dt, steps=steps,
                     seed=2024, snapshot_every=steps)
        summary = tj.run_ensemble(cfg, 300, ops.fock_dm(2, 0),
                                  keep_trajectories=True)
        assert summary.n_success == 300
        for i, res in enumerate(summary.trajectories):
            g = np.random.Generator(np.random.Philox(key=2024 ^ i))
            expected = g.standard_normal(steps) * math.sqrt(dt) / dt
            assert np.array_equal(res.record, expected)

    def test_atom_ensemble_memory(self):
        # the d = 2 feedback atom at B = 256 and 1000 steps holds 2.1 MB of
        # records; the driver keeps no noise buffer beside them, and the PSD
        # reads them without a copy
        eta = 0.8 * 0.95
        cfg = config(atom(), tj.HomodyneDiffusive(eta), dt=2e-3, steps=1000,
                     snapshot_every=250,
                     feedback=tj.Feedback(-0.5 * eta * ops.sigma_y()))
        rho0 = ops.fock_dm(2, 0)
        tracemalloc.start()
        try:
            summary = tj.run_ensemble(cfg, 256, rho0, keep_trajectories=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.n_success == 256
        assert peak < 5e6

    @pytest.mark.parametrize("detection, feedback", [
        (tj.HomodyneDiffusive(0.8), tj.Feedback(-0.15 * ops.quad_y(4))),
        (tj.HomodyneDiffusive(0.8),
         tj.Feedback(-0.15 * ops.quad_y(4), tj.Delayed(20 * 2e-3))),
        (tj.HomodyneJump(1.0), None),
        (tj.PhotonCounting(), None),
    ])
    def test_small_batches_bit_identical_d4(self, detection, feedback):
        # d = 4: batches of 1, 2, 3 and 6 trajectories against
        # run_trajectory, record and states bit for bit
        cfg = config(cavity(4), detection, dt=2e-3, steps=150, seed=77,
                     snapshot_every=50, feedback=feedback)
        rho0 = ops.fock_dm(4, 2)
        solo = [tj.run_trajectory(cfg, rho0, seed=77 ^ i) for i in range(6)]
        for k in (1, 2, 3, 6):
            batch = tj.run_ensemble(cfg, k, rho0, keep_trajectories=True)
            assert len(batch.trajectories) == k
            for res, ref in zip(batch.trajectories, solo):
                assert np.array_equal(res.record, ref.record)
                assert np.array_equal(res.states, ref.states)

    @pytest.mark.parametrize("detection, feedback", [
        (tj.HomodyneDiffusive(0.8), tj.Feedback(-0.15 * ops.quad_y(12))),
        (tj.HomodyneDiffusive(0.8),
         tj.Feedback(-0.15 * ops.quad_y(12), tj.Delayed(10 * 1e-3))),
        (tj.HomodyneJump(1.0), None),
        (tj.PhotonCounting(), None),
    ])
    def test_batch_of_48_bit_identical_d12(self, detection, feedback):
        # d = 12: a batch of 48 rows runs each real product through another
        # BLAS code path than the 8-row block of a lone trajectory, which
        # changed the last bits of the maps' last columns until those were
        # padded to a multiple of 8; from Fock 3 the kernel steps 78 (real
        # Kraus operators with y feedback), 10 (homodyne jump) or 4
        # (counting) of the 144 coordinates
        cfg = config(cavity(12), detection, dt=1e-3, steps=64, seed=5,
                     snapshot_every=32, feedback=feedback)
        rho0 = ops.fock_dm(12, 3)
        width = {tj.PhotonCounting: 4, tj.HomodyneJump: 10}.get(
            type(detection), 78)
        assert tj._Kernel(cfg.model, cfg.dt, detection, feedback,
                          rho0).width == width
        batch = tj.run_ensemble(cfg, 48, rho0, psd_segments=2,
                                keep_trajectories=True)
        for i in (0, 17, 47):
            solo = tj.run_trajectory(cfg, rho0, seed=5 ^ i)
            assert np.array_equal(batch.trajectories[i].record, solo.record)
            assert np.array_equal(batch.trajectories[i].states, solo.states)

    @pytest.mark.parametrize("eta", [0.8, 1.0])
    @pytest.mark.parametrize("mode", [tj.Markovian(), tj.Delayed(10 * 1e-3)])
    def test_diffusive_states_stay_positive_d12(self, eta, mode):
        # strong feedback from |3>, where the conditioned states stay nearly
        # pure: the completely positive steps keep every snapshot a density
        # matrix, up to rounding
        cfg = config(cavity(12), tj.HomodyneDiffusive(eta), dt=1e-3,
                     steps=1000, seed=7, snapshot_every=50,
                     feedback=tj.Feedback(-0.3 * ops.quad_y(12), mode))
        summary = tj.run_ensemble(cfg, 16, ops.fock_dm(12, 3),
                                  psd_segments=2, keep_trajectories=True)
        assert summary.n_success == 16
        low = min(np.linalg.eigvalsh(r.states).min()
                  for r in summary.trajectories)
        assert low >= -1e-12

    def test_gate_failures_are_reported_not_rerun(self, monkeypatch):
        # a tolerance no decaying state meets: every row fails the eigenvalue
        # gate in the single batch and is reported, with no second attempt
        monkeypatch.setattr(tj, "POSITIVITY_TOL", 0.45)
        calls = []
        integrate = tj._integrate

        def spy(kernel, cfg, rho0, seeds):
            calls.append(list(seeds))
            return integrate(kernel, cfg, rho0, seeds)

        monkeypatch.setattr(tj, "_integrate", spy)
        with pytest.raises(PositivityViolation, match="only 0/5"):
            tj.run_ensemble(self.cfg(), 5, 0.5 * np.eye(2))
        assert calls == [[42 ^ i for i in range(5)]]

    def test_too_short_for_psd_fails_before_stepping(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tj, "_integrate",
                            lambda *args: calls.append(args))
        cfg = self.cfg(steps=30, snapshot_every=30)
        with pytest.raises(TooShort, match="30 samples"):
            tj.run_ensemble(cfg, 4, ops.fock_dm(2, 1), psd_segments=8)
        assert calls == []

    def test_batched_equals_sequential(self):
        rho0 = ops.fock_dm(2, 1)
        batched = tj.run_ensemble(self.cfg(), 8, rho0, keep_trajectories=True)
        for i, res in enumerate(batched.trajectories):
            solo = tj.run_trajectory(self.cfg(), rho0, seed=42 ^ i)
            assert np.array_equal(res.record, solo.record)
            assert np.array_equal(res.states, solo.states)


class _DarkStream:
    """A stand-in for trajectories.Generator whose uniform draws are all -1,
    below every detection probability: each step detects, even from a state
    that cannot emit."""

    def __init__(self, bit_generator):
        pass

    def random(self, *, out):
        out.fill(-1.0)
        return out


class TestFailurePath:
    """A forced detection from the photon-counting vacuum fails its
    trajectory by a dark jump, flagged by the step itself."""

    def cfg(self):
        return config(cavity(3), tj.PhotonCounting(), dt=1e-3, steps=20,
                      seed=9, snapshot_every=10)

    def test_trajectory_raises_dark_jump(self, monkeypatch):
        monkeypatch.setattr(tj, "Generator", _DarkStream)
        with pytest.raises(JumpFromDarkState):
            tj.run_trajectory(self.cfg(), ops.fock_dm(3, 0))

    def test_one_failed_seed_is_listed(self, monkeypatch):
        # the streams are made in seed order: only trajectory 0 is forced
        made = []

        def first_dark(bit_generator):
            made.append(bit_generator)
            if len(made) == 1:
                return _DarkStream(bit_generator)
            return np.random.Generator(bit_generator)

        monkeypatch.setattr(tj, "Generator", first_dark)
        summary = tj.run_ensemble(self.cfg(), 10, ops.fock_dm(3, 0),
                                  keep_trajectories=True)
        assert (summary.n_success, summary.n_failed) == (9, 1)
        [(row, err)] = summary.failures
        assert row == 0 and isinstance(err, JumpFromDarkState)
        assert [r.diagnostics["seed"] for r in summary.trajectories] == [
            9 ^ i for i in range(1, 10)]

    def test_abort_keeps_the_failure_type(self, monkeypatch):
        monkeypatch.setattr(tj, "Generator", _DarkStream)
        with pytest.raises(JumpFromDarkState,
                           match="only 0/4 trajectories succeeded"):
            tj.run_ensemble(self.cfg(), 4, ops.fock_dm(3, 0))
