"""Operator algebra, superoperators, master-equation integration."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from literal_generators import (
    dense_in_loop_spectrum,
    dense_steady_state,
    real_map,
    superop_D,
)
from qfeedback import operators as ops
from qfeedback import trajectories as tj
from qfeedback.errors import (
    DegenerateSteadyState,
    DimensionMismatch,
    InvalidState,
)
from qfeedback.intracavity import (
    LinearCavityParams,
    parametric_model,
    squeezed_bath_model,
)


def damped_cavity(dim):
    return ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                             ((1.0, ops.destroy(dim)),))


def atom_decay():
    return ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                             ((1.0, ops.sigma_minus()),))


class TestSuperopD:
    def test_vacuum_is_dark(self):
        rho = ops.fock_dm(2, 0)
        assert np.allclose(superop_D(ops.destroy(2), rho), 0.0)

    def test_one_photon_decay(self):
        rho = ops.fock_dm(2, 1)
        out = superop_D(ops.destroy(2), rho)
        expected = ops.fock_dm(2, 0) - ops.fock_dm(2, 1)
        assert np.allclose(out, expected)

    def test_traceless(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = rng.normal(size=(4, 4))
            rho = rho @ rho.T + 0j
            rho /= np.trace(rho)
            assert abs(np.trace(superop_D(a, rho))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            superop_D(ops.destroy(3), ops.fock_dm(2, 0))

    def test_column_stacked_matrices(self):
        # sprepost is np.kron(b^T, a) bit for bit, for any memory layout; the
        # Liouvillian built from G acts on vec(rho) as the rho-form generator
        rng = np.random.default_rng(4)
        a, b, rho, h = (rng.normal(size=(4, 4, 4))
                        + 1j * rng.normal(size=(4, 4, 4)))
        for x, y in ((a, b), (a.T, b.conj().T)):
            assert np.array_equal(ops.sprepost(x, y), np.kron(y.T, x))
        h = h + h.conj().T
        model = ops.LindbladModel(h, ((0.7, a), (1.3, b)))
        got = model.liouvillian @ rho.reshape(-1, order="F")
        want = (-1j * (h @ rho - rho @ h) + 0.7 * superop_D(a, rho)
                + 1.3 * superop_D(b, rho))
        assert np.max(np.abs(got - want.reshape(-1, order="F"))) < 1e-13
        g = 1j * h + 0.35 * a.conj().T @ a + 0.65 * b.conj().T @ b
        assert np.max(np.abs(model.no_jump_generator - g)) < 1e-13


def parametric(dim):
    return parametric_model(LinearCavityParams(l=0.0, theta=0.5), dim)


def random_model(dim, seed):
    """A Hermitian H and three collapses, all dense and complex, at seeded
    random rates."""
    rng = np.random.default_rng(seed)
    h, *ops_ = (rng.normal(size=(4, dim, dim))
                + 1j * rng.normal(size=(4, dim, dim)))
    return ops.LindbladModel(h + h.conj().T,
                             tuple(zip(rng.uniform(0.1, 2.0, 3), ops_)))


class TestRealLiouvillian:
    @staticmethod
    def check(model):
        want = real_map(ops.coordinates(model.dim), model.liouvillian).T
        got = model.real_liouvillian
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert not got.flags.writeable and model.real_liouvillian is got
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_equals_real_map_of_liouvillian(self, dim):
        self.check(random_model(dim, seed=dim))

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_feedback_model_with_eta_below_one(self, dim):
        # collapses (1, c - iF), ((1 - eta)/eta, F) and the two extra ones
        base = random_model(dim, seed=10 + dim)
        f = np.random.default_rng(dim).normal(size=(2, dim, dim))
        f_op = f[0] + 1j * f[1]
        model = tj.feedback_master_equation(base, f_op + f_op.conj().T, 0.6)
        assert len(model.collapses) == 4
        self.check(model)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_blocks_do_not_change_the_result(self, dim, monkeypatch):
        # one row of the Liouvillian per block, or a block that ends mid-way;
        # a new model per block size, since a model caches its first build
        whole = random_model(dim, seed=20 + dim).real_liouvillian
        for block in (1, 3 * dim * dim):
            monkeypatch.setattr(ops, "_BUILD_BLOCK", block)
            model = random_model(dim, seed=20 + dim)
            assert np.array_equal(model.real_liouvillian, whole)


class TestSandwichMap:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_column_stacked_reference(self, dim, monkeypatch):
        # (a, b) and (b†, a†) make a Hermiticity-preserving map; gathering
        # the columns of its column-stacked matrix gives the transpose
        rng = np.random.default_rng(30 + dim)
        a, b = (rng.normal(size=(2, dim, dim))
                + 1j * rng.normal(size=(2, dim, dim)))
        terms = [(a, b), (b.conj().T, a.conj().T)]
        co = ops.coordinates(dim)
        want = real_map(co, sum(ops.sprepost(x, y) for x, y in terms)).T
        got = co.sandwich_map(terms)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # one row per block, or a block that ends mid-way
        for block in (1, 3 * dim * dim):
            monkeypatch.setattr(ops, "_BUILD_BLOCK", block)
            assert np.array_equal(co.sandwich_map(terms), got)


    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_identity_factor_adds_its_entries_alone(self, dim, monkeypatch):
        # None for an identity factor gives the matrix of the dense product
        # with np.eye bit for bit: that product only adds exact zeros
        rng = np.random.default_rng(40 + dim)
        a, b = (rng.normal(size=(2, dim, dim))
                + 1j * rng.normal(size=(2, dim, dim)))
        eye = np.eye(dim)
        co = ops.coordinates(dim)
        for block in (ops._BUILD_BLOCK, 1, 3 * dim * dim):
            monkeypatch.setattr(ops, "_BUILD_BLOCK", block)
            got = co.sandwich_map([(a, b), (b.conj().T, a.conj().T),
                                   (a, None), (None, a.conj().T)])
            want = co.sandwich_map([(a, b), (b.conj().T, a.conj().T),
                                    (a, eye), (eye, a.conj().T)])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_coordinates_are_read_only(self, dim):
        # the object is shared by every caller of coordinates(dim)
        co = ops.coordinates(dim)
        arrays = {name: value for name, value in vars(co).items()
                  if isinstance(value, np.ndarray)}
        assert len(arrays) == 11
        for name, value in arrays.items():
            assert not value.flags.writeable, name


def with_trace_row(model):
    """The trace-constrained real generator that steady_state solves."""
    a = model.real_liouvillian.copy()
    a[0] = ops.coordinates(model.dim).trace_row
    return a


def feedback_cavity(dim):
    return tj.feedback_master_equation(damped_cavity(dim),
                                       -0.15 * ops.quad_y(dim), 0.8)


def feedback_atom():
    return tj.feedback_master_equation(atom_decay(), -0.38 * ops.sigma_y(),
                                       0.76)


def resolvent_k(model):
    """K = A - |rho_ss><tr|, as the in-loop spectrum solves it."""
    co = ops.coordinates(model.dim)
    return model.real_liouvillian - np.outer(
        co.rows(ops.steady_state(model)), co.trace_row)


def generator(model):
    return model.real_liouvillian


# name: (the model, the matrix of it to scan, its block sizes or its number
# of blocks)
BLOCK_CASES = {
    "parametric-d10": (lambda: parametric(10), with_trace_row,
                       [30, 25, 25, 20]),
    "damped-d10": (lambda: damped_cavity(10), generator, 19),
    "feedback-K-d10": (lambda: feedback_cavity(10), resolvent_k, 4),
    "dense-d6": (lambda: random_model(6, seed=50), generator, [36]),
}


def feedback_case(base, f_op, eta):
    """(model_fb, c, F, eta) for the in-loop spectrum of base's first
    collapse c under Markovian feedback F."""
    return (tj.feedback_master_equation(base, f_op, eta), base.collapses[0][1],
            f_op, eta)


def dense_feedback(dim, seed, eta):
    """A seeded dense model under feedback with a dense Hermitian F."""
    f = np.random.default_rng(seed).normal(size=(2, dim, dim))
    f_op = 0.2 * (f[0] + 1j * f[1])
    return feedback_case(random_model(dim, seed), f_op + f_op.conj().T, eta)


# in-loop spectra that must match one solve per omega on the whole K
SPECTRUM_CASES = {
    "feedback-cavity-d10": lambda: feedback_case(
        damped_cavity(10), -0.15 * ops.quad_y(10), 0.8),
    "feedback-atom": lambda: feedback_case(
        atom_decay(), -0.38 * ops.sigma_y(), 0.76),
    "parametric-d10": lambda: feedback_case(
        parametric(10), -0.2 * ops.quad_x(10), 0.9),
    "dense-d4": lambda: dense_feedback(4, 60, 0.7),
    "dense-d7": lambda: dense_feedback(7, 61, 0.5),
}

# the models of both tables, on which A, A' and K must share one partition
PARTITION_MODELS = {
    **{f"block-{name}": make for name, (make, _, _) in BLOCK_CASES.items()},
    **{f"spectrum-{name}": lambda case=case: case()[0]
       for name, case in SPECTRUM_CASES.items()},
}


class TestInvariantBlocks:
    @staticmethod
    def check_partition(a, blocks):
        # sorted blocks that partition range(n), first indices ascending,
        # with no nonzero entry of a between two of them
        n = len(a)
        assert all(np.all(np.diff(b) > 0) for b in blocks)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n))
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
        label = np.empty(n, dtype=int)
        for k, b in enumerate(blocks):
            label[b] = k
        rows, cols = np.nonzero(a)
        assert np.array_equal(label[rows], label[cols])

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_models(self, name):
        make, matrix, sizes = BLOCK_CASES[name]
        a = matrix(make())
        blocks = ops._invariant_blocks(a)
        self.check_partition(a, blocks)
        if isinstance(sizes, int):
            assert len(blocks) == sizes
        else:
            assert [len(b) for b in blocks] == sizes

    def test_pattern_is_symmetrised(self):
        # one entry above the diagonal joins its row and column; a chain
        # through later indices joins an earlier one to the first block
        a = np.eye(6)
        a[0, 4] = a[5, 2] = a[4, 2] = 0.5
        blocks = ops._invariant_blocks(a)
        assert [b.tolist() for b in blocks] == [[0, 2, 4, 5], [1], [3]]
        self.check_partition(a, blocks)

    def test_zero_matrix_is_singletons(self):
        blocks = ops._invariant_blocks(np.zeros((3, 3)))
        assert [b.tolist() for b in blocks] == [[0], [1], [2]]

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_search_from_several_starts_is_a_union_of_blocks(self, name):
        # one search from a few indices reaches exactly the blocks that
        # hold them
        make, matrix, _ = BLOCK_CASES[name]
        a = matrix(make())
        adj = (a != 0) | (a != 0).T
        blocks = ops._invariant_blocks(a)
        for start in ([0], [len(a) - 1], [1, len(a) // 2]):
            want = np.zeros(len(a), dtype=bool)
            for b in blocks:
                want[b] = np.isin(b, start).any()
            got = ops._connected(adj, np.array(start))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(PARTITION_MODELS))
    def test_one_scan_serves_every_solve(self, name):
        # the solvers scan A alone and solve A' and K on its blocks
        model = PARTITION_MODELS[name]()
        want = [b.tolist() for b in ops._invariant_blocks(generator(model))]
        for matrix in (with_trace_row, resolvent_k):
            got = ops._invariant_blocks(matrix(model))
            assert [b.tolist() for b in got] == want


# models on which the block-wise solvers must match the dense references
BLOCKWISE_CASES = {
    "parametric-d10": lambda: parametric(10),
    "parametric-d20": lambda: parametric(20),
    "feedback-cavity-d10": lambda: feedback_cavity(10),
    "feedback-atom": feedback_atom,
    "dense-d4": lambda: random_model(4, seed=60),
    "dense-d7": lambda: random_model(7, seed=61),
}


class TestBlockwiseSolvers:
    @pytest.mark.parametrize("name", sorted(BLOCKWISE_CASES))
    def test_steady_state_matches_dense_inverse(self, name):
        model = BLOCKWISE_CASES[name]()
        want, want_cond = dense_steady_state(model)
        co = ops.coordinates(model.dim)
        a = model.real_liouvillian
        rho, cond = ops._stationary_state(a, co, ops._invariant_blocks(a))
        assert np.max(np.abs(rho - want)) <= 1e-13 * np.max(np.abs(want))
        assert abs(cond - want_cond) <= 1e-12 * want_cond
        assert np.array_equal(ops.steady_state(model), rho)
        # every solver reads the cached generator and none writes into it
        d, c = model.dim, model.collapses[0][1]
        ops.evolve(model, rho, 0.5)
        ops.two_time_correlation(model, c, c @ rho, [0.0, 0.5])
        tj.in_loop_correlation_spectrum(model, c, np.zeros((d, d)), 1.0,
                                        [0.0, 1.0])
        assert model.real_liouvillian is a and not a.flags.writeable
        fresh = ops.LindbladModel(model.hamiltonian, model.collapses)
        assert np.array_equal(a, fresh.real_liouvillian)

    @pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
    def test_spectrum_matches_dense_solves(self, name):
        model_fb, c, f_op, eta = SPECTRUM_CASES[name]()
        omega = np.linspace(0.0, 3.0, 13)
        got = tj.in_loop_correlation_spectrum(model_fb, c, f_op, eta,
                                              omega).values
        want = dense_in_loop_spectrum(model_fb, c, f_op, eta, omega)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_solvers_do_not_form_the_complex_liouvillian(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a complex superoperator was formed")

    monkeypatch.setattr(ops.LindbladModel, "liouvillian", property(forbidden))
    monkeypatch.setattr(ops, "sprepost", forbidden)
    model = parametric(6)
    with pytest.raises(AssertionError):
        model.liouvillian
    with pytest.raises(AssertionError):
        ops.sprepost(np.eye(2), np.eye(2))
    x = ops.quad_x(6)
    rho = ops.steady_state(model)
    ops.evolve(model, ops.fock_dm(6, 0), 0.5)
    ops.two_time_correlation(model, x, x @ rho, [0.0, 0.5])
    f_op = -0.15 * ops.quad_y(6)
    model_fb = tj.feedback_master_equation(damped_cavity(6), f_op, 0.8)
    tj.in_loop_correlation_spectrum(model_fb, ops.destroy(6), f_op, 0.8,
                                    [0.0, 1.0])
    # every SME kernel map, on a model with one unmonitored collapse
    a = ops.destroy(6)
    model = ops.LindbladModel(0.3 * x, ((1.0, a), (0.5, a.conj().T @ a)))
    for detection, feedback in [
            (tj.PhotonCounting(), None), (tj.HomodyneJump(1.0), None),
            (tj.HomodyneDiffusive(0.8), None),
            (tj.HomodyneDiffusive(0.8), tj.Feedback(f_op)),
            (tj.HomodyneDiffusive(0.8), tj.Feedback(f_op, tj.Delayed(1e-3)))]:
        tj._Kernel(model, 1e-3, detection, feedback, ops.fock_dm(6, 0))


class TestModel:
    @pytest.mark.parametrize("hamiltonian, collapse, named", [
        (np.diag([np.nan, 0.0]), np.eye(2), "Hamiltonian"),
        (np.zeros((2, 2)), np.diag([np.inf, 0.0]), "collapse operator 1")],
        ids=["hamiltonian-nan", "collapse-inf"])
    def test_non_finite_operator_named(self, hamiltonian, collapse, named):
        with pytest.raises(InvalidState, match=f"{named} must be finite"):
            ops.LindbladModel(hamiltonian,
                              ((1.0, ops.sigma_minus()), (1.0, collapse)))

    @staticmethod
    def generators(model):
        return (model.hamiltonian, *(op for _, op in model.collapses),
                model.no_jump_generator, model.liouvillian,
                model.real_liouvillian)

    def test_caller_arrays_are_copied(self):
        # one model caches its generators before the caller's arrays are
        # edited, the other after; both match a model of the original arrays
        h, a = np.zeros((2, 2), dtype=complex), ops.sigma_minus()
        want = self.generators(ops.LindbladModel(h.copy(),
                                                 ((1.0, a.copy()),)))
        early = ops.LindbladModel(h, ((1.0, a),))
        late = ops.LindbladModel(h, ((1.0, a),))
        self.generators(early)
        h[0, 1] = h[1, 0] = 0.7
        a[0, 0] = 0.3
        for model in (early, late):
            for got, expected in zip(self.generators(model), want):
                assert np.array_equal(got, expected)

    def test_cached_arrays_are_read_only(self):
        model = ops.LindbladModel(0.3 * ops.sigma_x(),
                                  ((1.0, ops.sigma_minus()),))
        for array in self.generators(model):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


# (model, t) pairs on which the Taylor action must match scipy's dense expm:
# the paper's feedback models, the parametric cavity at two truncations, a
# long squeezed-bath run (t ||L||_1 about 5500), and the edge cases
EXPM_CASES = {
    "atom-feedback": lambda: (tj.feedback_master_equation(
        atom_decay(), -0.38 * ops.sigma_y(), 0.76), 0.5),
    "cavity-d12": lambda: (damped_cavity(12), 0.6),
    "cavity-d12-feedback": lambda: (tj.feedback_master_equation(
        damped_cavity(12), -0.15 * ops.quad_y(12), 0.8), 0.6),
    "parametric-d10": lambda: (parametric(10), 1.0),
    "parametric-d30": lambda: (parametric(30), 1.0),
    "squeezed-bath-t50": lambda: (squeezed_bath_model(1.0, np.sqrt(2.0), 12),
                                  50.0),
    "unitary": lambda: (ops.LindbladModel(
        ops.quad_x(6) + 0.3 * ops.number(6), ()), 3.0),
    "zero": lambda: (ops.LindbladModel(np.zeros((3, 3)), ()), 2.0),
    "t-zero": lambda: (damped_cavity(4), 0.0),
}


# (model, d, Fock level, coordinates reached) for a Fock state whose reach is
# a strict subset: the damped cavity from Fock 3 keeps the populations of
# levels 0-3, and the parametric cavity from vacuum 42 of its coordinates
REACH_CASES = {
    "cavity-d12-fock3": (lambda: damped_cavity(12), 12, 3, 4),
    "parametric-d12-vacuum": (lambda: parametric(12), 12, 0, 42),
}


def dense_propagator(model, t):
    """scipy's expm(L t); a real L (no feedback) in real arithmetic, the same
    map at a quarter of the cost."""
    lv = model.liouvillian
    return expm((lv if lv.imag.any() else lv.real) * t)


class TestExpmAction:
    @pytest.mark.parametrize("name", sorted(EXPM_CASES))
    def test_matches_scipy_expm(self, name):
        model, t = EXPM_CASES[name]()
        rng = np.random.default_rng(11)
        n = model.dim ** 2
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        lv = model.liouvillian
        got = ops._expm_action(lv, v, [t])
        want = dense_propagator(model, t) @ v
        assert got.shape == (1, n)
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", sorted(REACH_CASES))
    def test_steps_only_the_reach(self, name):
        # a state that reaches a strict subset of the coordinates: exact
        # zeros off that subset, found here by iterating the nonzero pattern
        # to its fixed point, and scipy's expm on it
        make, dim, level, n_reach = REACH_CASES[name]
        lv = make().real_liouvillian
        v = ops.coordinates(dim).rows(ops.fock_dm(dim, level))
        reached = v != 0
        while True:
            grown = reached | ((lv != 0) @ reached)
            if np.array_equal(grown, reached):
                break
            reached = grown
        assert reached.sum() == n_reach
        got = ops._expm_action(lv, v, [0.4, 1.0])
        assert np.all(got[:, ~reached] == 0.0)
        for row, t in zip(got, (0.4, 1.0)):
            want = expm(lv * t) @ v
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_vector_returns_zeros(self):
        lv = damped_cavity(4).real_liouvillian
        for v in (np.zeros(16), np.zeros((16, 2))):
            got = ops._expm_action(lv, v, [0.5, 1.0])
            assert got.shape == (2,) + v.shape
            assert not got.any()

    def test_evolve_copies_no_generator_d30(self):
        # with the generator cached, a call traces vectors of d^2 = 900
        # entries, the d^4 boolean pattern of the reach search (0.8 MB),
        # freed before the copy, and the copy of the vacuum's reach, 240 of
        # the 900 coordinates, not a d^4 copy (6.5 MB) of A
        model = parametric(30)
        ops.evolve(model, ops.fock_dm(30, 0), 0.1)
        tracemalloc.start()
        try:
            ops.evolve(model, ops.fock_dm(30, 0), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6


class TestEvolve:
    def test_damped_cavity_exponential(self):
        dim = 6
        rho = ops.evolve(damped_cavity(dim), ops.fock_dm(dim, 1), 1.0)
        n = ops.expect(ops.number(dim), rho).real
        assert abs(n - np.exp(-1.0)) < 1e-6

    def test_identity_evolution(self):
        dim = 3
        model = ops.LindbladModel(np.zeros((dim, dim), dtype=complex), ())
        rho0 = ops.fock_dm(dim, 2)
        assert np.allclose(ops.evolve(model, rho0, 0.7), rho0, atol=1e-12)

    def test_atom_reaches_ground(self):
        rho = ops.evolve(atom_decay(), ops.fock_dm(2, 1), 20.0)
        assert np.max(np.abs(rho - ops.fock_dm(2, 0))) < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        dim = 5
        h = ops.quad_x(dim) * 0.3
        model = ops.LindbladModel(h + 0j, ((1.0, ops.destroy(dim)),))
        rho = ops.evolve(model, ops.fock_dm(dim, 2), 2.0)
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert ops.is_hermitian(rho)
        assert np.linalg.eigvalsh(rho).min() > -ops.TOL_POS


class TestSteadyState:
    def test_damped_cavity_vacuum(self):
        rho = ops.steady_state(damped_cavity(4))
        assert np.allclose(rho, ops.fock_dm(4, 0), atol=1e-10)

    def test_squeezed_bath_matches_evolve(self):
        model = squeezed_bath_model(1.0, np.sqrt(2.0), 12)
        rho_ss = ops.steady_state(model)
        rho_t = ops.evolve(model, ops.fock_dm(12, 0), 50.0)
        n_op = ops.number(12)
        assert abs(ops.expect(n_op, rho_ss).real
                   - ops.expect(n_op, rho_t).real) < 1e-6

    def test_unitary_only_degenerate(self):
        model = ops.LindbladModel(np.diag([0.0, 1.0]).astype(complex), ())
        with pytest.raises(DegenerateSteadyState):
            ops.steady_state(model)

    @staticmethod
    def two_dark_levels(leak):
        # |1> decays to |0>; |2> reaches it only through the leak |1><2|
        unit = np.eye(3, dtype=complex)
        collapses = [(1.0, np.outer(unit[0], unit[1]))]
        if leak:
            collapses.append((leak, np.outer(unit[1], unit[2])))
        return ops.LindbladModel(np.zeros((3, 3), dtype=complex),
                                 tuple(collapses))

    @pytest.mark.parametrize("leak", [0.0, 1e-13])
    def test_two_dark_levels_degenerate(self, leak):
        with pytest.raises(DegenerateSteadyState):
            ops.steady_state(self.two_dark_levels(leak))

    def test_small_leak_unique(self):
        rho = ops.steady_state(self.two_dark_levels(1e-3))
        assert np.allclose(rho, ops.fock_dm(3, 0), atol=1e-10)

    def test_peak_memory_d30(self):
        # the real generator, 6.5 MB at d = 30, and the temporaries of its
        # build; its four invariant blocks are copied and inverted one at a
        # time, their 1-norms read from the copies
        model = parametric(30)
        tracemalloc.start()
        try:
            ops.steady_state(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


class TestTwoTimeCorrelation:
    def test_vacuum_correlation_vanishes(self):
        model = damped_cavity(3)
        rho = ops.steady_state(model)
        a = ops.destroy(3)
        dev = a @ rho + rho @ a.conj().T
        tau = np.linspace(0.0, 3.0, 7)
        corr = ops.two_time_correlation(model, ops.quad_x(3), dev, tau)
        assert np.max(np.abs(corr)) < 1e-12

    def test_tau_zero_is_direct_trace(self):
        model = atom_decay()
        rho = 0.6 * ops.fock_dm(2, 0) + 0.4 * ops.fock_dm(2, 1)
        sm = ops.sigma_minus()
        dev = sm @ rho + rho @ sm.conj().T
        corr = ops.two_time_correlation(model, ops.sigma_x(), dev, [0.0])
        assert abs(corr[0] - np.trace(ops.sigma_x() @ dev)) < 1e-12

    def test_non_uniform_grid_matches_scipy_expm(self):
        model = parametric(10)
        rho = ops.steady_state(model)
        x = ops.quad_x(10)
        tau = np.array([0.0, 0.1, 0.15, 0.15, 0.7, 2.0, 2.05])
        corr = ops.two_time_correlation(model, x, x @ rho, tau)
        dev = ops._vec(x @ rho)
        want = np.array([np.trace(x @ (dense_propagator(model, t) @ dev)
                                  .reshape((10, 10), order="F"))
                         for t in tau])
        assert np.max(np.abs(corr - want)) <= 1e-12 * np.max(np.abs(want))

    def test_anti_hermitian_deviation_matches_scipy_expm(self):
        # [x, rho] is anti-Hermitian, so the Hermitian column of the
        # propagated block is zero; a non-Hermitian left operator and a
        # complex generator (feedback) exercise both columns of the trace
        model = tj.feedback_master_equation(damped_cavity(8),
                                            -0.15 * ops.quad_x(8), 0.8)
        assert model.liouvillian.imag.any()
        rho = ops.steady_state(model)
        x, a = ops.quad_x(8), ops.destroy(8)
        dev = x @ rho - rho @ x
        assert np.max(np.abs(dev + dev.conj().T)) < 1e-15
        tau = np.array([0.0, 0.2, 0.2, 1.0, 3.0])
        corr = ops.two_time_correlation(model, a, dev, tau)
        want = np.array([np.trace(a @ (dense_propagator(model, t)
                                       @ ops._vec(dev)).reshape(
                                           (8, 8), order="F"))
                         for t in tau])
        assert np.max(np.abs(corr - want)) <= 1e-12 * np.max(np.abs(want))

    def test_empty_grid(self):
        corr = ops.two_time_correlation(atom_decay(), ops.sigma_x(),
                                        ops.sigma_x(), [])
        assert corr.shape == (0,)

    def test_exponential_decay_rate(self):
        # sigma_x deviation under plain decay relaxes at gamma_x = 1/2
        model = atom_decay()
        tau = np.linspace(0.0, 4.0, 21)
        dev = 0.5 * ops.sigma_x() @ np.eye(2) + 0j
        corr = ops.two_time_correlation(model, ops.sigma_x(), dev, tau)
        rate = np.polyfit(tau, np.log(np.real(corr)), 1)[0]
        assert abs(rate + 0.5) < 1e-6


class TestInvariants:
    def test_squeezed_bath_nm_zero_equals_decay(self):
        dim = 6
        plain = damped_cavity(dim)
        bath = squeezed_bath_model(0.0, 0.0, dim)
        rho0 = ops.fock_dm(dim, 2)
        a = ops.evolve(plain, rho0, 1.2)
        b = ops.evolve(bath, rho0, 1.2)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_truncation_warning(self):
        dim = 4
        # drive population to the top of the truncated space
        h = 2.0 * ops.quad_x(dim) + 0j
        model = ops.LindbladModel(h, ((1.0, ops.destroy(dim)),))
        with pytest.warns(Warning):
            ops.evolve(model, ops.fock_dm(dim, 0), 3.0, watch_truncation=True)
