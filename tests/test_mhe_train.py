import numpy as np
import pytest

from relumhe.mhe_train import (
    Batch,
    BatchSchedule,
    InfeasibleStart,
    TrainerState,
    adam_baseline,
    assemble_H,
    convergence_report,
    gd_baseline,
    mhe_step,
    regularized_mhe_step,
    train,
)
from relumhe.neighborhood import ObservableNeighborhood, membership
from relumhe.numlin import numeric_rank, pinv, subspace_projectors
from relumhe.orthant_geo import observability_certificate
from relumhe.pe_design import design_pe_input
from relumhe.relu_net import Architecture, WeightState, observability_map
from helpers import fd_jacobian


def certified_setup(seed=0, m=2, n=4, n_samples=None):
    rng = np.random.default_rng(seed)
    while True:
        W = rng.standard_normal((m, n))
        if observability_certificate(W).observable:
            break
    plan = design_pe_input(W, n_samples=n_samples, rng=rng)
    anchor = WeightState.from_parts(Architecture.fixed_output(m, n), W)
    neigh = ObservableNeighborhood.build(anchor, plan.U)
    return rng, W, anchor, neigh, plan


def member_near(neigh, anchor, rng, rel=0.1):
    pre_min = np.abs(neigh.ref_pre).min()
    while True:
        D = rng.standard_normal(anchor.W.shape)
        D *= rel * pre_min / np.abs(neigh.U @ D).max()
        cand = WeightState.from_parts(anchor.arch, anchor.W + D)
        if membership(neigh, cand):
            return cand


class TestBatchSchedule:
    def test_even_partition(self):
        sched = BatchSchedule.partition(np.arange(12.0).reshape(6, 2), np.arange(6.0), 3)
        assert sched.k == 3
        assert all(b.size == 2 for b in sched.batches)
        recovered = np.concatenate([b.index_set for b in sched.batches])
        np.testing.assert_array_equal(recovered, np.arange(6))

    def test_uneven_partition_rejected_by_default(self):
        with pytest.raises(ValueError):
            BatchSchedule.partition(np.zeros((7, 1)), np.zeros(7), 3)

    def test_ragged_partition(self):
        sched = BatchSchedule.partition(np.zeros((7, 1)), np.zeros(7), 3, allow_ragged=True)
        assert [b.size for b in sched.batches] == [2, 3, 2]

    def test_periodic_selection(self):
        sched = BatchSchedule.partition(np.zeros((6, 1)), np.zeros(6), 3)
        assert sched.batch_for_step(1) is sched.batches[0]
        assert sched.batch_for_step(3) is sched.batches[2]
        assert sched.batch_for_step(4) is sched.batches[0]  # wraps to a new epoch


class TestAssembleH:
    def test_linearizes_exactly_between_members(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=1)
        batch = Batch(plan.U[:5], np.zeros(5), np.arange(5))
        H = assemble_H(batch, neigh)
        for _ in range(10):
            w1, w2 = member_near(neigh, anchor, rng), member_near(neigh, anchor, rng)
            dy = observability_map(w1, batch.inputs) - observability_map(w2, batch.inputs)
            np.testing.assert_allclose(dy, H @ (w1.w - w2.w), atol=1e-10)

    def test_full_plan_gives_full_column_rank(self):
        _, W, anchor, neigh, plan = certified_setup(seed=2)
        batch = Batch(plan.U, np.zeros(plan.U.shape[0]), np.arange(plan.U.shape[0]))
        assert numeric_rank(assemble_H(batch, neigh)).rank == anchor.arch.state_dim

    def test_single_sample_batch(self):
        _, W, anchor, neigh, plan = certified_setup(seed=3)
        H = assemble_H(Batch(plan.U[:1], np.zeros(1), np.arange(1)), neigh)
        assert H.shape == (1, anchor.arch.state_dim)
        assert numeric_rank(H).rank == 1


class TestProjectors:
    def test_pe_batch_has_zero_null_projector(self):
        _, W, anchor, neigh, plan = certified_setup(seed=4)
        H = assemble_H(Batch(plan.U, np.zeros(plan.U.shape[0]), np.arange(plan.U.shape[0])), neigh)
        P_o, P_obar = subspace_projectors(H)
        np.testing.assert_allclose(P_obar, 0.0, atol=1e-10)
        np.testing.assert_allclose(P_o + P_obar, np.eye(H.shape[1]), atol=1e-12)

    def test_single_row_rank_one(self):
        _, W, anchor, neigh, plan = certified_setup(seed=5)
        H = assemble_H(Batch(plan.U[:1], np.zeros(1), np.arange(1)), neigh)
        P_o, _ = subspace_projectors(H)
        assert numeric_rank(P_o).rank == 1


class TestMheStep:
    def test_noiseless_pe_batch_recovers_exactly(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=6)
        ideal = member_near(neigh, anchor, rng)
        start = member_near(neigh, anchor, rng)
        targets = observability_map(ideal, plan.U)
        batch = Batch(plan.U, targets, np.arange(plan.U.shape[0]))
        state = TrainerState(start, 0, neigh)
        out = mhe_step(state, batch)
        # oracle: dense least squares on the shared linearization
        H = assemble_H(batch, neigh)
        expect = start.w + np.linalg.lstsq(H, targets - observability_map(start, plan.U), rcond=None)[0]
        np.testing.assert_allclose(out.w_hat.w, ideal.w, atol=1e-9)
        np.testing.assert_allclose(out.w_hat.w, expect, atol=1e-9)

    def test_unobservable_component_frozen(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=7)
        ideal = member_near(neigh, anchor, rng)
        start = member_near(neigh, anchor, rng)
        sub = plan.U[:3]  # three rows cannot span the 8-dim state
        batch = Batch(sub, observability_map(ideal, sub), np.arange(3))
        state = TrainerState(start, 0, neigh)
        out = mhe_step(state, batch)
        _, P_obar = subspace_projectors(assemble_H(batch, neigh))
        drift = P_obar @ (out.w_hat.w - start.w)
        assert np.abs(drift).max() <= 1e-10 * (1 + np.abs(out.w_hat.w).max())

    def test_noisy_step_respects_observable_bound(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=8)
        ideal = member_near(neigh, anchor, rng)
        start = member_near(neigh, anchor, rng)
        eps = 1e-4
        for _ in range(10):
            noise = rng.uniform(-eps, eps, plan.U.shape[0])
            batch = Batch(plan.U, observability_map(ideal, plan.U) + noise, np.arange(plan.U.shape[0]))
            out = mhe_step(TrainerState(start, 0, neigh), batch)
            H = assemble_H(batch, neigh)
            rd = numeric_rank(H)
            sigma = rd.singular_values[rd.rank - 1]
            P_o, _ = subspace_projectors(H)
            lhs = np.linalg.norm(P_o @ (out.w_hat.w - ideal.w))
            assert lhs <= 2 * eps * np.sqrt(batch.size) / sigma

    def test_infeasible_start_rejected(self):
        _, W, anchor, neigh, plan = certified_setup(seed=9)
        bad = anchor.replace_w(-anchor.w)
        batch = Batch(plan.U, np.zeros(plan.U.shape[0]), np.arange(plan.U.shape[0]))
        with pytest.raises(InfeasibleStart):
            mhe_step(TrainerState(bad, 0, neigh), batch)

    def test_batch_loss_never_increases(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=10)
        ideal = member_near(neigh, anchor, rng)
        state = TrainerState(member_near(neigh, anchor, rng), 0, neigh)
        for rows in (plan.U[:3], plan.U[3:6], plan.U):
            targets = observability_map(ideal, rows) + rng.uniform(-1e-3, 1e-3, rows.shape[0])
            batch = Batch(rows, targets, np.arange(rows.shape[0]))
            before = np.mean((observability_map(state.w_hat, rows) - targets) ** 2)
            state = mhe_step(state, batch)
            after = np.mean((observability_map(state.w_hat, rows) - targets) ** 2)
            assert after <= before + 1e-12


class TestTrain:
    def _schedule(self, neigh, ideal, plan, k, noise=0.0, rng=None):
        targets = observability_map(ideal, plan.U)
        if noise and rng is not None:
            targets = targets + rng.uniform(-noise, noise, targets.size)
        return BatchSchedule.partition(plan.U, targets, k)

    def test_noiseless_converges_to_global_least_squares(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=11, n_samples=16)
        ideal = member_near(neigh, anchor, rng)
        init = member_near(neigh, anchor, rng)
        sched = self._schedule(neigh, ideal, plan, k=2)  # 8-row batches: each PE
        traj, report = train(sched, neigh, init, epochs=2, ideal=ideal, eps_bar=0.0)
        assert traj.estimation_error[-1] <= 1e-8
        assert traj.estimation_error[: 2 * sched.k].min() <= 1e-8
        # oracle: one global least-squares solve over all samples
        H = assemble_H(Batch(plan.U, sched.all_targets, np.arange(16)), neigh)
        delta = np.linalg.lstsq(H, sched.all_targets - observability_map(init, plan.U), rcond=None)[0]
        np.testing.assert_allclose(traj.final_state.w_hat.w, init.w + delta, atol=1e-8)

    def test_alternating_projection_decay_over_many_periods(self):
        # small non-PE batches: the error decays like the projector products,
        # consistently with the reported contraction constants
        rng, W, anchor, neigh, plan = certified_setup(seed=11, n_samples=16)
        ideal = member_near(neigh, anchor, rng)
        init = member_near(neigh, anchor, rng)
        sched = self._schedule(neigh, ideal, plan, k=4)
        epochs = 120
        traj, report = train(sched, neigh, init, epochs=epochs, ideal=ideal, eps_bar=0.0)
        err0 = np.linalg.norm(ideal.w - init.w)
        assert not report.non_pe_dataset and report.rho < 1.0
        assert traj.estimation_error[-1] <= traj.estimation_error[0]
        budget = max(1e-9, 10.0 * report.zeta * report.rho**epochs * err0)
        assert traj.estimation_error[-1] <= budget
        assert traj.estimation_error[-1] <= 1e-4 * err0

    def test_single_pe_batch_one_step_bound(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=12)
        ideal = member_near(neigh, anchor, rng)
        init = member_near(neigh, anchor, rng)
        eps = 1e-4
        sched = self._schedule(neigh, ideal, plan, k=1, noise=eps, rng=rng)
        traj, report = train(sched, neigh, init, epochs=1, ideal=ideal, eps_bar=eps)
        assert report.rho == 0.0
        assert traj.estimation_error[0] <= report.mu * eps

    def test_noisy_error_stays_under_asymptotic_bound(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=13, n_samples=16)
        ideal = member_near(neigh, anchor, rng)
        init = member_near(neigh, anchor, rng)
        eps = 1e-4
        sched = self._schedule(neigh, ideal, plan, k=4, noise=eps, rng=rng)
        traj, report = train(sched, neigh, init, epochs=60, ideal=ideal, eps_bar=eps)
        limsup = traj.estimation_error[-40 * sched.k :].max()
        assert limsup <= report.bound

    def test_membership_conserved(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=14, n_samples=16)
        ideal = member_near(neigh, anchor, rng)
        init = member_near(neigh, anchor, rng)
        sched = self._schedule(neigh, ideal, plan, k=4, noise=1e-3, rng=rng)
        state = TrainerState(init, 0, neigh)
        for t in range(1, 25):
            state = mhe_step(state, sched.batch_for_step(t))
            assert membership(neigh, state.w_hat)


class TestConvergenceReport:
    def test_every_batch_pe_gives_zero_q(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=15, n_samples=16)
        ideal = member_near(neigh, anchor, rng)
        targets = observability_map(ideal, plan.U)
        sched = BatchSchedule.partition(plan.U, targets, 2)  # 8 rows each: PE for 8-dim state
        report = convergence_report(sched, neigh, eps_bar=1e-4)
        if all(numeric_rank(assemble_H(b, neigh)).rank == 8 for b in sched.batches):
            np.testing.assert_allclose(report.Q, 0.0, atol=1e-10)
            assert report.rho == 0.0 and report.zeta == 1.0
            assert report.bound == pytest.approx(sched.k * report.mu * 1e-4)

    def test_complementary_batches_contract(self):
        _, W, anchor, neigh, plan = certified_setup(seed=16, n_samples=16)
        targets = np.zeros(16)
        sched = BatchSchedule.partition(plan.U, targets, 4)
        report = convergence_report(sched, neigh, eps_bar=1e-4)
        assert not report.non_pe_dataset
        assert 0.0 <= report.rho < 1.0
        assert report.zeta >= 1.0
        # power norms decay as promised by the empirical constant
        power = np.eye(report.Q.shape[0])
        for ell in range(1, 30):
            power = power @ report.Q
            assert np.linalg.norm(power, 2) <= report.zeta * report.rho**ell + 1e-12

    def test_non_spanning_schedule_flagged(self):
        _, W, anchor, neigh, plan = certified_setup(seed=17)
        U = np.tile(plan.U[:2], (4, 1))  # 8 rows but only 2 distinct
        sched = BatchSchedule.partition(U, np.zeros(8), 2)
        report = convergence_report(sched, neigh, eps_bar=1e-4)
        assert report.non_pe_dataset
        assert report.rho == 1.0
        assert np.isinf(report.bound)


class TestGDBaseline:
    def _simple_setup(self, seed=18):
        rng, W, anchor, neigh, plan = certified_setup(seed=seed)
        ideal = member_near(neigh, anchor, rng)
        targets = observability_map(ideal, plan.U)
        sched = BatchSchedule.partition(plan.U, targets, 2)
        return rng, anchor, ideal, sched

    def test_exact_fit_is_fixed_point(self):
        rng, anchor, ideal, sched = self._simple_setup()
        traj = gd_baseline(sched, ideal, learning_rate=0.1, epochs=2, ideal=ideal)
        assert traj.estimation_error.max() <= 1e-12

    def test_zero_learning_rate_identity(self):
        rng, anchor, ideal, sched = self._simple_setup(seed=19)
        start = anchor
        traj = gd_baseline(sched, start, learning_rate=0.0, epochs=1, ideal=start)
        assert traj.estimation_error.max() == 0.0

    def test_one_step_matches_finite_difference_gradient(self):
        rng, anchor, ideal, sched = self._simple_setup(seed=20)
        start = anchor
        batch = sched.batches[0]

        def loss(wvec):
            pred = observability_map(start.replace_w(wvec), batch.inputs)
            return np.array([np.mean((pred - batch.targets) ** 2)])

        g_fd = fd_jacobian(loss, start.w.copy(), h=1e-7).ravel()
        traj = gd_baseline(sched, start, learning_rate=0.05, epochs=1)
        first = traj  # one step applied per batch; reconstruct the first update
        from relumhe.mhe_train import _loss_gradient

        _, g = _loss_gradient(start, batch.inputs, batch.targets)
        np.testing.assert_allclose(g, g_fd, atol=1e-5 * max(1.0, np.abs(g).max()))


class TestAdamBaseline:
    def test_zero_gradient_fixed_point(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=21)
        targets = observability_map(anchor, plan.U)
        sched = BatchSchedule.partition(plan.U, targets, 2)
        traj = adam_baseline(sched, anchor, epochs=2, ideal=anchor)
        assert traj.estimation_error.max() <= 1e-12

    def test_first_step_is_signed_learning_rate(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=22)
        ideal_w = anchor.replace_w(anchor.w + 0.5)
        targets = observability_map(ideal_w, plan.U)
        sched = BatchSchedule.partition(plan.U, targets, 1)
        from relumhe.mhe_train import _loss_gradient

        _, g = _loss_gradient(anchor, plan.U, targets)
        lr = 0.001
        traj = adam_baseline(sched, anchor, learning_rate=lr, epochs=1)
        # hand recursion: m_hat = g, v_hat = g^2 -> step = lr * sign(g) (up to eps)
        expect = anchor.w - lr * np.sign(g) * (np.abs(g) / (np.abs(g) + 1e-8))
        np.testing.assert_allclose(traj.final_state.w_hat.w, expect, atol=1e-12)

    def test_deterministic_given_schedule(self):
        rng, W, anchor, neigh, plan = certified_setup(seed=23)
        targets = observability_map(anchor.replace_w(anchor.w * 1.1), plan.U)
        sched = BatchSchedule.partition(plan.U, targets, 2)
        t1 = adam_baseline(sched, anchor, epochs=3)
        t2 = adam_baseline(sched, anchor, epochs=3)
        np.testing.assert_array_equal(t1.final_state.w_hat.w, t2.final_state.w_hat.w)


class TestRegularizedStep:
    def _general_setup(self, seed=24):
        rng = np.random.default_rng(seed)
        arch = Architecture.general(3, 4)
        w = WeightState(rng.standard_normal(arch.state_dim), arch)
        inputs = rng.standard_normal((8, 3))
        targets = rng.standard_normal(8)
        return w, Batch(inputs, targets, np.arange(8))

    def test_zero_lambda_is_identity(self):
        w, batch = self._general_setup()
        out = regularized_mhe_step(TrainerState(w, 0, None), batch, weight_lambda=0.0)
        np.testing.assert_array_equal(out.w_hat.w, w.w)

    def test_zero_residual_is_identity(self):
        w, batch = self._general_setup(seed=25)
        exact = Batch(batch.inputs, observability_map(w, batch.inputs), batch.index_set)
        out = regularized_mhe_step(TrainerState(w, 0, None), exact)
        np.testing.assert_allclose(out.w_hat.w, w.w, atol=1e-12)

    def test_scalar_ridge_formula(self):
        # one weight, one sample: delta = -lam*j*r / (lam*j^2 + 1)
        arch = Architecture.fixed_output(1, 1)
        w = WeightState(np.array([2.0]), arch)
        batch = Batch(np.array([[3.0]]), np.array([5.0]), np.arange(1))
        lam = 0.25
        out = regularized_mhe_step(TrainerState(w, 0, None), batch, weight_lambda=lam)
        j, r = 3.0, 6.0 - 5.0
        expect = 2.0 - lam * j * r / (lam * j * j + 1.0)
        assert out.w_hat.w[0] == pytest.approx(expect, abs=1e-12)

    def test_matches_state_space_normal_equations(self):
        w, batch = self._general_setup(seed=26)
        from relumhe.relu_net import observability_jacobian

        lam = 1e-2
        out = regularized_mhe_step(TrainerState(w, 0, None), batch, weight_lambda=lam)
        J = observability_jacobian(w, batch.inputs, boundary_tol=None).DH
        r = observability_map(w, batch.inputs) - batch.targets
        delta = -np.linalg.solve(lam * J.T @ J + np.eye(w.w.size), lam * J.T @ r)
        np.testing.assert_allclose(out.w_hat.w, w.w + delta, atol=1e-10)
