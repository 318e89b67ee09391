import numpy as np
import pytest

from relumhe.numlin import numeric_rank, pinv
from relumhe.orthant_geo import RankDeficientW, observability_certificate
from relumhe.pe_design import (
    CertificateFailed,
    design_pe_batches,
    design_pe_input,
    design_pe_input_bias,
    verify_pe,
)
from relumhe.relu_net import Architecture, WeightState, observability_jacobian


def certified_weights(rng, m, n):
    from relumhe.orthant_geo import observability_certificate

    while True:
        W = rng.standard_normal((m, n))
        if observability_certificate(W).observable:
            return W


def certified_bias_weights(rng, m, n):
    from relumhe.orthant_geo import observability_certificate

    while True:
        W1 = rng.standard_normal((m, n))
        b = rng.standard_normal(n)
        try:
            if observability_certificate(W1, b).observable:
                return W1, b
        except RankDeficientW:
            continue


class TestDesignPEInput:
    def test_identity_plane(self):
        plan = design_pe_input(np.eye(2))
        assert plan.U.shape == (4, 2)
        assert plan.certified
        w = WeightState.from_parts(Architecture.fixed_output(2, 2), np.eye(2))
        assert numeric_rank(observability_jacobian(w, plan.U).DH).rank == 4
        # with an identity weight matrix the inputs equal the cone targets
        np.testing.assert_allclose(plan.U, plan.C, atol=1e-12)

    def test_example_one_fails_certificate(self):
        with pytest.raises(CertificateFailed):
            design_pe_input(np.array([[1.0, 2.0, 3.0]]))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="m=3 > n=2"):
            design_pe_input(np.ones((3, 2)) + np.eye(3)[:, :2])

    def test_random_instances_certify(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            W = certified_weights(rng, 2, 4)
            plan = design_pe_input(W)
            assert plan.certified
            w = WeightState.from_parts(Architecture.fixed_output(2, 4), W)
            assert numeric_rank(observability_jacobian(w, plan.U).DH).rank == 8

    def test_plan_structure(self):
        rng = np.random.default_rng(1)
        W = certified_weights(rng, 2, 4)
        plan = design_pe_input(W)
        assert len(plan.blocks) == 4
        assert plan.T.shape == (4, 4)
        assert numeric_rank(plan.T).rank == 4
        assert set(np.unique(plan.T)) <= {0.0, 1.0}
        for blk in plan.blocks:
            assert numeric_rank(blk).rank == 2
        np.testing.assert_allclose(plan.U @ W, plan.C, atol=1e-9 * np.abs(plan.C).max())
        assert np.abs(plan.U @ W).min() > 0

    def test_different_rngs_give_different_plans(self):
        rng = np.random.default_rng(2)
        W = certified_weights(rng, 2, 4)
        p1 = design_pe_input(W, rng=np.random.default_rng(1))
        p2 = design_pe_input(W, rng=np.random.default_rng(2))
        assert not np.allclose(p1.U, p2.U)
        assert p1.certified and p2.certified

    def test_extension_keeps_certificate(self):
        rng = np.random.default_rng(3)
        W = certified_weights(rng, 2, 4)
        plan = design_pe_input(W, n_samples=30, rng=rng)
        assert plan.U.shape == (30, 2)
        assert plan.certified
        # appending arbitrary extra rows cannot drop the rank
        w = WeightState.from_parts(Architecture.fixed_output(2, 4), W)
        extra = np.vstack([plan.U, rng.standard_normal((5, 2))])
        assert numeric_rank(observability_jacobian(w, extra, boundary_tol=None).DH).rank == 8

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            design_pe_input(np.eye(2), n_samples=3)


class TestDesignPEInputBias:
    def test_small_affine_case(self):
        rng = np.random.default_rng(4)
        W1, b = certified_bias_weights(rng, 2, 4)
        plan = design_pe_input_bias(W1, b)
        assert plan.U.shape == (12, 2)
        assert plan.certified
        w = WeightState.from_parts(Architecture.bias(2, 4), W1, b=b)
        assert numeric_rank(observability_jacobian(w, plan.U).DH).rank == 12

    def test_augmented_blocks_nonsingular(self):
        rng = np.random.default_rng(5)
        W1, b = certified_bias_weights(rng, 2, 5)
        plan = design_pe_input_bias(W1, b)
        stacked = np.vstack([W1, b])
        for blk in plan.blocks:
            aug = np.hstack([blk, np.ones((3, 1))])
            assert abs(np.linalg.det(aug)) > 1e-9
        augmented = np.hstack([plan.U, np.ones((plan.U.shape[0], 1))])
        np.testing.assert_allclose(
            augmented @ stacked, plan.C, atol=1e-8 * max(np.abs(plan.C).max(), 1.0)
        )

    def test_affine_membership_identity(self):
        # every cone block satisfies C_k alpha = 1 with alpha the pseudoinverse
        # of the bias component orthogonal to the first-layer row space
        rng = np.random.default_rng(6)
        W1, b = certified_bias_weights(rng, 3, 5)
        plan = design_pe_input_bias(W1, b)
        alpha = pinv((b - b @ pinv(W1) @ W1).reshape(1, -1))
        resid = np.abs(plan.C @ alpha - 1.0).max()
        assert resid <= 1e-9

    def test_zero_bias_rejected(self):
        # a zero bias makes the stacked matrix row-rank deficient
        rng = np.random.default_rng(7)
        W1 = certified_weights(rng, 2, 4)
        with pytest.raises(RankDeficientW):
            design_pe_input_bias(W1, np.zeros(4))

    def test_square_case_rejected(self):
        # m+1 rows cannot be independent in R^n when n < m+1
        with pytest.raises(RankDeficientW):
            design_pe_input_bias(np.eye(2), np.array([0.1, -0.2]))


class TestVerifyPE:
    def test_designed_plan_verifies(self):
        rng = np.random.default_rng(8)
        W = certified_weights(rng, 2, 4)
        plan = design_pe_input(W)
        w = WeightState.from_parts(Architecture.fixed_output(2, 4), W)
        check = verify_pe(plan.U, w)
        assert check.pe and check.rank == 8 and check.sigma_min > 0

    def test_repeated_row_is_not_pe(self):
        rng = np.random.default_rng(9)
        W = certified_weights(rng, 2, 4)
        w = WeightState.from_parts(Architecture.fixed_output(2, 4), W)
        u = rng.standard_normal(2)
        check = verify_pe(np.tile(u, (8, 1)), w)
        assert not check.pe
        assert check.rank <= 2

    def test_scalar_network(self):
        w = WeightState(np.array([1.0]), Architecture.fixed_output(1, 1))
        check = verify_pe(np.array([[1.0]]), w)
        assert check.pe and check.rank == 1


class TestDesignPEBatches:
    def test_batches_jointly_pe_and_well_conditioned(self):
        rng = np.random.default_rng(10)
        W = certified_weights(rng, 2, 4)
        U, check, _ = design_pe_batches(observability_certificate(W), k=3, batch_size=6, rng=rng)
        assert U.shape == (18, 2)
        assert check.pe

    def test_contraction_target(self):
        # the experiment-scale regime admits strongly contractive schedules
        rng = np.random.default_rng(11)
        W = certified_weights(rng, 2, 10)
        from relumhe.pe_design import _schedule_contraction

        w = WeightState.from_parts(Architecture.fixed_output(2, 10), W)
        U, _, _ = design_pe_batches(
            observability_certificate(W), k=5, batch_size=18, rng=rng, rho_max=0.05
        )
        assert _schedule_contraction(U, w, 5) <= 0.05 + 1e-9

    def test_batches_are_balanced_and_report_their_weakest(self):
        rng = np.random.default_rng(15)
        W = certified_weights(rng, 2, 4)
        w = WeightState.from_parts(Architecture.fixed_output(2, 4), W)
        U, check, sigma_min = design_pe_batches(
            observability_certificate(W), k=3, batch_size=6, rng=rng
        )
        batch_sigmas = [verify_pe(U[j * 6 : (j + 1) * 6], w).sigma_min for j in range(3)]
        assert sigma_min == min(batch_sigmas) > 0
        assert check == verify_pe(U, w)

    def test_bias_certificate_rejected(self):
        W1, b = certified_bias_weights(np.random.default_rng(16), 2, 4)
        with pytest.raises(ValueError, match="fixed-output"):
            design_pe_batches(
                observability_certificate(W1, b), k=3, batch_size=6, rng=np.random.default_rng(0)
            )

    def test_infeasible_size_rejected(self):
        rng = np.random.default_rng(12)
        W = certified_weights(rng, 2, 4)
        with pytest.raises(ValueError):
            design_pe_batches(observability_certificate(W), k=2, batch_size=3, rng=rng)


class TestEnumeratesOnce:
    """The certificate's tope enumeration is reused, never repeated."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        from relumhe import orthant_geo

        calls = []
        original = orthant_geo._tope_enumeration

        def counted(B):
            calls.append(B.shape)
            return original(B)

        monkeypatch.setattr(orthant_geo, "_tope_enumeration", counted)
        return calls

    def test_bias_design(self, enumerations):
        W1, b = certified_bias_weights(np.random.default_rng(13), 2, 5)
        enumerations.clear()
        design_pe_input_bias(W1, b)
        assert len(enumerations) == 1

    def test_fixed_output_design(self, enumerations):
        W = certified_weights(np.random.default_rng(14), 2, 5)
        enumerations.clear()
        design_pe_input(W)
        assert len(enumerations) == 1

    def test_synthetic_teacher_and_batches(self, enumerations):
        from relumhe.experiment_cli import ExperimentConfig, gen_synthetic

        gen_synthetic(ExperimentConfig(seed=1))
        assert len(enumerations) == 1
