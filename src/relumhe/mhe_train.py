"""Moving-horizon training over periodic mini-batches.

Inside the observable neighborhood the network output is affine in the
weights, so each horizon step is an exact linear least-squares update
through the batch sensitivity matrix, followed by a retraction that keeps
the iterate inside the neighborhood.  The unobservable component of the
state is frozen automatically because the update lives in the row space of
the sensitivity matrix.

The module also computes the convergence diagnostics (per-batch minimal
nonzero singular values, the product of unobservable-subspace projectors
over one schedule period, its spectral radius and empirical power-law
constant, and the resulting asymptotic error bound), plus mini-batch
gradient-descent and Adam baselines and the regularization-based variant
used for architectures without an observability certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .neighborhood import ObservableNeighborhood, membership, retract
from .numlin import numeric_rank, pinv, subspace_projectors
from .relu_net import WeightState, observability_jacobian, observability_map

__all__ = [
    "InfeasibleStart",
    "Batch",
    "BatchSchedule",
    "TrainerState",
    "ConvergenceReport",
    "TrainingTrajectory",
    "assemble_H",
    "mhe_step",
    "train",
    "convergence_report",
    "gd_baseline",
    "adam_baseline",
    "regularized_mhe_step",
    "train_regularized",
]


class InfeasibleStart(ValueError):
    """The current estimate is not a member of the observable neighborhood."""


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    index_set: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class BatchSchedule:
    """Ordered mini-batches, reused periodically: step t uses batch (t-1) mod k."""

    batches: tuple[Batch, ...]

    @property
    def k(self) -> int:
        return len(self.batches)

    def batch_for_step(self, t: int) -> Batch:
        if t < 1:
            raise ValueError("steps are counted from 1")
        return self.batches[(t - 1) % self.k]

    @property
    def all_inputs(self) -> np.ndarray:
        return np.vstack([b.inputs for b in self.batches])

    @property
    def all_targets(self) -> np.ndarray:
        return np.concatenate([b.targets for b in self.batches])

    @classmethod
    def partition(cls, inputs, targets, k: int, *, allow_ragged: bool = False) -> "BatchSchedule":
        """Split a dataset into k contiguous non-overlapping mini-batches."""
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float).ravel()
        N = inputs.shape[0]
        if targets.size != N:
            raise ValueError(f"{N} inputs but {targets.size} targets")
        if k < 1 or k > N:
            raise ValueError(f"cannot split {N} samples into {k} batches")
        if not allow_ragged and N % k != 0:
            raise ValueError(f"{N} samples do not split evenly into {k} batches")
        bounds = [round(i * N / k) for i in range(k + 1)]
        batches = []
        for i in range(k):
            idx = np.arange(bounds[i], bounds[i + 1])
            batches.append(Batch(inputs=inputs[idx], targets=targets[idx], index_set=idx))
        return cls(batches=tuple(batches))


@dataclass(frozen=True)
class TrainerState:
    w_hat: WeightState
    t: int
    neigh: ObservableNeighborhood | None


def assemble_H(batch: Batch, neigh: ObservableNeighborhood) -> np.ndarray:
    """Batch sensitivity matrix: the anchor's Jacobian rows for this batch.

    All members of the neighborhood share the anchor's activation pattern,
    so this matrix linearizes the output map exactly for any pair of members.
    """
    return observability_jacobian(neigh.anchor, batch.inputs).DH


def mhe_step(state: TrainerState, batch: Batch) -> TrainerState:
    """One horizon step: exact least squares on the batch, then retraction.

    The minimum-norm correction lies in the row space of the sensitivity
    matrix, so the unobservable projection of the update is zero by
    construction; the retraction enforces neighborhood membership.
    """
    if state.neigh is None:
        raise ValueError("mhe_step needs an observable neighborhood")
    if not membership(state.neigh, state.w_hat):
        raise InfeasibleStart("current estimate left the observable neighborhood")
    H = assemble_H(batch, state.neigh)
    residual = batch.targets - observability_map(state.w_hat, batch.inputs)
    delta = pinv(H) @ residual
    candidate = state.w_hat.replace_w(state.w_hat.w + delta)
    new_w = retract(state.neigh, state.w_hat, candidate)
    return replace(state, w_hat=new_w, t=state.t + 1)


@dataclass(frozen=True)
class ConvergenceReport:
    """Computable quantities behind the per-step and asymptotic error bounds."""

    sigma: np.ndarray  # minimal nonzero singular value of each batch sensitivity
    mu: float  # max over batches of 2*sqrt(N1)/sigma
    Q: np.ndarray = field(repr=False)  # product of unobservable projectors, one period
    rho: float  # spectral radius of Q
    zeta: float  # empirical power-law constant: ||Q^l|| <= zeta * rho^l for l <= 64
    bound: float  # k*mu*zeta/(1-rho) * eps_bar
    per_step_obs_bound: np.ndarray  # 2*eps_bar*sqrt(N1)/sigma_t, per batch
    non_pe_dataset: bool
    eps_bar: float


def _batch_sensitivities(schedule: BatchSchedule, neigh: ObservableNeighborhood):
    out = []
    for batch in schedule.batches:
        H = assemble_H(batch, neigh)
        rd = numeric_rank(H)
        sigma = float(rd.singular_values[rd.rank - 1]) if rd.rank else 0.0
        P_o, P_obar = subspace_projectors(H)
        out.append((H, P_o, P_obar, sigma))
    return out


def _empirical_zeta(Q: np.ndarray, rho: float, max_power: int = 64) -> float:
    zeta = 1.0
    power = np.eye(Q.shape[0])
    for ell in range(1, max_power + 1):
        power = power @ Q
        norm = float(np.linalg.norm(power, 2))
        if norm == 0.0:
            break
        denom = rho**ell
        if denom < 1e-280:
            break
        zeta = max(zeta, norm / denom)
    return zeta


def convergence_report(
    schedule: BatchSchedule, neigh: ObservableNeighborhood, eps_bar: float
) -> ConvergenceReport:
    """Diagnostics for one schedule period, including the asymptotic bound."""
    sens = _batch_sensitivities(schedule, neigh)
    sigma = np.array([s for _, _, _, s in sens])
    sizes = np.array([b.size for b in schedule.batches], dtype=float)
    mu = float(np.max(2.0 * np.sqrt(sizes) / sigma))
    per_step = 2.0 * eps_bar * np.sqrt(sizes) / sigma

    dim = neigh.anchor.arch.state_dim
    stacked = np.vstack([H for H, _, _, _ in sens])
    non_pe = numeric_rank(stacked).rank < dim

    Q = np.eye(dim)
    for _, _, P_obar, _ in sens:
        Q = P_obar @ Q  # batch 1 applied first
    if non_pe:
        rho, zeta, bound = 1.0, float("nan"), float("inf")
    else:
        rho = float(np.max(np.abs(np.linalg.eigvals(Q))))
        if np.linalg.norm(Q, 2) < 1e-14:
            rho, zeta = 0.0, 1.0
        else:
            rho = max(rho, 1e-15)
            zeta = _empirical_zeta(Q, rho)
        bound = schedule.k * mu * zeta / (1.0 - rho) * eps_bar
    return ConvergenceReport(
        sigma=sigma,
        mu=mu,
        Q=Q,
        rho=rho,
        zeta=zeta,
        bound=bound,
        per_step_obs_bound=per_step,
        non_pe_dataset=non_pe,
        eps_bar=eps_bar,
    )


@dataclass
class TrainingTrajectory:
    """Per-step records of a training run (arrays indexed by step)."""

    step: np.ndarray
    epoch: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    estimation_error: np.ndarray
    obs_error: np.ndarray  # ||P_o,t (w_hat - w)||, NaN when the ideal state is unknown
    obs_bound: np.ndarray  # 2*eps_bar*sqrt(N1)/sigma_t, NaN when eps_bar is unknown
    final_state: TrainerState


def _mse(weights: WeightState, inputs, targets) -> float:
    pred = observability_map(weights, inputs)
    return float(np.mean((pred - targets) ** 2))


class _Recorder:
    def __init__(self, schedule, ideal, test_inputs, test_targets):
        self.schedule = schedule
        self.ideal = ideal
        self.test_inputs = test_inputs
        self.test_targets = test_targets
        self.rows: list[tuple] = []

    def record(self, t: int, w: WeightState, obs_error=float("nan"), obs_bound=float("nan")):
        epoch = (t - 1) // self.schedule.k + 1
        train = _mse(w, self.schedule.all_inputs, self.schedule.all_targets)
        test = (
            _mse(w, self.test_inputs, self.test_targets)
            if self.test_inputs is not None
            else float("nan")
        )
        est = (
            float(np.linalg.norm(w.w - self.ideal.w)) if self.ideal is not None else float("nan")
        )
        self.rows.append((t, epoch, train, test, est, obs_error, obs_bound))

    def trajectory(self, final_state: TrainerState) -> TrainingTrajectory:
        cols = list(zip(*self.rows)) if self.rows else [[]] * 7
        return TrainingTrajectory(
            step=np.array(cols[0], dtype=int),
            epoch=np.array(cols[1], dtype=int),
            train_loss=np.array(cols[2]),
            test_loss=np.array(cols[3]),
            estimation_error=np.array(cols[4]),
            obs_error=np.array(cols[5]),
            obs_bound=np.array(cols[6]),
            final_state=final_state,
        )


def train(
    schedule: BatchSchedule,
    neigh: ObservableNeighborhood,
    init: WeightState,
    epochs: int,
    *,
    ideal: WeightState | None = None,
    eps_bar: float | None = None,
    test_inputs=None,
    test_targets=None,
) -> tuple[TrainingTrajectory, ConvergenceReport]:
    """Run epochs * k horizon steps over the periodic schedule.

    Records full-train and test losses and, when the ideal state is known,
    the estimation error plus the observable-component error against its
    per-step bound.
    """
    report = convergence_report(schedule, neigh, eps_bar if eps_bar is not None else float("nan"))
    sens = _batch_sensitivities(schedule, neigh)
    state = TrainerState(w_hat=init, t=0, neigh=neigh)
    rec = _Recorder(schedule, ideal, test_inputs, test_targets)
    for t in range(1, epochs * schedule.k + 1):
        batch_idx = (t - 1) % schedule.k
        state = mhe_step(state, schedule.batches[batch_idx])
        obs_error = float("nan")
        if ideal is not None:
            P_o = sens[batch_idx][1]
            obs_error = float(np.linalg.norm(P_o @ (state.w_hat.w - ideal.w)))
        rec.record(t, state.w_hat, obs_error, report.per_step_obs_bound[batch_idx])
    return rec.trajectory(state), report


def _loss_gradient(weights: WeightState, inputs, targets) -> tuple[float, np.ndarray]:
    """Mean-squared loss and its gradient, with subgradient 0 at the ReLU kink."""
    jac = observability_jacobian(weights, inputs, boundary_tol=None)
    residual = observability_map(weights, inputs) - targets
    n = inputs.shape[0]
    return float(np.mean(residual**2)), (2.0 / n) * (jac.DH.T @ residual)


def gd_baseline(
    schedule: BatchSchedule,
    init: WeightState,
    learning_rate: float,
    epochs: int,
    *,
    ideal: WeightState | None = None,
    test_inputs=None,
    test_targets=None,
) -> TrainingTrajectory:
    """Mini-batch gradient descent on the mean-squared loss.

    Each step is ``learning_rate / L_b`` times the batch gradient, where
    L_b = 2 ||J_b(w)||_2^2 / N_b is the smoothness of the batch loss at the
    current weights, so ``learning_rate`` is a fraction of the stable step
    whatever the scale of the inputs.  A batch with L_b = 0 takes no step.
    """
    w = init
    rec = _Recorder(schedule, ideal, test_inputs, test_targets)
    for t in range(1, epochs * schedule.k + 1):
        batch = schedule.batch_for_step(t)
        J = observability_jacobian(w, batch.inputs, boundary_tol=None).DH
        L = 2.0 * np.linalg.norm(J, 2) ** 2 / batch.size
        if L > 0:
            grad = (2.0 / batch.size) * (J.T @ (observability_map(w, batch.inputs) - batch.targets))
            w = w.replace_w(w.w - learning_rate / L * grad)
        rec.record(t, w)
    return rec.trajectory(TrainerState(w_hat=w, t=epochs * schedule.k, neigh=None))


def adam_baseline(
    schedule: BatchSchedule,
    init: WeightState,
    learning_rate: float = 0.001,
    betas: tuple[float, float] = (0.9, 0.999),
    epochs: int = 150,
    *,
    eps: float = 1e-8,
    ideal: WeightState | None = None,
    test_inputs=None,
    test_targets=None,
) -> TrainingTrajectory:
    """Standard Adam moment recursion on the mean-squared loss."""
    b1, b2 = betas
    w = init
    m_acc = np.zeros_like(w.w)
    v_acc = np.zeros_like(w.w)
    rec = _Recorder(schedule, ideal, test_inputs, test_targets)
    for t in range(1, epochs * schedule.k + 1):
        batch = schedule.batch_for_step(t)
        _, grad = _loss_gradient(w, batch.inputs, batch.targets)
        m_acc = b1 * m_acc + (1 - b1) * grad
        v_acc = b2 * v_acc + (1 - b2) * grad**2
        m_hat = m_acc / (1 - b1**t)
        v_hat = v_acc / (1 - b2**t)
        w = w.replace_w(w.w - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        rec.record(t, w)
    return rec.trajectory(TrainerState(w_hat=w, t=epochs * schedule.k, neigh=None))


def regularized_mhe_step(
    state: TrainerState, batch: Batch, weight_lambda: float = 1e-4
) -> TrainerState:
    """Damped Gauss-Newton step on lambda*||residual||^2 + ||w - w_prev||^2.

    Needs no observability machinery, so it applies to any architecture,
    including the general two-layer one.  The normal equations are solved in
    residual space (batch size is far below the state dimension here).
    """
    jac = observability_jacobian(state.w_hat, batch.inputs, boundary_tol=None)
    residual = observability_map(state.w_hat, batch.inputs) - batch.targets
    J = jac.DH
    lam = float(weight_lambda)
    if lam == 0.0:
        delta = np.zeros_like(state.w_hat.w)
    else:
        gram = lam * (J @ J.T) + np.eye(batch.size)
        delta = -lam * (J.T @ np.linalg.solve(gram, residual))
    return replace(state, w_hat=state.w_hat.replace_w(state.w_hat.w + delta), t=state.t + 1)


def train_regularized(
    schedule: BatchSchedule,
    init: WeightState,
    epochs: int,
    weight_lambda: float = 1e-4,
    *,
    ideal: WeightState | None = None,
    test_inputs=None,
    test_targets=None,
) -> TrainingTrajectory:
    """Run the regularization-based variant over the periodic schedule."""
    state = TrainerState(w_hat=init, t=0, neigh=None)
    rec = _Recorder(schedule, ideal, test_inputs, test_targets)
    for t in range(1, epochs * schedule.k + 1):
        state = regularized_mhe_step(state, schedule.batch_for_step(t), weight_lambda)
        rec.record(t, state.w_hat)
    return rec.trajectory(state)
