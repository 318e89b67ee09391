"""Constructive design of persistently exciting input sequences.

One construction serves both certified architectures.  It starts from a
weight state's observability certificate, which carries the cone geometry:
the orthant cones met by rowspace(W) for the fixed-output architecture, or
by the affine subspace rowspace(W1) + b for the bias architecture, built in
its homogenized row space.  The designer picks n intersected orthants whose
activation indicators are linearly independent, takes a full-rank set of
vectors inside each orthant cone (m vectors, or m+1 in the affine case),
and maps those target pre-activations back through the pseudoinverse of
the first-layer weights, subtracting the bias shift b W1^+ in the affine
case.  The resulting input sequence makes the output-sequence Jacobian full
column rank, which is re-verified numerically before a plan is returned.
:func:`design_pe_input` and :func:`design_pe_input_bias` are the two entry
points of that construction.

:func:`design_pe_batches` draws a sequence of well-conditioned mini-batches
for fixed-output weights from the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numlin import as_matrix, as_vector, numeric_rank, pinv, subspace_projectors
from .orthant_geo import (
    INTERIOR_MARGIN,
    ObservabilityCertificate,
    SignMatrix,
    observability_certificate,
)
from .relu_net import Architecture, WeightState, observability_jacobian

__all__ = [
    "CertificateFailed",
    "ConstructionFailed",
    "ExcitationPlan",
    "PEVerification",
    "design_pe_input",
    "design_pe_input_bias",
    "verify_pe",
]


class CertificateFailed(ValueError):
    """The weight matrix does not satisfy the observability certificate."""


class ConstructionFailed(RuntimeError):
    """Internal assertion: a designed plan failed its verification checks."""


@dataclass(frozen=True)
class ExcitationPlan:
    """A designed input sequence together with its construction data.

    ``U`` stacks the input blocks; ``C`` holds the matching target cone
    vectors (the pre-activations the inputs produce), ``T`` the nonsingular
    binary matrix of chosen orthant indicators.  ``certified`` is set only
    after the Jacobian rank at the design weights has been re-verified.
    """

    U: np.ndarray = field(repr=False)
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    C: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    certified: bool
    sigma_min: float


@dataclass(frozen=True)
class PEVerification:
    pe: bool
    rank: int
    sigma_min: float


def verify_pe(U, weights: WeightState) -> PEVerification:
    """Check the rank condition of the output-sequence Jacobian under ``U``."""
    jac = observability_jacobian(weights, U)
    rd = numeric_rank(jac.DH)
    sigma = float(rd.singular_values[rd.rank - 1]) if rd.rank else 0.0
    return PEVerification(pe=rd.rank == weights.arch.state_dim, rank=rd.rank, sigma_min=sigma)


def _select_indicator_rows(S: SignMatrix, n: int, priority: np.ndarray) -> list[int]:
    """Greedily pick n sign rows with linearly independent activation indicators.

    Rows are scanned in decreasing ``priority`` (the interior margins of the
    orthant cones), fattest cone first, which keeps the designed target
    vectors away from sliver cones whose rows would be nearly dependent;
    ties keep the row order of ``S``, which is lexicographic.
    """
    order = np.argsort(-np.asarray(priority), kind="stable")
    chosen: list[int] = []
    stack = np.zeros((0, n))
    for i in order:
        cand = np.vstack([stack, (S.rows[i] > 0).astype(float)])
        if numeric_rank(cand).rank == len(chosen) + 1:
            chosen.append(int(i))
            stack = cand
            if len(chosen) == n:
                return chosen
    raise ConstructionFailed(
        f"only {len(chosen)} independent indicator rows found, need {n}"
    )


def _relative_margins(witnesses, signs) -> np.ndarray:
    return np.array(
        [
            float((np.asarray(s, dtype=float) * v).min() / np.abs(v).max())
            for s, v in zip(signs, witnesses)
        ]
    )


def _require_observable(cert: ObservabilityCertificate) -> None:
    if not cert.observable:
        raise CertificateFailed(
            f"indicator rank {cert.rank} < n={cert.W.shape[1]}: no persistently "
            "exciting input exists under this certificate"
        )


def _plan_weights(cert: ObservabilityCertificate) -> WeightState:
    arch = (Architecture.fixed_output if cert.b is None else Architecture.bias)(*cert.W.shape)
    return WeightState.from_parts(arch, cert.W, b=cert.b)


def _check_plan(U, C, blocks, cones, weights: WeightState, cert: ObservabilityCertificate) -> float:
    """Verify a drawn plan; returns the smallest singular value of its Jacobian.

    A bias-architecture block has m+1 rows in R^m, so it is checked in its
    augmented form [U_k, 1] instead: nonsingular, reproducing its targets
    through [W1; b], and satisfying the affine-membership identity
    C_k alpha = 1.
    """
    scale = np.abs(C).max()
    pre = (
        U @ weights.W + weights.b if weights.arch.has_bias else U @ weights.W
    )
    if np.abs(pre - C).max() > 1e-9 * max(scale, 1.0):
        raise ConstructionFailed("designed inputs do not reproduce the target cone vectors")
    row_max = np.abs(pre).max(axis=1)
    if np.any(np.abs(pre).min(axis=1) < 0.5 * INTERIOR_MARGIN * row_max):
        raise ConstructionFailed("designed pre-activations are too close to an activation boundary")
    if cert.b is None:
        for blk in blocks:
            if numeric_rank(blk).rank < blk.shape[0]:
                raise ConstructionFailed("an input block is singular")
    check = verify_pe(U, weights)
    if not check.pe:
        raise ConstructionFailed(
            f"Jacobian rank {check.rank} < state dimension {weights.arch.state_dim}"
        )
    if cert.b is not None:
        W1, b = cert.W, cert.b
        stacked = np.vstack([W1, b])
        alpha = pinv((b - b @ pinv(W1) @ W1).reshape(1, -1))
        for blk, C_k in zip(blocks, cones):
            aug = np.hstack([blk, np.ones((blk.shape[0], 1))])
            if numeric_rank(aug).rank < aug.shape[0]:
                raise ConstructionFailed("augmented input block is singular")
            if np.abs(aug @ stacked - C_k).max() > 1e-9 * max(np.abs(C_k).max(), 1.0):
                raise ConstructionFailed("augmented block does not reproduce the cone targets")
            if np.abs(C_k @ alpha - 1.0).max() > 1e-9:
                raise ConstructionFailed("cone vectors violate the affine-membership identity")
    return check.sigma_min


def _balance_rows(
    U: np.ndarray,
    weights: WeightState,
    *,
    target_ratio: float = 0.25,
    max_boost: float = 1e4,
    iters: int = 3000,
) -> np.ndarray:
    """Row scalings that leave no weight direction weakly excited.

    Scaling an input row keeps its pre-activations inside the same open
    orthant (cones are closed under positive scaling), so certification is
    unaffected.  The loop repeatedly boosts the row that responds most to the
    currently weakest right-singular direction of the Jacobian, which lifts
    the smallest singular value without inflating the rest of the plan.
    """
    DH = observability_jacobian(weights, U).DH
    alpha = np.ones(U.shape[0])
    target = target_ratio * np.median(np.linalg.norm(DH, axis=1))
    for _ in range(iters):
        _, s, vt = np.linalg.svd(alpha[:, None] * DH, full_matrices=False)
        if s[-1] >= target:
            break
        response = np.abs(DH @ vt[-1])
        order = np.argsort(-response * alpha)
        for j in order:
            if alpha[j] < max_boost and response[j] > 1e-12:
                alpha[j] = min(alpha[j] * 1.6, max_boost)
                break
        else:
            break  # every useful row is capped
    return alpha


def _plan_length(n_samples: int | None, N_min: int) -> int:
    N = N_min if n_samples is None else int(n_samples)
    if N < N_min:
        raise ValueError(f"n_samples={N} is below the minimal plan length {N_min}")
    return N


def _design(cert: ObservabilityCertificate, N: int, rng: np.random.Generator | None) -> ExcitationPlan:
    """The draw/verify loop of both designers, on the certificate's cones.

    A block has as many rows as the certificate's basis: m for rowspace(W),
    m+1 for the homogenized affine subspace.  The first n blocks come from
    the chosen orthants, fattest cone first; longer plans append blocks from
    orthants drawn at random, which keeps the rank certificate (rows are
    only added) while spreading the excitation.
    """
    _require_observable(cert)
    S = cert.sign_matrix
    n = S.rows.shape[1]
    r = cert.basis.shape[0]
    interior = [cert.interior_witness(i) for i in range(len(S))]
    selected = _select_indicator_rows(S, n, _relative_margins(interior, cert.signs))
    T = (S.rows[selected] > 0).astype(float)
    Wp = pinv(cert.W)
    shift = 0.0 if cert.b is None else cert.b @ Wp

    if N > r * n and rng is None:
        rng = np.random.default_rng(0)
    weights = _plan_weights(cert)
    # A numerically thin cone draw can fail verification; there are
    # infinitely many admissible target sets, so redraw rather than give up.
    last_error: Exception | None = None
    for attempt in range(8):
        draw = rng if rng is not None else (None if attempt == 0 else np.random.default_rng(attempt))
        blocks: list[np.ndarray] = []
        cones: list[np.ndarray] = []
        while len(blocks) * r < N:
            i = len(blocks)
            idx = selected[i] if i < n else int(draw.integers(len(S)))
            C_k = cert.cone_rows(idx, interior[idx], None if i < n and draw is None else draw)
            cones.append(C_k)
            blocks.append(C_k @ Wp - shift)
        U = np.vstack(blocks)[:N]
        C = np.vstack(cones)[:N]
        kept = blocks[: N // r]
        try:
            sigma = _check_plan(U, C, kept, cones, weights, cert)
        except ConstructionFailed as exc:
            last_error = exc
            continue
        return ExcitationPlan(U=U, blocks=tuple(kept), C=C, T=T, certified=True, sigma_min=sigma)
    raise last_error


def design_pe_input(
    W,
    *,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> ExcitationPlan:
    """Design a persistently exciting input sequence for fixed-output weights.

    The minimal plan has m*n rows built from n orthant cones with linearly
    independent activation indicators; ``n_samples > m*n`` appends further
    blocks.
    """
    M = as_matrix(W)
    m, n = M.shape
    if m > n:
        raise ValueError(
            f"m={m} > n={n}: wide weight matrices carry redundant inputs; "
            "reduce to an equivalent network with m <= n first"
        )
    N = _plan_length(n_samples, m * n)
    return _design(observability_certificate(M), N, rng)


def design_pe_input_bias(
    W1, b, *, n_samples: int | None = None, rng: np.random.Generator | None = None
) -> ExcitationPlan:
    """Design a persistently exciting input sequence for the bias architecture.

    Targets are drawn from the affine subspace rowspace(W1) + b, whose
    certified orthant cones each contain m+1 independent vectors; the input
    compensates the bias shift so the realized pre-activations equal the
    targets exactly.  The minimal plan has (m+1)*n rows.
    """
    M1 = as_matrix(W1)
    bv = as_vector(b)
    m, n = M1.shape
    if bv.size != n:
        raise ValueError(f"bias has length {bv.size}, expected {n}")
    N = _plan_length(n_samples, (m + 1) * n)
    # The certificate raises RankDeficientW unless m+1 <= n holds.
    return _design(observability_certificate(M1, bv), N, rng)


def _schedule_contraction(U: np.ndarray, weights: WeightState, k: int) -> float:
    """Spectral radius of the product of per-batch null-space projectors."""
    N = U.shape[0]
    dim = weights.arch.state_dim
    Q = np.eye(dim)
    bounds = [round(i * N / k) for i in range(k + 1)]
    for b in range(k):
        H = observability_jacobian(weights, U[bounds[b] : bounds[b + 1]]).DH
        _, P_null = subspace_projectors(H)
        Q = P_null @ Q
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def design_pe_batches(
    cert: ObservabilityCertificate,
    k: int,
    batch_size: int,
    rng: np.random.Generator,
    *,
    rho_max: float | None = None,
    attempts: int = 60,
) -> tuple[np.ndarray, PEVerification, float]:
    """Input sequence of k well-conditioned mini-batches, jointly exciting.

    ``cert`` is the observability certificate of fixed-output weights; the
    batches are drawn from the cone geometry it carries.  Each batch visits
    distinct orthants in a fresh random permutation order, one interior cone
    point per visit, so no batch concentrates near-parallel rows.  With
    ``rho_max`` the draw is retried until the product of the per-batch
    null-space projectors has a small enough spectral radius; the best draw
    is kept if the target is never met.  Joint excitation (stacked Jacobian
    of full column rank) is always verified.

    The rows of each batch of the kept draw are then rescaled by
    :func:`_balance_rows`, so no weight direction is weakly excited within a
    batch.  Rescaling keeps every pre-activation in its orthant and every
    batch's row space, so the certificate and the spectral radius are
    unaffected.  Returns the rescaled inputs, their joint verification, and
    the smallest of the batches' minimal nonzero Jacobian singular values.
    """
    _require_observable(cert)
    if cert.b is not None:
        raise ValueError(
            "mini-batch designs need fixed-output weights: rescaling a row would "
            "move biased pre-activations across orthants"
        )
    m, n = cert.W.shape
    if k * batch_size < m * n:
        raise ValueError(
            f"{k} batches of {batch_size} rows cannot excite {m * n} weight directions"
        )
    S = cert.sign_matrix
    interior = [cert.interior_witness(i) for i in range(len(S))]
    Wp = pinv(cert.W)
    weights = _plan_weights(cert)

    best: tuple[float, np.ndarray] | None = None
    for _ in range(attempts):
        rows = []
        for _ in range(k):
            order: list[int] = []
            while len(order) < batch_size:
                order.extend(rng.permutation(len(S)).tolist())
            rows.extend(
                cert.cone_point(idx, interior[idx], rng) @ Wp for idx in order[:batch_size]
            )
        U = np.array(rows)
        if not verify_pe(U, weights).pe:
            continue
        rho = 0.0 if rho_max is None else _schedule_contraction(U, weights, k)
        if best is None or rho < best[0]:
            best = (rho, U)
        if rho_max is None or rho <= rho_max:
            break
    if best is None:
        raise ConstructionFailed("could not assemble a jointly exciting batch sequence")

    U = best[1]
    sigma_min = np.inf
    for j in range(k):
        batch = slice(j * batch_size, (j + 1) * batch_size)
        U[batch] *= _balance_rows(U[batch], weights)[:, None]
        sigma_min = min(sigma_min, verify_pe(U[batch], weights).sigma_min)
    return U, verify_pe(U, weights), sigma_min
