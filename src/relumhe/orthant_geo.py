"""Orthant and sign-vector geometry of row spaces and affine subspaces.

Everything in this module reduces to one question: which open orthants of
R^n does a subspace (or a shifted copy of one) pass through?  The answer
is computed combinatorially:

1. enumerate the elementary vectors of the subspace (nonzero members with
   inclusion-minimal support), one per hyperplane of the induced matroid;
2. close their signed patterns under composition (zero entries of one
   pattern filled from another), tracking an explicit witness vector for
   every pattern produced;
3. keep the zero-free patterns.  These are exactly the sign vectors of the
   open orthants the subspace intersects, each certified by a witness.

An affine subspace rowspace(W) + b is homogenized once, into the row space
of [W 0; b 1], and the patterns whose extra coordinate is positive are kept.
In that space the affine cones are linear ones, so spreading vectors inside
them is scale-free; dividing a row set by its last coordinates afterwards
preserves rank (a diagonal rescaling).

The enumeration runs once per weight state, inside the local-observability
certificate (the indicator matrix of the sign matrix must have full column
rank).  The certificate carries the cone geometry, from which the input
designers draw full-rank vector sets inside the orthant cones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .numlin import as_matrix, as_vector, default_rank_rtol, numeric_rank

__all__ = [
    "ZeroColumn",
    "RankDeficientW",
    "EmptyIntersection",
    "ElementaryVectorSet",
    "SignMatrix",
    "ObservabilityCertificate",
    "elementary_vectors",
    "sign_matrix",
    "observability_certificate",
    "cone_basis",
]

# Keeps every returned cone vector strictly off the orthant boundary.
INTERIOR_MARGIN = 1e-6


class ZeroColumn(ValueError):
    """The queried matrix has a zero column, so no open orthant is reachable there."""


class RankDeficientW(ValueError):
    """The weight matrix is not full row rank."""


class EmptyIntersection(ValueError):
    """The requested orthant does not meet the subspace."""


@dataclass(frozen=True)
class ElementaryVectorSet:
    """Elementary vectors of a row space, one representative per sign pair.

    Each vector is scaled so its first nonzero entry equals +1; vectors are
    ordered lexicographically by support.
    """

    vectors: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def supports(self) -> list[tuple[int, ...]]:
        return [tuple(np.flatnonzero(v)) for v in self.vectors]


@dataclass(frozen=True)
class SignMatrix:
    """Sign vectors of all open orthants intersected by a (possibly affine) subspace.

    ``rows[i]`` is a +/-1 vector and ``witnesses[i]`` an explicit subspace
    member realizing exactly those signs.
    """

    rows: np.ndarray = field(repr=False)
    witnesses: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def index_of(self, s) -> int:
        s = np.sign(np.asarray(s, dtype=float)).astype(np.int8)
        hits = np.flatnonzero((self.rows == s).all(axis=1))
        if hits.size == 0:
            raise KeyError(f"sign vector {s.tolist()} not present")
        return int(hits[0])

    def __contains__(self, s) -> bool:
        try:
            self.index_of(s)
        except KeyError:
            return False
        return True


@dataclass(frozen=True)
class ObservabilityCertificate:
    """The local-observability decision and the cone geometry it was read from.

    ``observable`` holds when the activation indicators of the intersected
    orthants have full column rank (``rank`` is their rank).  The geometry
    is kept for the input designers: the weights ``W`` and ``b``, an
    orthonormal ``basis`` (as rows) of the space the cones are built in,
    namely rowspace(W) or, with a bias, the row space of [W 0; b 1], and per
    tope its ``signs`` and ``witnesses`` in that space.  ``sign_matrix``
    holds the same topes in R^n, with the homogenizing coordinate divided out.
    """

    observable: bool
    rank: int
    sign_matrix: SignMatrix
    W: np.ndarray = field(repr=False)
    b: np.ndarray | None = field(repr=False)
    basis: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    witnesses: np.ndarray = field(repr=False)

    def _to_preactivations(self, X: np.ndarray) -> np.ndarray:
        return X if self.b is None else X[..., :-1] / X[..., -1:]

    def interior_witness(self, i: int) -> np.ndarray:
        """Tope i's witness pushed toward the interior of its cone."""
        return _improve_margin(self.basis.T @ self.basis, self.witnesses[i], self.signs[i])

    def cone_rows(self, i: int, witness: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """rank(basis) independent pre-activation vectors inside tope i's cone,
        spread from an interior ``witness`` (see :func:`_cone_rows`)."""
        return self._to_preactivations(_cone_rows(self.basis, witness, self.signs[i], rng=rng))

    def cone_point(self, i: int, witness: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One pre-activation vector inside tope i's cone, spread from ``witness``."""
        return self._to_preactivations(_cone_point(self.basis, witness, self.signs[i], rng))


def _row_basis(V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space of V (rows of the basis matrix)."""
    _, s, vt = np.linalg.svd(V, full_matrices=False)
    smax = s[0] if s.size else 0.0
    tol = default_rank_rtol(V.shape) * smax
    r = int(np.count_nonzero(s > tol))
    return vt[:r]


def _snap_zeros(v: np.ndarray, rel: float = 1e-9) -> np.ndarray:
    out = v.copy()
    out[np.abs(out) <= rel * np.abs(out).max(initial=0.0)] = 0.0
    return out


def _elementary_from_basis(B: np.ndarray) -> list[np.ndarray]:
    """All elementary vectors of the row space of B, via hyperplane enumeration.

    For every (r-1)-subset of coordinates whose columns are independent there
    is a unique (up to scale) subspace vector vanishing on the subset's span;
    its support is the complement of a matroid hyperplane, hence minimal.
    """
    r, n = B.shape
    if r == 0:
        return []
    n_subsets = 1
    for i in range(r - 1):
        n_subsets = n_subsets * (n - i) // (i + 1)
    if n_subsets > 200_000:
        raise ValueError(f"elementary-vector enumeration over {n_subsets} subsets is out of scope")

    by_support: dict[tuple[int, ...], np.ndarray] = {}
    for J in itertools.combinations(range(n), r - 1):
        M = B[:, J]
        if r == 1:
            x = np.ones(1)
        else:
            u, s, _ = np.linalg.svd(M)
            if s.size < r - 1 or s[r - 2] <= default_rank_rtol(M.shape) * max(s[0], 1e-300):
                continue  # columns dependent: not a hyperplane frame
            x = u[:, r - 1]
        v = _snap_zeros(x @ B)
        support = tuple(np.flatnonzero(v))
        if not support or support in by_support:
            continue
        by_support[support] = v / v[support[0]] + 0.0  # +0.0 clears negative zeros

    # Guard against numerically degenerate subsets producing non-minimal supports.
    supports = sorted(by_support)
    keep = []
    for s in supports:
        sset = set(s)
        if not any(set(t) < sset for t in supports if t != s):
            keep.append(s)
    return [by_support[s] for s in keep]


def elementary_vectors(V) -> ElementaryVectorSet:
    """Elementary vectors (minimal-support members) of the row space of ``V``."""
    M = as_matrix(V)
    if not np.any(M):
        raise ValueError("V must be nonzero")
    vecs = _elementary_from_basis(_row_basis(M))
    return ElementaryVectorSet(np.array(vecs) if vecs else np.zeros((0, M.shape[1])))


def _compose_closure(
    cocircuits: list[tuple[np.ndarray, np.ndarray]],
) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
    """Close signed patterns under composition, carrying a witness for each.

    The witness of X o Y is w_X + eps * w_Y with eps small enough that no
    sign of w_X flips; zero coordinates stay exactly zero because both
    parents vanish there.
    """
    seen: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for s, w in cocircuits:
        seen.setdefault(s.tobytes(), (s, w))
    frontier = list(seen.values())
    while frontier:
        fresh: list[tuple[np.ndarray, np.ndarray]] = []
        snapshot = list(seen.values())
        for sx, wx in frontier:
            for sy, wy in snapshot:
                for sa, wa, sb, wb in ((sx, wx, sy, wy), (sy, wy, sx, wx)):
                    sz = np.where(sa != 0, sa, sb)
                    key = sz.tobytes()
                    if key in seen:
                        continue
                    support = sa != 0
                    eps = 0.4 * np.abs(wa[support]).min() / (np.abs(wb).max() + 1e-300)
                    wz = wa + eps * wb
                    if not np.array_equal(np.sign(wz).astype(np.int8), sz):
                        continue  # numerically too thin; another route will produce it
                    seen[key] = (sz, wz)
                    fresh.append((sz, wz))
        frontier = fresh
    return seen


def _tope_enumeration(B: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(sign vector, witness) for every open orthant met by the row space of B."""
    r, n = B.shape
    if n > 20:
        raise ValueError(f"orthant enumeration in R^{n} is out of scope (n <= 20)")
    if r == n:
        # Full-dimensional row space: every orthant is met, by its own sign vector.
        return [
            (np.array(s, dtype=np.int8), np.array(s, dtype=float))
            for s in itertools.product((-1, 1), repeat=n)
        ]
    evs = _elementary_from_basis(B)
    cocircuits: list[tuple[np.ndarray, np.ndarray]] = []
    for v in evs:
        s = np.sign(v).astype(np.int8)
        cocircuits.append((s, v))
        cocircuits.append((-s, -v))
    closure = _compose_closure(cocircuits)
    topes = [
        (s, w) for s, w in closure.values() if np.all(s != 0)
    ]
    topes.sort(key=lambda item: tuple(item[0]))
    return topes


def _check_columns(M: np.ndarray) -> None:
    norms = np.linalg.norm(M, axis=0)
    bad = np.flatnonzero(norms <= 1e-12 * norms.max(initial=0.0))
    if bad.size:
        raise ZeroColumn(f"columns {bad.tolist()} are zero")


def _homogenize(W1: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear matrix whose row space encodes the affine subspace rowspace(W1) + b."""
    m, n = W1.shape
    top = np.hstack([W1, np.zeros((m, 1))])
    bottom = np.hstack([b.reshape(1, -1), np.ones((1, 1))])
    return np.vstack([top, bottom])


def _certificate(W, b) -> ObservabilityCertificate:
    """The certificate without the full-row-rank check; enumerates the topes
    of rowspace(W), or of rowspace(W) + b, once."""
    M = as_matrix(W)
    n = M.shape[1]
    if b is None:
        bv = None
        _check_columns(M)
        basis = _row_basis(M)
    else:
        bv = as_vector(b)
        if bv.size != n:
            raise ValueError(f"bias has length {bv.size}, expected {n}")
        _check_columns(np.vstack([M, bv]))
        basis = _row_basis(_homogenize(M, bv))
    topes = [(s, w) for s, w in _tope_enumeration(basis) if bv is None or s[-1] > 0]
    dim = basis.shape[1]
    signs = np.array([s for s, _ in topes], dtype=np.int8).reshape(-1, dim)
    witnesses = np.array([w for _, w in topes], dtype=float).reshape(-1, dim)
    if bv is None:
        S = SignMatrix(signs, witnesses)
    else:
        S = SignMatrix(signs[:, :-1], witnesses[:, :-1] / witnesses[:, -1:])
    rank = numeric_rank((S.rows > 0).astype(float)).rank if len(S) else 0
    return ObservabilityCertificate(rank == n, rank, S, M, bv, basis, signs, witnesses)


def sign_matrix(W, b=None) -> SignMatrix:
    """Sign vectors of all open orthants intersected by rowspace(W), or by
    rowspace(W) + b when a bias vector is supplied."""
    return _certificate(W, b).sign_matrix


def observability_certificate(W, b=None) -> ObservabilityCertificate:
    """Decide local observability of a weight configuration from its sign matrix.

    The configuration passes when the activation indicators of the
    intersected orthants span all n hidden nodes, i.e. the 0/1 matrix
    chi(sign_matrix) has full column rank.
    """
    M = as_matrix(W)
    stacked = M if b is None else np.vstack([M, as_vector(b)])
    if numeric_rank(stacked).rank < stacked.shape[0]:
        raise RankDeficientW(
            f"weight matrix of shape {stacked.shape} must have full row rank"
        )
    return _certificate(M, b)


def _margin(v: np.ndarray, s: np.ndarray) -> float:
    return float((s * v).min())


def _improve_margin(
    P: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    target: float = 0.2,
    iters: int = 300,
) -> np.ndarray:
    """Push an orthant witness toward the cone interior by coordinate ascent.

    Repeatedly increases the worst signed coordinate along the subspace
    direction obtained by projecting that coordinate axis.  Cones are closed
    under positive scaling, so the point is renormalized as it moves.
    """
    best = v / np.abs(v).max()
    for _ in range(iters):
        g = s * best
        worst = int(np.argmin(g))
        scale = np.abs(best).max()
        if g[worst] >= target * scale:
            break
        d = P[:, worst] * s[worst]
        if d[worst] * s[worst] <= 1e-12:
            break  # this coordinate cannot be improved inside the subspace
        t = (target * scale - g[worst]) / (d[worst] * s[worst])
        improved = False
        current = _margin(best, s)
        while t > 1e-14 * scale:
            cand = best + t * d
            if _margin(cand, s) > current + 1e-12 * scale:
                best = cand / np.abs(cand).max()
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return best


def _max_cone_step(v: np.ndarray, d: np.ndarray, s: np.ndarray) -> float:
    """Largest step along ``d`` from ``v`` that keeps every signed coordinate
    above 35% of the current worst margin (capped: cones are unbounded).

    Preserving a fraction of the margin, rather than stepping to the
    interior-margin floor, keeps designed pre-activations comfortably away
    from activation boundaries, which downstream neighborhoods rely on.
    """
    sv, sd = s * v, s * d
    cap = 2.0 * float(np.abs(v).max())
    floor = max(0.35 * sv.min(), INTERIOR_MARGIN * np.abs(v).max())
    shrinking = sd < 0
    if not np.any(shrinking):
        return cap
    t = float(np.min((sv[shrinking] - floor) / -sd[shrinking]))
    return min(max(t, 0.0), cap)


def _cone_rows(
    directions: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    *,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Full-rank vector set spread through the orthant cone with signs ``s``.

    Each row moves the witness ``v``, already pushed toward the cone interior
    by :func:`_improve_margin` (designs reuse the same witnesses many times),
    along a subspace direction by a fraction of the largest step that keeps
    every signed coordinate above the interior margin.  With an ``rng`` the
    directions are random subspace combinations, which is how distinct
    excitation plans are drawn; without one, the orthonormal basis
    directions, each at 70% of its step, give a deterministic set.
    """
    r = directions.shape[0]
    for attempt in range(8):
        shrink = 0.6**attempt
        rows = []
        for i in range(r):
            if rng is None:
                d, frac = directions[i], 0.7
            else:
                d, frac = rng.standard_normal(r) @ directions, rng.uniform(0.25, 0.95)
            scale = np.abs(d).max()
            if scale <= 0:
                d, scale = directions[i], np.abs(directions[i]).max()
            d = d / scale
            rows.append(v + frac * shrink * _max_cone_step(v, d, s) * d)
        C = np.array(rows)
        sign_ok = np.all(np.sign(C) == s, axis=None)
        margin_ok = np.all(
            np.abs(C).min(axis=1) >= INTERIOR_MARGIN * np.abs(C).max(axis=1)
        )
        if sign_ok and margin_ok and numeric_rank(C).rank == r:
            return C
    raise RuntimeError("could not build a full-rank vector set inside the orthant")


def _cone_point(
    directions: np.ndarray, v: np.ndarray, s: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One interior point of the orthant cone, spread away from the
    margin-improved witness ``v``."""
    for _ in range(8):
        d = rng.standard_normal(directions.shape[0]) @ directions
        scale = np.abs(d).max()
        if scale <= 0:
            continue
        d = d / scale
        cand = v + rng.uniform(0.0, 0.9) * _max_cone_step(v, d, s) * d
        if np.array_equal(np.sign(cand), s) and np.abs(cand).min() >= INTERIOR_MARGIN * np.abs(
            cand
        ).max():
            return cand
    return v


def cone_basis(W, s, b=None, rng: np.random.Generator | None = None) -> np.ndarray:
    """rank(W) linearly independent vectors strictly inside the orthant ``s``.

    For a bias vector ``b`` the vectors are drawn from the affine subspace
    rowspace(W) + b and the returned set has rank(W) + 1 rows; the
    construction works in the homogenized space, where the affine cone is a
    linear one, and divides out the extra coordinate afterwards (which
    preserves rank).  Raises :class:`EmptyIntersection` when the orthant is
    not met.
    """
    M = as_matrix(W)
    s = np.sign(np.asarray(s, dtype=float)).astype(np.int8)
    if s.size != M.shape[1] or np.any(s == 0):
        raise ValueError("s must be a zero-free sign vector matching the column count")
    cert = _certificate(M, b)
    try:
        idx = cert.sign_matrix.index_of(s)
    except KeyError:
        raise EmptyIntersection(f"orthant {s.tolist()} does not meet the subspace") from None
    return cert.cone_rows(idx, cert.interior_witness(idx), rng)
