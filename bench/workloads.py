"""The benchmark's workloads: inputs made from a seed, one call per op, and
checks of every output against computations made apart from the package.

Each workload is a round of ops; a run repeats whole rounds.  An op has
``call()``, the timed call into the package; ``check()``, the untimed
independent check, which raises :class:`CheckFailed`; and ``digest()``,
hashes of its outputs, which a traced and an untraced call of the same op
must reproduce exactly.

The package is reached only through its public entry points, looked up on
the ``relumhe`` modules at call time so the traced run's wrappers apply.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import relumhe
import relumhe.experiment_cli as cli
from wine_csv import WINE_NOISE


class CheckFailed(AssertionError):
    """An op's output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def full_column_rank(J: np.ndarray) -> bool:
    return int(np.linalg.matrix_rank(J)) == J.shape[1]


def relu_jacobian(U: np.ndarray, W: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Jacobian of the stacked outputs sum_j relu(u W + b)_j in (W, b), built here.

    Column order does not matter for a rank test: one block of m columns per
    hidden node, then one bias column per node.
    """
    pre = U @ W + (0.0 if b is None else b)
    ind = (pre > 0).astype(float)
    blocks = [ind[:, j : j + 1] * U for j in range(W.shape[1])]
    if b is not None:
        blocks.append(ind)
    return np.hstack(blocks)


def region_count(rank: int, n: int, affine: bool) -> int:
    """Open orthants met by a generic subspace, by Zaslavsky's theorem.

    A generic linear subspace of dimension ``rank`` in R^n meets
    2 * sum_{i<rank} C(n-1, i) orthants; a generic affine one,
    sum_{i<=rank} C(n, i).
    """
    if affine:
        return sum(math.comb(n, i) for i in range(rank + 1))
    return 2 * sum(math.comb(n - 1, i) for i in range(rank))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_trajectory(path: Path) -> dict[str, list[dict]]:
    by_method: dict[str, list[dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_method.setdefault(row["method"], []).append(row)
    return by_method


# -- synthetic-mhe ------------------------------------------------------------


class SyntheticOp:
    """``experiment_cli.run`` on the default synthetic config, MHE only."""

    kind = "synthetic"

    def __init__(self, config_seed: int, out_dir: Path):
        self.out = out_dir
        self.config = cli.ExperimentConfig(
            mode="synthetic", seed=config_seed, methods=("mhe",), out_dir=str(out_dir)
        )
        self.reached_in_first_epoch = False

    def call(self):
        self.summary = cli.run(self.config)

    def check(self) -> None:
        cfg = self.config
        W = np.loadtxt(self.out / "teacher_weights.csv", delimiter=",", ndmin=2)
        require(W.shape == (cfg.m, cfg.n), f"teacher shape {W.shape}")
        with open(self.out / "dataset.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        U = np.array([[float(v) for v in r[: cfg.m]] for r in rows])
        y = np.array([float(r[cfg.m]) for r in rows])
        split = [r[cfg.m + 1] for r in rows]
        require(split.count("train") == cfg.n_train, "train split size")
        require(split.count("test") == cfg.n_test, "test split size")
        clean = np.maximum(U @ W, 0.0).sum(axis=1)
        require(
            np.all(np.abs(y - clean) <= cfg.eps_bar * (1 + 1e-9)),
            "a target is farther than eps_bar from the teacher output",
        )
        U_train = U[np.array(split) == "train"]
        require(full_column_rank(relu_jacobian(U_train, W, None)), "train inputs are not PE")

        traj = _read_trajectory(self.out / "trajectory.csv")["mhe"]
        require(len(traj) == cfg.epochs * cfg.k, f"{len(traj)} trajectory rows")
        err = np.array([float(r["estimation_error"]) for r in traj])
        first = np.array([int(r["epoch"]) == 1 for r in traj])
        require(bool(np.all(np.isfinite(err))), "non-finite estimation error")
        self.reached_in_first_epoch = bool(np.any(err[first] <= 5e-3))
        report = self.summary["convergence_report"]
        require(err[-1] <= report["bound"], f"final error {err[-1]:.3e} above the bound")
        require(report["theorem5_violations"] == 0, "Theorem-5 per-step bound violated")

    def digest(self) -> tuple[str, ...]:
        return (_sha(self.out / "summary.json"), _sha(self.out / "trajectory.csv"))


def synthetic_round(rng: np.random.Generator, out_dir: Path) -> list[SyntheticOp]:
    return [SyntheticOp(int(rng.integers(2**31)), out_dir)]


# -- bias-geometry ------------------------------------------------------------

# (m, n, affine): bias architecture through design_pe_input_bias, fixed
# output through design_pe_input.
GEOMETRY_MIX = ((3, 5, True), (2, 10, True), (3, 10, False))
MAX_DRAWS = 1000


class GeometryOp:
    """Rejection-sample a Gaussian weight state until it is certified, then
    design its PE input."""

    kind = "geometry"

    def __init__(self, m: int, n: int, affine: bool, seed: int):
        self.m, self.n, self.affine, self.seed = m, n, affine, seed

    def call(self):
        rng = np.random.default_rng(self.seed)
        self.draws = []
        for _ in range(MAX_DRAWS):
            W = rng.standard_normal((self.m, self.n))
            b = rng.standard_normal(self.n) if self.affine else None
            try:
                cert = relumhe.observability_certificate(W, b)
            except (relumhe.ZeroColumn, relumhe.RankDeficientW):
                continue
            self.draws.append((W, b, cert))
            if cert.observable:
                break
        else:
            raise RuntimeError(f"no certified state in {MAX_DRAWS} draws")
        if self.affine:
            self.plan = relumhe.design_pe_input_bias(W, b, rng=rng)
        else:
            self.plan = relumhe.design_pe_input(W, rng=rng)

    def check(self) -> None:
        m, n, affine = self.m, self.n, self.affine
        expected = region_count(m, n, affine)
        for W, b, cert in self.draws:
            rows, wits = cert.sign_matrix.rows, cert.sign_matrix.witnesses
            require(len(rows) == expected, f"{len(rows)} topes, Zaslavsky gives {expected}")
            require(len(np.unique(rows, axis=0)) == len(rows), "repeated sign rows")
            require(np.array_equal(np.sign(wits), rows), "a witness misses its sign row")
            shifted = wits - (0.0 if b is None else b)
            coef, *_ = np.linalg.lstsq(W.T, shifted.T, rcond=None)
            resid = np.abs(W.T @ coef - shifted.T).max()
            require(resid <= 1e-8 * max(np.abs(wits).max(), 1.0), "a witness is off the subspace")
            own_rank = int(np.linalg.matrix_rank((rows > 0).astype(float)))
            require(cert.observable == (own_rank == n), "observable flag disagrees with the rank")
        W, b, _ = self.draws[-1]
        U = self.plan.U
        require(U.shape == ((m + 1) * n if affine else m * n, m), f"plan shape {U.shape}")
        require(self.plan.certified, "plan not certified")
        require(full_column_rank(relu_jacobian(U, W, b)), "designed input is not PE")

    def digest(self) -> tuple[str, ...]:
        return (hashlib.sha256(self.plan.U.tobytes()).hexdigest(), str(len(self.draws)))


def geometry_round(rng: np.random.Generator) -> list[GeometryOp]:
    return [GeometryOp(m, n, affine, int(rng.integers(2**31))) for m, n, affine in GEOMETRY_MIX]


# -- wine-regularized ---------------------------------------------------------


class WineOp:
    """``experiment_cli.run`` in wine mode: one repeat, n=32, 10 epochs,
    regularized MHE and Adam."""

    kind = "wine"
    methods = ("regularized-mhe", "adam")

    def __init__(self, config_seed: int, csv_path: Path, targets: np.ndarray, out_dir: Path):
        self.out = out_dir
        self.targets = targets
        self.config = cli.ExperimentConfig(
            mode="wine", csv_path=str(csv_path), target_column="quality", n=32, epochs=10,
            repeats=1, seed=config_seed, methods=self.methods, out_dir=str(out_dir),
        )

    def call(self):
        self.summary = cli.run(self.config)

    def check(self) -> None:
        # load_csv's documented split: shuffle with the config seed, the
        # first floor(90%) rows train, the rest test.
        N = self.targets.size
        order = np.random.default_rng(self.config.seed).permutation(N)
        test = self.targets[order][int(np.floor((1 - self.config.test_fraction) * N)) :]
        slack = 1 - 6 / math.sqrt(2 * test.size)  # six standard errors of an RMSE
        traj = _read_trajectory(self.out / "trajectory.csv")
        for method in self.methods:
            rmse = self.summary["methods"][method]["test_rmse"][0]
            require(math.isfinite(rmse), f"{method}: non-finite RMSE")
            require(rmse >= WINE_NOISE * slack, f"{method}: RMSE {rmse:.3f} below the noise")
            require(rmse <= float(test.std()), f"{method}: RMSE {rmse:.3f} above the target sd")
            rows = traj[method]
            require(len(rows) == self.config.epochs, f"{method}: {len(rows)} epoch rows")
            first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
            require(last < first, f"{method}: train loss did not fall")

    def digest(self) -> tuple[str, ...]:
        return (_sha(self.out / "summary.json"), _sha(self.out / "trajectory.csv"))


def wine_round(rng: np.random.Generator, csv_path: Path, targets, out_dir: Path) -> list[WineOp]:
    return [WineOp(int(rng.integers(2**31)), csv_path, targets, out_dir)]
