"""Experiment configuration, dataset handling, orchestration, and CLI.

Modes:

* ``synthetic`` - teacher-student recovery: sample a certified teacher,
  design a persistently exciting input sequence, train the horizon-based
  estimator against gradient-descent baselines, and check the convergence
  diagnostics.
* ``wine`` - regression benchmark on a quality-score CSV with the
  regularization-based variant against Adam.
* ``observability-analysis`` / ``input-design`` - certificate and input
  construction for a weight matrix read from CSV.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded
from the config, so runs with the same config and seed write byte-identical
metric files.  Wall-clock timings are kept in a separate ``timing.json``
because they are the one thing that cannot be deterministic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .mhe_train import (
    BatchSchedule,
    TrainingTrajectory,
    adam_baseline,
    gd_baseline,
    train,
    train_regularized,
)
from .neighborhood import ObservableNeighborhood, membership
from .numlin import as_matrix
from .orthant_geo import RankDeficientW, ZeroColumn, observability_certificate
from .pe_design import design_pe_batches, design_pe_input, design_pe_input_bias
from .relu_net import Architecture, WeightState, observability_map

__all__ = [
    "MalformedCsv",
    "MissingColumn",
    "ExperimentConfig",
    "Dataset",
    "gen_synthetic",
    "load_csv",
    "run",
    "main",
]


class MalformedCsv(ValueError):
    """A CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingColumn(KeyError):
    pass


@dataclass
class ExperimentConfig:
    mode: str = "synthetic"
    m: int = 2
    n: int = 10
    variant: str = "fixed-output"
    eps_bar: float = 1e-4
    k: int = 5
    n1: int = 18
    n_train: int = 90
    n_test: int = 90
    epochs: int = 50
    seed: int = 0
    methods: tuple[str, ...] = ("mhe", "gd")
    gd_lr: float = 0.1
    adam_lr: float = 0.001
    adam_betas: tuple[float, float] = (0.9, 0.999)
    mhe_lambda: float = 1e-4
    horizon: int = 32
    repeats: int = 1
    init_scale: float = 0.1
    margin: float = 1e-9
    test_fraction: float = 0.1
    csv_path: str | None = None
    target_column: str | None = None
    out_dir: str = "out"

    def __post_init__(self):
        if self.mode not in {"synthetic", "wine", "observability-analysis", "input-design"}:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "synthetic" and self.k * self.n1 != self.n_train:
            raise ValueError(
                f"schedule does not partition the training set: k*n1 = "
                f"{self.k * self.n1} != n_train = {self.n_train}"
            )
        self.methods = tuple(self.methods)
        self.adam_betas = tuple(self.adam_betas)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class Dataset:
    inputs: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    train_idx: np.ndarray = field(repr=False)
    test_idx: np.ndarray = field(repr=False)
    feature_names: tuple[str, ...] = ()

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[self.train_idx]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[self.train_idx]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.inputs[self.test_idx]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self.test_idx]


def _sample_certified_weights(rng: np.random.Generator, m: int, n: int, attempts: int = 10_000):
    for _ in range(attempts):
        W = rng.standard_normal((m, n))
        try:
            cert = observability_certificate(W)
        except (ZeroColumn, RankDeficientW):
            continue
        if cert.observable:
            return cert
    raise RuntimeError(
        f"no certified weight matrix found in {attempts} draws for m={m}, n={n}; "
        "this architecture may not admit locally observable states"
    )


def gen_synthetic(
    config: ExperimentConfig, *, repeat: int = 0
) -> tuple[WeightState, Dataset, ObservableNeighborhood, WeightState]:
    """Teacher, dataset, observable neighborhood, and initial student state.

    The teacher is rejection-sampled until its certificate passes; the
    training inputs are a persistently exciting plan for the teacher; the
    student starts at the teacher plus a perturbation small enough that the
    teacher is a member of the neighborhood anchored at the student (checked
    and asserted here).
    """
    rng = np.random.default_rng((config.seed, repeat))
    arch = Architecture.fixed_output(config.m, config.n)

    # Teacher and input sequence are sampled as a pair: a certified teacher
    # whose batch-wise input design comes out well conditioned.  Each batch
    # sweeps the certified orthants in a fresh random order (no batch
    # concentrates near-parallel rows), rows are rescaled batch-wise so no
    # direction is weakly excited (input scaling is free: cones are closed
    # under positive scaling and the output-noise bound is absolute), and
    # teachers whose geometry still leaves a weakly excited batch direction
    # are rejected along with their design.
    for _ in range(50):
        cert = _sample_certified_weights(rng, config.m, config.n)
        W_teacher = cert.W
        teacher = WeightState.from_parts(arch, W_teacher)
        U, _, sigma_min = design_pe_batches(cert, config.k, config.n1, rng, rho_max=0.004)
        if sigma_min >= 0.1:
            break
    else:
        raise RuntimeError(
            "no well-conditioned teacher/design pair found in 50 draws; "
            f"m={config.m}, n={config.n} may be too tightly coupled"
        )
    clean = observability_map(teacher, U)
    noise = rng.uniform(-config.eps_bar, config.eps_bar, size=config.n_train)
    targets = clean + noise

    test_inputs = rng.standard_normal((config.n_test, config.m))
    test_noise = rng.uniform(-config.eps_bar, config.eps_bar, size=config.n_test)
    test_targets = observability_map(teacher, test_inputs) + test_noise

    # Student init: random direction, as large as the sign margins allow
    # (entrywise headroom) but at most init_scale relative to the teacher
    # norm, so the teacher stays a member of the neighborhood at the student.
    direction = rng.standard_normal(arch.state_dim)
    direction /= np.linalg.norm(direction)
    D = direction.reshape(config.n, config.m).T
    pre_t = U @ W_teacher
    ratio = np.abs(U @ D / pre_t).max()
    scale = min(config.init_scale * np.linalg.norm(teacher.w), 0.15 / ratio)
    init = teacher.replace_w(teacher.w + scale * direction)

    neigh = ObservableNeighborhood.build(init, U, margin=config.margin)
    if not membership(neigh, teacher):
        raise RuntimeError("teacher fell outside the neighborhood anchored at the student init")

    inputs = np.vstack([U, test_inputs])
    all_targets = np.concatenate([targets, test_targets])
    dataset = Dataset(
        inputs=inputs,
        targets=all_targets,
        train_idx=np.arange(config.n_train),
        test_idx=np.arange(config.n_train, config.n_train + config.n_test),
    )
    return teacher, dataset, neigh, init


def _sniff_delimiter(header: str) -> str:
    return ";" if header.count(";") >= header.count(",") else ","


def load_csv(path, target_column: str, *, seed: int = 0, test_fraction: float = 0.1) -> Dataset:
    """Load a numeric regression CSV and split/standardize it deterministically.

    The delimiter (comma or semicolon) is autodetected from the header.  The
    rows are shuffled with the given seed, the first 90% (by floor) become
    the training split, and features are standardized to zero mean and unit
    variance using training-split statistics only.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise MalformedCsv(1, "empty header row")
        delim = _sniff_delimiter(first)
        header = [h.strip().strip('"') for h in first.strip().split(delim)]
        if target_column not in header:
            raise MissingColumn(f"target column {target_column!r} not in {header}")
        rows = []
        for lineno, raw in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(header):
                raise MalformedCsv(lineno, f"expected {len(header)} fields, got {len(raw)}")
            try:
                rows.append([float(cell) for cell in raw])
            except ValueError as exc:
                raise MalformedCsv(lineno, str(exc)) from None
    if not rows:
        raise MalformedCsv(2, "no data rows")
    data = np.array(rows)
    t_col = header.index(target_column)
    feat_cols = [i for i in range(len(header)) if i != t_col]
    X = data[:, feat_cols]
    y = data[:, t_col]

    N = X.shape[0]
    order = np.random.default_rng(seed).permutation(N)
    n_train = int(np.floor((1.0 - test_fraction) * N))
    train_idx = np.arange(n_train)
    test_idx = np.arange(n_train, N)
    X, y = X[order], y[order]

    mean = X[train_idx].mean(axis=0)
    std = X[train_idx].std(axis=0)
    std[std == 0] = 1.0
    X = (X - mean) / std
    return Dataset(
        inputs=X,
        targets=y,
        train_idx=train_idx,
        test_idx=test_idx,
        feature_names=tuple(header[i] for i in feat_cols),
    )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return repr(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _write_matrix_csv(path: Path, M: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        for row in np.atleast_2d(M):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _trajectory_rows(method: str, traj: TrainingTrajectory, repeat: int) -> list[list]:
    rows = []
    for i in range(traj.step.size):
        rows.append(
            [
                repeat,
                int(traj.step[i]),
                int(traj.epoch[i]),
                method,
                traj.train_loss[i],
                traj.test_loss[i],
                traj.estimation_error[i],
            ]
        )
    return rows


TRAJECTORY_HEADER = ["repeat", "step", "epoch", "method", "train_loss", "test_loss", "estimation_error"]


def _read_weights_csv(path, *, bias: bool) -> tuple[np.ndarray, np.ndarray | None]:
    raw = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            delim = ";" if ";" in line else ","
            try:
                raw.append([float(c) for c in line.split(delim)])
            except ValueError as exc:
                raise MalformedCsv(lineno, str(exc)) from None
    M = as_matrix(raw)
    if bias:
        if M.shape[0] < 2:
            raise ValueError("need at least one weight row above the bias row")
        return M[:-1], M[-1]
    return M, None


def _run_synthetic(config: ExperimentConfig, out: Path) -> dict:
    rows: list[list] = []
    timing: dict[str, list[float]] = {}
    summary_methods: dict[str, dict] = {}
    report_payload: dict = {}
    for rep in range(config.repeats):
        teacher, dataset, neigh, init = gen_synthetic(config, repeat=rep)
        schedule = BatchSchedule.partition(dataset.train_inputs, dataset.train_targets, config.k)
        if rep == 0:
            _write_matrix_csv(out / "teacher_weights.csv", teacher.W)
            train_set = set(dataset.train_idx.tolist())
            _write_csv(
                out / "dataset.csv",
                [f"u{i + 1}" for i in range(config.m)] + ["y", "split"],
                [
                    list(dataset.inputs[i])
                    + [dataset.targets[i], "train" if i in train_set else "test"]
                    for i in range(dataset.inputs.shape[0])
                ],
            )
        for method in config.methods:
            t0 = time.perf_counter()
            if method == "mhe":
                traj, report = train(
                    schedule,
                    neigh,
                    init,
                    config.epochs,
                    ideal=teacher,
                    eps_bar=config.eps_bar,
                    test_inputs=dataset.test_inputs,
                    test_targets=dataset.test_targets,
                )
                if rep == 0:
                    report_payload = {
                        "sigma": report.sigma,
                        "mu": report.mu,
                        "rho": report.rho,
                        "zeta": report.zeta,
                        "bound": report.bound,
                        "non_pe_dataset": report.non_pe_dataset,
                        "theorem5_violations": int(
                            np.sum(traj.obs_error > traj.obs_bound + 1e-12)
                        ),
                    }
            elif method == "gd":
                traj = gd_baseline(
                    schedule,
                    init,
                    config.gd_lr,
                    config.epochs,
                    ideal=teacher,
                    test_inputs=dataset.test_inputs,
                    test_targets=dataset.test_targets,
                )
            else:
                raise ValueError(f"method {method!r} not available in synthetic mode")
            timing.setdefault(method, []).append(time.perf_counter() - t0)
            rows.extend(_trajectory_rows(method, traj, rep))
            err = traj.estimation_error
            reached = np.flatnonzero(err <= 5e-3)
            stats = summary_methods.setdefault(
                method,
                {"final_estimation_error": [], "min_estimation_error": [], "final_test_rmse": [],
                 "steps_to_5e-3": []},
            )
            stats["final_estimation_error"].append(float(err[-1]))
            stats["min_estimation_error"].append(float(err.min()))
            stats["final_test_rmse"].append(float(np.sqrt(traj.test_loss[-1])))
            stats["steps_to_5e-3"].append(int(reached[0] + 1) if reached.size else -1)

    _write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, rows)
    summary = {
        "mode": "synthetic",
        "config": dataclasses.asdict(config),
        "methods": {
            name: {
                key: vals if len(vals) > 1 else vals[0]
                for key, vals in stats.items()
            }
            for name, stats in summary_methods.items()
        },
        "convergence_report": report_payload,
    }
    _write_json(out / "summary.json", summary)
    _write_json(out / "timing.json", {"seconds_per_run": timing})
    return summary


def _init_general_state(rng: np.random.Generator, arch: Architecture) -> WeightState:
    W1 = rng.standard_normal((arch.m, arch.n)) * np.sqrt(2.0 / arch.m)
    b = 0.1 * rng.standard_normal(arch.n)
    w2 = rng.standard_normal(arch.n) * np.sqrt(1.0 / arch.n)
    return WeightState.from_parts(arch, W1, b=b, w2=w2)


def _run_wine(config: ExperimentConfig, out: Path) -> dict:
    if not config.csv_path:
        raise ValueError("wine mode needs csv_path in the config")
    target = config.target_column or "quality"
    dataset = load_csv(
        config.csv_path, target, seed=config.seed, test_fraction=config.test_fraction
    )
    m = dataset.inputs.shape[1]
    arch = Architecture.general(m, config.n)
    # Targets are standardized on the training split for training; reported
    # RMSEs are scaled back to the original units.
    y_mean = float(dataset.train_targets.mean())
    y_std = float(dataset.train_targets.std()) or 1.0
    train_y = (dataset.train_targets - y_mean) / y_std
    test_y = (dataset.test_targets - y_mean) / y_std
    n_batches = -(-dataset.train_idx.size // config.horizon)
    schedule = BatchSchedule.partition(
        dataset.train_inputs, train_y, n_batches, allow_ragged=True
    )
    methods = [m_ for m_ in config.methods if m_ in ("regularized-mhe", "adam")]
    if not methods:
        methods = ["regularized-mhe", "adam"]

    rows: list[list] = []
    timing: dict[str, list[float]] = {}
    rmse: dict[str, list[float]] = {name: [] for name in methods}
    for rep in range(config.repeats):
        rng = np.random.default_rng((config.seed, rep))
        init = _init_general_state(rng, arch)
        for method in methods:
            t0 = time.perf_counter()
            if method == "regularized-mhe":
                traj = train_regularized(
                    schedule,
                    init,
                    config.epochs,
                    config.mhe_lambda,
                    test_inputs=dataset.test_inputs,
                    test_targets=test_y,
                )
            else:
                traj = adam_baseline(
                    schedule,
                    init,
                    config.adam_lr,
                    config.adam_betas,
                    config.epochs,
                    test_inputs=dataset.test_inputs,
                    test_targets=test_y,
                )
            timing.setdefault(method, []).append(time.perf_counter() - t0)
            # Per-epoch records keep the trajectory file a manageable size;
            # losses are rescaled to original target units.
            last_of_epoch = np.flatnonzero(np.diff(np.append(traj.epoch, traj.epoch[-1] + 1)))
            for i in last_of_epoch:
                rows.append(
                    [rep, int(traj.step[i]), int(traj.epoch[i]), method,
                     y_std**2 * traj.train_loss[i], y_std**2 * traj.test_loss[i],
                     traj.estimation_error[i]]
                )
            rmse[method].append(float(y_std * np.sqrt(traj.test_loss[-1])))

    _write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, rows)
    summary = {
        "mode": "wine",
        "config": dataclasses.asdict(config),
        "methods": {
            name: {
                "test_rmse_mean": float(np.mean(vals)),
                "test_rmse_std": float(np.std(vals)),
                "test_rmse": vals,
            }
            for name, vals in rmse.items()
        },
    }
    _write_json(out / "summary.json", summary)
    _write_json(out / "timing.json", {"seconds_per_run": timing})
    return summary


def _run_analysis(config: ExperimentConfig, out: Path, *, bias: bool = False) -> dict:
    W, b = _read_weights_csv(config.csv_path, bias=bias)
    try:
        cert = observability_certificate(W, b)
        payload = {
            "observable": cert.observable,
            "indicator_rank": cert.rank,
            "hidden_nodes": int(W.shape[1]),
            "orthants_intersected": len(cert.sign_matrix),
            "sign_matrix": cert.sign_matrix.rows,
        }
        if not cert.observable:
            payload["explanation"] = (
                f"the activation indicators of the {len(cert.sign_matrix)} intersected "
                f"orthants span only {cert.rank} of {W.shape[1]} hidden directions, so "
                "some weights cannot be distinguished by any input sequence"
            )
    except (ZeroColumn, RankDeficientW) as exc:
        payload = {"observable": False, "explanation": f"{type(exc).__name__}: {exc}"}
    _write_json(out / "certificate.json", payload)
    return payload


def _run_input_design(config: ExperimentConfig, out: Path, *, bias: bool = False) -> dict:
    W, b = _read_weights_csv(config.csv_path, bias=bias)
    rng = np.random.default_rng(config.seed)
    n_samples = config.n_train if config.n_train else None
    if b is None:
        plan = design_pe_input(W, n_samples=n_samples, rng=rng)
    else:
        plan = design_pe_input_bias(W, b, n_samples=n_samples, rng=rng)
    _write_matrix_csv(out / "pe_input.csv", plan.U)
    payload = {
        "certified": plan.certified,
        "samples": int(plan.U.shape[0]),
        "sigma_min": plan.sigma_min,
        "indicator_matrix": plan.T,
    }
    _write_json(out / "plan.json", payload)
    return payload


def run(config: ExperimentConfig) -> dict:
    """Execute the configured experiment; writes metric files, returns the summary."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.mode == "synthetic":
        return _run_synthetic(config, out)
    if config.mode == "wine":
        return _run_wine(config, out)
    if config.mode == "observability-analysis":
        return _run_analysis(config, out)
    return _run_input_design(config, out)


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "epochs", None) is not None:
        updates["epochs"] = args.epochs
    if getattr(args, "method", None):
        updates["methods"] = tuple(args.method.split(","))
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relumhe",
        description="Observability analysis, input design, and horizon-based training "
        "for small ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="observability certificate for a weights CSV")
    p_an.add_argument("weights")
    p_an.add_argument("--bias", action="store_true", help="treat the last row as the bias row")

    p_di = sub.add_parser("design-input", help="design a persistently exciting input sequence")
    p_di.add_argument("weights")
    p_di.add_argument("--bias", action="store_true", help="treat the last row as the bias row")
    p_di.add_argument("--samples", type=int, default=None)

    p_tr = sub.add_parser("train", help="run the experiment described by a config JSON")
    p_tr.add_argument("config")
    p_tr.add_argument("--epochs", type=int, default=None)
    p_tr.add_argument("--method", default=None, help="comma-separated method list")

    p_bm = sub.add_parser("benchmark", help="multi-method comparison with repeats")
    p_bm.add_argument("config")
    p_bm.add_argument("--epochs", type=int, default=None)
    p_bm.add_argument("--method", default=None, help="comma-separated method list")
    p_bm.add_argument("--repeats", type=int, default=None)

    for p in (p_an, p_di, p_tr, p_bm):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command in ("analyze", "design-input"):
            config = ExperimentConfig(
                mode="observability-analysis" if args.command == "analyze" else "input-design",
                csv_path=args.weights,
                n_train=getattr(args, "samples", None) or 0,
                seed=args.seed if args.seed is not None else 0,
                out_dir=args.out if args.out is not None else "out",
            )
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            if args.command == "analyze":
                payload = _run_analysis(config, out, bias=args.bias)
            else:
                payload = _run_input_design(config, out, bias=args.bias)
            json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=_json_default)
            print()
        else:
            config = ExperimentConfig.from_json(args.config)
            config = _apply_overrides(config, args)
            if args.command == "benchmark" and getattr(args, "repeats", None):
                config = dataclasses.replace(config, repeats=args.repeats)
            summary = run(config)
            json.dump(summary, sys.stdout, indent=2, sort_keys=True, default=_json_default)
            print()
    except Exception as exc:  # CLI boundary: fail with a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
