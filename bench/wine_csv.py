"""Stand-in for the red-wine quality CSV, generated from a known teacher.

1599 semicolon-separated rows of 11 features and a ``quality`` target made
by a general two-layer ReLU network plus Gaussian noise of standard
deviation ``WINE_NOISE``.  It measures throughput on data of the real
file's shape; it is not a quality result.

Regenerate the file a run uses with::

    python3 bench/wine_csv.py --seed 3 wine.csv
"""

from __future__ import annotations

import argparse
import csv
import math
from pathlib import Path

import numpy as np

ROWS, FEATURES, HIDDEN = 1599, 11, 4
WINE_NOISE = 0.4
COLUMNS = (
    "fixed acidity", "volatile acidity", "citric acid", "residual sugar", "chlorides",
    "free sulfur dioxide", "total sulfur dioxide", "density", "pH", "sulphates", "alcohol",
    "quality",
)


def write_wine_csv(path: Path, seed: int) -> None:
    rng = np.random.default_rng((seed, ROWS))
    X = rng.uniform(0.5, 1.5, FEATURES) * rng.standard_normal((ROWS, FEATURES))
    X += rng.uniform(0.0, 10.0, FEATURES)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    W1 = rng.standard_normal((FEATURES, HIDDEN)) / math.sqrt(FEATURES)
    b1 = 0.3 * rng.standard_normal(HIDDEN)
    w2 = rng.uniform(0.5, 1.0, HIDDEN) * rng.choice((-1.0, 1.0), HIDDEN)
    y = 5.6 + np.maximum(Z @ W1 + b1, 0.0) @ w2 + WINE_NOISE * rng.standard_normal(ROWS)
    with open(path, "w", newline="") as fh:
        fh.write(";".join(f'"{c}"' for c in COLUMNS) + "\n")
        for xi, yi in zip(X, y):
            fh.write(";".join(f"{v:.6f}" for v in xi) + f";{yi:.6f}\n")


def read_targets(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(r[-1]) for r in list(csv.reader(fh, delimiter=";"))[1:]])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark run's --seed")
    parser.add_argument("path", type=Path)
    args = parser.parse_args()
    write_wine_csv(args.path, args.seed)
