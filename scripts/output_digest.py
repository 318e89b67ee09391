"""Print SHA-256 digests of the geometry, input-design and synthetic-data outputs.

A refactor that must not change any number is checked by running this
script on two checkouts and comparing the printed lines:

    PYTHONPATH=src python scripts/output_digest.py

It covers ``design_pe_input`` and ``design_pe_input_bias`` (the fields U, C,
T, blocks and sigma_min of the plan, with the default arguments, a seeded
``rng`` and a longer ``n_samples``) over certified Gaussian draws at
(m, n) = (2, 4), (3, 5), (2, 6) and (2, 10); ``sign_matrix`` and
``cone_basis`` with and without a bias; and ``gen_synthetic`` for seeds 0-5.
"""

from __future__ import annotations

import hashlib

import numpy as np

from relumhe.experiment_cli import ExperimentConfig, gen_synthetic
from relumhe.orthant_geo import (
    RankDeficientW,
    ZeroColumn,
    cone_basis,
    observability_certificate,
    sign_matrix,
)
from relumhe.pe_design import design_pe_input, design_pe_input_bias

SIZES = ((2, 4), (3, 5), (2, 6), (2, 10))
DRAWS = 2  # certified weight states per size and architecture


def _certified(rng: np.random.Generator, m: int, n: int, bias: bool):
    while True:
        W = rng.standard_normal((m, n))
        b = rng.standard_normal(n) if bias else None
        try:
            if observability_certificate(W, b).observable:
                return W, b
        except (RankDeficientW, ZeroColumn):
            continue


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.asarray(a)
            self.h.update(str((a.dtype.str, a.shape)).encode())
            self.h.update(np.ascontiguousarray(a).tobytes())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def design_digest(bias: bool) -> str:
    d = Digest()
    rng = np.random.default_rng(2024)
    for m, n in SIZES:
        for _ in range(DRAWS):
            W, b = _certified(rng, m, n, bias)
            n_min = (m + bias) * n
            for kwargs in ({}, {"rng": np.random.default_rng(7)}, {"n_samples": n_min + 5}):
                plan = design_pe_input_bias(W, b, **kwargs) if bias else design_pe_input(W, **kwargs)
                d.add(plan.U, plan.C, plan.T, *plan.blocks, plan.sigma_min)
    return d.hexdigest()


def geometry_digest(bias: bool) -> str:
    d = Digest()
    rng = np.random.default_rng(31)
    for m, n in SIZES[:3]:
        W = rng.standard_normal((m, n))
        b = rng.standard_normal(n) if bias else None
        S = sign_matrix(W, b)
        d.add(S.rows, S.witnesses)
        for i in range(len(S)):
            d.add(cone_basis(W, S.rows[i], b=b), cone_basis(W, S.rows[i], b=b, rng=np.random.default_rng(i)))
    return d.hexdigest()


def synthetic_digest() -> str:
    d = Digest()
    for seed in range(6):
        teacher, ds, neigh, init = gen_synthetic(ExperimentConfig(seed=seed))
        d.add(teacher.w, ds.inputs, ds.targets, neigh.U, neigh.ref_pre, init.w)
    return d.hexdigest()


def main() -> None:
    print("design_pe_input      ", design_digest(bias=False))
    print("design_pe_input_bias ", design_digest(bias=True))
    print("sign_matrix+cone_basis", geometry_digest(bias=False))
    print("  ... with a bias    ", geometry_digest(bias=True))
    print("gen_synthetic 0-5    ", synthetic_digest())


if __name__ == "__main__":
    main()
