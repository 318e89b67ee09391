import math

import numpy as np
import pytest

from relumhe.numlin import numeric_rank, pinv
from relumhe.orthant_geo import (
    EmptyIntersection,
    RankDeficientW,
    ZeroColumn,
    cone_basis,
    elementary_vectors,
    observability_certificate,
    sign_matrix,
)
from helpers import brute_force_elementary_vectors, circle_sign_matrix, random_rank_matrix


class TestElementaryVectors:
    def test_two_plane_in_r3(self):
        ev = elementary_vectors([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert ev.supports() == [(0, 1), (2,)]
        np.testing.assert_allclose(ev.vectors[0], [1.0, -1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ev.vectors[1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_full_space_gives_axes(self):
        ev = elementary_vectors(np.eye(4))
        np.testing.assert_allclose(ev.vectors, np.eye(4), atol=1e-12)

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            elementary_vectors(np.zeros((2, 3)))

    def test_matches_support_subset_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            V = random_rank_matrix(rng, 2, 4, 2)
            ev = elementary_vectors(V)
            oracle = brute_force_elementary_vectors(V)
            assert set(ev.supports()) == set(oracle)
            for v in ev.vectors:
                np.testing.assert_allclose(
                    v, oracle[tuple(np.flatnonzero(v))], atol=1e-8
                )

    def test_supports_are_minimal(self):
        rng = np.random.default_rng(1)
        V = random_rank_matrix(rng, 3, 6, 3)
        supports = elementary_vectors(V).supports()
        for s in supports:
            assert not any(set(t) < set(s) for t in supports if t != s)


class TestSignMatrix:
    def test_plane_spanning_r2(self):
        S = sign_matrix(np.eye(2))
        assert {tuple(r) for r in S.rows} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_nonsingular_gives_all_orthants(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            W = rng.standard_normal((n, n)) + np.eye(n)
            if numeric_rank(W).rank < n:
                continue
            assert len(sign_matrix(W)) == 2**n

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumn):
            sign_matrix(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_example_plane(self):
        S = sign_matrix([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        expected = {(1, -1, 1), (1, -1, -1), (-1, 1, 1), (-1, 1, -1)}
        assert {tuple(r) for r in S.rows} == expected

    def test_every_row_is_witnessed(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            W = rng.standard_normal((2, 5))
            S = sign_matrix(W)
            Wp = pinv(W)
            for row, wit in zip(S.rows, S.witnesses):
                assert np.array_equal(np.sign(wit).astype(int), row)
                # witness must lie in the row space
                np.testing.assert_allclose(wit @ Wp @ W, wit, atol=1e-8)

    def test_matches_circle_oracle(self):
        rng = np.random.default_rng(4)
        for n in (3, 4, 5, 6):
            for _ in range(10):
                B = rng.standard_normal((2, n))
                S = sign_matrix(B)
                assert {tuple(r) for r in S.rows} == circle_sign_matrix(B)

    def test_sampling_never_finds_missing_orthants(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 6))
        S = sign_matrix(W)
        rows = {tuple(r) for r in S.rows}
        for _ in range(2000):
            v = rng.standard_normal(3) @ W
            if np.abs(v).min() > 1e-9:
                assert tuple(np.sign(v).astype(int)) in rows

    def test_full_support_elementary_signs_appear(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((2, 5))
        S = sign_matrix(W)
        rows = {tuple(r) for r in S.rows}
        for v in elementary_vectors(W).vectors:
            if np.all(v != 0):
                assert tuple(np.sign(v).astype(int)) in rows
                assert tuple((-np.sign(v)).astype(int)) in rows

    def test_affine_plane(self):
        # shifted full plane still meets all four quadrants
        S = sign_matrix(np.eye(2), b=[0.3, -0.4])
        assert {tuple(r) for r in S.rows} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        for row, wit in zip(S.rows, S.witnesses):
            assert np.array_equal(np.sign(wit).astype(int), row)

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
    def test_generic_tope_counts_match_zaslavsky(self, m, n):
        # A generic affine m-flat in R^n meets sum_{i<=m} C(n, i) open
        # orthants, a generic linear m-subspace 2 sum_{i<m} C(n-1, i).
        rng = np.random.default_rng(100 * m + n)
        W = rng.standard_normal((m, n))
        b = rng.standard_normal(n)
        S = sign_matrix(W, b)
        assert len(np.unique(S.rows, axis=0)) == len(S) == sum(math.comb(n, i) for i in range(m + 1))
        assert np.array_equal(np.sign(S.witnesses), S.rows)
        shifted = S.witnesses - b
        np.testing.assert_allclose(shifted @ pinv(W) @ W, shifted, atol=1e-8)
        assert len(sign_matrix(W)) == 2 * sum(math.comb(n - 1, i) for i in range(m))

    def test_affine_witnesses_lie_in_affine_subspace(self):
        rng = np.random.default_rng(7)
        W1 = rng.standard_normal((2, 4))
        b = rng.standard_normal(4)
        S = sign_matrix(W1, b)
        Wp = pinv(W1)
        for wit in S.witnesses:
            shifted = wit - b
            np.testing.assert_allclose(shifted @ Wp @ W1, shifted, atol=1e-8)


class TestObservabilityCertificate:
    def test_identity_observable(self):
        cert = observability_certificate(np.eye(2))
        assert cert.observable and cert.rank == 2

    def test_single_input_three_hidden_never_observable(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            W = rng.standard_normal((1, 3))
            if np.abs(W).min() < 1e-6:
                continue
            cert = observability_certificate(W)
            assert not cert.observable
            assert cert.rank <= 2

    def test_same_sign_row_rank_one(self):
        cert = observability_certificate(np.array([[1.0, 2.0, 3.0]]))
        assert not cert.observable
        assert cert.rank == 1

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientW):
            observability_certificate(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rejection_sampling_finds_observable_teachers(self):
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(200):
            W = rng.standard_normal((2, 10))
            cert = observability_certificate(W)
            if cert.observable:
                found += 1
                assert numeric_rank((cert.sign_matrix.rows > 0).astype(float)).rank == 10
        assert found > 0


class TestConeBasis:
    def test_plane_positive_quadrant(self):
        C = cone_basis(np.eye(2), [1, 1])
        assert C.shape == (2, 2)
        assert np.all(C > 0)
        assert numeric_rank(C).rank == 2

    def test_one_dimensional_row_space(self):
        C = cone_basis(np.array([[2.0, -1.0]]), [1, -1])
        assert C.shape == (1, 2)
        assert np.sign(C[0, 0]) == 1 and np.sign(C[0, 1]) == -1

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            cone_basis(np.array([[1.0, 1.0]]), [1, -1])

    def test_postconditions_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            W = rng.standard_normal((2, 4))
            S = sign_matrix(W)
            s = S.rows[rng.integers(len(S))]
            C = cone_basis(W, s, rng=rng)
            assert C.shape == (2, 4)
            assert np.all(np.sign(C) == s)
            assert numeric_rank(C).rank == 2
            # rows stay inside the row space with interior margin
            np.testing.assert_allclose(C @ pinv(W) @ W, C, atol=1e-8 * np.abs(C).max())
            assert np.abs(C).min(axis=1).min() >= 1e-6 * np.abs(C).max()

    def test_affine_cone_has_extra_vector(self):
        rng = np.random.default_rng(11)
        W1 = rng.standard_normal((2, 4))
        b = rng.standard_normal(4)
        S = sign_matrix(W1, b)
        s = S.rows[0]
        C = cone_basis(W1, s, b=b)
        assert C.shape == (3, 4)
        assert np.all(np.sign(C) == s)
        assert numeric_rank(C).rank == 3
