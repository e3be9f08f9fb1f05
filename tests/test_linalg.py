import numpy as np
import pytest

from cefgl import linalg
from cefgl.errors import NonFiniteInput, ShapeMismatch


def reference_singular_values(a):
    """Independent oracle: descending square roots of eig(A^T A)."""
    eigvals = np.linalg.eigvalsh(a.T @ a)
    return np.sqrt(np.clip(eigvals, 0.0, None))[::-1]


class TestSvd:
    def test_identity_has_unit_singular_values(self):
        res = linalg.svd(np.eye(3))
        assert np.allclose(res.sigma, [1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        res = linalg.svd(np.zeros((2, 2)))
        assert np.allclose(res.sigma, [0.0, 0.0], atol=0)

    def test_hand_computed_rank_one(self):
        # A^T A = [[25, 0], [0, 0]] -> singular values (5, 0); u1 = A v1 / 5.
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        res = linalg.svd(a)
        assert np.allclose(res.sigma, [5.0, 0.0], atol=1e-12)
        u1 = res.u[:, 0]
        expected = np.array([3.0 / 5.0, 4.0 / 5.0])
        assert np.allclose(np.abs(u1), expected, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(NonFiniteInput):
            linalg.svd(np.array([[np.inf]]))

    def test_random_matrices_meet_tolerances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = rng.uniform(-1.0, 1.0, size=(rows, cols))
            res = linalg.svd(a)
            k = min(rows, cols)
            assert np.all(np.diff(res.sigma) <= 1e-15)
            assert np.all(res.sigma >= 0)
            assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) <= linalg.ORTHONORMALITY_TOL
            assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) <= linalg.ORTHONORMALITY_TOL
            recon = (res.u * res.sigma) @ res.v.T
            bound = linalg.RECONSTRUCTION_TOL * max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(recon - a) <= bound

    def test_transpose_preserves_singular_values(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 10), rng.integers(1, 10)))
            sa = linalg.svd(a).sigma
            st = linalg.svd(a.T).sigma
            assert np.max(np.abs(sa - st)) <= 1e-10


def truncate(res, tau):
    """The truncated matrix and its rank, rebuilt from the kept factors."""
    left, right = linalg.lowrank_truncate(res, tau)
    rank = left.shape[1]
    assert left.shape == (res.u.shape[0], rank) and right.shape == (res.v.shape[0], rank)
    return left @ right.T, rank


class TestLowrankTruncate:
    def test_tau_zero_is_full_reconstruction(self):
        a = np.random.default_rng(2).uniform(-1, 1, size=(5, 4))
        approx, rank = truncate(linalg.svd(a), 0.0)
        assert np.linalg.norm(approx - a) <= 1e-8
        assert rank == 4

    def test_cutoff_at_sigma_one_zeroes_everything(self):
        approx, rank = truncate(linalg.svd(np.eye(3)), 1.0)
        assert rank == 0
        assert np.array_equal(approx, np.zeros((3, 3)))

    def test_relative_cutoff_on_diagonal(self):
        # Cutoff 0.5 * 4 = 2 keeps only the leading singular value; the
        # discarded tail contributes a Frobenius error of exactly 1.
        approx, rank = truncate(linalg.svd(np.diag([4.0, 1.0])), 0.5)
        assert rank == 1
        assert np.allclose(approx, np.diag([4.0, 0.0]), atol=1e-12)
        assert abs(np.linalg.norm(approx - np.diag([4.0, 1.0])) - 1.0) <= 1e-8

    def test_eckart_young_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(-1.0, 1.0, size=(8, 6))
            res = linalg.svd(a)
            tau = float(rng.uniform(0.0, 1.2))
            approx, rank = truncate(res, tau)
            sigma_ref = reference_singular_values(a)
            cutoff = tau * sigma_ref[0]
            rank_lo = int(np.count_nonzero(sigma_ref > cutoff + 1e-9))
            rank_hi = int(np.count_nonzero(sigma_ref > cutoff - 1e-9))
            assert rank_lo <= rank <= rank_hi
            expected_err = np.sqrt(np.sum(sigma_ref[rank:] ** 2))
            assert abs(np.linalg.norm(a - approx) - expected_err) <= 1e-8

    def test_rank_matches_strict_threshold_rule(self):
        res = linalg.svd(np.diag([4.0, 2.0, 1.0]))
        _, rank = truncate(res, 0.5)  # cutoff 0.5 * 4 = 2
        assert rank == 1  # strictly-greater rule drops the value equal to the cutoff

    def test_retained_rank_is_the_truncation_rank(self):
        # retained_rank is the one cutoff rule; the factors lowrank_truncate
        # keeps must have that many columns.
        rng = np.random.default_rng(12)
        for tau in (0.0, 0.3, 0.6, 1.0):
            res = linalg.svd(rng.normal(size=(6, 4)))
            _, rank = truncate(res, tau)
            assert linalg.retained_rank(res, tau) == rank
        assert linalg.retained_rank(linalg.svd(np.zeros((3, 2))), 0.0) == 0

    def test_bad_arguments(self):
        res = linalg.svd(np.eye(2))
        with pytest.raises(ValueError):
            linalg.lowrank_truncate(res, -0.1)


class TestWeightedSum:
    def test_identity_weight(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(linalg.weighted_sum([(1.0, a)]), a)

    def test_convexity(self):
        a = np.arange(4.0).reshape(2, 2)
        assert np.allclose(linalg.weighted_sum([(0.5, a), (0.5, a)]), a, atol=1e-15)

    def test_scalar_arithmetic(self):
        out = linalg.weighted_sum([(0.5, np.array([[2.0]])), (0.5, np.array([[4.0]]))])
        assert out == np.array([[3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            linalg.weighted_sum([(1.0, np.ones((2, 2))), (1.0, np.ones((2, 3)))])
        with pytest.raises(ShapeMismatch):
            linalg.weighted_sum([(1.0, np.ones((1, 2)))], out=np.zeros((2, 2)))

    def test_accumulates_into_out_in_order(self):
        # Folding the terms one call at a time equals one call over them all.
        rng = np.random.default_rng(5)
        terms = [(w, rng.normal(size=(3, 4))) for w in (0.1, 0.7, 0.2)]
        acc = np.zeros((3, 4))
        for term in terms:
            assert linalg.weighted_sum([term], out=acc) is acc
        assert np.array_equal(acc, linalg.weighted_sum(terms))
        assert linalg.weighted_sum([], out=acc) is acc

    def test_needs_at_least_one_term(self):
        with pytest.raises(ValueError):
            linalg.weighted_sum([])
