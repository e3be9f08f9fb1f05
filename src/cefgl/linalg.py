"""Dense float64 matrix helpers: SVD, singular-value truncation, weighted sums.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects of float64.
Every public operation returns freshly allocated arrays with finite entries,
but ``weighted_sum`` adds into the ``out`` array it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch

Matrix = np.ndarray

# Tolerances guaranteed by svd() for inputs with entries of order one.
ORTHONORMALITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-8


def as_matrix(a) -> Matrix:
    """Coerce to a 2-D float64 C-order array, raising ShapeMismatch otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"matrix must be at least 1x1, got {m.shape}")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(sigma) @ v.T`` with k = min(rows, cols).

    u is m x k and v is n x k, both column-orthonormal; sigma is
    non-negative and non-increasing.
    """

    u: Matrix
    sigma: np.ndarray
    v: Matrix


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a dense real matrix.

    Raises NonFiniteInput if any entry is NaN or infinite.
    """
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u=np.ascontiguousarray(u), sigma=s, v=np.ascontiguousarray(vh.T))


def retained_rank(s: SvdResult, tau: float = 0.0) -> int:
    """Number of singular triples strictly above the relative cutoff
    ``tau * sigma_1``.  sigma is non-increasing, so the survivors are the
    leading triples.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return int(np.count_nonzero(s.sigma > tau * s.sigma[0]))


def lowrank_truncate(s: SvdResult, tau: float = 0.0) -> Tuple[Matrix, Matrix]:
    """The factors of the triples ``retained_rank`` keeps: ``u_k * sigma_k``
    (rows x k) and ``v_k`` (cols x k), whose product ``left @ right.T`` is
    the truncated matrix; k is 0 when no triple survives.
    """
    rank = retained_rank(s, tau)
    return s.u[:, :rank] * s.sigma[:rank], s.v[:, :rank].copy()


def weighted_sum(terms: Sequence[Tuple[float, Matrix]], out: Optional[Matrix] = None) -> Matrix:
    """Elementwise sum of ``weight * matrix`` over the terms, added in order
    to ``out``, which is updated in place and returned, or to zeros shaped
    like the first of at least one term."""
    if out is None:
        if len(terms) == 0:
            raise ValueError("weighted_sum needs at least one term")
        out = np.zeros_like(as_matrix(terms[0][1]))
    for weight, mat in terms:
        m = as_matrix(mat)
        if m.shape != out.shape:
            raise ShapeMismatch(f"term shape {m.shape} != {out.shape}")
        out += float(weight) * m
    return out
