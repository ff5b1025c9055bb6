"""Dense complex-matrix primitives: Kronecker products, column-stacking
vectorization, bipartite realignment, tolerance-based numerical rank,
Schmidt rank, span dimension, and proportionality testing.

Conventions used throughout the package:

* Matrices are 2-D ``numpy.ndarray`` objects with ``complex128`` entries.
* Vectorization stacks successive *columns*, so ``vectorize(m)[k*rows + r]
  == m[r, k]``.
* In every Kronecker product the *first* factor is the slow index:
  ``kron(a, b)[(i1, i2), (j1, j2)] == a[i1, j1] * b[i2, j2]`` with composite
  row index ``i1 * b.rows + i2``.
* ``realign_bipartite`` is indexed so that for a single product term the
  identity ``realign(kron(a, b)) == vectorize(b) @ vectorize(a).T`` holds
  exactly, and consequently for any weighted sum of product terms the
  realignment factors as (B columns) x diag(coefficients) x (A columns)^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
    SizeBudgetError,
)

# Hard cap on the number of entries any single matrix produced by kron/assemble
# may have.  Guards against accidentally tensoring up astronomically large
# operators; generous enough for every family this package targets.
MAX_MATRIX_ELEMENTS = 1 << 24

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TolerancePolicy:
    """Cutoff policy for numerical rank decisions.

    ``relative_rank_threshold`` is the fraction of the largest singular value
    below which singular values count as zero.  ``None`` selects the
    dimension-scaled default ``max(rows, cols) * eps * 1e3`` (about
    ``1e-12 * dim``).  ``absolute_floor`` is an unconditional lower cutoff.
    """

    relative_rank_threshold: float | None = None
    absolute_floor: float = 1e-14

    def __post_init__(self):
        rel = self.relative_rank_threshold
        if rel is not None and not (0.0 <= rel < 1.0):
            raise ParameterError(f"relative_rank_threshold must lie in [0, 1), got {rel}")
        if not (0.0 <= self.absolute_floor < np.inf):
            raise ParameterError(
                f"absolute_floor must be finite and nonnegative, got {self.absolute_floor}"
            )

    def relative_for(self, rows: int, cols: int) -> float:
        if self.relative_rank_threshold is not None:
            return self.relative_rank_threshold
        return max(rows, cols) * _EPS * 1e3

    def cutoff(self, sigma_max, rows: int, cols: int):
        """Singular values at or below this count as zero.

        ``sigma_max`` may be an array holding the largest singular value of
        each of several rows x cols matrices; the result is then per matrix.
        """
        return np.maximum(self.relative_for(rows, cols) * sigma_max, self.absolute_floor)

    def to_dict(self) -> dict:
        return {
            "relative_rank_threshold": self.relative_rank_threshold,
            "absolute_floor": self.absolute_floor,
        }


DEFAULT_TOLERANCE = TolerancePolicy()


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the slow index."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.size * b.size > MAX_MATRIX_ELEMENTS:
        raise SizeBudgetError(
            f"kron result would have {a.size * b.size} entries "
            f"(budget {MAX_MATRIX_ELEMENTS})"
        )
    return np.kron(a, b)


def vectorize(m) -> np.ndarray:
    """Column-stack a matrix into a (rows*cols, 1) column vector."""
    m = as_matrix(m)
    return m.reshape(-1, 1, order="F")


def unvectorize(v, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`vectorize` for a target (rows, cols) shape."""
    arr = np.asarray(v, dtype=np.complex128).reshape(-1)
    rows, cols = shape
    if arr.size != rows * cols:
        raise ShapeError(f"cannot reshape length-{arr.size} vector to {shape}")
    return arr.reshape((rows, cols), order="F")


def vectorized_columns(matrices) -> np.ndarray:
    """One column per matrix: the (rows*cols, len) matrix of their vectorizations."""
    return np.hstack([vectorize(m) for m in matrices])


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _svdvals(stack: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD failed on {'x'.join(map(str, stack.shape))} matrix stack "
            f"(frobenius norm {np.linalg.norm(stack):.3e}): {exc}"
        ) from exc


def stacked_ranks(
    stack: np.ndarray, rows: int, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Numerical rank of each matrix in a (B, r, k) stack, from one SVD call.

    The cutoff of each matrix is ``tol.cutoff`` for ``rows`` x k, so a stack
    of compressed matrices (say R factors of a thin QR, which keep the
    singular values of the taller originals) is judged by the original
    row count.  Entries must be finite.
    """
    sigma = _svdvals(stack)
    cut = tol.cutoff(sigma[:, 0], rows, stack.shape[2])
    return np.count_nonzero(sigma > cut[:, None], axis=1)


def numerical_rank(m, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
    """Count singular values above the policy cutoff."""
    m = as_matrix(m)
    if m.size == 0:
        return 0
    return int(stacked_ranks(m[None], m.shape[0], tol)[0])


def realign_bipartite(s, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Reshuffle a bipartite operator so its rank equals the Schmidt rank.

    ``dims`` is ``(a_out, a_in, b_out, b_in)`` with the A party as the slow
    tensor index of ``s``.  The output has shape ``(b_out*b_in, a_out*a_in)``
    and satisfies ``out[vec(b_out,b_in) index of (k,l), vec(a_out,a_in) index
    of (m,n)] == s[(m,k), (n,l)]``, so each A-indexed block of ``s`` becomes
    one column of the result.  A stack ``(..., rows, cols)`` of operators is
    realigned matrix by matrix.
    """
    s = np.asarray(s, dtype=np.complex128)
    a_out, a_in, b_out, b_in = dims
    if min(dims) < 1:
        raise ShapeError(f"dimensions must be positive, got {dims}")
    if s.shape[-2:] != (a_out * b_out, a_in * b_in):
        raise ShapeError(
            f"matrix shape {s.shape} does not match dims {dims} "
            f"(expected {(a_out * b_out, a_in * b_in)})"
        )
    lead = s.shape[:-2]
    blocks = s.reshape(*lead, a_out, b_out, a_in, b_in)
    # Row of the result is the column-stacked (k, l) pair, column the
    # column-stacked (m, n) pair; both match the vectorize() layout.
    n = len(lead)
    return blocks.transpose(*range(n), n + 3, n + 1, n + 2, n).reshape(
        *lead, b_out * b_in, a_out * a_in
    )


def schmidt_rank(s, dims: tuple[int, int, int, int]) -> int:
    """Numerical rank of the bipartite realignment of ``s``."""
    return numerical_rank(realign_bipartite(s, dims))


def span_dimension(matrices) -> int:
    """Dimension of the linear span of a list of same-shaped matrices."""
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        return 0
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ShapeError(f"span members disagree in shape: {shape} vs {m.shape}")
    return numerical_rank(vectorized_columns(mats))


def proportional(a, b, tol: float = 1e-10) -> complex | None:
    """Return ``lam`` with ``a ~= lam * b`` (Frobenius-relative), else None.

    The scalar is read off at the largest-magnitude entry of ``b`` to avoid
    dividing by near-zeros.  Both inputs must be nonzero.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = frobenius(a)
    norm_b = frobenius(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateInputError("proportionality is undefined for a zero matrix")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    lam = complex(a[idx] / b[idx])
    if frobenius(a - lam * b) <= tol * norm_a:
        return lam
    return None
