"""Dense complex-matrix primitives: Kronecker products, column-stacking
vectorization, bipartite realignment, tolerance-based numerical rank,
Schmidt rank, span dimension, proportionality testing, and the checks on
coefficient vectors and unitaries that several modules share.

Numerical rank is decided in one place, ``stacked_ranks``: the count of
singular values above the cutoff of a ``TolerancePolicy``.  On request it
first tries to prove full rank with a shifted Gram-Cholesky factorization
(``_proves_full_rank``), a fraction of an SVD's cost, with the same
verdict.  The same proof, ``_proves_gram_floor``, also bounds the r-subset
rank floors of ``certify`` and the hunter's compound screen.

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

import math
from dataclasses import dataclass
from numbers import Real

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

#: Singular values at or below this count as zero under every policy.
ABSOLUTE_FLOOR = 1e-14

#: A matrix u of side d is unitary when |u^dag u - I|_F <= UNITARY_TOL sqrt(d).
UNITARY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("matrix contains non-finite entries")
    return arr


def _coefficient_vector(coeffs, n: int) -> np.ndarray:
    """``coeffs`` as a complex vector of the ``n`` finite coefficients of a
    member combination."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != n:
        raise ShapeError(f"got {c.size} coefficients for {n} members")
    if not np.isfinite(c).all():
        raise ParameterError("coefficients must be finite")
    return c


def _check_unitary(u: np.ndarray, what: str) -> None:
    """Raise unless the matrix ``u`` is square and unitary to ``UNITARY_TOL``."""
    d = u.shape[0]
    if u.shape != (d, d):
        raise ParameterError(f"{what} must be square, got shape {u.shape}")
    if frobenius(u.conj().T @ u - np.eye(d)) > UNITARY_TOL * math.sqrt(d):
        raise ParameterError(f"{what} is not unitary")


@dataclass(frozen=True)
class TolerancePolicy:
    """Cutoff policy for numerical rank decisions.

    ``relative_rank_threshold`` is the fraction of the largest singular value
    at or below which singular values count as zero; its default, 1e-10, is
    the library's and the CLI's.  ``ABSOLUTE_FLOOR`` is an unconditional
    lower cutoff.  No row or column count enters the cutoff, so a matrix and
    the R factor of its thin QR get the same ranks.
    """

    relative_rank_threshold: float = 1e-10

    def __post_init__(self):
        rel = self.relative_rank_threshold
        if not (isinstance(rel, Real) and 0.0 <= rel < 1.0):
            raise ParameterError(f"relative_rank_threshold must lie in [0, 1), got {rel}")

    def cutoff(self, sigma_max):
        """Singular values at or below this count as zero.

        ``sigma_max`` may be an array holding the largest singular value of
        each of several matrices; the result is then per matrix.
        """
        return np.maximum(self.relative_rank_threshold * sigma_max, ABSOLUTE_FLOOR)

    def to_dict(self) -> dict:
        return {
            "relative_rank_threshold": self.relative_rank_threshold,
            "absolute_floor": ABSOLUTE_FLOOR,
        }


DEFAULT_TOLERANCE = TolerancePolicy()


def _check_elements(entries: int, what: str) -> None:
    """Refuse ``what``, of ``entries`` entries, past the budget, before it is built."""
    if entries > MAX_MATRIX_ELEMENTS:
        raise SizeBudgetError(f"{what} would have {entries} entries, past the element budget")


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor slowest; ``SizeBudgetError`` past the budget."""
    a = as_matrix(a)
    b = as_matrix(b)
    _check_elements(a.size * b.size, "kron result")
    return np.kron(a, b)


def _kron_rows(stacks) -> np.ndarray:
    """Row-wise Kronecker product of (R, rows, cols) stacks, first stack
    slowest: one broadcast multiply per extra stack, which rounds as
    ``reduce(kron, ...)`` does on each row."""
    out = stacks[0]
    for f in stacks[1:]:
        (n, ra, ca), (_, rb, cb) = out.shape, f.shape
        out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(
            n, ra * rb, ca * cb
        )
    return out


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


def unit_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``m`` at unit norm, and the scale s_j of each: column
    j of ``m`` is s_j times column j of the result.  A column is divided by
    its largest entry before its norm is taken, so the norm cannot
    overflow; a zero column stays zero, with scale 0."""
    top = np.abs(m).max(axis=0)
    out = m / np.where(top > 0, top, 1.0)
    norm = np.linalg.norm(out, axis=0)
    out /= np.where(norm > 0, norm, 1.0)
    return out, top * norm


def _rescaled(c: np.ndarray, scales: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Map each row of coefficients c between members M_j = scales_j U_j
    and their unit columns U_j: sum_j c_j M_j is sum_j (c_j scales_j) U_j,
    so a row becomes c_j scales_j, or with ``inverse`` c_j / scales_j, at
    unit norm.  The factors, scales / max or min / scales, are at most 1,
    so no product overflows; a zero scale gives 0."""
    mag = np.abs(scales)
    num, den = (mag[mag > 0].min(initial=np.inf), scales) if inverse else (scales, mag.max())
    factors = np.divide(num, den, out=np.zeros_like(scales), where=mag > 0)
    return unit_columns((c * factors).T)[0].T


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


def svd_error_scale(n: int, p: int) -> float:
    """kappa = (n + p + 6)^2 eps for matrices of at most n rows and columns
    and at most p of the smaller: ``kappa * s`` bounds the SVD's error on
    each singular value of such a matrix whose Frobenius norm is at most s,
    and ``1 + kappa`` covers the rounding of a computed Frobenius norm (the
    bound is written out in ``_proves_full_rank``)."""
    return (n + p + 6) ** 2 * _EPS


def _proves_gram_floor(gram: np.ndarray, floor, err) -> bool:
    """True only when a Cholesky factorization of ``G - (floor + err) I``
    succeeds for each Hermitian p x p matrix G of the (..., p, p) stack
    ``gram``, whose diagonals it overwrites.  Success proves lambda_min >
    floor >= 0 for the exact matrix that G approximates, when err bounds
    ||G - exact|| plus (p + 4) eps trace G (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 3.6 and ch. 10): subtracting
    tau = floor + err rounds each diagonal entry by at most
    u (G_ii + tau) <= eps trace G, u = eps / 2, as a larger tau fails a
    pivot; and a Cholesky factorization that completes on A is exact for
    A + E with ||E|| <= gamma_{p+1} trace A / (1 - gamma_{p+1})^2 (Thm 10.5;
    complex arithmetic adds a small constant factor).  So G - tau I, moved
    by less than err, is positive definite, and by Weyl lambda_min >
    tau - err.  A non-finite G or shift returns False, as OpenBLAS factors
    NaNs without failing; one failing matrix fails the whole stack.
    """
    shift = np.asarray(floor + err)
    with np.errstate(all="ignore"):
        np.einsum("...ii->...i", gram)[...] -= shift[..., None]
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
        # A NaN or infinity in G or the shift reaches the factor's diagonal.
        return math.isfinite(factor.diagonal(0, -2, -1).real.sum())


def _proves_full_rank(stack: np.ndarray, tol: TolerancePolicy, bound=None) -> bool:
    """True when a shifted Gram-Cholesky factorization proves that every
    matrix M in the (B, r, k) stack has an exact sigma_min above ``bound``,
    by default c + d (below), so that its SVD rank is p = min(r, k).

    Its p x p Gram G (``M^H M`` when k <= r, else ``M M^H``) is off by at
    most sqrt(2) gamma_{n+2} ||M||_F^2, n = max(r, k) (Higham section 3.6),
    and f = trace G by about as much.  With kappa = ``svd_error_scale(n,
    p)`` and s = sqrt(f) (1 + kappa) >= sigma_max, that and the
    factorization's (p + 4) eps f sum to at most (n + p + 6) eps s^2, an
    eighth of err = kappa s^2 at most, so ``_proves_gram_floor`` proves
    sigma_min > ``bound``, or by default sigma_min > c + d for d = kappa s
    and c = ``tol.cutoff(s + d)``.  LAPACK's SVD is backward stable, with an
    error of order p n u sigma_max, at most d: its sigma_max is at most
    s + d, so its cutoff is at most c, and by Weyl its sigma_min exceeds c,
    so it counts all p singular values as well.  False sends the stack to
    the SVD: an empty stack, p == 0, a non-finite f (Gram overflow) or a
    failed factorization.
    """
    count, r, k = stack.shape
    p, n = min(r, k), max(r, k)
    if count == 0 or p == 0:
        return False
    h = stack.conj().swapaxes(1, 2)
    with np.errstate(all="ignore"):
        gram = h @ stack if k <= r else stack @ h
        f = gram.reshape(count, p * p)[:, :: p + 1].real.sum(axis=1)
        kappa = svd_error_scale(n, p)
        s = np.sqrt(f) * (1 + kappa)
        d = kappa * s
        if bound is None:
            bound = tol.cutoff(s + d) + d
        floor = bound**2
    return _proves_gram_floor(gram, floor, kappa * s * s)


def _compound_gram(stacks) -> np.ndarray:
    """Gram matrix W^H W of the second-compound matrix W of a member subset.

    W stacks one block per cut; column (j, k) of a block, pairs j < k in
    ``np.triu_indices`` order, is (a_j ^ a_k) (x) (b_j ^ b_k) for the side
    columns a, b of ``stacks``.  By Cauchy-Binet C_2((B * c) @ A^T) is then
    W_cut p(c) with p(c) = (c_j c_k)_{j<k}, so W p(c) = 0 exactly when the
    combination c is a product (or vanishes).  Each wedge inner product
    <a_j ^ a_k, a_l ^ a_m> is the 2x2 minor G[j,l] G[k,m] - G[j,m] G[k,l]
    of the side Gram G = A^H A, so no wedge column is formed.

    Rounding, for ``_proves_gram_floor``: with sides of at most ``rows``
    rows, P cuts, m_j = |a_j| |b_j| = |F_j| (F the vectorized members) and
    delta = sqrt(2) gamma_{rows+2} (Higham section 3.6), side-Gram entries
    are off by at most delta |a_j| |a_l|, minors (each at most
    |a_j| |a_k| |a_l| |a_m|) by 6 delta times that, and Gram entries by
    14 delta P m_j m_k m_l m_m.  As sum_{j<k} m_j^2 m_k^2 <= |F|_F^4 / 2, the
    Gram is off by less than 5 (rows + 2) eps P |F|_F^4.  With the
    factorization's (pairs + 4) eps trace, pairs = C(n, 2), and a trace of
    about P |F|_F^4 / 2 at most, that stays below 5 (rows + pairs + 6) eps
    P |F|_F^4, which kappa P |F|_F^4 covers, kappa = ``svd_error_scale`` of
    (rows, pairs).

    The hunter's sides are the R factors, of at most n rows, of thin
    Householder QRs of unit columns (``OperatorFamily.unit_side``), and
    ``rows`` counts the rows before the QR.  The QR is exact for columns
    a_j + e_j with |e_j| <= gamma~_{rows n} |a_j| (Higham Thm 19.4), which
    adds about 2 gamma~_{rows n} |a_j| |a_l| to the side Grams' error (the
    Gram of R itself rounds no worse than that of the columns): a term of
    order 7 rows n eps P |F|_F^4 in the Gram's.  kappa at the uncompressed
    ``rows`` covers it too, being at least (rows + pairs)^2 eps > rows
    (rows + n (n - 1)) eps, (rows + pairs + 6) / 5 times the bound above.
    """
    j, k = np.triu_indices(stacks[0][0].shape[1], 1)
    jj, kk, jk, kj = np.ix_(j, j), np.ix_(k, k), np.ix_(j, k), np.ix_(k, j)
    gram = 0.0
    for a_mat, b_mat in stacks:
        block = 1.0
        for side in (a_mat, b_mat):
            g = side.conj().T @ side
            block = block * (g[jj] * g[kk] - g[jk] * g[kj])
        gram = gram + block
    return gram


def stacked_ranks(
    stack: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE, screen: bool = False
) -> np.ndarray:
    """Numerical rank of each matrix in a (B, r, k) stack, from at most one SVD call.

    The cutoff of each matrix is ``tol.cutoff`` of its largest singular
    value, so a stack of R factors of thin QRs gets the ranks of the taller
    originals, whose singular values they keep.  Entries must be finite.

    With ``screen``, full rank is first proven by a shifted Gram-Cholesky
    factorization (``_proves_full_rank``), which costs a fraction of the
    SVD.  When it succeeds every rank is min(r, k), the same verdict the SVD
    gives; when it does not, the SVD decides the whole stack.  Screen stacks
    that are likely full rank: on a deficient one it always fails and only
    adds its cost.
    """
    if screen and _proves_full_rank(stack, tol):
        return np.full(len(stack), min(stack.shape[1:]), dtype=np.intp)
    sigma = _svdvals(stack)
    cut = tol.cutoff(sigma[:, 0])
    return np.count_nonzero(sigma > cut[:, None], axis=1)


def numerical_rank(m, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
    """Count singular values above the policy cutoff."""
    m = as_matrix(m)
    if m.size == 0:
        return 0
    return int(stacked_ranks(m[None], tol)[0])


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
    """Dimension of the linear span of a list of same-shaped matrices: the
    rank of their vectorizations at unit norm (``unit_columns``)."""
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        return 0
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ShapeError(f"span members disagree in shape: {shape} vs {m.shape}")
    return numerical_rank(unit_columns(np.hstack([vectorize(m) for m in mats]))[0])


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
