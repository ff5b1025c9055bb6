"""Channel/state dictionary: product Kraus families as product ket ensembles.

Vectorizing each local factor turns a product Kraus family into a family of
product kets on the same parties (with ``d_in = 1`` and local dimension
``d_out * d_in``).  The Gram sum of those kets is the (unnormalized) Choi
matrix of the channel, so channel equality becomes matrix equality and the
uniqueness certificate carries over unchanged: vectorization preserves every
local span dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, UsageError
from .families import OperatorFamily, PartySpec, ProductOperator
from .linalg import frobenius, vectorize

#: Hermiticity and PSD slack of a DensityMatrix, relative to max(1, |rho|_F).
STATE_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Unnormalized density matrix over a composite of party dimensions.

    Hermiticity and positive semidefiniteness are checked at construction
    (eigenvalues may dip to ``-STATE_TOL`` times the scale before we complain).
    Trace normalization is deliberately not enforced; ensembles of
    non-normalized kets are the working currency here.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        total = int(np.prod(self.dims)) if self.dims else 0
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"density matrix must be square, got {m.shape}")
        if m.shape[0] != total:
            raise ShapeError(
                f"matrix side {m.shape[0]} does not match dims {self.dims} "
                f"(product {total})"
            )
        scale = max(1.0, frobenius(m))
        if frobenius(m - m.conj().T) > STATE_TOL * scale:
            raise ParameterError("density matrix is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if eigs.size and eigs.min() < -STATE_TOL * scale:
            raise ParameterError(
                f"density matrix has negative eigenvalue {eigs.min():.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def channel_to_choi_ensemble(fam: OperatorFamily) -> OperatorFamily:
    """Vectorize every local factor, keeping weights and party count.

    Party ``alpha`` of the resulting ket family has dimension
    ``d_out(alpha) * d_in(alpha)`` (column-stacked, input index slow), so the
    product structure survives party by party and local span dimensions are
    exactly those of the original factors.
    """
    parties = tuple(
        (1, fam.spec.d_out(p) * fam.spec.d_in(p)) for p in range(fam.n_parties)
    )
    spec = PartySpec(parties)
    members = tuple(
        ProductOperator(m.weight, tuple(vectorize(f) for f in m.factors))
        for m in fam.members
    )
    return OperatorFamily(spec, members)


def ensemble_to_state(ens: OperatorFamily) -> DensityMatrix:
    """Gram sum rho = sum_j |psi_j><psi_j| over the assembled product kets."""
    if ens.spec.total_d_in != 1:
        raise UsageError("ensemble_to_state expects a ket family (all d_in = 1)")
    total = ens.spec.total_d_out
    rho = np.zeros((total, total), dtype=np.complex128)
    for m in ens.members:
        ket = m.assemble()
        rho += ket @ ket.conj().T
    dims = tuple(ens.spec.d_out(p) for p in range(ens.n_parties))
    return DensityMatrix(rho, dims)


def channels_equal(fam_a: OperatorFamily, fam_b: OperatorFamily, tol: float = 1e-10) -> bool:
    """Whether two Kraus families implement the same channel.

    Compares the unnormalized Choi matrices in Frobenius norm, relative to
    ``max(1, |rho_a|_F, |rho_b|_F)``.  This is the operational sense in which
    a remixed family is "the same channel" while e.g. different damping
    parameters are not.
    """
    if fam_a.spec != fam_b.spec:
        raise UsageError(
            f"party specs differ: {fam_a.spec.parties} vs {fam_b.spec.parties}"
        )
    rho_a = ensemble_to_state(channel_to_choi_ensemble(fam_a)).matrix
    rho_b = ensemble_to_state(channel_to_choi_ensemble(fam_b)).matrix
    scale = max(1.0, frobenius(rho_a), frobenius(rho_b))
    return frobenius(rho_a - rho_b) <= tol * scale
