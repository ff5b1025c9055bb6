"""Random instance generators for fuzzing and search restarts.

Everything here is seeded through ``numpy.random.Generator`` so that fuzz
suites and planted constructions are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError
from .families import OperatorFamily, PartySpec, ProductOperator
from .linalg import span_dimension

_RESAMPLE_LIMIT = 100


def complex_randn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex Gaussian entries (variance 1 per complex entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generators refuse."""
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")


def random_nonzero_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex coefficients with magnitudes uniform in [0.2, 1)."""
    mags = rng.uniform(0.2, 1.0, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return mags * np.exp(1j * phases)


def random_product_family(
    rng: np.random.Generator, local_dims, n_members: int
) -> OperatorFamily:
    """Family of ``n_members`` random product operators with square factors.

    ``local_dims`` is one dimension per party, e.g. ``(2, 3)``.
    """
    dims = [int(d) for d in local_dims]
    spec = PartySpec(tuple((d, d) for d in dims))
    members = tuple(
        ProductOperator(1.0, tuple(complex_randn(rng, d, d) for d in dims))
        for _ in range(n_members)
    )
    return OperatorFamily(spec, members)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary via the QR trick."""
    return random_isometry(rng, d, d)


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random isometry u with u^dag u = I (rows >= cols)."""
    if rows < cols:
        raise ParameterError(f"an isometry needs rows >= cols, got {rows} x {cols}")
    z = complex_randn(rng, rows, cols)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def random_povm(rng: np.random.Generator, d: int, n_outcomes: int) -> list[np.ndarray]:
    """A random POVM: positive semidefinite effects summing to the identity."""
    if n_outcomes < 1:
        raise ParameterError("a POVM needs at least one outcome")
    raw = []
    for _ in range(n_outcomes):
        a = complex_randn(rng, d, d)
        raw.append(a @ a.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    if np.min(vals) <= 0:
        raise NumericError("POVM normalizer is singular; resample")
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return [inv_sqrt @ p @ inv_sqrt for p in raw]


def random_product_measurement(
    rng: np.random.Generator, local_dims, outcomes_per_party
) -> OperatorFamily:
    """Complete product Kraus family from independent per-party POVMs.

    Member (i_1, ..., i_P) carries the factor (E^(alpha)_{i_alpha})^{1/2} on
    party alpha; completeness telescopes party by party.
    """
    dims = [int(d) for d in local_dims]
    counts = [int(c) for c in outcomes_per_party]
    if len(counts) != len(dims):
        raise ParameterError("need one outcome count per party")
    kraus_locals = []
    for d, c in zip(dims, counts):
        effects = random_povm(rng, d, c)
        kraus_locals.append([_psd_sqrt(e) for e in effects])
    spec = PartySpec(tuple((d, d) for d in dims))
    members = []
    index = np.ndindex(*counts)
    for combo in index:
        factors = tuple(kraus_locals[p][combo[p]] for p in range(len(dims)))
        members.append(ProductOperator(1.0, factors))
    return OperatorFamily(spec, tuple(members))


def independent_matrices(
    rng: np.random.Generator, d: int, count: int
) -> list[np.ndarray]:
    """``count`` linearly independent random d x d matrices (count <= d*d)."""
    if count > d * d:
        raise ParameterError(f"cannot fit {count} independent matrices in dim {d}x{d}")
    for _ in range(_RESAMPLE_LIMIT):
        mats = [complex_randn(rng, d, d) for _ in range(count)]
        if span_dimension(mats) == count:
            return mats
    raise NumericError("failed to sample linearly independent matrices")


def planted_dependent_family(
    rng: np.random.Generator,
    n_parties: int,
    varying_party: int,
    n_independent: int,
    n_extra: int,
    local_dim: int,
) -> tuple[OperatorFamily, np.ndarray]:
    """Linearly dependent product family with a known product combination.

    All parties except ``varying_party`` carry one fixed random factor per
    party, shared by every member.  The varying party carries ``n_independent``
    independent matrices B_1..B_k, followed by ``n_extra`` members whose
    varying factor is a combination of the B_i with every expansion
    coefficient nonzero.  Any linear combination of the members is then a
    product operator whenever its varying-party part is nonzero, the family
    spans only ``n_independent`` dimensions, and the span bound with N
    replaced by the span dimension holds pair by pair.

    Returns the family together with one all-nonzero coefficient vector whose
    combination is a (nonzero) product operator.
    """
    if n_independent < 1 or n_extra < 1:
        raise ParameterError("need at least one independent and one extra member")
    if local_dim * local_dim < n_independent:
        raise ParameterError("local_dim too small for the requested independent set")
    if not (0 <= varying_party < n_parties):
        raise ParameterError(f"varying_party {varying_party} out of range")

    fixed = [complex_randn(rng, local_dim, local_dim) for _ in range(n_parties)]
    basis = independent_matrices(rng, local_dim, n_independent)

    def member_with(varying_factor: np.ndarray) -> ProductOperator:
        factors = [fixed[p] for p in range(n_parties)]
        factors[varying_party] = varying_factor
        return ProductOperator(1.0, tuple(factors))

    members = [member_with(b) for b in basis]
    expansions = []
    for _ in range(n_extra):
        gamma = random_nonzero_coefficients(rng, n_independent)
        expansions.append(gamma)
        members.append(member_with(sum(g * b for g, b in zip(gamma, basis))))

    spec = PartySpec(tuple((local_dim, local_dim) for _ in range(n_parties)))
    fam = OperatorFamily(spec, tuple(members))

    # One known all-nonzero combination: weights mu_t on the extras, folded
    # back onto the basis members, with the extras scaled so the total does
    # not cancel to zero.
    for _ in range(_RESAMPLE_LIMIT):
        mu = random_nonzero_coefficients(rng, n_extra)
        base_part = sum(m * g for m, g in zip(mu, expansions))
        coeffs = np.concatenate([base_part, -2.0 * mu])
        if np.min(np.abs(coeffs)) > 1e-6:
            return fam, coeffs
    raise NumericError("failed to sample an all-nonzero witness combination")


def shared_factor_family(
    rng: np.random.Generator,
    n_parties: int,
    varying_party: int,
    n_members: int,
    local_dim: int,
) -> OperatorFamily:
    """Linearly independent family in which only one party's factor varies.

    Every linear combination of the members is automatically a product
    operator, which makes these the natural probes for conjectured
    span-sum bounds on independent families.
    """
    if local_dim * local_dim < n_members:
        raise ParameterError("local_dim too small for an independent family")
    fixed = [complex_randn(rng, local_dim, local_dim) for _ in range(n_parties)]
    varying = independent_matrices(rng, local_dim, n_members)
    members = []
    for v in varying:
        factors = [fixed[p] for p in range(n_parties)]
        factors[varying_party] = v
        members.append(ProductOperator(1.0, tuple(factors)))
    spec = PartySpec(tuple((local_dim, local_dim) for _ in range(n_parties)))
    return OperatorFamily(spec, tuple(members))
