"""Reference channel and family constructors.

Each generator returns an :class:`~sepcert.families.OperatorFamily` (or a
family/coefficients pair) with a known certificate outcome, making them the
standing regression targets for the certifier and the hunter.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .families import OperatorFamily, PartySpec, ProductOperator
from .linalg import as_matrix, frobenius, span_dimension
from .sampling import check_seed, independent_matrices

#: A matrix u of side d is unitary when |u^dag u - I|_F <= UNITARY_TOL sqrt(d).
UNITARY_TOL = 1e-10

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_E01 = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|
_E10 = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |1><0|


def gen_ladder_channel(mu: complex, phi: float = 0.0) -> OperatorFamily:
    """Three-operator two-qubit channel built on raising/lowering units.

    The members are ``|0><1| (x) diag(1, e^{i phi} sqrt(1-|mu|^2))``,
    ``diag(1, mu) (x) |0><1|`` and ``|1><0| (x) |1><0|``.  The positive parts
    telescope to the identity for every ``|mu| <= 1``, and all local factors
    stay pairwise independent, so the representation is certified unique
    across the whole parameter range.
    """
    mu = complex(mu)
    if abs(mu) > 1.0 + 1e-12:
        raise ParameterError(f"|mu| must be at most 1, got {abs(mu):.6f}")
    damp = np.sqrt(max(0.0, 1.0 - abs(mu) ** 2))
    k1_second = np.diag([1.0, np.exp(1j * float(phi)) * damp]).astype(np.complex128)
    k2_first = np.diag([1.0, mu]).astype(np.complex128)
    spec = PartySpec(((2, 2), (2, 2)))
    members = (
        ProductOperator(1.0, (_E01, k1_second)),
        ProductOperator(1.0, (k2_first, _E01)),
        ProductOperator(1.0, (_E10, _E10)),
    )
    return OperatorFamily(spec, members)


def smallest_prime_exceeding(d: int) -> int:
    """Smallest prime strictly greater than ``d`` (trial division)."""
    d = int(d)
    if d < 1:
        raise ParameterError("d must be positive")
    if d > 10**6:
        raise ParameterError("prime search budget is capped at 10**6")
    candidate = d + 1
    while True:
        if candidate >= 2 and all(
            candidate % q for q in range(2, int(candidate**0.5) + 1)
        ):
            return candidate
        candidate += 1


def gen_fourier_channel(dims) -> OperatorFamily:
    """Complete channel whose Kraus operators are rank-1 Fourier products.

    For input dimensions d_1 <= ... <= d_P with D = prod(d_alpha) and N the
    smallest prime above D, member j is
    ``sqrt(D/N) |0...0, j> <psi_j^(1)| (x) ... (x) <psi_j^(P)|`` where
    ``psi_j^(alpha)[m] = exp(2 pi i j p_alpha m / N) / sqrt(d_alpha)`` and the
    strides are p_1 = 1, p_alpha = d_1 ... d_{alpha-1}.  The last party's
    output lives in dimension N, making the output kets trivially
    independent; completeness is a complete character sum (the strides give
    every input index pair a distinct exponent multiplier, nonzero mod the
    prime N).
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ParameterError("the Fourier construction needs at least two parties")
    if any(d < 2 for d in dims):
        raise ParameterError(f"local dimensions must be at least 2, got {dims}")
    if dims != sorted(dims):
        raise ParameterError(f"local dimensions must be ascending, got {dims}")
    big_d = 1
    strides = []
    for d in dims:
        strides.append(big_d)
        big_d *= d
    n = smallest_prime_exceeding(big_d)
    n_parties = len(dims)

    parties = [(d, d) for d in dims]
    parties[-1] = (dims[-1], n)
    spec = PartySpec(tuple(parties))

    members = []
    weight = np.sqrt(big_d / n)
    for j in range(n):
        factors = []
        for alpha, (d, p) in enumerate(zip(dims, strides)):
            psi = np.exp(2j * np.pi * j * p * np.arange(d) / n) / np.sqrt(d)
            out_dim = n if alpha == n_parties - 1 else d
            ket = np.zeros((out_dim, 1), dtype=np.complex128)
            ket[j if alpha == n_parties - 1 else 0, 0] = 1.0
            factors.append(ket @ psi.conj()[None, :])
        members.append(ProductOperator(weight, tuple(factors)))
    return OperatorFamily(spec, tuple(members))


def gen_product_unitary_channel(unitaries, q) -> OperatorFamily:
    """Random-unitary-style channel: K_j = sqrt(q_j) U_j^(1) (x) ... (x) U_j^(P).

    ``unitaries`` is one list of N unitary matrices per party; ``q`` is a
    strictly positive probability vector of length N.  Completeness always
    telescopes, so the interesting question is only ever uniqueness (which
    holds when each party's set is linearly independent).
    """
    per_party = [[as_matrix(u) for u in party] for party in unitaries]
    if not per_party:
        raise ParameterError("need at least one party")
    n = len(per_party[0])
    if n < 1 or any(len(party) != n for party in per_party):
        raise ParameterError("every party needs the same number of unitaries")
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.size != n:
        raise ParameterError(f"got {q.size} weights for {n} members")
    if np.any(q <= 0):
        raise ParameterError("all probabilities must be strictly positive")
    if abs(q.sum() - 1.0) > 1e-9:
        raise ParameterError(f"probabilities must sum to 1, got {q.sum():.12f}")
    for p, party in enumerate(per_party):
        for j, u in enumerate(party):
            if u.shape[0] != u.shape[1]:
                raise ParameterError(f"party {p}, member {j}: unitary must be square")
            d = u.shape[0]
            if frobenius(u.conj().T @ u - np.eye(d)) > UNITARY_TOL * np.sqrt(d):
                raise ParameterError(f"party {p}, member {j}: matrix is not unitary")
    spec = PartySpec(tuple((party[0].shape[0], party[0].shape[0]) for party in per_party))
    members = tuple(
        ProductOperator(
            np.sqrt(q[j]), tuple(per_party[p][j] for p in range(len(per_party)))
        )
        for j in range(n)
    )
    return OperatorFamily(spec, members)


def gen_pauli_pair_channel() -> OperatorFamily:
    """Four-member mixed-unitary channel with matched Pauli factors.

    The local factor set is {I, sigma_x, sigma_y, (I + i sigma_x +
    i sigma_y)/sqrt(3)} on both qubits (the same factor on each side of every
    member) with uniform weights 1/4.  Every two local factors span a
    two-dimensional space and every three or more span a three-dimensional
    one, which certifies the representation unique.
    """
    w = (_I2 + 1j * _SX + 1j * _SY) / np.sqrt(3.0)
    members = tuple(
        ProductOperator(0.5, (f, f)) for f in (_I2, _SX, _SY, w)
    )
    return OperatorFamily(PartySpec(((2, 2), (2, 2))), members)


def gen_projective_basis(d1: int, d2: int) -> OperatorFamily:
    """Standard-basis projective measurement |ij><ij| on two parties.

    The canonical Inconclusive example: members sharing a local projector
    form witness subsets, and remixing such a pair yields genuinely different
    product representations of the same channel.
    """
    d1, d2 = int(d1), int(d2)
    if d1 < 2 or d2 < 2:
        raise ParameterError("projective example needs both dimensions >= 2")
    # The spec enforces the element budget before any member is built.
    spec = PartySpec(((d1, d1), (d2, d2)))
    members = []
    for i in range(d1):
        for j in range(d2):
            p1 = np.zeros((d1, d1), dtype=np.complex128)
            p1[i, i] = 1.0
            p2 = np.zeros((d2, d2), dtype=np.complex128)
            p2[j, j] = 1.0
            members.append(ProductOperator(1.0, (p1, p2)))
    return OperatorFamily(spec, tuple(members))


def heisenberg_weyl_unitaries(d: int) -> list[np.ndarray]:
    """Shift/clock unitaries X^a Z^b in (a, b) lexicographic order.

    All d*d of them are unitary and mutually orthogonal in the
    Hilbert-Schmidt inner product, hence linearly independent — the standard
    stock of independent unitaries for augmentation.
    """
    d = int(d)
    if d < 1:
        raise ParameterError("dimension must be positive")
    shift = np.zeros((d, d), dtype=np.complex128)
    for m in range(d):
        shift[(m + 1) % d, m] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d)).astype(np.complex128)
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d)
        for b in range(d)
    ]


def augment_channel(fam: OperatorFamily, u1, u2) -> OperatorFamily:
    """Tensor two independent unitaries onto each member: K_j (x) U_j (x) V_j.

    Both unitary lists must be linearly independent sets of length N.  The
    augmented family represents a channel on P + 2 parties that is complete
    whenever the input was, and is always certified unique — the two
    appended parties have full local span N, so every subset of n members
    shows a split with span sum 2n > n + 1.
    """
    u1 = [as_matrix(u) for u in u1]
    u2 = [as_matrix(u) for u in u2]
    n = fam.n_members
    if len(u1) != n or len(u2) != n:
        raise ParameterError(
            f"need exactly {n} unitaries per appended party, got {len(u1)} and {len(u2)}"
        )
    for name, lst in (("first", u1), ("second", u2)):
        d = lst[0].shape[0]
        for j, u in enumerate(lst):
            if u.shape != (d, d):
                raise ParameterError(f"{name} appended party: member {j} shape mismatch")
            if frobenius(u.conj().T @ u - np.eye(d)) > UNITARY_TOL * np.sqrt(d):
                raise ParameterError(f"{name} appended party: member {j} is not unitary")
        if span_dimension(lst) != n:
            raise ParameterError(
                f"{name} appended party: the unitaries must be linearly independent"
            )
    spec = PartySpec(
        fam.spec.parties
        + ((u1[0].shape[0], u1[0].shape[0]), (u2[0].shape[0], u2[0].shape[0]))
    )
    members = tuple(
        ProductOperator(m.weight, m.factors + (u1[j], u2[j]))
        for j, m in enumerate(fam.members)
    )
    return OperatorFamily(spec, members)


def gen_tight_family(
    n: int, n_parties: int = 2, local_dim: int | None = None, seed: int = 0
) -> tuple[OperatorFamily, np.ndarray]:
    """Dependent family saturating the pair bound: S + M_1 - M_1 + ... + M_n - M_n.

    Returns N = 2n + 1 product operators (one S member, each M_i listed
    twice) together with the defining coefficient vector (1, 1, -1, ...,
    1, -1).  Per party, {S^(alpha), M_i^(alpha)} is sampled linearly
    independent, so every party's local span is n + 1 and every pair of
    parties meets delta_alpha + delta_beta = 2(n + 1) = N + 1 exactly.
    """
    n = int(n)
    n_parties = int(n_parties)
    if n < 1:
        raise ParameterError("n must be at least 1")
    if n_parties < 2:
        raise ParameterError("need at least two parties")
    if local_dim is None:
        local_dim = n + 1
    local_dim = int(local_dim)
    if local_dim < n + 1:
        raise ParameterError(
            f"local_dim must be at least n + 1 = {n + 1} so the local sets "
            "can be linearly independent"
        )
    check_seed(seed)
    # The spec enforces the element budget before any factor is sampled.
    spec = PartySpec(tuple((local_dim, local_dim) for _ in range(n_parties)))
    rng = np.random.default_rng(seed)
    locals_per_party = [
        independent_matrices(rng, local_dim, n + 1) for _ in range(n_parties)
    ]
    members = [
        ProductOperator(1.0, tuple(locals_per_party[p][0] for p in range(n_parties)))
    ]
    for i in range(1, n + 1):
        twin = ProductOperator(
            1.0, tuple(locals_per_party[p][i] for p in range(n_parties))
        )
        members.extend([twin, twin])
    coeffs = np.ones(2 * n + 1, dtype=np.complex128)
    coeffs[2::2] = -1.0
    return OperatorFamily(spec, tuple(members)), coeffs
