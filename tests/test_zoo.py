"""Generator zoo: construction contracts for every built-in family."""

import itertools
import math

import numpy as np
import pytest

import sepcert.zoo
from sepcert.certify import certify_unique, verify_completeness
from sepcert.errors import ParameterError, ShapeError, SizeBudgetError
from sepcert.families import OperatorFamily, PartySpec, ProductOperator, span_bound_report
from sepcert.linalg import proportional, span_dimension
from sepcert.sampling import (
    _psd_sqrt,
    complex_randn,
    haar_unitary,
    independent_matrices,
    planted_dependent_family,
    random_nonzero_coefficients,
    random_povm,
    random_product_family,
    random_product_measurement,
    shared_factor_family,
)
from sepcert.zoo import (
    augment_channel,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
    gen_tight_family,
    heisenberg_weyl_unitaries,
    smallest_prime_exceeding,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _unitary_lists(rng, n, d=2):
    return [
        [haar_unitary(rng, d) for _ in range(n)],
        [haar_unitary(rng, d) for _ in range(n)],
    ]


# ---------------------------------------------------------------------------
# Completeness across the whole zoo of channels


@pytest.mark.parametrize(
    "fam",
    [
        gen_ladder_channel(0.5),
        gen_ladder_channel(0.0),
        gen_ladder_channel(1.0),
        gen_ladder_channel(0.9 * np.exp(1j * np.pi / 3), phi=np.pi / 7),
        gen_fourier_channel((2, 2)),
        gen_fourier_channel((2, 3)),
        gen_fourier_channel((2, 2, 2)),
        gen_pauli_pair_channel(),
        gen_projective_basis(2, 2),
        gen_projective_basis(2, 3),
        gen_product_unitary_channel(
            _unitary_lists(np.random.default_rng(40), 3), [0.5, 0.25, 0.25]
        ),
    ],
    ids=[
        "ladder-half",
        "ladder-zero",
        "ladder-edge",
        "ladder-complex",
        "fourier-22",
        "fourier-23",
        "fourier-222",
        "pauli",
        "projective-22",
        "projective-23",
        "product-unitary",
    ],
)
def test_zoo_channels_are_complete(fam):
    report = verify_completeness(fam)
    assert report.is_complete
    assert report.residual < 1e-10


# ---------------------------------------------------------------------------
# smallest_prime_exceeding


@pytest.mark.parametrize("d,p", [(1, 2), (2, 3), (4, 5), (6, 7), (8, 11), (100, 101)])
def test_smallest_prime_exceeding(d, p):
    assert smallest_prime_exceeding(d) == p


def test_smallest_prime_exceeding_bounds():
    with pytest.raises(ParameterError):
        smallest_prime_exceeding(0)
    with pytest.raises(ParameterError):
        smallest_prime_exceeding(10**6 + 1)


# ---------------------------------------------------------------------------
# Ladder channel


def test_ladder_rejects_large_mu():
    with pytest.raises(ParameterError):
        gen_ladder_channel(1.01)


@pytest.mark.parametrize("mu, phi", [(0.5, np.inf), (0.5, np.nan), (np.nan, 0.0),
                                     (complex(0.0, np.nan), 0.3), (complex(np.inf, 0.0), 0.0)])
def test_ladder_refuses_non_finite_parameters(mu, phi):
    with pytest.raises(ParameterError, match="must be finite"):
        gen_ladder_channel(mu, phi)


def test_ladder_structure():
    fam = gen_ladder_channel(0.5)
    assert fam.n_members == 3
    assert tuple(fam.spec.parties) == ((2, 2), (2, 2))
    np.testing.assert_allclose(fam.members[0].factors[0], [[0, 1], [0, 0]])
    np.testing.assert_allclose(fam.members[1].factors[0], np.diag([1.0, 0.5]))


def test_ladder_positive_parts():
    # K^dag K per party at mu = 1/2: the diagonal positive parts whose
    # weighted kron-sum telescopes to the identity.
    fam = gen_ladder_channel(0.5)
    expected_party0 = [np.diag([0.0, 1.0]), np.diag([1.0, 0.25]), np.diag([1.0, 0.0])]
    expected_party1 = [np.diag([1.0, 0.75]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]
    for m, p0, p1 in zip(fam.members, expected_party0, expected_party1):
        f0, f1 = m.factors
        np.testing.assert_allclose(f0.conj().T @ f0, p0, atol=1e-14)
        np.testing.assert_allclose(f1.conj().T @ f1, p1, atol=1e-14)


# ---------------------------------------------------------------------------
# Fourier channel


@pytest.mark.parametrize("dims,n", [((2, 2), 5), ((2, 3), 7), ((2, 2, 2), 11), ((3, 3), 11)])
def test_fourier_member_count_is_next_prime(dims, n):
    fam = gen_fourier_channel(dims)
    assert fam.n_members == n
    assert fam.spec.d_out(len(dims) - 1) == n


def test_fourier_rejects_bad_dims():
    with pytest.raises(ParameterError):
        gen_fourier_channel((2,))
    with pytest.raises(ParameterError):
        gen_fourier_channel((3, 2))  # must be ascending
    with pytest.raises(ParameterError):
        gen_fourier_channel((1, 2))


def test_fourier_last_party_stride_phases():
    # dims (2, 3): strides are (1, 2) and N = 7.  Member j's last-party factor
    # is |j><psi_j| with psi_j[m] = exp(2 pi i * 2jm / 7) / sqrt(3).
    fam = gen_fourier_channel((2, 3))
    for j in (1, 4):
        f = fam.members[j].factors[1]
        assert f.shape == (7, 3)
        expected_row = np.exp(-2j * np.pi * 2 * j * np.arange(3) / 7) / np.sqrt(3)
        np.testing.assert_allclose(f[j], expected_row, atol=1e-14)
        # All other rows vanish.
        mask = np.ones(7, dtype=bool)
        mask[j] = False
        assert np.all(f[mask] == 0)


def test_fourier_character_sum_by_explicit_loops():
    # Independent completeness check: sum_j (D/N) prod_alpha psi_j[k] psi_j[k']*
    # collapses to a geometric character sum that vanishes unless k = k'.
    dims = (2, 3)
    strides = (1, 2)
    n = 7
    big_d = 6
    gram = np.zeros((big_d, big_d), dtype=complex)
    for j in range(n):
        psi = np.ones((1, 1), dtype=complex)
        for d, p in zip(dims, strides):
            local = np.exp(2j * np.pi * j * p * np.arange(d) / n) / np.sqrt(d)
            psi = np.kron(psi, local.reshape(-1, 1))
        gram += (big_d / n) * (psi @ psi.conj().T)
    np.testing.assert_allclose(gram, np.eye(big_d), atol=1e-13)
    # The packaged family reproduces the same gram through its factors.
    fam = gen_fourier_channel(dims)
    acc = np.zeros((big_d, big_d), dtype=complex)
    for m in fam.members:
        k = m.weight * np.kron(m.factors[0], m.factors[1])
        acc += k.conj().T @ k
    np.testing.assert_allclose(acc, np.eye(big_d), atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3)])
def test_fourier_first_party_factors_pairwise_independent(dims):
    # 0 < |j - j'| < N with N prime, so no two first-party phases coincide.
    fam = gen_fourier_channel(dims)
    factors = fam.local_factors(0)
    for a, b in itertools.combinations(range(fam.n_members), 2):
        assert proportional(factors[a], factors[b]) is None


# ---------------------------------------------------------------------------
# Pauli pair channel


def test_pauli_channel_shape_and_unitarity():
    fam = gen_pauli_pair_channel()
    assert fam.n_members == 4
    assert all(m.weight == 0.5 for m in fam.members)
    for m in fam.members:
        for f in m.factors:
            np.testing.assert_allclose(f.conj().T @ f, I2, atol=1e-12)
    # Both parties carry the same factor in each member.
    for m in fam.members:
        np.testing.assert_array_equal(m.factors[0], m.factors[1])


def test_pauli_channel_span_profile():
    fam = gen_pauli_pair_channel()
    for party in (0, 1):
        factors = fam.local_factors(party)
        for i in range(4):
            for j in range(i + 1, 4):
                assert span_dimension([factors[i], factors[j]]) == 2
    # Triples and the full set span only 3 dimensions: the fourth member is
    # a combination of the first three.
    assert span_dimension(fam.local_factors(0)) == 3
    for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        factors = [fam.local_factors(0)[i] for i in triple]
        assert span_dimension(factors) == 3


def test_pauli_channel_is_unique():
    assert certify_unique(gen_pauli_pair_channel()).status == "Unique"


# ---------------------------------------------------------------------------
# Projective basis


def test_projective_members_are_basis_projectors():
    fam = gen_projective_basis(2, 3)
    assert fam.n_members == 6
    for idx, m in enumerate(fam.members):
        i, j = divmod(idx, 3)
        np.testing.assert_array_equal(m.factors[0], np.diag(np.eye(2)[i]))
        np.testing.assert_array_equal(m.factors[1], np.diag(np.eye(3)[j]))


def test_generators_check_the_element_budget_before_building(monkeypatch):
    # A 65x65 pair of parties is a 4225x4225 operator, over the 2**24 budget.
    built = []

    class Recorded:  # zoo's numpy, which builds every stack: each use is noted
        def __getattr__(self, name):
            built.append(name)
            return getattr(np, name)

    monkeypatch.setattr(sepcert.zoo, "np", Recorded())
    monkeypatch.setattr(sepcert.zoo, "independent_matrices", lambda *a: built.append(1))
    with pytest.raises(SizeBudgetError):
        gen_projective_basis(65, 65)
    with pytest.raises(SizeBudgetError):
        gen_tight_family(1, local_dim=65)
    assert built == []


def test_projective_validation():
    with pytest.raises(ParameterError):
        gen_projective_basis(1, 2)


# ---------------------------------------------------------------------------
# Product-unitary channel


def test_product_unitary_validation():
    rng = np.random.default_rng(41)
    us = _unitary_lists(rng, 2)
    with pytest.raises(ParameterError):
        gen_product_unitary_channel(us, [0.7, 0.7])  # probabilities must sum to 1
    with pytest.raises(ParameterError):
        gen_product_unitary_channel(us, [1.5, -0.5])  # must be nonnegative
    with pytest.raises(ParameterError):
        gen_product_unitary_channel([us[0], us[1][:1]], [0.5, 0.5])  # ragged
    bad = [[np.ones((2, 2)), I2], [I2, I2]]
    with pytest.raises(ParameterError):
        gen_product_unitary_channel(bad, [0.5, 0.5])
    with pytest.raises(ParameterError, match="must be square"):
        gen_product_unitary_channel([[np.ones((2, 3))]], [1.0])
    with pytest.raises(ParameterError, match="at least one party"):
        gen_product_unitary_channel([], [])
    with pytest.raises(ParameterError, match="got 2 weights for 1 members"):
        gen_product_unitary_channel([[I2], [I2]], [0.5, 0.5])
    with pytest.raises(ShapeError, match="share their dimension"):
        gen_product_unitary_channel([[I2, np.eye(3)]], [0.5, 0.5])


def test_product_unitary_weights_are_sqrt_probabilities():
    rng = np.random.default_rng(42)
    fam = gen_product_unitary_channel(_unitary_lists(rng, 2), [0.64, 0.36])
    assert fam.members[0].weight == pytest.approx(0.8)
    assert fam.members[1].weight == pytest.approx(0.6)


def test_single_unitary_channel_is_unique():
    rng = np.random.default_rng(43)
    fam = gen_product_unitary_channel(_unitary_lists(rng, 1), [1.0])
    assert certify_unique(fam).status == "Unique"


# ---------------------------------------------------------------------------
# Heisenberg-Weyl unitaries and augmentation


def test_heisenberg_weyl_qubit_order():
    hw = heisenberg_weyl_unitaries(2)
    assert len(hw) == 4
    np.testing.assert_allclose(hw[0], I2, atol=0)
    np.testing.assert_allclose(hw[1], SZ, atol=1e-14)
    np.testing.assert_allclose(hw[2], SX, atol=1e-14)
    np.testing.assert_allclose(hw[3], SX @ SZ, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_heisenberg_weyl_unitary_and_orthogonal(d):
    hw = heisenberg_weyl_unitaries(d)
    assert len(hw) == d * d
    for u in hw:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
    gram = np.array([[np.trace(a.conj().T @ b) for b in hw] for a in hw])
    np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-10)
    assert span_dimension(list(hw)) == d * d


def test_augment_projective_basis_to_unique():
    # The four-projector basis is not certifiable on its own, but tagging the
    # members with independent unitaries on two fresh parties pins it down.
    base = gen_projective_basis(2, 2)
    hw = heisenberg_weyl_unitaries(2)
    fam = augment_channel(base, list(hw), list(hw[::-1]))
    assert fam.n_parties == 4
    assert tuple(fam.spec.parties)[2:] == ((2, 2), (2, 2))
    assert verify_completeness(fam).is_complete
    assert certify_unique(fam).status == "Unique"


def test_augment_validation():
    base = gen_projective_basis(2, 2)
    hw = list(heisenberg_weyl_unitaries(2))
    with pytest.raises(ParameterError):
        augment_channel(base, hw[:3], hw)  # wrong count
    with pytest.raises(ParameterError):
        augment_channel(base, [I2, I2, SX, SZ], hw)  # dependent tags
    with pytest.raises(ParameterError):
        augment_channel(base, [np.ones((2, 2))] * 4, hw)  # not unitary
    with pytest.raises(ParameterError, match="shape mismatch"):
        augment_channel(base, [np.ones((2, 3))] * 4, hw)
    with pytest.raises(ParameterError, match="dimension must be positive"):
        heisenberg_weyl_unitaries(0)


# ---------------------------------------------------------------------------
# Tight family


def test_tight_family_structure():
    fam, coeffs = gen_tight_family(2, seed=0)
    assert fam.n_members == 5
    np.testing.assert_array_equal(coeffs, [1, 1, -1, 1, -1])
    # Twin members are exact duplicates.
    for a, b in [(1, 2), (3, 4)]:
        np.testing.assert_array_equal(
            fam.members[a].assemble(), fam.members[b].assemble()
        )


def test_tight_family_combination_telescopes_to_first_member():
    fam, coeffs = gen_tight_family(3, seed=1)
    total = sum(c * m.assemble() for c, m in zip(coeffs, fam.members))
    np.testing.assert_allclose(total, fam.members[0].assemble(), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_tight_family_saturates_span_bound(n):
    fam, coeffs = gen_tight_family(n, seed=n)
    report = span_bound_report(fam, coeffs)
    assert report.delta_a == n + 1
    assert report.delta_b == n + 1
    assert report.delta_sum == fam.n_members + 1
    assert report.schmidt_rank == 1
    assert report.holds and report.equality


def test_tight_family_multiparty_span_total():
    n, n_parties = 2, 3
    fam, _ = gen_tight_family(n, n_parties=n_parties, seed=4)
    total = sum(fam.span_dim((p,)) for p in range(n_parties))
    assert total == n_parties * (fam.n_members + 1) // 2


def test_tight_family_validation():
    with pytest.raises(ParameterError):
        gen_tight_family(0)
    with pytest.raises(ParameterError):
        gen_tight_family(2, n_parties=1)
    with pytest.raises(ParameterError):
        gen_tight_family(3, local_dim=3)  # needs at least n+1


# ---------------------------------------------------------------------------
# Every generator fills its stacks as the per-member build did: one
# ProductOperator per member, stacked by OperatorFamily(spec, members).


def _ladder_by_members(mu, phi):
    mu = complex(mu)
    e01 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    e10 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
    damp = np.sqrt(max(0.0, 1.0 - abs(mu) ** 2))
    k1_second = np.diag([1.0, np.exp(1j * float(phi)) * damp]).astype(np.complex128)
    k2_first = np.diag([1.0, mu]).astype(np.complex128)
    members = [ProductOperator(1.0, (e01, k1_second)), ProductOperator(1.0, (k2_first, e01)),
               ProductOperator(1.0, (e10, e10))]
    return OperatorFamily(PartySpec(((2, 2), (2, 2))), members)


def _fourier_by_members(dims):
    big_d = math.prod(dims)
    n = smallest_prime_exceeding(big_d)
    strides = [math.prod(dims[:alpha]) for alpha in range(len(dims))]
    members = []
    for j in range(n):
        factors = []
        for alpha, (d, p) in enumerate(zip(dims, strides)):
            psi = np.exp(2j * np.pi * j * p * np.arange(d) / n) / np.sqrt(d)
            last = alpha == len(dims) - 1
            ket = np.zeros((n if last else d, 1), dtype=np.complex128)
            ket[j if last else 0, 0] = 1.0
            factors.append(ket @ psi.conj()[None, :])
        members.append(ProductOperator(np.sqrt(big_d / n), tuple(factors)))
    parties = [(d, d) for d in dims[:-1]] + [(dims[-1], n)]
    return OperatorFamily(PartySpec(tuple(parties)), members)


def _pauli_by_members():
    i2 = np.eye(2, dtype=np.complex128)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    w = (i2 + 1j * sx + 1j * sy) / np.sqrt(3.0)
    members = [ProductOperator(0.5, (f, f)) for f in (i2, sx, sy, w)]
    return OperatorFamily(PartySpec(((2, 2), (2, 2))), members)


def _projective_by_members(d1, d2):
    members = []
    for i in range(d1):
        for j in range(d2):
            p1 = np.zeros((d1, d1), dtype=np.complex128)
            p1[i, i] = 1.0
            p2 = np.zeros((d2, d2), dtype=np.complex128)
            p2[j, j] = 1.0
            members.append(ProductOperator(1.0, (p1, p2)))
    return OperatorFamily(PartySpec(((d1, d1), (d2, d2))), members)


def _tight_by_members(n, n_parties, local_dim, seed):
    rng = np.random.default_rng(seed)
    locals_per_party = [independent_matrices(rng, local_dim, n + 1) for _ in range(n_parties)]
    members = [ProductOperator(1.0, tuple(mats[0] for mats in locals_per_party))]
    for i in range(1, n + 1):
        twin = ProductOperator(1.0, tuple(mats[i] for mats in locals_per_party))
        members.extend([twin, twin])
    return OperatorFamily(PartySpec(((local_dim, local_dim),) * n_parties), members)


def _random_by_members(rng, dims, n_members):
    members = [ProductOperator(1.0, tuple(complex_randn(rng, d, d) for d in dims))
               for _ in range(n_members)]
    return OperatorFamily(PartySpec(tuple((d, d) for d in dims)), members)


def _measurement_by_members(rng, dims, counts):
    kraus_locals = [[_psd_sqrt(e) for e in random_povm(rng, d, c)] for d, c in zip(dims, counts)]
    members = [ProductOperator(1.0, tuple(kraus_locals[p][i] for p, i in enumerate(combo)))
               for combo in np.ndindex(*counts)]
    return OperatorFamily(PartySpec(tuple((d, d) for d in dims)), members)


def _shared_by_members(rng, n_parties, varying_party, n_members, local_dim):
    fixed = [complex_randn(rng, local_dim, local_dim) for _ in range(n_parties)]
    members = []
    for v in independent_matrices(rng, local_dim, n_members):
        factors = list(fixed)
        factors[varying_party] = v
        members.append(ProductOperator(1.0, tuple(factors)))
    return OperatorFamily(PartySpec(((local_dim, local_dim),) * n_parties), members)


def _planted_by_members(rng, n_parties, varying_party, n_independent, n_extra, local_dim):
    base = _shared_by_members(rng, n_parties, varying_party, n_independent, local_dim)
    basis = [m.factors[varying_party] for m in base.members]
    factors = list(base.members[0].factors)
    members = list(base.members)
    for _ in range(n_extra):
        gamma = random_nonzero_coefficients(rng, n_independent)
        factors[varying_party] = sum(g * b for g, b in zip(gamma, basis))
        members.append(ProductOperator(1.0, tuple(factors)))
    return OperatorFamily(base.spec, members)


def _generator_cases():
    tight = lambda *a: gen_tight_family(*a)[0]  # noqa: E731
    planted = lambda *a: planted_dependent_family(*a)[0]  # noqa: E731
    grid = [  # generator, its per-member build, its argument tuples
        (gen_ladder_channel, _ladder_by_members,
         [(0.5, 0.0), (1.0, 0.3), (0.9 * np.exp(1j * np.pi / 3), np.pi / 7), (0.0, -2.0)]),
        (gen_fourier_channel, _fourier_by_members,
         [((2, 2),), ((2, 3),), ((2, 2, 2),), ((3, 3),), ((2, 4),)]),
        (gen_pauli_pair_channel, _pauli_by_members, [()]),
        (gen_projective_basis, _projective_by_members, [(2, 2), (2, 3), (3, 3), (2, 4), (4, 5)]),
        (tight, _tight_by_members, [(1, 2, 2, 0), (2, 2, 3, 1), (2, 3, 3, 3), (2, 4, 4, 5)]),
    ]
    seeded = [  # the same for generators that draw from a generator seeded 0 or 1
        (random_product_family, _random_by_members, [((2, 2, 2), 13), ((2, 3), 7)]),
        (random_product_measurement, _measurement_by_members,
         [((2, 2, 2), (2, 1, 3)), ((2, 3), (2, 3))]),
        (shared_factor_family, _shared_by_members, [(3, 2, 4, 2)]),
        (planted, _planted_by_members, [(3, 1, 3, 2, 2), (2, 0, 2, 3, 3)]),
    ]
    cases = [(None, *row) for row in grid] + [(s, *row) for s in (0, 1) for row in seeded]
    return [
        pytest.param(build, by_members, args, seed, id="-".join(
            [by_members.__name__[1:-len("_by_members")]]
            + ["".join(map(str, a)) if isinstance(a, tuple) else f"{a:.3g}" for a in args]
            + ([] if seed is None else [f"seed{seed}"])))
        for seed, build, by_members, grid in cases
        for args in grid
    ]


@pytest.mark.parametrize("build, by_members, args, seed", _generator_cases())
def test_generators_equal_their_per_member_build(build, by_members, args, seed):
    def run(generator):
        return generator(*args) if seed is None else generator(np.random.default_rng(seed), *args)

    # Raw bytes: a -0.0 where the per-member build has +0.0 changes the saved JSON.
    fam, want = run(build), run(by_members)
    assert fam.spec == want.spec
    assert fam.weights.tobytes() == want.weights.tobytes()
    for p in range(want.n_parties):
        assert fam.local_factors(p).tobytes() == want.local_factors(p).tobytes()
