"""Channel/ensemble correspondence and density-matrix plumbing."""

import itertools

import numpy as np
import pytest

from sepcert import (
    DensityMatrix,
    ParameterError,
    ShapeError,
    UsageError,
    certify_unique,
    channel_to_choi_ensemble,
    channels_equal,
    ensemble_to_state,
    family_from_factors,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_projective_basis,
    random_isometry,
    vectorize,
)
from sepcert.choi import _choi_gram
from sepcert.linalg import frobenius

I2 = np.eye(2)


def ket(i, d):
    v = np.zeros((d, 1))
    v[i, 0] = 1.0
    return v


# ---------------------------------------------------------------------------
# channel -> ensemble


def test_choi_ensemble_party_shapes():
    ens = channel_to_choi_ensemble(gen_ladder_channel(0.5))
    assert tuple(ens.spec.parties) == ((1, 4), (1, 4))
    assert ens.n_members == 3


def test_identity_kraus_maps_to_maximally_entangled_ket():
    fam = family_from_factors([(2, 2)], [(1.0, [I2])])
    ens = channel_to_choi_ensemble(fam)
    np.testing.assert_allclose(ens.members[0].factors[0], vectorize(I2))


def test_kraus_factors_become_vectorized_kets():
    fam = gen_ladder_channel(0.5)
    ens = channel_to_choi_ensemble(fam)
    for m_ch, m_en in zip(fam.members, ens.members):
        assert m_en.weight == m_ch.weight
        for f_ch, f_en in zip(m_ch.factors, m_en.factors):
            np.testing.assert_array_equal(f_en, vectorize(f_ch))


# ---------------------------------------------------------------------------
# ensemble -> state


def test_basis_ensemble_gives_identity_state():
    members = [(1.0, [ket(0, 2)]), (1.0, [ket(1, 2)])]
    ens = family_from_factors([(1, 2)], members)
    rho = ensemble_to_state(ens)
    np.testing.assert_allclose(rho.matrix, I2, atol=1e-14)
    assert rho.dims == (2,)


def test_product_ket_ensemble_state():
    members = [(1.0, [ket(0, 2), ket(0, 2)]), (1.0, [ket(1, 2), ket(1, 2)])]
    ens = family_from_factors([(1, 2), (1, 2)], members)
    rho = ensemble_to_state(ens)
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0, 0, 1.0]), atol=1e-14)
    assert rho.dims == (2, 2)


def test_ensemble_to_state_requires_kets():
    with pytest.raises(UsageError):
        ensemble_to_state(gen_ladder_channel(0.5))


def test_gram_state_invariant_under_isometric_remix():
    # rho = sum_j |v_j><v_j| only depends on span and gram of the kets, so
    # remixing them by an isometry leaves the state untouched.
    rng = np.random.default_rng(50)
    kets = [rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)) for _ in range(2)]
    members = [(1.0, [k]) for k in kets]
    ens = family_from_factors([(1, 3)], members)
    v = random_isometry(rng, 3, 2)  # three remixed kets from two
    stacked = np.hstack(kets) @ v.conj().T
    remixed = family_from_factors([(1, 3)], [(1.0, [stacked[:, [i]]]) for i in range(3)])
    np.testing.assert_allclose(
        ensemble_to_state(ens).matrix, ensemble_to_state(remixed).matrix, atol=1e-12
    )


def test_choi_state_is_positive_and_unnormalized():
    rho = ensemble_to_state(channel_to_choi_ensemble(gen_ladder_channel(0.5)))
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals.min() > -1e-12
    # Trace equals sum_j w_j^2 ||K_j||_F^2, not 1: 1.75 + 1.25 + 1 at mu = 1/2.
    assert rho.trace == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# DensityMatrix


def test_density_matrix_validation():
    with pytest.raises(ParameterError):
        DensityMatrix(-I2, (2,))
    with pytest.raises(ParameterError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
    with pytest.raises(ShapeError):
        DensityMatrix(np.eye(4), (2, 3))
    with pytest.raises(ShapeError):
        DensityMatrix(np.ones((2, 3)), (2, 3))


def test_density_matrix_is_read_only():
    rho = DensityMatrix(I2.astype(complex), (2,))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 7.0
    assert rho.trace == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# channels_equal


def test_channel_equals_itself():
    fam = gen_ladder_channel(0.5)
    assert channels_equal(fam, fam)


def test_distinct_parameters_differ():
    assert not channels_equal(gen_ladder_channel(0.5), gen_ladder_channel(0.75))


def test_channels_equal_requires_matching_specs():
    with pytest.raises(UsageError):
        channels_equal(gen_ladder_channel(0.5), gen_fourier_channel((2, 2)))


def test_remixed_kraus_family_is_the_same_channel():
    # Unitarily recombining Kraus operators preserves the channel.  Remix the
    # degenerate projector pair (members 0, 1 share the left factor).
    from sepcert import apply_mixing, mixing_unitary

    fam = gen_projective_basis(2, 2)
    remixed = apply_mixing(fam, (0, 1), mixing_unitary(np.pi / 4, 0.3))
    assert channels_equal(fam, remixed)
    assert not channels_equal(fam, gen_pauli_pair_channel())


def test_choi_gram_distances_match_the_state_reference():
    # Catalog pairs of equal spec, each family with itself, plus a remix.
    from sepcert import apply_mixing, mixing_unitary
    from test_acceptance import _zoo

    zoo = list(_zoo().values())
    proj = gen_projective_basis(2, 2)
    pairs = [(a, b) for a, b in itertools.product(zoo, zoo) if a.spec == b.spec]
    pairs.append((proj, apply_mixing(proj, (0, 1), mixing_unitary(np.pi / 4, 0.3))))
    for fam_a, fam_b in pairs:
        ref_a, ref_b = (
            ensemble_to_state(channel_to_choi_ensemble(f)).matrix for f in (fam_a, fam_b)
        )
        gram_a, gram_b = _choi_gram(fam_a), _choi_gram(fam_b)
        scale = max(frobenius(ref_a), frobenius(ref_b))
        assert abs(frobenius(gram_a) - frobenius(ref_a)) <= 1e-12 * scale
        assert abs(frobenius(gram_a - gram_b) - frobenius(ref_a - ref_b)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Certificate transfer


@pytest.mark.parametrize(
    "fam,status",
    [
        (gen_ladder_channel(0.5), "Unique"),
        (gen_fourier_channel((2, 2)), "Unique"),
        (gen_projective_basis(2, 2), "Inconclusive"),
    ],
    ids=["ladder", "fourier", "projective"],
)
def test_certificate_transfers_to_choi_ensemble(fam, status):
    # Local spans are preserved by vectorization, so the channel-level and
    # ensemble-level certificates must agree subset for subset.
    cert_channel = certify_unique(fam)
    cert_ensemble = certify_unique(channel_to_choi_ensemble(fam))
    assert cert_channel.status == cert_ensemble.status == status
    assert [w.members for w in cert_channel.witnesses] == [
        w.members for w in cert_ensemble.witnesses
    ]
