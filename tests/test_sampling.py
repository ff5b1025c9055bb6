"""Random instance generators used by the fuzzing and acceptance harnesses."""

import numpy as np
import pytest

from sepcert.certify import verify_completeness
from sepcert.errors import NumericError, ParameterError
from sepcert.linalg import span_dimension
from sepcert.sampling import (
    haar_unitary,
    independent_matrices,
    planted_dependent_family,
    random_isometry,
    random_povm,
    random_product_family,
    random_product_measurement,
    shared_factor_family,
)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(60)
    for d in (2, 3, 5):
        u = haar_unitary(rng, d)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_random_isometry():
    rng = np.random.default_rng(61)
    v = random_isometry(rng, 5, 3)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
    with pytest.raises(ParameterError):
        random_isometry(rng, 2, 3)


def test_random_povm_resolves_identity():
    rng = np.random.default_rng(62)
    elements = random_povm(rng, 3, 4)
    assert len(elements) == 4
    total = sum(elements)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
    for e in elements:
        assert np.linalg.eigvalsh(e).min() > -1e-12


def test_random_product_measurement_is_complete():
    rng = np.random.default_rng(63)
    fam = random_product_measurement(rng, (2, 3), (2, 2))
    assert fam.n_members == 4
    report = verify_completeness(fam)
    assert report.is_complete


def test_random_product_family_shape():
    rng = np.random.default_rng(64)
    fam = random_product_family(rng, (2, 3), 4)
    assert fam.n_members == 4
    assert tuple(fam.spec.parties) == ((2, 2), (3, 3))


def test_independent_matrices():
    rng = np.random.default_rng(65)
    mats = independent_matrices(rng, 3, 5)
    assert span_dimension(list(mats)) == 5
    with pytest.raises(ParameterError):
        independent_matrices(rng, 2, 5)  # more than d^2


def test_planted_dependent_family_combination_is_a_product():
    rng = np.random.default_rng(66)
    fam, coeffs = planted_dependent_family(
        rng, n_parties=2, varying_party=1, n_independent=3, n_extra=2, local_dim=3
    )
    assert fam.n_members == len(coeffs) == 5
    assert np.all(np.abs(coeffs) > 1e-6)
    # The planted combination is a nonzero product operator even though no
    # single member is proportional to it.
    from sepcert.hunter import product_residual

    combo = sum(c * m.assemble() for c, m in zip(coeffs, fam.members))
    assert np.linalg.norm(combo) > 1e-6
    assert product_residual(fam, coeffs) < 1e-10
    # The extras make the family linearly dependent.
    assert span_dimension(fam.assembled()) == 3


def test_shared_factor_family_is_degenerate_on_fixed_parties():
    rng = np.random.default_rng(67)
    fam = shared_factor_family(rng, n_parties=3, varying_party=1, n_members=4, local_dim=2)
    # All parties except the varying one hold a single shared factor.
    for party in (0, 2):
        assert fam.span_dim((party,)) == 1
    assert fam.span_dim((1,)) == 4


@pytest.mark.parametrize("varying_party", [5, -1])
def test_shared_factor_family_rejects_out_of_range_varying_party(varying_party):
    with pytest.raises(ParameterError, match="out of range"):
        shared_factor_family(np.random.default_rng(0), 3, varying_party, 4, 2)
