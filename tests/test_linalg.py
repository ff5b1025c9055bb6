import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcert.errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
    SizeBudgetError,
)
from sepcert.families import OperatorFamily, ProductOperator
from sepcert.hunter import _unit_members
from sepcert.linalg import (
    ABSOLUTE_FLOOR,
    DEFAULT_TOLERANCE,
    TolerancePolicy,
    _compound_gram,
    _proves_full_rank,
    _proves_gram_floor,
    as_matrix,
    frobenius,
    kron,
    numerical_rank,
    proportional,
    realign_bipartite,
    schmidt_rank,
    span_dimension,
    stacked_ranks,
    svd_error_scale,
    unvectorize,
    vectorize,
)
from sepcert.zoo import gen_projective_basis

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def crand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def realign_reference(s, dims):
    """Element-by-element reshuffle; the vectorized implementation must agree."""
    a_out, a_in, b_out, b_in = dims
    out = np.zeros((b_out * b_in, a_out * a_in), dtype=complex)
    for i in range(a_out):
        for k in range(a_in):
            for j in range(b_out):
                for l in range(b_in):
                    out[j + l * b_out, i + k * a_out] = s[i * b_out + j, k * b_in + l]
    return out


def test_vectorize_stacks_columns():
    m = np.array([[1, 2], [3, 4]])
    np.testing.assert_array_equal(vectorize(m).ravel(), [1, 3, 2, 4])


def test_vectorize_unvectorize_roundtrip():
    rng = np.random.default_rng(0)
    m = crand(rng, 3, 5)
    np.testing.assert_array_equal(unvectorize(vectorize(m), (3, 5)), m)


def test_unvectorize_rejects_bad_length():
    with pytest.raises(ShapeError):
        unvectorize(np.arange(5), (2, 3))


def test_kron_first_factor_is_slow_index():
    np.testing.assert_array_equal(
        kron(np.diag([1.0, 2.0]), I2), np.diag([1.0, 1.0, 2.0, 2.0])
    )


def test_kron_enforces_size_budget():
    wide = np.ones((1, 1 << 13))
    with pytest.raises(SizeBudgetError):
        kron(wide, wide)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 4, 2), (3, 2, 2, 4), (1, 2, 3, 1)])
def test_realign_matches_loop_reference(dims):
    rng = np.random.default_rng(hash(dims) % 2**32)
    a_out, a_in, b_out, b_in = dims
    s = crand(rng, a_out * b_out, a_in * b_in)
    np.testing.assert_allclose(
        realign_bipartite(s, dims), realign_reference(s, dims), atol=0
    )


def test_realign_of_product_is_vec_outer_product():
    rng = np.random.default_rng(1)
    a = crand(rng, 3, 2)
    b = crand(rng, 2, 4)
    r = realign_bipartite(np.kron(a, b), (3, 2, 2, 4))
    np.testing.assert_allclose(r, vectorize(b) @ vectorize(a).T, atol=1e-14)
    assert numerical_rank(r) == 1


def test_realign_of_weighted_sum_factorizes():
    # realign(sum_j c_j A_j (x) B_j) equals (B columns) diag(c) (A columns)^T
    rng = np.random.default_rng(2)
    n = 5
    a_list = [crand(rng, 2, 3) for _ in range(n)]
    b_list = [crand(rng, 4, 2) for _ in range(n)]
    c = crand(rng, n, 1).ravel()
    s = sum(cj * np.kron(aj, bj) for cj, aj, bj in zip(c, a_list, b_list))
    a_mat = np.hstack([vectorize(a) for a in a_list])
    b_mat = np.hstack([vectorize(b) for b in b_list])
    np.testing.assert_allclose(
        realign_bipartite(s, (2, 3, 4, 2)),
        b_mat @ np.diag(c) @ a_mat.T,
        atol=1e-13,
    )


def test_realign_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        realign_bipartite(np.eye(4), (2, 2, 2, 3))
    with pytest.raises(ShapeError, match="must be positive"):
        realign_bipartite(np.eye(4), (0, 2, 2, 2))


def test_swap_gate_has_full_schmidt_rank():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    assert schmidt_rank(swap, (2, 2, 2, 2)) == 4


def test_product_operator_has_schmidt_rank_one():
    rng = np.random.default_rng(3)
    s = np.kron(crand(rng, 2, 2), crand(rng, 3, 3))
    assert schmidt_rank(s, (2, 2, 3, 3)) == 1


def test_numerical_rank_default_cutoff():
    assert numerical_rank(np.diag([1.0, 1e-16])) == 1
    assert numerical_rank(np.diag([1.0, 1e-8])) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_numerical_rank_absolute_floor():
    # Tiny overall scale: everything sits below the absolute floor.
    rng = np.random.default_rng(4)
    assert numerical_rank(1e-20 * crand(rng, 3, 3)) == 0


def test_numerical_rank_explicit_relative_threshold():
    policy = TolerancePolicy(relative_rank_threshold=1e-3)
    assert numerical_rank(np.diag([1.0, 1e-4]), policy) == 1
    assert numerical_rank(np.diag([1.0, 1e-2]), policy) == 2


def test_tolerance_policy_validates():
    for bad in (1.5, -1e-3, float("nan"), None):
        with pytest.raises(ParameterError):
            TolerancePolicy(relative_rank_threshold=bad)
    # One cutoff for library and CLI: a fixed fraction of sigma_max.
    assert TolerancePolicy() == DEFAULT_TOLERANCE == TolerancePolicy(relative_rank_threshold=1e-10)
    assert not hasattr(TolerancePolicy, "relative_for")
    assert DEFAULT_TOLERANCE.cutoff(2.0) == 2e-10
    assert DEFAULT_TOLERANCE.cutoff(1e-6) == ABSOLUTE_FLOOR


def test_span_dimension_basic_cases():
    assert span_dimension([I2, SX, I2 + SX]) == 2
    assert span_dimension([I2, 2 * I2]) == 1
    assert span_dimension([]) == 0
    with pytest.raises(ShapeError):
        span_dimension([I2, np.eye(3)])


def test_proportional_recovers_scalar():
    rng = np.random.default_rng(5)
    b = crand(rng, 3, 3)
    lam = proportional((2 + 1j) * b, b)
    assert lam is not None
    assert abs(lam - (2 + 1j)) < 1e-12
    assert proportional(I2, SX) is None


def test_proportional_rejects_zero():
    with pytest.raises(DegenerateInputError):
        proportional(np.zeros((2, 2)), I2)
    with pytest.raises(ShapeError, match="shape mismatch"):
        proportional(I2, np.eye(3))


def test_as_matrix_rejections():
    with pytest.raises(ShapeError):
        as_matrix(np.arange(4))
    with pytest.raises(NumericError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_frobenius():
    assert frobenius(np.array([[3, 4]])) == pytest.approx(5.0)


@given(st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_realign_is_linear(seed, da, db):
    rng = np.random.default_rng(seed)
    dims = (da, da, db, db)
    s = crand(rng, da * db, da * db)
    t = crand(rng, da * db, da * db)
    a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    np.testing.assert_allclose(
        realign_bipartite(a * s + b * t, dims),
        a * realign_bipartite(s, dims) + b * realign_bipartite(t, dims),
        atol=1e-12,
    )


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_span_dimension_invariant_under_nonzero_scaling(seed, n):
    rng = np.random.default_rng(seed)
    mats = [crand(rng, 2, 3) for _ in range(n)]
    scales = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 2.0, n)
    scaled = [s * m for s, m in zip(scales, mats)]
    assert span_dimension(scaled) == span_dimension(mats)


POLICIES = [DEFAULT_TOLERANCE] + [
    TolerancePolicy(relative_rank_threshold=t) for t in (0.0, 1e-10, 1e-3, 0.5)
]
POLICY_IDS = ["default", "rel0", "rel1e-10", "rel1e-3", "rel0.5"]
# (r, k, compressed): tall, the 3 x 3 R factor of an 11 x 3 matrix's thin
# QR, square, wide, one column.
SHAPES = [(6, 3, False), (11, 3, True), (4, 4, False), (3, 7, False), (5, 1, False)]


def _svd_ranks(stack, tol):
    """The SVD-only rank: singular values above the cutoff of each matrix's
    largest one."""
    sigma = np.linalg.svd(stack, compute_uv=False)
    cut = tol.cutoff(sigma[:, 0])
    return np.count_nonzero(sigma > cut[:, None], axis=1)


def _check_screen(stack, tol):
    """The screened ranks equal the SVD-only ones, and a proof of full rank
    is only ever given where the SVD finds full rank; returns the proof."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks = stacked_ranks(stack, tol, screen=True)
        proved = _proves_full_rank(stack, tol)
    reference = _svd_ranks(stack, tol)
    np.testing.assert_array_equal(ranks, reference)
    if proved:
        assert (reference == min(stack.shape[1:])).all()
    return proved


def _planted(rng, r, k, sigma_min):
    """r x k matrix with Haar singular vectors and singular values spaced
    geometrically from 1 down to ``sigma_min`` (just ``sigma_min`` if
    min(r, k) == 1)."""
    p = min(r, k)
    sigma = np.geomspace(1.0, sigma_min, p) if p > 1 else np.array([sigma_min])
    u = np.linalg.qr(crand(rng, r, p))[0]
    v = np.linalg.qr(crand(rng, k, p))[0]
    return (u * sigma) @ v.conj().T


def _planted_past_gram_floor(rng, p, tol, share):
    """A p x p ``_planted`` matrix whose exact Gram has lambda_min
    (c + d)^2 + ``share`` err, with s, d, c and err = kappa s^2 those of
    ``_proves_full_rank`` on it.  sigma_min moves s a little, so it is found
    by fixed-point iteration."""
    kappa = svd_error_scale(p, p)
    sigma_min = 0.5
    for _ in range(60):
        s = np.linalg.norm(np.geomspace(1.0, sigma_min, p)) * (1 + kappa)
        d = kappa * s
        sigma_min = float(np.sqrt((tol.cutoff(s + d) + d) ** 2 + share * kappa * s * s))
    return _planted(rng, p, p, sigma_min)


#: The library's cutoff, and one at which c + d lies near s / 2: there the
#: + d moves (c + d)^2 by 2cd, about err, so a plant half an err past
#: (c + d)^2 lies past c^2 + err as well.  At smaller cutoffs 2cd is a
#: vanishing part of err.
MARGIN_POLICIES = [DEFAULT_TOLERANCE, TolerancePolicy(relative_rank_threshold=0.49)]


@pytest.mark.parametrize("tol", MARGIN_POLICIES, ids=["default", "rel0.49"])
def test_full_rank_screen_margin(tol):
    # The screen proves sigma_min > c + d through the Gram, whose error it
    # bounds by err: half an err past (c + d)^2 is not proven, twice err
    # is.  The first plant is proven once err, or at 0.49 the + d, is
    # dropped.
    rng = np.random.default_rng(21)
    for share, proven in [(0.5, False), (2.0, True)]:
        stack = _planted_past_gram_floor(rng, 4, tol, share)[None]
        assert _check_screen(stack, tol) is proven


@pytest.mark.parametrize(
    "r, k, compressed", SHAPES, ids=["tall", "compressed", "square", "wide", "k1"]
)
@pytest.mark.parametrize("tol", POLICIES, ids=POLICY_IDS)
def test_screened_ranks_equal_svd_ranks_near_the_cutoff(r, k, compressed, tol):
    rng = np.random.default_rng(13)
    # With one singular value the relative part cancels: the floor decides.
    cut = float(tol.cutoff(1.0)) if min(r, k) > 1 else ABSOLUTE_FLOOR
    targets = [cut * (1 - 1e-6), cut * (1 + 1e-6)] + [cut * 10.0**j for j in range(-3, 9)]
    if min(r, k) > 1:
        targets = [t for t in targets if t < 1.0]
    planted = np.stack([_planted(rng, r, k, t) for t in targets])
    if compressed:
        # The R factor keeps the singular values, so no row count is needed.
        planted = np.stack([np.linalg.qr(m, mode="r") for m in planted])
    proofs = [_check_screen(m[None], tol) for m in planted]
    # Just below the cutoff the rank is deficient, so no proof.  Just above
    # it a proof needs an absolute cutoff and one singular value: the
    # screen's margin is relative to sigma_max.
    assert not proofs[0]
    assert proofs[1] == (min(r, k) == 1)
    if tol.relative_rank_threshold in (0.0, 1e-10):
        # Eight orders above the cutoff, full rank is proven.
        assert proofs[-1]
    # A stack mixing provable and unprovable matrices goes to the SVD whole.
    assert not _check_screen(planted, tol)
    assert _check_screen(planted[proofs], tol) == any(proofs)


@pytest.mark.parametrize("tol", POLICIES, ids=POLICY_IDS)
def test_screen_defers_degenerate_stacks_to_the_svd(tol):
    rng = np.random.default_rng(14)
    full = crand(rng, 5, 4)
    repeated = full.copy()
    repeated[:, 3] = repeated[:, 0]
    zero = np.zeros((5, 4), dtype=complex)
    for stack in (repeated[None], zero[None], np.stack([full, repeated])):
        assert not _check_screen(stack, tol)
    # Scaled by 1e-160 the Gram matrix underflows, by 1e+160 it overflows.
    for scale in (1e-160, 1e160):
        assert not _check_screen(scale * full[None], tol)
        assert not _check_screen(scale * full.T[None], tol)
    empty = np.zeros((0, 5, 4), dtype=complex)
    assert _check_screen(empty, tol) is False
    assert stacked_ranks(empty, tol, screen=True).shape == (0,)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(-18.0, 0.0),
    st.sampled_from(range(len(POLICIES))),
)
@settings(max_examples=150, deadline=None)
def test_screen_proves_full_rank_only_where_the_svd_finds_it(seed, r, k, log_sigma, policy):
    rng = np.random.default_rng(seed)
    stack = np.stack([_planted(rng, r, k, 10.0**log_sigma) for _ in range(3)])
    _check_screen(stack, POLICIES[policy])


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.floats(-9.0, -0.5),
)
@settings(max_examples=60, deadline=None)
def test_gram_floor_is_proven_only_above_it(seed, p, log_floor):
    # Q diag(lam) Q^H with lam_min just below the floor is never proven,
    # with lam_min at twice the floor always.
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(crand(rng, p, p))[0]
    floor = 10.0**log_floor
    for lam_min, proven in [(floor * (1 - 10.0**-k), False) for k in range(1, 9)] + [
        (2 * floor, True)
    ]:
        lam = lam_min + np.r_[0.0, rng.random(p - 1)]
        gram = (q * lam) @ q.conj().T
        err = svd_error_scale(p, p) * lam.sum()
        assert _proves_gram_floor(gram, floor, err) is proven


@given(st.integers(0, 2**31 - 1), st.integers(-12, -4), st.sampled_from([(0, 1), (0, 1, 2, 3)]))
@settings(max_examples=40, deadline=None)
def test_compound_gram_is_proven_only_past_its_rounding(seed, log_noise, subset):
    # The projector pair shares a factor, so its compound Gram vanishes;
    # with Gaussian noise of size e on every factor its eigenvalues are
    # O(e^2), on both sides of the derived rounding bound.
    rng = np.random.default_rng(seed)
    proj = gen_projective_basis(2, 2)
    noisy = OperatorFamily(proj.spec, tuple(
        ProductOperator(m.weight, tuple(f + 10.0**log_noise * crand(rng, *f.shape)
                                        for f in m.factors))
        for m in proj.members
    ))
    sub = noisy.subfamily(subset)
    full, _, stacks = _unit_members(sub)
    gram = _compound_gram(stacks)
    pairs = len(gram)
    # Each party's side has 4 rows before its thin QR.
    rows = 4
    err = svd_error_scale(max(rows, pairs), min(rows, pairs)) * len(stacks) * frobenius(full) ** 4
    lam = np.linalg.eigvalsh(gram)[0]
    # The factorization's and eigvalsh's own rounding.
    slack = svd_error_scale(pairs, pairs) * np.trace(gram).real
    for floor in (0.0, lam - err / 2, lam - 2 * err):
        if floor < 0:
            continue
        proven = _proves_gram_floor(gram.copy(), floor, err)
        if proven:
            assert lam - floor > err - slack
        if lam - floor > 2 * err:
            assert proven
