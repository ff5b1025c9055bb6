"""Uniqueness certification and completeness checks on known channels."""

import itertools

import numpy as np
import pytest

from sepcert import (
    STRATEGY_ALL_BIPARTITIONS,
    STRATEGY_PAIRS,
    EnumerationCapError,
    NumericError,
    OperatorFamily,
    ParameterError,
    ProductOperator,
    SizeBudgetError,
    TolerancePolicy,
    Witness,
    all_bipartitions,
    certify_unique,
    family_from_factors,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_projective_basis,
    gen_tight_family,
    party_pairs,
    random_product_family,
    vectorize,
    verify_completeness,
)
import sepcert.certify
from sepcert.certify import SUBSET_BLOCK, SplitSums
from sepcert.linalg import stacked_ranks

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)

PROJECTIVE_WITNESSES = [
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 3),
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1, 2, 3),
    (0, 1, 2, 3),
]


@pytest.mark.parametrize("mu", [0.5, 0.9 * np.exp(1j * np.pi / 3), 0.0, 1.0, -0.3j])
def test_ladder_channel_is_unique(mu):
    cert = certify_unique(gen_ladder_channel(mu))
    assert cert.status == "Unique"
    assert cert.witnesses == ()
    assert cert.subsets_examined == 4  # all subsets of {0,1,2} with >= 2 members


def test_projective_basis_is_inconclusive_with_known_witnesses():
    cert = certify_unique(gen_projective_basis(2, 2))
    assert cert.status == "Inconclusive"
    surviving = [w.members for w in cert.witnesses]
    assert surviving == PROJECTIVE_WITNESSES
    assert cert.subsets_examined == 11
    # The two anti-diagonal pairs are eliminated: their local spans are 2+2 > 3.
    assert (0, 3) not in surviving
    assert (1, 2) not in surviving
    # Each witness records the span sums that failed to exceed n+1.
    first = cert.witnesses[0]
    assert first.split_sums[0].delta_a + first.split_sums[0].delta_b <= len(first.members) + 1


def test_fourier_channel_is_unique():
    cert = certify_unique(gen_fourier_channel((2, 2)))
    assert cert.status == "Unique"
    assert cert.n_members == 5


def test_single_member_family_is_trivially_unique():
    fam = family_from_factors([(2, 2)], [(1.0, [I2])])
    cert = certify_unique(fam)
    assert cert.status == "Unique"
    assert cert.subsets_examined == 0


def test_certificate_dict_shape():
    cert = certify_unique(gen_ladder_channel(0.5))
    d = cert.to_dict()
    assert d["status"] == "Unique"
    assert d["strategy"] == "all_bipartitions"
    assert d["witnesses"] == []
    assert "tolerance" in d and "n_members" in d


def test_status_invariant_under_member_permutation_and_scaling():
    fam = gen_projective_basis(2, 2)
    perm = (2, 0, 3, 1)
    members = [
        (1.7 * fam.members[i].weight, [f.copy() for f in fam.members[i].factors])
        for i in perm
    ]
    shuffled = family_from_factors(tuple(fam.spec.parties), members)
    cert_a = certify_unique(fam)
    cert_b = certify_unique(shuffled)
    assert cert_a.status == cert_b.status == "Inconclusive"
    # Witnesses come back in the permuted labels but count identically.
    assert len(cert_a.witnesses) == len(cert_b.witnesses)


def test_strategy_changes_verdict_on_three_party_family():
    # Members I(x)I(x)I, X(x)X(x)I, X(x)I(x)X: every single-party pair of spans
    # sums to at most 4 = N+1, but the {0}|{1,2} bipartition sees 2 + 3 = 5.
    members = [
        (1.0, [I2, I2, I2]),
        (1.0, [SX, SX, I2]),
        (1.0, [SX, I2, SX]),
    ]
    fam = family_from_factors([(2, 2)] * 3, members)
    cert_pairs = certify_unique(fam, strategy=STRATEGY_PAIRS)
    cert_full = certify_unique(fam, strategy=STRATEGY_ALL_BIPARTITIONS)
    assert cert_pairs.status == "Inconclusive"
    assert (0, 1, 2) in [w.members for w in cert_pairs.witnesses]
    assert cert_full.status == "Unique"


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        certify_unique(gen_projective_basis(2, 2), max_members=3)


def test_raised_cap_beyond_addressable_bounds_is_a_size_budget_error():
    # 2**62 bytes of rank bounds per side cannot be allocated anywhere.
    fam = random_product_family(np.random.default_rng(0), (2, 2), 62)
    with pytest.raises(SizeBudgetError, match=r"2\*\*62 bytes per split side"):
        certify_unique(fam, max_members=62)


def test_fail_fast_stops_at_first_witness():
    cert = certify_unique(gen_projective_basis(2, 2), fail_fast=True)
    assert cert.status == "Inconclusive"
    assert len(cert.witnesses) == 1
    assert cert.subsets_examined == 1


def _reference_rank(m, tol):
    sigma = np.linalg.svd(m, compute_uv=False)
    cut = max(tol.relative_for(*m.shape) * sigma[0], tol.absolute_floor)
    return int(np.count_nonzero(sigma > cut))


def _reference_certificate(fam, tol, fail_fast=False, splits=None):
    """Witnesses and subsets examined, from one SVD per side of each split
    of each subset, on the uncompressed side matrices.  ``splits`` defaults
    to all bipartitions."""
    n = fam.n_members
    if splits is None:
        splits = [(bp.side_a, bp.side_b) for bp in all_bipartitions(fam.n_parties)]
    sides = {
        side: np.hstack([vectorize(g) for g in fam.grouped_factors(side)])
        for split in splits
        for side in split
    }
    witnesses = []
    examined = 0
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            examined += 1
            sums = []
            for side_a, side_b in splits:
                delta_a = _reference_rank(sides[side_a][:, subset], tol)
                delta_b = _reference_rank(sides[side_b][:, subset], tol)
                if delta_a + delta_b > size + 1:
                    break
                sums.append(SplitSums(side_a, side_b, delta_a, delta_b))
            else:
                witnesses.append(Witness(subset, tuple(sums)))
                if fail_fast:
                    return tuple(witnesses), examined
    return tuple(witnesses), examined


def _with_duplicate(n_distinct, seed, dims=(2, 2, 2), noise=0.0):
    """Random family whose last member is a multiple of the one before, its
    factors perturbed by ``noise``.

    Without noise, only subsets holding both twins survive on (2,2,2): the
    pair and every triple with it.
    """
    rng = np.random.default_rng(seed)
    fam = random_product_family(rng, dims, n_distinct)
    twin = fam.members[-1]
    factors = tuple(f + noise * rng.standard_normal(f.shape) for f in twin.factors)
    return OperatorFamily(
        fam.spec, fam.members + (ProductOperator(0.5j * twin.weight, factors),)
    )


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(), TolerancePolicy(relative_rank_threshold=1e-10)],
    ids=["default", "rel1e-10"],
)
@pytest.mark.parametrize(
    "make, strategy",
    [
        (lambda: gen_fourier_channel((2, 2, 2)), None),  # 88-row sides are compressed
        (lambda: _with_duplicate(9, seed=3), None),
        (lambda: gen_projective_basis(2, 4), None),
        # The twins' noise lies above the default cutoff for the compressed
        # row count and below the one for the original 16 and 256 rows, so
        # only the latter keeps the pair (4, 5) as a witness.
        (lambda: _with_duplicate(5, seed=0, dims=(2, 4, 4), noise=5e-12), None),
        # Generic families: the ranks of the largest subsets decide most
        # smaller ones through their bounds.
        (lambda: random_product_family(np.random.default_rng(1), (3, 3), 13), None),
        (lambda: random_product_family(np.random.default_rng(2), (2, 2, 2), 12), None),
        # Six pair splits share four single-party sides; every subset of
        # seven or more members survives, so survivors need exact ranks.
        (lambda: _with_duplicate(8, seed=5, dims=(2, 2, 2, 2)), STRATEGY_PAIRS),
    ],
    ids=[
        "fourier-222",
        "twins-222-n10",
        "projective-24",
        "near-twins-244",
        "random-33-n13",
        "random-222-n12",
        "pairs-twins-2222-n9",
    ],
)
def test_block_oracle_matches_per_subset_reference(make, strategy, tol):
    fam = make()
    cert = certify_unique(fam, strategy=strategy, tol=tol)
    splits = None
    if strategy == STRATEGY_PAIRS:
        splits = [((a,), (b,)) for a, b in party_pairs(fam.n_parties)]
    witnesses, examined = _reference_certificate(fam, tol, splits=splits)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined
    assert cert.status == ("Inconclusive" if witnesses else "Unique")


def test_twin_witnesses_span_several_blocks():
    # 120 triples of 10 members: the twins' triples reach past the first block.
    cert = certify_unique(_with_duplicate(9, seed=3))
    triples = list(itertools.combinations(range(10), 3))
    assert len(triples) > SUBSET_BLOCK
    positions = [triples.index(w.members) for w in cert.witnesses if len(w.members) == 3]
    assert len(positions) == 8 and max(positions) >= SUBSET_BLOCK


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(), TolerancePolicy(relative_rank_threshold=1e-10)],
    ids=["default", "rel1e-10"],
)
def test_fail_fast_witness_past_the_first_block(tol):
    # The twins (11, 12) are the last of the 78 pairs of 13 members.
    fam = _with_duplicate(12, seed=4)
    cert = certify_unique(fam, tol=tol, fail_fast=True)
    witnesses, examined = _reference_certificate(fam, tol, fail_fast=True)
    assert cert.witnesses == witnesses
    assert witnesses[0].members == (11, 12)
    assert cert.subsets_examined == examined == 78 > SUBSET_BLOCK


def test_fail_fast_reports_the_first_witness_of_the_smallest_size():
    # Generic (2,2) spans reach at most 4 + 4, so every subset of seven or
    # more members survives: the first witness comes after all 456 subsets
    # of two to six members, which the top-down pass decides after it.
    fam = random_product_family(np.random.default_rng(0), (2, 2), 9)
    cert = certify_unique(fam, fail_fast=True)
    witnesses, examined = _reference_certificate(fam, cert.tol, fail_fast=True)
    assert cert.witnesses == witnesses
    assert witnesses[0].members == tuple(range(7))
    assert cert.subsets_examined == examined == 457


def test_pairs_rank_each_side_once_per_subset(monkeypatch):
    # Four parties: each single-party side belongs to three of the six pair
    # splits.  Of the four subsets of three members, (1, 2) and (0, 1, 2)
    # survive every split; ranking a side once per subset takes 8 stacked
    # SVD calls on 12 matrices, where one call per split side took 24 on 28.
    fam, _ = gen_tight_family(1, n_parties=4)
    stack_sizes = []

    def counting(stack, rows, tol):
        stack_sizes.append(len(stack))
        return stacked_ranks(stack, rows, tol)

    monkeypatch.setattr(sepcert.certify, "stacked_ranks", counting)
    cert = certify_unique(fam, strategy=STRATEGY_PAIRS)
    assert (len(stack_sizes), sum(stack_sizes)) == (8, 12)
    pairs = [((a,), (b,)) for a, b in party_pairs(fam.n_parties)]
    witnesses, examined = _reference_certificate(fam, cert.tol, splits=pairs)
    assert [w.members for w in witnesses] == [(1, 2), (0, 1, 2)]
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined == 4


def test_bounds_skip_most_side_ranks(monkeypatch):
    # One split, two sides: ranking every side of every subset takes
    # 2 * (2**13 - 13 - 1) = 16,356 matrices.
    ranked = []

    def counting(stack, rows, tol):
        ranked.append(len(stack))
        return stacked_ranks(stack, rows, tol)

    monkeypatch.setattr(sepcert.certify, "stacked_ranks", counting)
    cert = certify_unique(random_product_family(np.random.default_rng(1), (3, 3), 13))
    assert cert.status == "Unique"
    assert cert.subsets_examined == 2**13 - 13 - 1
    assert sum(ranked) <= 16_356 // 4


def test_svd_failure_is_a_numeric_error(monkeypatch):
    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken_svd)
    # The pass starts at the full set: one selection of all four columns of
    # the 4x4 side matrix.
    with pytest.raises(NumericError, match="1x4x4 matrix stack"):
        certify_unique(gen_projective_basis(2, 2))


def test_certify_ensemble_on_product_kets():
    # Four product kets |i>|j>: same elimination pattern as the projector basis.
    kets = [np.eye(2)[:, [i]] for i in range(2)]
    members = [(1.0, [kets[i], kets[j]]) for i in range(2) for j in range(2)]
    fam = family_from_factors([(1, 2), (1, 2)], members)
    cert = certify_unique(fam)
    assert cert.status == "Inconclusive"
    assert [w.members for w in cert.witnesses] == PROJECTIVE_WITNESSES


# ---------------------------------------------------------------------------
# Completeness


def test_ladder_channel_is_complete():
    report = verify_completeness(gen_ladder_channel(0.5))
    assert report.is_complete
    assert report.residual < 1e-12
    assert report.necessary_condition_holds


def test_ladder_positive_parts_at_half():
    # K^dag K for the three members at mu = 1/2, phi = 0:
    #   party 0: diag(0,1), diag(1, 1/4), diag(1, 0)  -> sums to diag(2, 5/4)...
    # checked via the span structure below; the pair-sum bookkeeping uses the
    # positive parts' spans, which here are {diag(0,1), diag(1,1/4), diag(1,0)}.
    report = verify_completeness(gen_ladder_channel(0.5))
    assert report.pair_sums == {(0, 1): 4}
    assert report.local_positive_spans == (2, 2)


def test_half_identity_is_incomplete():
    fam = family_from_factors([(2, 2), (2, 2)], [(0.5, [I2, I2])])
    report = verify_completeness(fam)
    assert not report.is_complete
    # sum K^dag K = (1/4) I, so the defect is exactly ||(1/4)I - I||_F = 3/2.
    assert report.residual == pytest.approx(1.5, abs=1e-14)


def test_completeness_dict_keys_are_json_ready():
    import json

    report = verify_completeness(gen_ladder_channel(0.5))
    payload = json.dumps(report.to_dict())
    assert '"0,1"' in payload


def test_planted_pair_sum_violation():
    # {|00><00|, |11><11|, P+ (x) P+} with P+ = (I+X)/2 sums to a full-rank
    # diagonal-plus-coupling operator that is NOT the identity, and its
    # positive-part spans break the pair-sum condition.
    p_plus = (I2 + SX) / 2
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    members = [
        (1.0, [e00, e00]),
        (1.0, [e11, e11]),
        (1.0, [p_plus, p_plus]),
    ]
    fam = family_from_factors([(2, 2), (2, 2)], members)
    report = verify_completeness(fam)
    assert not report.is_complete
    assert not report.necessary_condition_holds


@pytest.mark.parametrize("tol", [np.nan, -1e-10, np.inf])
def test_completeness_rejects_invalid_tolerance(tol):
    with pytest.raises(ParameterError):
        verify_completeness(gen_ladder_channel(0.5), tol=tol)


def test_completeness_necessary_condition_wrapper():
    assert verify_completeness(gen_ladder_channel(0.5)).necessary_condition_holds
    assert verify_completeness(gen_projective_basis(2, 2)).necessary_condition_holds

