"""Uniqueness certification and completeness checks on known channels."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcert.certify
from sepcert.certify import (
    LEVEL_BLOCK,
    STRATEGY_ALL_BIPARTITIONS,
    STRATEGY_PAIRS,
    SUBSET_BLOCK,
    Witness,
    _close_downward,
    _column_classes,
    _examined_splits,
    _kruskal_plan,
    _kruskal_proves,
    _member_bits,
    _popcounts,
    _proves_class_ranks,
    _Side,
    _side_cap,
    _Sides,
    _subset_blocks,
    _subset_floors,
    _subset_stacks,
    _zero_under_every_cutoff,
    certify_unique,
    default_strategy,
    verify_completeness,
)
from sepcert.cli import main
from sepcert.errors import (
    EnumerationCapError,
    NumericError,
    ParameterError,
    SizeBudgetError,
    UsageError,
)
from sepcert.families import (
    OperatorFamily,
    PartySpec,
    ProductOperator,
    all_bipartitions,
    family_from_factors,
    party_pairs,
)
from sepcert.linalg import (
    ABSOLUTE_FLOOR,
    TolerancePolicy,
    _proves_full_rank,
    stacked_ranks,
    svd_error_scale,
    vectorize,
)
from sepcert.sampling import complex_randn, random_product_family, shared_factor_family
from sepcert.serialize import save_family
from sepcert.zoo import (
    gen_fourier_channel,
    gen_ladder_channel,
    gen_projective_basis,
    gen_tight_family,
)
from test_acceptance import _zoo
from test_linalg import MARGIN_POLICIES, _planted, _planted_past_gram_floor

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
    assert first.deltas[0] + first.deltas[1] <= len(first.members) + 1


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


def _rescaled(fam, scales):
    """``fam`` with the factor of member j on party p times ``scales[j][p]``;
    members past the end of ``scales`` keep theirs."""
    return OperatorFamily(fam.spec, tuple(
        ProductOperator(m.weight, tuple(f * s for f, s in zip(m.factors, scale)))
        for m, scale in itertools.zip_longest(fam.members, scales, fillvalue=(1.0,) * 3)
    ))


@pytest.mark.parametrize(
    "fam, scales",
    [
        (gen_ladder_channel(0.5), [(1.0, 1.0), (1e13, 1.0)]),
        (gen_ladder_channel(0.5), [(1.0, 1.0), (1e200, 1.0)]),
        (gen_projective_basis(2, 2), [(1e160, 1e-160)] * 4),
        (gen_projective_basis(2, 2), [(1e-160, 1e160)] * 4),
        # Member 1's column on side {1, 2} underflows to zero.
        (gen_fourier_channel((2, 2, 2)), [(1.0, 1.0, 1.0), (1.0, 1e-200, 1e-200)]),
    ],
    ids=[
        "ladder-1e13",
        "ladder-1e200",
        "projective-1e160-1e-160",
        "projective-1e-160-1e160",
        "fourier-222-underflow",
    ],
)
def test_verdict_does_not_depend_on_factor_scales(fam, scales):
    # Rescaling a factor leaves every span dimension as it is.  Each side
    # column is ranked at unit norm, so no small column falls under the
    # cutoff of a large one, and no norm overflows on the way there; a
    # column that underflowed to zero stays zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_unique(_rescaled(fam, scales))
    assert cert.witnesses == certify_unique(fam).witnesses


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


def test_unknown_strategy_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown strategy 'bogus'"):
        certify_unique(gen_ladder_channel(0.5), strategy="bogus")


def test_unknown_strategy_is_a_usage_error_for_one_party():
    # One party has no split to examine, yet its strategy is checked.
    fam = random_product_family(np.random.default_rng(0), (3,), 4)
    with pytest.raises(UsageError, match="unknown strategy 'bogus'"):
        certify_unique(fam, strategy="bogus")


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
    """The rank of ``m``'s columns scaled to unit norm, as certify ranks them."""
    sigma = np.linalg.svd(m / np.linalg.norm(m, axis=0), compute_uv=False)
    cut = max(tol.relative_rank_threshold * sigma[0], ABSOLUTE_FLOOR)
    return int(np.count_nonzero(sigma > cut))


def _reference_certificate(fam, tol, fail_fast=False, splits=None):
    """Witnesses and subsets examined, from one SVD per side of each split
    of each subset, on the uncompressed side matrices.  ``splits`` defaults
    to all bipartitions."""
    n = fam.n_members
    if splits is None:
        splits = all_bipartitions(fam.n_parties)
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
            deltas = []
            for side_a, side_b in splits:
                delta_a = _reference_rank(sides[side_a][:, subset], tol)
                delta_b = _reference_rank(sides[side_b][:, subset], tol)
                if delta_a + delta_b > size + 1:
                    break
                deltas += [delta_a, delta_b]
            else:
                witnesses.append(Witness(subset, tuple(deltas)))
                if fail_fast:
                    return tuple(witnesses), examined
    return tuple(witnesses), examined


def _subset_pass(fam, strategy=None, tol=TolerancePolicy(), fail_fast=False):
    """The certificate of ``certify_unique``'s 2**N subset pass alone, on
    fresh sides: the Kruskal check, which answers first for many families,
    is not run, so tests of the pass's own steps reach them."""
    strategy = strategy or default_strategy(fam.n_parties)
    splits = _examined_splits(fam.n_parties, strategy)
    return sepcert.certify._subset_pass(_Sides(fam, tol), splits, strategy, fail_fast)


def _opened(fam, side, tol=TolerancePolicy()):
    """``fam``'s ``side`` as the pass opens it (``_Side.open``)."""
    state = _Sides(fam, tol)[side]
    state.open()
    return state


def _floors(m, tol, k):
    """The bounds of a fresh side on ``m``, each column its own class, after
    ``_subset_floors`` of k."""
    n = m.shape[1]
    side = _Side(m, np.arange(n), tol)
    side.open()
    _subset_floors(side, _popcounts(n), _member_bits(n), k)
    return side.bound


def _with_duplicate(n_distinct, seed, dims=(2, 2, 2), noise=0.0, party=None):
    """Random family whose last member is a multiple of the one before, its
    factors perturbed by ``noise``; with ``party``, only that party's factor
    is copied and the others are drawn afresh.

    Without noise, only subsets holding both twins survive on (2,2,2): the
    pair and every triple with it.
    """
    rng = np.random.default_rng(seed)
    fam = random_product_family(rng, dims, n_distinct)
    twin = fam.members[-1]
    factors = tuple(
        f + noise * rng.standard_normal(f.shape)
        if party in (None, p)
        else complex_randn(rng, *f.shape)
        for p, f in enumerate(twin.factors)
    )
    return OperatorFamily(
        fam.spec, fam.members + (ProductOperator(0.5j * twin.weight, factors),)
    )


def _repeated_factor_family(dims, n, party, n_classes, seed=0):
    """Random family whose member j takes member j % ``n_classes``'s factor
    on ``party``: that side has ``n_classes`` classes of equal columns."""
    fam = random_product_family(np.random.default_rng(seed), dims, n)
    return OperatorFamily(fam.spec, tuple(
        ProductOperator(m.weight, tuple(
            fam.members[j % n_classes].factors[p] if p == party else f
            for p, f in enumerate(m.factors)
        ))
        for j, m in enumerate(fam.members)
    ))


@pytest.mark.parametrize(
    "tol",
    [
        TolerancePolicy(),
        TolerancePolicy(relative_rank_threshold=1e-10),
        TolerancePolicy(relative_rank_threshold=1e-6),
    ],
    ids=["default", "rel1e-10", "rel1e-6"],
)
@pytest.mark.parametrize(
    "make, strategy",
    [
        (lambda: gen_fourier_channel((2, 2, 2)), None),  # 88-row sides are compressed
        (lambda: _with_duplicate(9, seed=3), None),
        (lambda: gen_projective_basis(2, 4), None),
        # The twins differ by noise of 5e-12 per entry, under the 1e-10
        # cutoff, so the pair (4, 5) and its triples survive as if equal;
        # a cutoff of 1e-12 would count the noise and eliminate them.
        (lambda: _with_duplicate(5, seed=0, dims=(2, 4, 4), noise=5e-12), None),
        # Generic families: the ranks of the largest subsets decide most
        # smaller ones through their bounds.
        (lambda: random_product_family(np.random.default_rng(1), (3, 3), 13), None),
        (lambda: random_product_family(np.random.default_rng(2), (2, 2, 2), 12), None),
        # Six pair splits share four single-party sides; every subset of
        # seven or more members survives, so survivors need exact ranks.
        (lambda: _with_duplicate(8, seed=5, dims=(2, 2, 2, 2)), STRATEGY_PAIRS),
        # Full-rank 4-row sides with survivors at every size: the floors of
        # the 4-member subsets rank every larger survivor there, on both
        # sides of (2,2), on the 4-row side of (2,3) (its 9-row side builds
        # pair floors) and on the three sides of (2,2,2) split by pairs.
        (lambda: random_product_family(np.random.default_rng(1), (2, 2), 12), None),
        (lambda: random_product_family(np.random.default_rng(1), (2, 3), 12), None),
        (lambda: random_product_family(np.random.default_rng(2), (2, 2, 2), 12), STRATEGY_PAIRS),
    ],
    ids=[
        "fourier-222",
        "twins-222-n10",
        "projective-24",
        "near-twins-244",
        "random-33-n13",
        "random-222-n12",
        "pairs-twins-2222-n9",
        "random-22-n12",
        "random-23-n12",
        "pairs-random-222-n12",
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
    [
        TolerancePolicy(),
        TolerancePolicy(relative_rank_threshold=1e-10),
        TolerancePolicy(relative_rank_threshold=1e-6),
    ],
    ids=["default", "rel1e-10", "rel1e-6"],
)
def test_fail_fast_witness_past_the_first_block(tol):
    # The twins (11, 12) are the last of the 78 pairs of 13 members.
    fam = _with_duplicate(12, seed=4)
    cert = certify_unique(fam, tol=tol, fail_fast=True)
    witnesses, examined = _reference_certificate(fam, tol, fail_fast=True)
    assert cert.witnesses == witnesses
    assert witnesses[0].members == (11, 12)
    assert cert.subsets_examined == examined == 78 > SUBSET_BLOCK


def test_fail_fast_position_counts_the_earlier_level_blocks(monkeypatch):
    # With blocks of seven subsets the twins (11, 12), the last of the 78
    # pairs, are decided in the twelfth block of their size.
    monkeypatch.setattr(sepcert.certify, "LEVEL_BLOCK", 7)
    fam = _with_duplicate(12, seed=4)
    cert = certify_unique(fam, fail_fast=True)
    witnesses, examined = _reference_certificate(fam, cert.tol, fail_fast=True)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined == 78


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


@pytest.mark.parametrize("fail_fast", [False, True], ids=["all", "fail-fast"])
def test_witness_levels_spanning_two_level_blocks(fail_fast):
    # Generic (2,2) spans reach at most 4 + 4, so every subset of seven or
    # more of 13 members survives; the 1,716 of size 7 fill two level blocks.
    fam = random_product_family(np.random.default_rng(6), (2, 2), 13)
    assert LEVEL_BLOCK < 1716 <= 2 * LEVEL_BLOCK
    cert = certify_unique(fam, fail_fast=fail_fast)
    witnesses, examined = _reference_certificate(fam, cert.tol, fail_fast=fail_fast)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined
    if not fail_fast:
        assert [len(level) for level in cert.levels] == [
            math.comb(13, size) for size in range(7, 14)
        ]
    head = {"command": "certify", "file": "random-22-n13.json"}
    assert cert.to_json(head) == json.dumps({**head, **cert.to_dict()}, indent=2)


def test_popcounts_count_the_set_bits():
    for n in range(13):
        assert _popcounts(n).tolist() == [bin(x).count("1") for x in range(1 << n)]


@pytest.mark.parametrize("block", [LEVEL_BLOCK, 7], ids=["default", "seven"])
def test_subset_blocks_list_combinations_in_order(monkeypatch, block):
    monkeypatch.setattr(sepcert.certify, "LEVEL_BLOCK", block)
    for n in range(1, 13):
        popcount, bits = _popcounts(n), _member_bits(n)
        for size in range(1, n + 1):
            subsets, masks, starts = [], [], []
            for start, block_masks, members in _subset_blocks(popcount, bits, size):
                assert members.shape == (len(block_masks), size)
                assert len(block_masks) <= block
                starts.append(start)
                subsets += map(tuple, members.tolist())
                masks += block_masks.tolist()
            assert subsets == list(itertools.combinations(range(n), size))
            assert masks == [int(bits[list(t)].sum()) for t in subsets]
            assert starts == list(range(0, len(subsets), block))


def test_certificates_compare_by_value():
    fam = gen_projective_basis(2, 3)
    cert = certify_unique(fam)
    assert len(cert.levels) > 1
    again = certify_unique(fam)
    assert cert == again and hash(cert) == hash(again)
    assert cert != certify_unique(fam, fail_fast=True)
    # Two parties: the one pair split is the one bipartition, so only the
    # strategy's name differs, and the tolerance only by its policy.
    assert cert != certify_unique(fam, strategy=STRATEGY_PAIRS)
    assert cert != certify_unique(fam, tol=TolerancePolicy(relative_rank_threshold=1e-6))
    # Equal witnesses held in arrays of another dtype are equal; other
    # members are not.
    narrow = dataclasses.replace(cert, levels=tuple(a.astype(np.int32) for a in cert.levels))
    assert narrow == cert and hash(narrow) == hash(cert)
    shifted = dataclasses.replace(cert, levels=tuple(a + 1 for a in cert.levels))
    assert shifted != cert
    assert cert != cert.witnesses and cert != None  # noqa: E711


def _counting_stacked_ranks(monkeypatch):
    """Patch the certifier's rank oracle; returns the list of stack sizes."""
    stack_sizes = []

    def counting(stack, tol, screen=False):
        stack_sizes.append(len(stack))
        return stacked_ranks(stack, tol, screen=screen)

    monkeypatch.setattr(sepcert.certify, "stacked_ranks", counting)
    return stack_sizes


def test_pairs_rank_each_side_once_per_subset(monkeypatch):
    # Four parties: each single-party side belongs to three of the six pair
    # splits.  Of the four subsets of three members, (1, 2) and (0, 1, 2)
    # survive every split.  Members 1 and 2 are the twin M, so each of the
    # four sides holds two column classes, {S} and {M}, in three rows after
    # its thin QR: the class proof of each side, one Gram-Cholesky each,
    # gives every subset's rank as its class count, and no matrix is ranked
    # (8 stacked SVD calls on 10 matrices with one rank per column
    # multiset, 12 matrices when every subset was ranked on its own, and 24
    # calls on 28 with one call per split side).
    fam, _ = gen_tight_family(1, n_parties=4)
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    counts = _counting_linalg(monkeypatch)
    cert = _subset_pass(fam, strategy=STRATEGY_PAIRS)
    assert (len(stack_sizes), sum(stack_sizes)) == (0, 0)
    assert (counts["cholesky"], counts["failed"], counts["svd"]) == (4, 0, 0)
    pairs = [((a,), (b,)) for a, b in party_pairs(fam.n_parties)]
    witnesses, examined = _reference_certificate(fam, cert.tol, splits=pairs)
    assert [w.members for w in witnesses] == [(1, 2), (0, 1, 2)]
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined == 4


def test_bounds_skip_most_side_ranks(monkeypatch):
    # One split, two sides: ranking every side of every subset takes
    # 2 * (2**13 - 13 - 1) = 16,356 matrices.
    ranked = []

    def counting(stack, tol, screen=False):
        ranked.append(len(stack))
        return stacked_ranks(stack, tol, screen=screen)

    monkeypatch.setattr(sepcert.certify, "stacked_ranks", counting)
    cert = _subset_pass(random_product_family(np.random.default_rng(1), (3, 3), 13))
    assert cert.status == "Unique"
    assert cert.subsets_examined == 2**13 - 13 - 1
    assert sum(ranked) <= 16_356 // 4


def test_full_rank_sides_rank_larger_survivors_by_subset_floors(monkeypatch):
    # Random (2,2)/N12 has one split of two 4-row sides, both of rank 4 on
    # every subset of four or more members, so the 1,586 subsets of seven
    # or more members survive.  Each side ranks its full set and the 12 +
    # 66 + 220 subsets of 11, 10 and 9 members, 598 matrices in all; at
    # eight members the 495 subsets left to rank hold more columns than
    # the 495 subsets of four do, so each side builds the floors of its
    # 4-member subsets, which rank every smaller subset exactly.  Ranking
    # each survivor on each side took 6,307 matrices.
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    cert = certify_unique(random_product_family(np.random.default_rng(1), (2, 2), 12))
    assert len(cert.witnesses) == 1586
    assert sum(stack_sizes) <= 600


def _counting_linalg(monkeypatch):
    """Count numpy's SVD calls and its Cholesky calls and failures."""
    counts = {"svd": 0, "cholesky": 0, "failed": 0}
    svd, cholesky = np.linalg.svd, np.linalg.cholesky

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_cholesky(*args, **kwargs):
        counts["cholesky"] += 1
        try:
            return cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            counts["failed"] += 1
            raise

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return counts


def test_full_rank_screen_replaces_the_svds(monkeypatch):
    # Both sides of the one split have 9 rows and generic columns, so the
    # full set (ranked first, by SVD) is full rank on each, and every later
    # stack tries the screen first.  Side (0,) then ranks the 715 subsets of
    # nine members in 12 screened stacks, each proven full rank, so every
    # smaller subset starts at min(size, 9) there, which is exact.  Side
    # (1,) is never ranked again: its bounds fall by one per size and reach
    # 1 at five members, where it builds its pair floors with one SVD of
    # its 78 member pairs, outside the rank oracle.  So the SVD runs 3
    # times: the two full sets and those pairs.
    fam = random_product_family(np.random.default_rng(1), (3, 3), 13)
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    counts = _counting_linalg(monkeypatch)
    cert = _subset_pass(fam)
    assert cert.status == "Unique"
    assert (len(stack_sizes), sum(stack_sizes)) == (14, 717)
    assert (counts["cholesky"], counts["failed"], counts["svd"]) == (12, 0, 3)


def test_deficient_sides_skip_the_screen(monkeypatch):
    # Every side of projective (3,4) is rank deficient on the full set
    # (three or four distinct columns out of twelve).  By default each side
    # proves its class ranks with one Gram-Cholesky of its representatives,
    # and no subset is ranked.  At a relative threshold of 0 the proof
    # declines at its noise check, before any Gram, and the pass ranks every
    # undecided subset on its own, 7,632 matrices in 134 SVD calls, none of
    # them screened.
    fam = _relabelled(gen_projective_basis(3, 4), seed=11)
    counts = _counting_linalg(monkeypatch)
    cert = _subset_pass(fam)
    assert len(cert.witnesses) == 3429
    assert (counts["cholesky"], counts["failed"], counts["svd"]) == (2, 0, 0)
    tol = TolerancePolicy(relative_rank_threshold=0.0)
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    counts.update(cholesky=0, svd=0)
    exact = _subset_pass(fam, tol=tol)
    assert (len(stack_sizes), sum(stack_sizes)) == (134, 7632)
    assert (counts["cholesky"], counts["svd"]) == (0, 134)
    witnesses, examined = _reference_certificate(fam, tol)
    assert exact.witnesses == witnesses
    assert exact.subsets_examined == examined


def _recording_side_builds(monkeypatch):
    """Record each side matrix the certifier builds with the subset size of
    the block that built it."""
    built, sizes = [], []
    decide, side_matrix = sepcert.certify._decide_block, OperatorFamily.side_matrix

    def recording_decide(masks, members, *args):
        sizes.append(members.shape[1])
        return decide(masks, members, *args)

    def recording_side(fam, side, include_weight=False):
        built.append((side, sizes[-1]))
        return side_matrix(fam, side, include_weight)

    monkeypatch.setattr(sepcert.certify, "_decide_block", recording_decide)
    monkeypatch.setattr(OperatorFamily, "side_matrix", recording_side)
    return built


def test_pair_floors_leave_only_the_full_sets_to_rank(monkeypatch):
    # Fourier (2,2,2) has 11 members.  The first split ({0}, {1, 2}) has a
    # 4-row side and an 88-row side compressed to 11 rows; the full set is
    # ranked on both, with ranks 2 and 11 (2 + 11 > 12).  Below it, the
    # 11-row side's bound stays min(size, 11), which is exact.  The 4-row
    # side's bound reaches 1 at ten members, where the 11 subsets hold 110
    # columns, as many as the 55 member pairs: there it builds its pair
    # floors, and their 2 keeps every sum above size + 1.  So no other
    # subset is ranked, and the other two splits are never reached: their
    # sides are never built.
    fam = gen_fourier_channel((2, 2, 2))
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    built = _recording_side_builds(monkeypatch)
    cert = _subset_pass(fam)
    assert stack_sizes == [1, 1]
    assert built == [((0,), 11), ((1, 2), 11)]
    witnesses, examined = _reference_certificate(fam, cert.tol)
    assert cert.status == "Unique" and cert.witnesses == witnesses == ()
    assert cert.subsets_examined == examined


def test_later_splits_are_built_when_the_pass_reaches_them(monkeypatch):
    # The twins (8, 9) share their party-0 factor only.  The first split
    # eliminates every subset but the twin pair, whose party-0 side has rank
    # 1; the second split, reached only in the block of pairs, then
    # eliminates it on sides built there, whose entries for the larger
    # subsets were never written.
    fam = _with_duplicate(9, seed=0, party=0)
    built = _recording_side_builds(monkeypatch)
    cert = _subset_pass(fam)
    assert built == [((0,), 10), ((1, 2), 10), ((0, 1), 2), ((2,), 2)]
    witnesses, examined = _reference_certificate(fam, cert.tol)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined
    assert cert.status == "Unique"


def _plant(fam, t, count):
    """``fam`` with the 2 x 2 party-0 factors of its first ``count`` (2 or
    4) members vectorizing to the unit columns (c, s, 0, 0), (c, -s, 0, 0),
    (0, 0, 1, 0) and (0, 0, 0, 1), s = t / sqrt(2): their side matrix has
    orthogonal rows, so its singular values are sqrt(2) c and t, then 1
    and 1, to rounding."""
    s = t / math.sqrt(2)
    c = math.sqrt(1 - s * s)
    planted = ([[c, 0], [s, 0]], [[c, 0], [-s, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]])
    members = tuple(
        ProductOperator(m.weight, (np.array(f, dtype=complex), *m.factors[1:]))
        for m, f in zip(fam.members[:count], planted)
    )
    return OperatorFamily(fam.spec, members + fam.members[count:])


def _planted_pair(t):
    """Random (2,2,2) family of nine members, the first two planted by ``_plant``."""
    return _plant(random_product_family(np.random.default_rng(9), (2, 2, 2), 9), t, 2)


def _recording_subset_floors(monkeypatch):
    """Record the side matrix and the k of each ``_subset_floors`` call."""
    floored = []
    subset_floors = sepcert.certify._subset_floors

    def recording(side, popcount, bits, k):
        floored.append((side.m, k))
        return subset_floors(side, popcount, bits, k)

    monkeypatch.setattr(sepcert.certify, "_subset_floors", recording)
    return floored


def _floor_margin(fam, tol):
    """C + 2d and C of ``_subset_floors`` on party 0's side matrix of ``fam``."""
    m = fam.unit_side((0,))[0]
    r, n = m.shape
    kappa = svd_error_scale(max(r, n), min(r, n))
    s = np.linalg.norm(m) * (1 + kappa)
    d = kappa * s
    return tol.cutoff(s + d) + 2 * d, tol.cutoff(s + d)


@pytest.mark.parametrize(
    "tol",
    [
        TolerancePolicy(),
        TolerancePolicy(relative_rank_threshold=1e-10),
        TolerancePolicy(relative_rank_threshold=1e-6),
    ],
    ids=["default", "rel1e-10", "rel1e-6"],
)
def test_pair_floor_margin(monkeypatch, tol):
    # t does not change ||m||_F in double precision, so the margin computed
    # at a negligible t holds for every planted t.  The pass builds party
    # 0's floors at six members, where its bounds from the supersets have
    # fallen to 1, so they decide every smaller subset there, the planted
    # pair among them.
    margin, cap = _floor_margin(_planted_pair(1e-20), tol)
    pair = int(_member_bits(9)[[0, 1]].sum())
    floored = _recording_subset_floors(monkeypatch)
    # Half the SVD error d on either side of C + 2d: a relative step of
    # 1e-6 would leave the 2d band under a cutoff of 1e-6.
    half = (margin - cap) / 4
    planted = [(margin + half, 2), (margin - half, 1)]
    planted += [(cap * 10.0**j, None) for j in range(-3, 3)]
    references = set()
    for t, expected in planted:
        fam = _planted_pair(t)
        assert _floor_margin(fam, tol) == (margin, cap)
        m = fam.unit_side((0,))[0]
        floor = _floors(m, tol, 2)
        reference = _reference_rank(fam.side_matrix((0,))[:, :2], tol)
        references.add(reference)
        assert floor[pair] <= reference
        if expected is not None:
            assert floor[pair] == expected
        witnesses, examined = _reference_certificate(fam, tol)
        floored.clear()
        cert = _subset_pass(fam, tol=tol)
        assert [(len(m), k) for m, k in floored] == [(4, 2)]
        assert cert.witnesses == witnesses
        assert cert.subsets_examined == examined
    # The sweep crosses the pair's own cutoff, which lies below C.
    assert references == {1, 2}


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(), TolerancePolicy(relative_rank_threshold=1e-6)],
    ids=["default", "rel1e-6"],
)
def test_subset_floor_margin(monkeypatch, tol):
    # Random (2,2)/N9 ranks the subsets of eight to six members on party
    # 0's 4-row side, found full rank on the full set; at five members the
    # 126 subsets left to rank hold more columns than the 126 subsets of
    # four do, so the pass builds the floors of the 4-member subsets there.
    # The planted quadruple (0, 1, 2, 3) has sigma_min t: its floor is 4
    # just above C + 2d and 3 just below, where the pass ranks it instead.
    base = random_product_family(np.random.default_rng(9), (2, 2), 9)
    margin, cap = _floor_margin(_plant(base, 1e-20, 4), tol)
    quadruple = int(_member_bits(9)[:4].sum())
    floored = _recording_subset_floors(monkeypatch)
    half = (margin - cap) / 4  # d / 2, as in test_pair_floor_margin
    planted = [(margin + half, 4), (margin - half, 3)]
    planted += [(cap * 10.0**j, None) for j in range(-3, 3)]
    references = set()
    for t, expected in planted:
        fam = _plant(base, t, 4)
        assert _floor_margin(fam, tol) == (margin, cap)
        m = fam.unit_side((0,))[0]
        floor = _floors(m, tol, 4)
        reference = _reference_rank(fam.side_matrix((0,))[:, :4], tol)
        references.add(reference)
        assert floor[quadruple] <= reference
        if expected is not None:
            assert floor[quadruple] == expected
        witnesses, examined = _reference_certificate(fam, tol)
        floored.clear()
        cert = certify_unique(fam, tol=tol)
        assert any(k == 4 and np.array_equal(f, m) for f, k in floored)
        assert cert.witnesses == witnesses
        assert cert.subsets_examined == examined
    # The sweep crosses the quadruple's own cutoff, which lies below C.
    assert references == {3, 4}


def _recording_svdvals(monkeypatch):
    """Record the shape of each stack the floors send to the SVD."""
    shapes = []
    svdvals = sepcert.certify._svdvals

    def recording(stack):
        shapes.append(stack.shape)
        return svdvals(stack)

    monkeypatch.setattr(sepcert.certify, "_svdvals", recording)
    return shapes


@pytest.mark.parametrize("tol", MARGIN_POLICIES, ids=["default", "rel0.49"])
def test_r_subset_floor_proof_margin(monkeypatch, tol):
    # A 4 x 4 side matrix holds one 4-member subset, itself, and its C and
    # d are those of the full-rank screen on it.  The floors prove sigma_min
    # > C + d through the Gram, whose error err they take from that screen:
    # half an err past (C + d)^2 sends the block to the SVD, twice err
    # proves the floor 4 with no SVD.  The first plant is proven once err,
    # or at 0.49 the + d, is dropped.
    ranked = _recording_svdvals(monkeypatch)
    rng = np.random.default_rng(22)
    for share, proven in [(0.5, False), (2.0, True)]:
        m = _planted_past_gram_floor(rng, 4, tol, share)
        ranked.clear()
        floor = _floors(m, tol, 4)
        assert ranked == ([] if proven else [(1, 4, 4)])
        if proven:
            assert floor[-1] == 4


def test_r_subset_floors_of_a_generic_side_need_no_svd(monkeypatch):
    # Random (2,2)/N12 builds the floors of the 4-member subsets on both of
    # its full-rank 4-row sides, and the Gram-Cholesky proof settles the
    # 495 selections of each in one block: no 4 x 4 stack is ranked.
    fam = random_product_family(np.random.default_rng(12), (2, 2), 12)
    floored = _recording_subset_floors(monkeypatch)
    ranked = _recording_svdvals(monkeypatch)
    cert = certify_unique(fam)
    assert [(len(m), k) for m, k in floored] == [(4, 4), (4, 4)]
    assert all(shape[1:] != (4, 4) for shape in ranked)
    witnesses, examined = _reference_certificate(fam, cert.tol)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined


def _near_flat(eps):
    """Random (2,2)/N12 family whose party-0 factors vectorize to three
    random components and a fourth scaled by ``eps``."""
    rng = np.random.default_rng(1)
    base = random_product_family(rng, (2, 2), 12)
    members = tuple(
        ProductOperator(
            m.weight,
            (np.append(complex_randn(rng, 3), eps * complex_randn(rng)).reshape(2, 2, order="F"),
             *m.factors[1:]),
        )
        for m in base.members
    )
    return OperatorFamily(base.spec, members)


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(), TolerancePolicy(relative_rank_threshold=1e-6)],
    ids=["default", "rel1e-6"],
)
def test_subset_floors_one_below_the_rows_leave_survivors_to_rank(monkeypatch, tol):
    # Party 0's side lies within eps of a 3-dimensional subspace, with eps
    # tuned so that the largest sigma_4 of a member quadruple is 0.9 (C + 2d),
    # about 3.1 tol: every quadruple floors at 3, so every subset does.  A
    # subset of up to eight members holding that quadruple has sigma_4 at
    # least as large, above its own cutoff of at most sqrt(8) tol, so its
    # rank is 4.  The floors are built at eight members, and a floor of 3 on
    # this 4-row side is not exact: the pass must rank the survivors there.
    probe = _near_flat(tol.relative_rank_threshold)
    m = probe.unit_side((0,))[0]
    quadruples = m[:, list(itertools.combinations(range(12), 4))]
    sigma_4 = np.linalg.svd(np.moveaxis(quadruples, 1, 0), compute_uv=False)[:, 3].max()
    margin, _ = _floor_margin(probe, tol)
    fam = _near_flat(tol.relative_rank_threshold * 0.9 * margin / sigma_4)
    m = fam.unit_side((0,))[0]
    floor = _floors(m, tol, 4)
    assert floor.max() == 3
    floored = _recording_subset_floors(monkeypatch)
    cert = certify_unique(fam, tol=tol)
    assert any(k == 4 and np.array_equal(f, m) for f, k in floored)
    witnesses, examined = _reference_certificate(fam, tol)
    assert any(len(w.members) <= 8 and w.deltas[0] == 4 for w in witnesses)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 7),
    st.floats(-16.0, -8.0),
    st.sampled_from([None, 0, 1]),
    st.sampled_from([1e-10, 1e-6]),
)
@settings(max_examples=30, deadline=None)
def test_pair_floors_never_exceed_the_reference_rank(seed, n_distinct, log_noise, party, rel):
    fam = _with_duplicate(n_distinct, seed, noise=10.0**log_noise, party=party)
    tol = TolerancePolicy(relative_rank_threshold=rel)
    n = fam.n_members
    popcount, bits = _popcounts(n), _member_bits(n)
    for side in ((0,), (1, 2), (0, 1)):
        m = fam.unit_side(side)[0]
        full = fam.side_matrix(side)
        state = _Side(m, np.arange(n), tol)
        state.open()
        floor = state.bound
        # The pair floors, then with them those of the row-count subsets,
        # as the pass builds them on a side of r < n rows.
        for k in [2, len(m)] if 2 < len(m) < n else [2]:
            _subset_floors(state, popcount, bits, k)
            for size in range(2, n + 1):
                for subset in itertools.combinations(range(n), size):
                    mask = int(bits[list(subset)].sum())
                    assert floor[mask] <= _reference_rank(full[:, subset], tol)


_BOUND_FAMILIES = {
    **{
        f"random-{''.join(map(str, dims))}-n{n}-s{seed}": (
            lambda dims=dims, n=n, seed=seed: random_product_family(
                np.random.default_rng(seed), dims, n
            )
        )
        for dims, n in [((2, 2), 9), ((2, 3), 8), ((2, 2, 2), 9)]
        for seed in range(3)
    },
    # Families whose smaller sizes the closed bounds skip.
    "fourier-222": lambda: gen_fourier_channel((2, 2, 2)),
    **{
        f"random-{''.join(map(str, dims))}-n{n}": (
            lambda dims=dims, n=n: random_product_family(np.random.default_rng(0), dims, n)
        )
        for dims, n in [((2, 2, 2), 11), ((3, 3), 10), ((2, 3), 11)]
    },
    # Families with column classes, proven on each side that has them (see
    # test_class_proofs_hold_on_independent_representatives): projective
    # (2,4), its 16-row side after the thin QR, the repeated (2,3) family's
    # 9-row side after its QR, and the repeated (2,2) family's five classes
    # in four rows; the dependent family's are not proven.
    "projective-24": lambda: gen_projective_basis(2, 4),
    "projective-33": lambda: gen_projective_basis(3, 3),
    "tight-n2": lambda: gen_tight_family(2, seed=0)[0],
    "tight-n3": lambda: gen_tight_family(3, seed=0)[0],
    "tight-n2-3party": lambda: gen_tight_family(2, n_parties=3, seed=0)[0],
    **{
        f"near-twins-{noise:g}": lambda noise=noise: _with_duplicate(8, seed=3, noise=noise)
        for noise in (0.0, 1e-15, 1e-12, 1e-9)
    },
    "repeated-23-qr": lambda: _repeated_factor_family((2, 3), 8, party=1, n_classes=4),
    "repeated-22-5x3": lambda: _repeated_factor_family((2, 2), 15, party=0, n_classes=5),
    "dependent-22": lambda: _dependent_classes(),
}


def _subset_ranks(m, tol):
    """The computed rank of every column selection of ``m``, by bitmask as
    in ``_member_bits``: ``numerical_rank`` of each, ranked size by size."""
    n = m.shape[1]
    popcount, bits = _popcounts(n), _member_bits(n)
    ranks = np.zeros(1 << n, dtype=int)
    for size in range(1, n + 1):
        for _, masks, members in _subset_blocks(popcount, bits, size):
            ranks[masks] = stacked_ranks(np.moveaxis(m[:, members], 1, 0), tol)
    return ranks


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(relative_rank_threshold=1e-10), TolerancePolicy(relative_rank_threshold=1e-6)],
    ids=["rel1e-10", "rel1e-6"],
)
@pytest.mark.parametrize("strategy", [None, STRATEGY_PAIRS], ids=["default", "pairs"])
@pytest.mark.parametrize("make", list(_BOUND_FAMILIES.values()), ids=list(_BOUND_FAMILIES))
def test_side_bounds_never_exceed_the_rank(monkeypatch, make, strategy, tol):
    # Every entry of a side's ``bound`` must be a lower bound on the rank of
    # its subset's columns, ranked as the pass ranks them.  A bound above the
    # rank could eliminate a subset that should survive: a false Unique.
    opened = []
    open_side = sepcert.certify._Side.open

    def recording(side):
        open_side(side)
        opened.append(side)

    monkeypatch.setattr(sepcert.certify._Side, "open", recording)
    fam = make()
    _subset_pass(fam, strategy=strategy, tol=tol)
    n = fam.n_members
    assert opened
    for state in opened:
        ranks = _subset_ranks(state.m, tol)
        assert (state.bound <= ranks).all()
        if state.class_bits is not None:
            # A proven side's every rank is its class count, at most r.
            held = np.zeros(1 << n, dtype=int)
            for bit, cls in zip(_member_bits(n)[::-1], state.class_bits[::-1]):
                held[bit : 2 * bit] = held[:bit] | cls
            assert (np.minimum(_popcounts(n)[held], len(state.m)) == ranks).all()


@pytest.mark.parametrize("n", range(1, 10))
def test_downward_closure_matches_the_superset_maximum(n):
    # bound(T) becomes max over supersets S of bound(S) - |S \ T|, T itself
    # included; each member bit takes its own pass, the three lowest too.
    popcount = _popcounts(n).astype(int)
    masks = np.arange(1 << n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        bound = rng.integers(0, popcount + 1).astype(np.int8)
        expected = [
            max(bound[s] - popcount[s] + popcount[t] for s in masks[(masks & t) == t])
            for t in masks
        ]
        closed = bound.copy()
        _close_downward(closed, _popcounts(n).view(np.int8))
        assert closed.tolist() == expected


@pytest.mark.parametrize(
    "make, sizes",
    [
        (lambda: gen_fourier_channel((2, 2, 2)), [11, 10]),
        (lambda: random_product_family(np.random.default_rng(0), (2, 2, 2), 13), [13, 10]),
        (lambda: random_product_family(np.random.default_rng(0), (3, 3), 13), [13, 9, 5]),
        # Survivors at every size: no size is skipped.
        (lambda: gen_projective_basis(3, 4), list(range(12, 1, -1))),
    ],
    ids=["fourier-222", "random-222-n13", "random-33-n13", "projective-34"],
)
def test_closed_bounds_skip_the_sizes_they_settle(monkeypatch, make, sizes):
    seen = []
    decide = sepcert.certify._decide_block

    def recording(masks, members, *args):
        seen.append(members.shape[1])
        return decide(masks, members, *args)

    monkeypatch.setattr(sepcert.certify, "_decide_block", recording)
    fam = make()
    cert = _subset_pass(fam)
    assert sorted(set(seen), reverse=True) == sizes
    assert cert.subsets_examined == 2**fam.n_members - fam.n_members - 1


@pytest.mark.parametrize("error", [MemoryError, ValueError])
def test_later_side_over_budget_is_a_size_budget_error(monkeypatch, capsys, tmp_path, error):
    # Each side takes one int8 allocation of 2**N bounds when the pass first
    # reaches it; the second side's fails here, after the first succeeded.
    # ``_popcounts`` allocates a uint8 array of the same length, once.
    fam = random_product_family(np.random.default_rng(0), (2, 2), 9)
    path = tmp_path / "random-22-n9.json"
    save_family(path, fam)
    zeros, allocated = np.zeros, []

    def failing(shape, *args, **kwargs):
        if shape == 1 << 9 and kwargs.get("dtype") == np.int8:
            allocated.append(shape)
            if len(allocated) % 2 == 0:
                raise error("no room")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", failing)
    with pytest.raises(SizeBudgetError, match=r"need 2\*\*9 bytes per split side"):
        certify_unique(fam)
    assert len(allocated) == 2
    assert main(["certify", str(path)]) == 5
    assert "2**9 bytes per split side" in capsys.readouterr().err
    assert len(allocated) == 4


def _relabelled(fam, seed):
    """``fam`` with a seeded member permutation and unit phases on the weights."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(fam.n_members)
    phases = np.exp(2j * np.pi * rng.random(fam.n_members))
    members = tuple(fam.members[k].scaled(p) for k, p in zip(order, phases))
    return OperatorFamily(fam.spec, members)


@pytest.mark.parametrize(
    "tol",
    [
        TolerancePolicy(),
        TolerancePolicy(relative_rank_threshold=1e-10),
        TolerancePolicy(relative_rank_threshold=1e-3),
    ],
    ids=["default", "rel1e-10", "rel1e-3"],
)
@pytest.mark.parametrize(
    "make, strategy",
    [
        (lambda: _relabelled(gen_projective_basis(3, 4), seed=11), None),
        (lambda: gen_tight_family(2, n_parties=3, seed=0)[0], None),
        (lambda: gen_tight_family(2, n_parties=3, seed=0)[0], STRATEGY_PAIRS),
        (lambda: _zoo()["augmented-projective"], STRATEGY_PAIRS),
        # Parties 0 and 2 hold one factor for all six members.
        (
            lambda: shared_factor_family(
                np.random.default_rng(3), n_parties=3, varying_party=1, n_members=6, local_dim=3
            ),
            None,
        ),
    ],
    ids=[
        "projective-34-relabelled",
        "tight-n2-3party",
        "tight-n2-3party-pairs",
        "augmented-projective-pairs",
        "shared-factor-3party",
    ],
)
def test_shared_column_multisets_match_per_subset_reference(make, strategy, tol):
    fam = make()
    cert = certify_unique(fam, strategy=strategy, tol=tol)
    splits = None
    if strategy == STRATEGY_PAIRS:
        splits = [((a,), (b,)) for a, b in party_pairs(fam.n_parties)]
    witnesses, examined = _reference_certificate(fam, tol, splits=splits)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined
    assert cert.status == ("Inconclusive" if witnesses else "Unique")


def test_relabelled_projective_ranks_each_column_multiset_once(monkeypatch):
    # Side 0 of projective (3,4) has three classes of four equal columns and
    # side 1 four classes of three.  Both class proofs hold, so every
    # subset's rank is its class count and no matrix is ranked; one rank per
    # column multiset took 359 matrices, and ranking every subset on its own
    # 7,632.
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    cert = certify_unique(_relabelled(gen_projective_basis(3, 4), seed=11))
    assert cert.status == "Inconclusive" and len(cert.witnesses) == 3429
    assert stack_sizes == []


def _dependent_classes():
    """Random (2,2)/N9 family whose party-0 factors come in three classes,
    each on three members, the third the sum of the other two."""
    fam = random_product_family(np.random.default_rng(4), (2, 2), 9)
    f, g = fam.members[0].factors[0], fam.members[1].factors[0]
    party_0 = (f, g, f + g)
    return OperatorFamily(fam.spec, tuple(
        ProductOperator(m.weight, (party_0[j % 3], m.factors[1]))
        for j, m in enumerate(fam.members)
    ))


@pytest.mark.parametrize(
    "make, proven",
    [
        (lambda: gen_projective_basis(2, 4), [True, True]),
        (lambda: gen_projective_basis(3, 3), [True, True]),
        # No class on party 0; four classes in eight rows after the QR.
        (lambda: _repeated_factor_family((2, 3), 8, party=1, n_classes=4), [False, True]),
        # Five classes in four rows, any four independent; no class on party 1.
        (lambda: _repeated_factor_family((2, 2), 15, party=0, n_classes=5), [True, False]),
        # Eight classes in four rows on one party, in nine on two.
        (lambda: _with_duplicate(8, seed=3), [True] * 6),
        # Three dependent representatives; no class on party 1.
        (_dependent_classes, [False, False]),
    ],
    ids=["projective-24", "projective-33", "repeated-23-qr", "repeated-22-5x3", "twins-222",
         "dependent-22"],
)
def test_class_proofs_hold_on_independent_representatives(make, proven):
    fam = make()
    sides = [side for split in all_bipartitions(fam.n_parties) for side in split]
    tol = TolerancePolicy()
    opened = [_opened(fam, side, tol) for side in sides]
    assert [state.class_bits is not None for state in opened] == proven


def test_cumulative_floor_gate_on_random_33_n16(monkeypatch):
    # Both sides have 9 rows, and the pass ranks one of them from the full
    # set down.  Its 11,440 subsets of nine members hold 102,960 columns,
    # more than a block of at most 1,024 subsets of 16 or fewer: compared
    # with one block's columns, their floors were never built, and the pass
    # ranked 26,334 matrices, down to the 9-member subsets.  Counted over
    # the pass, the ranked columns reach 79,120 by eleven members and pass
    # 102,960 with the third block of ten: the floors are built there and
    # settle every smaller subset, after 8,934 matrices.
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    floored = _recording_subset_floors(monkeypatch)
    cert = _subset_pass(random_product_family(np.random.default_rng(0), (3, 3), 16))
    assert cert.status == "Unique" and cert.subsets_examined == 2**16 - 16 - 1
    assert sum(stack_sizes) == 8934
    assert [(len(m), k) for m, k in floored] == [(9, 9), (9, 2)]


def test_a_value_at_the_cutoff_counts_as_zero():
    # A rank counts only the singular values above its cutoff, so a noise
    # bound equal to the smallest cutoff still proves the class ranks.
    exact = TolerancePolicy(relative_rank_threshold=0.0)
    assert _zero_under_every_cutoff(ABSOLUTE_FLOOR, 1.0, exact)
    assert not _zero_under_every_cutoff(np.nextafter(ABSOLUTE_FLOOR, 1.0), 1.0, exact)
    half = TolerancePolicy(relative_rank_threshold=0.5)
    assert _zero_under_every_cutoff(0.25, 0.5, half)
    assert not _zero_under_every_cutoff(np.nextafter(0.25, 1.0), 0.5, half)


def _class_side(sigma_min, e, copies=2):
    """A 4 x 4 ``copies`` side matrix and its classes: four representatives
    with singular values from 1 down to ``sigma_min``, each followed by
    ``copies`` - 1 members at distance ``e`` from it."""
    rng = np.random.default_rng(31)
    reps = _planted(rng, 4, 4, sigma_min)
    cls = np.repeat(np.arange(4), copies)
    step = complex_randn(rng, 4, len(cls))
    step[:, ::copies] = 0
    return reps[:, cls] + e * step / np.maximum(np.linalg.norm(step, axis=0), 1e-300), cls


def _class_proof_terms(m, cls, tol):
    """d, C, the spread term w and the column-norm floor of
    ``_proves_class_ranks`` on ``m``, and its representative columns."""
    n = m.shape[1]
    reps = np.unique(cls, return_index=True)[1]
    kappa, d, cap = _side_cap(m, tol)
    spread = math.sqrt(n) * np.linalg.norm(m - m[:, reps[cls]], axis=0).max() * (1 + kappa)
    low = np.linalg.norm(m, axis=0).min() * (1 - kappa)
    return d, cap, spread, low, m[None, :, reps]


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(relative_rank_threshold=0.1), TolerancePolicy(relative_rank_threshold=0.01)],
    ids=["rel0.1", "rel0.01"],
)
def test_class_proof_margin(tol):
    # Representatives with sigma_min half the spread term w inside the band
    # (C + d, C + d + w]: the proof declines, though without w their Gram
    # proves sigma_min > C + d and the noise check holds.
    e = 0.05 * tol.relative_rank_threshold
    sigma_min = 0.5
    for _ in range(40):
        m, cls = _class_side(sigma_min, e)
        d, cap, spread, low, reps = _class_proof_terms(m, cls, tol)
        sigma_min = cap + d + spread / 2
    assert np.linalg.svd(reps[0], compute_uv=False)[-1] < cap + d + spread
    assert _zero_under_every_cutoff(spread + d, low - d, tol)
    assert _proves_full_rank(reps, tol, bound=cap + d)
    assert not _proves_class_ranks(_Side(m, cls, tol))
    # Spread whose term w + d lies half a d above the smallest cutoff: the
    # proof declines, though the representatives' Gram proves sigma_min > C
    # + d + w.
    e = 0.1 * tol.relative_rank_threshold
    for _ in range(40):
        m, cls = _class_side(1.0, e)
        d, cap, spread, low, reps = _class_proof_terms(m, cls, tol)
        # w grows with e: scale e to put w + d at the cutoff plus d / 2.
        e *= (tol.cutoff(low - d) - d / 2) / spread
    m, cls = _class_side(1.0, e)
    d, cap, spread, low, reps = _class_proof_terms(m, cls, tol)
    assert spread + d > tol.cutoff(low - d) > spread + d / 4
    assert _proves_full_rank(reps, tol, bound=cap + d + spread)
    assert not _proves_class_ranks(_Side(m, cls, tol))


def _planted_classes(t):
    """Random (2,2)/N8 family whose party-0 factors are the four of
    ``_plant``, each on two members: one class each, with representatives
    of sigma_min t."""
    s = t / math.sqrt(2)
    c = math.sqrt(1 - s * s)
    planted = ([[c, 0], [s, 0]], [[c, 0], [-s, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]])
    fam = random_product_family(np.random.default_rng(9), (2, 2), 8)
    return OperatorFamily(fam.spec, tuple(
        ProductOperator(m.weight, (np.array(planted[j % 4], dtype=complex), *m.factors[1:]))
        for j, m in enumerate(fam.members)
    ))


@pytest.mark.parametrize(
    "tol",
    [TolerancePolicy(), TolerancePolicy(relative_rank_threshold=1e-6)],
    ids=["default", "rel1e-6"],
)
def test_class_proof_gram_margin(tol):
    # The uncompressed 4-row side has spread 0, so the representatives must
    # prove sigma_min > C + d through their Gram, with the err of the
    # full-rank screen on four unit columns: half an err past (C + d)^2
    # declines and twice err proves.  Either way the certificate is the
    # reference's.
    m = _planted_classes(1e-20).unit_side((0,))[0]
    _, d, cap = _side_cap(m, tol)
    kappa = svd_error_scale(4, 4)
    err = kappa * (2 * (1 + kappa)) ** 2
    for share, proven in [(0.5, False), (2.0, True)]:
        fam = _planted_classes(math.sqrt((cap + d) ** 2 + share * err))
        assert _side_cap(fam.unit_side((0,))[0], tol)[1:] == (d, cap)
        assert (_opened(fam, (0,), tol).class_bits is not None) is proven
        cert = certify_unique(fam, tol=tol)
        witnesses, examined = _reference_certificate(fam, tol)
        assert cert.witnesses == witnesses
        assert cert.subsets_examined == examined


def test_class_proof_declines_at_a_zero_threshold():
    # At a relative threshold of 0 every cutoff is ABSOLUTE_FLOOR, below the
    # SVD's error d: the noise check declines although the representatives
    # are orthonormal, and the pass ranks each subset.
    tol = TolerancePolicy(relative_rank_threshold=0.0)
    fam = gen_projective_basis(2, 4)
    assert all(_opened(fam, side, tol).class_bits is None for side in ((0,), (1,)))
    cert = certify_unique(fam, tol=tol)
    witnesses, examined = _reference_certificate(fam, tol)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined


def _one_shared_factor(perturb: bool):
    """Random (2,2) family whose last member takes the first member's party-0
    factor, shifted by one ulp in one entry when ``perturb``."""
    fam = random_product_family(np.random.default_rng(8), (2, 2), 8)
    shared = fam.members[0].factors[0].copy()
    if perturb:
        shared[0, 0] = complex(np.nextafter(shared[0, 0].real, np.inf), shared[0, 0].imag)
    last = fam.members[-1]
    return OperatorFamily(
        fam.spec, fam.members[:-1] + (ProductOperator(last.weight, (shared, last.factors[1])),)
    )


def _class_count(fam, side):
    return len(set(_column_classes(fam.side_matrix(side)).tolist()))


def test_one_ulp_apart_columns_form_no_class(monkeypatch):
    shared = _one_shared_factor(False)
    assert _class_count(shared, (0,)) == 7
    assert _opened(shared, (0,)).class_bits is not None
    fam = _one_shared_factor(True)
    assert all(_class_count(fam, side) == 8 for side in ((0,), (1,)))
    stack_sizes = _counting_stacked_ranks(monkeypatch)
    cert = certify_unique(fam)
    # Every subset the bounds leave undecided is ranked on its own, side A
    # (party 0) first, in stacks of at most 64: the full set on each side
    # and the 8 and 28 subsets of seven and six members on both sides.  At
    # five members side A has ranked 232 columns, and its 56 subsets would
    # add 280, more than the 280 columns of the 70 subsets of four: it
    # builds their floors, which settle every subset of five.  At four
    # members the 15 that hold members 0 and 7 (whose party-0 columns are
    # one ulp apart) floor at 3 and are ranked on both sides; then one
    # pair (216 matrices with the floors built on one block's columns
    # alone).  The unperturbed family's party-0 side proves its seven class
    # ranks and ranks nothing: it takes 52 matrices, all on party 1 (174
    # with one rank per column multiset).
    assert (len(stack_sizes), sum(stack_sizes)) == (9, 105)
    stack_sizes.clear()
    assert certify_unique(shared).witnesses == _reference_certificate(shared, cert.tol)[0]
    assert (len(stack_sizes), sum(stack_sizes)) == (4, 52)
    witnesses, examined = _reference_certificate(fam, cert.tol)
    assert cert.witnesses == witnesses
    assert cert.subsets_examined == examined


def test_svd_failure_is_a_numeric_error(monkeypatch):
    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken_svd)
    # The pass starts at the full set: one selection of all four columns of
    # the 4x4 side matrix.  (Projective (2,2) proves its class ranks and
    # reaches no SVD.)
    with pytest.raises(NumericError, match="1x4x4 matrix stack"):
        _subset_pass(random_product_family(np.random.default_rng(0), (2, 2), 4))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "columns", [range(12), np.array([0, 2, 3, 5, 7, 8, 10, 11])], ids=["all", "representatives"]
)
def test_subset_stacks_list_each_k_subset_once_in_order(columns, k):
    # The Kruskal proofs select from every column, the class proof from an
    # array of representatives.  Both take the selections of
    # itertools.combinations, in its order, in stacks of SUBSET_BLOCK but
    # the last.  The columns are distinct, so equal selections in the same
    # order leave no subset missed or repeated.
    m = complex_randn(np.random.default_rng(7), 3, 12)
    stacks = list(_subset_stacks(m, columns, k))
    expected = [m[:, combo] for combo in itertools.combinations(columns, k)]
    full, last = divmod(len(expected), SUBSET_BLOCK)
    assert [len(stack) for stack in stacks] == [SUBSET_BLOCK] * full + [last] * (last > 0)
    selected = [selection for stack in stacks for selection in stack]
    assert len(selected) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(selected, expected))


def _kruskal_state(fam, tol=TolerancePolicy(), strategy=None):
    """Whether the Kruskal check proves ``fam`` Unique, its sides afterwards
    and the Gram proofs it spent."""
    sides = _Sides(fam, tol)
    budget = sides.budget
    splits = _examined_splits(fam.n_parties, strategy or default_strategy(fam.n_parties))
    proven = _kruskal_proves(sides, splits)
    return proven, sides, budget - sides.budget


@pytest.mark.parametrize(
    "make, charged, state",
    [
        # The 13-column side of {1, 2} has full column rank, its one
        # 13-subset proven in one stack, so the 78 pairs of party 0, in two
        # stacks, suffice: three stacks of 64 charged.
        (lambda: random_product_family(np.random.default_rng(0), (2, 2, 2), 13), 3 * 64,
         {(0,): (None, 2), (1, 2): (None, 13)}),
        # Both 9-row sides have rank 9, so lb_A(t) = max(2, t - 4) from the
        # pairs and rank of party 0 and min(t, 9) from the 9-subsets of
        # party 1 cover every size: 1 + C(13, 2) + C(13, 9) = 794 Gram
        # matrices in 1 + 2 + 12 stacks, fewer than the 2 C(13, 6) of
        # k_A = k_B = 6.
        (lambda: random_product_family(np.random.default_rng(0), (3, 3), 13), 15 * 64,
         {(0,): (9, 2), (1,): (None, 9)}),
        # Party 0's 4-row side has rank 2, so its 55 pairs carry it, with no
        # rank proof; the 11 columns of {1, 2} have full rank.
        (lambda: gen_fourier_channel((2, 2, 2)), 2 * 64, {(0,): (None, 2), (1, 2): (None, 11)}),
    ],
    ids=["random-222-n13", "random-33-n13", "fourier-222"],
)
def test_kruskal_check_proves_unique_before_the_pass(monkeypatch, make, charged, state):
    # The certificate is the pass's, byte for byte, though no 2**N array is
    # allocated: the pass is never called.
    fam = make()
    proven, sides, spent = _kruskal_state(fam)
    assert proven and spent == charged
    assert {key: (side.rank, side.kruskal) for key, side in sides.items()} == state
    expected = _subset_pass(fam)

    def no_pass(*args):
        raise AssertionError("the subset pass ran")

    monkeypatch.setattr(sepcert.certify, "_subset_pass", no_pass)
    for fail_fast in (False, True):
        cert = certify_unique(fam, fail_fast=fail_fast)
        assert cert == expected and cert.to_json({}) == expected.to_json({})
    assert expected.status == "Unique"


@pytest.mark.parametrize("parties", [1, 2], ids=["one-party", "two-party"])
def test_kruskal_check_answers_alone_only_below_two_members(monkeypatch, parties):
    # One member leaves no subset, so the check proves Unique without the
    # pass, with or without a split.  Two members already form a subset:
    # sharing their party-0 factor bit for bit, the pair has deltas 1 + 2 =
    # 2 + 1 on the one split, or no split at all, and is a witness that only
    # the pass reports.
    rng = np.random.default_rng(3)
    a, b, c = (complex_randn(rng, 2, 2) for _ in range(3))
    pair = family_from_factors([(2, 2)] * parties, [(1.0, [a, b][:parties]),
                                                    (1.0, [a, c][:parties] if parties > 1 else [b])])
    splits = _examined_splits(parties, default_strategy(parties))
    cert = certify_unique(pair)
    assert [w.members for w in cert.witnesses] == [(0, 1)]
    assert (cert.witnesses, cert.subsets_examined) == _reference_certificate(
        pair, TolerancePolicy(), splits=splits
    )

    def no_pass(*args):
        raise AssertionError("the subset pass ran")

    monkeypatch.setattr(sepcert.certify, "_subset_pass", no_pass)
    one = pair.subfamily([0])
    for fail_fast in (False, True):
        cert = certify_unique(one, fail_fast=fail_fast)
        assert (cert.status, cert.witnesses, cert.subsets_examined) == ("Unique", (), 0)


def _in_span(fam, party, members, dim, seed):
    """``fam`` with ``party``'s factors of ``members`` drawn at random from
    a random ``dim``-dimensional span."""
    rng = np.random.default_rng(seed)
    basis = complex_randn(rng, dim, *fam.spec.factor_shape(party))
    return OperatorFamily(fam.spec, tuple(
        ProductOperator(m.weight, tuple(
            np.tensordot(complex_randn(rng, dim), basis, axes=1) if p == party and j in members
            else f
            for p, f in enumerate(m.factors)
        ))
        for j, m in enumerate(fam.members)
    ))


def _dependent_triple():
    """Random (3,3)/N10 family whose members 0-2 take random factors from a
    random 2-dimensional span on each party."""
    fam = random_product_family(np.random.default_rng(5), (3, 3), 10)
    return _in_span(_in_span(fam, 0, {0, 1, 2}, 2, 1), 1, {0, 1, 2}, 2, 2)


@pytest.mark.parametrize(
    "make, proven, witness",
    [
        # Members 0-2 are dependent on both parties of (3,3)/N10: k = 2 on
        # both 9-row sides, whose rank 9 adds nothing at three members, so
        # lb_A(3) + lb_B(3) = 4 = 3 + 1, and (0, 1, 2) is a witness with
        # exactly those deltas.
        (_dependent_triple, [(9, 2, 3), (9, 2, 3)], ((0, 1, 2), (2, 2))),
        # Members 0-3 of (2,2)/N6 span two dimensions on party 0 and three on
        # party 1: k = 2 and 3, and rank 4 on each side.  At four members
        # the interlacing bound 4 - (6 - 4) = 2 on side A is attained: lb_A
        # + lb_B = 2 + 3 = 4 + 1, and (0, 1, 2, 3) is a witness.
        (lambda: _in_span(_in_span(random_product_family(np.random.default_rng(6), (2, 2), 6),
                                   0, {0, 1, 2, 3}, 2, 3), 1, {0, 1, 2, 3}, 3, 4),
         [(4, 2, 3), (4, 3, 4)], ((0, 1, 2, 3), (2, 3))),
    ],
    ids=["dependent-triple-33-n10", "flat-quadruple-22-n6"],
)
def test_kruskal_bounds_are_attained_by_a_witness(make, proven, witness):
    # Every rank and k each side can prove is proven, and still no plan
    # covers every size: the cover test and the interlacing bound are tight.
    fam = make()
    tol = TolerancePolicy()
    sides = _Sides(fam, tol)
    pair = [sides[(0,)], sides[(1,)]]
    for side in pair:
        sides.try_rank(side)
        k = 2
        while k <= len(side.m) and sides.try_kruskal(side, k):
            k += 1
    assert [(side.rank, side.kruskal, side.refuted) for side in pair] == proven
    assert _kruskal_plan(fam.n_members, *pair, math.inf) is None
    cert = certify_unique(fam, tol=tol)
    assert [(w.members, w.deltas) for w in cert.witnesses] == [witness]
    assert cert.witnesses == _reference_certificate(fam, tol)[0]


@pytest.mark.parametrize(
    "make, built, passed",
    [
        # Proven by the Kruskal check from its first split's sides alone.
        (lambda: random_product_family(np.random.default_rng(0), (2, 2, 2), 13),
         [(0,), (1, 2)], False),
        # Built and proven in part by the check, which then declines: no
        # plan covers every size.
        (_dependent_triple, [(0,), (1,)], True),
        # Built by the check, whose cheapest plan is over budget.
        (lambda: random_product_family(np.random.default_rng(0), (3, 3), 16), [(0,), (1,)], True),
    ],
    ids=["random-222-n13", "dependent-triple-33-n10", "random-33-n16"],
)
def test_each_side_is_built_once_per_call(monkeypatch, make, built, passed):
    # The Kruskal check builds the sides of its split before any Gram, and
    # the pass, when it runs, decides the subsets on those same sides.
    fam = make()
    sides, ran = [], []
    side_matrix, subset_pass = OperatorFamily.side_matrix, sepcert.certify._subset_pass

    def recording_side(fam, side, include_weight=False):
        sides.append(tuple(side))
        return side_matrix(fam, side, include_weight)

    def recording_pass(*args):
        ran.append(len(sides))
        return subset_pass(*args)

    monkeypatch.setattr(OperatorFamily, "side_matrix", recording_side)
    monkeypatch.setattr(sepcert.certify, "_subset_pass", recording_pass)
    cert = certify_unique(fam)
    assert sides == built
    assert ran == ([len(built)] if passed else [])
    assert cert.witnesses == _reference_certificate(fam, cert.tol)[0]


def _kruskal_margin(fam, tol, k):
    """(C + d)^2 of party 0's side of ``fam`` and the err of
    ``_proves_full_rank`` on one of its k-subsets of unit columns."""
    m = fam.unit_side((0,))[0]
    r = len(m)
    _, d, cap = _side_cap(m, tol)
    kappa = svd_error_scale(max(r, k), min(r, k))
    return (cap + d) ** 2, kappa * (math.sqrt(k) * (1 + kappa)) ** 2


@pytest.mark.parametrize("tol", MARGIN_POLICIES, ids=["default", "rel0.49"])
def test_kruskal_proof_margins(tol):
    # Party 0's 4 x 4 side holds _plant's columns: the pair (0, 1) and the
    # full side both have sigma_min t, every other pair 1.  The k = 2 proof
    # and the full-rank proof each decline half an err past (C + d)^2 and
    # succeed at twice err, where err is that of their own Gram.  At 0.49
    # the + d moves (C + d)^2 by about 2 err, so the declined plants are
    # proven once the + d is dropped.  Either way the certificate is the
    # reference's.
    base = random_product_family(np.random.default_rng(9), (2, 2), 4)
    for k in (2, 4):
        floor, err = _kruskal_margin(_plant(base, 1e-20, 4), tol, k)
        for share, proven in [(0.5, False), (2.0, True)]:
            fam = _plant(base, math.sqrt(floor + share * err), 4)
            assert _kruskal_margin(fam, tol, k) == (floor, err)
            sides = _Sides(fam, tol)
            side = sides[(0,)]
            if k == 2:
                assert sides.try_kruskal(side, 2) is proven
                assert (side.kruskal, side.refuted) == ((2, 5) if proven else (0, 2))
            else:
                assert sides.try_rank(side) is proven
                assert side.rank == (4 if proven else 0)
            cert = certify_unique(fam, tol=tol)
            witnesses, examined = _reference_certificate(fam, tol)
            assert cert.witnesses == witnesses
            assert cert.subsets_examined == examined


def _fuzz_family(rng, n, parties):
    """A random family of n members on ``parties`` parties of dimension 2 or
    3.  Each party's factors are drawn independently, or, three times in
    ten, picked from a smaller pool, so that classes, twins and shared
    factors arise; three pools in ten make their third factor the sum of
    the first two.  Every factor then takes complex noise of 0, 1e-12, 1e-9
    or 1e-6, the same for the whole family."""
    dims = [int(d) for d in rng.integers(2, 4, parties)]
    noise = float(rng.choice([0.0, 1e-12, 1e-9, 1e-6]))
    stacks = []
    for d in dims:
        size = int(rng.integers(2, n + 1)) if rng.random() < 0.3 else n
        pool = complex_randn(rng, size, d, d)
        if size > 2 and rng.random() < 0.3:
            pool[2] = pool[0] + pool[1]
        picks = pool[rng.integers(0, size, n)] if size < n else pool
        stacks.append(picks + noise * complex_randn(rng, n, d, d))
    return OperatorFamily(PartySpec(tuple((d, d) for d in dims)), tuple(
        ProductOperator(complex(rng.standard_normal(), 1.0), tuple(s[j] for s in stacks))
        for j in range(n)
    ))


def test_certificates_match_the_per_subset_reference_on_seeded_families(monkeypatch):
    # A differential fuzz of the whole certifier against one SVD per side
    # of each subset: 200 seeded families, each with a relative threshold of
    # 1e-10, 1e-6 or 1e-3 and the pairs or bipartitions strategy.  Below
    # 10 members the Kruskal check's budget is under two stacks and only the
    # pass runs: 175 families of 3-8 members on 2-3 parties test it.  The
    # other 25 have 10 members on 3 parties, where the bipartitions hold a
    # side of full column rank: the check must both prove families Unique
    # and decline others, which the pass then decides.
    answers = []
    kruskal_proves = sepcert.certify._kruskal_proves

    def recording(*args):
        answers.append(kruskal_proves(*args))
        return answers[-1]

    monkeypatch.setattr(sepcert.certify, "_kruskal_proves", recording)
    rng = np.random.default_rng(5)
    declined = []
    for i in range(200):
        if i % 8:
            fam = _fuzz_family(rng, int(rng.integers(3, 9)), int(rng.integers(2, 4)))
        else:
            fam = _fuzz_family(rng, 10, 3)
        tol = TolerancePolicy(relative_rank_threshold=float(rng.choice([1e-10, 1e-6, 1e-3])))
        strategy = str(rng.choice([STRATEGY_PAIRS, STRATEGY_ALL_BIPARTITIONS]))
        cert = certify_unique(fam, strategy=strategy, tol=tol)
        splits = _examined_splits(fam.n_parties, strategy)
        witnesses, examined = _reference_certificate(fam, tol, splits=splits)
        assert cert.witnesses == witnesses
        assert cert.subsets_examined == examined
        if fam.n_members == 10 and not answers[-1]:
            declined.append(cert.status)
    assert sum(answers) >= 5
    assert declined.count("Unique") >= 5 and declined.count("Inconclusive") >= 5


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


@pytest.mark.parametrize(
    "fam, scales",
    [
        (gen_ladder_channel(0.5), [(1.0, 1.0), (1e160, 1e-160)]),
        (gen_projective_basis(2, 2), [(1e-160, 1e160)] * 4),
    ],
    ids=["ladder-1e160-1e-160", "projective-1e-160-1e160"],
)
def test_positive_spans_do_not_depend_on_factor_scales(fam, scales):
    # Every member is unchanged, but its factors' positive parts would
    # overflow or underflow if taken unscaled.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_completeness(_rescaled(fam, scales))
    expected = verify_completeness(fam)
    assert report.local_positive_spans == expected.local_positive_spans
    assert report.pair_sums == expected.pair_sums
    assert report.is_complete == expected.is_complete


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

