"""Tests for product-operator families, splits, and span bookkeeping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcert import families
from sepcert.choi import channel_to_choi_ensemble
from sepcert.errors import (
    DegenerateInputError,
    ParameterError,
    ShapeError,
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
    span_bound_report,
)
from sepcert.linalg import schmidt_rank, span_dimension, vectorize
from sepcert.sampling import (
    planted_dependent_family,
    random_nonzero_coefficients,
    random_product_family,
    random_product_measurement,
    shared_factor_family,
)
from sepcert.serialize import load_family, save_family
from sepcert.zoo import (
    augment_channel,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
    gen_tight_family,
    heisenberg_weyl_unitaries,
)
from test_acceptance import _zoo

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def crand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_family(rng, local_dims, n_members):
    members = []
    for _ in range(n_members):
        w = complex(rng.standard_normal() + 1j * rng.standard_normal())
        factors = [crand(rng, d, d) for d in local_dims]
        members.append((w, factors))
    return family_from_factors([(d, d) for d in local_dims], members)


# ---------------------------------------------------------------------------
# PartySpec


def test_party_spec_validation():
    with pytest.raises(ParameterError):
        PartySpec(())
    with pytest.raises(ParameterError):
        PartySpec(((2, 0),))
    with pytest.raises(ParameterError):
        PartySpec(((0, 2),))


def test_party_spec_size_budget():
    with pytest.raises(SizeBudgetError):
        PartySpec(((4096, 4096), (2, 2)))


def test_party_spec_shapes():
    spec = PartySpec(((3, 2), (2, 4)))
    assert spec.n_parties == 2
    assert spec.factor_shape(0) == (2, 3)  # (d_out, d_in)
    assert spec.factor_shape(1) == (4, 2)
    assert spec.d_in(0) == 3 and spec.d_out(0) == 2


# ---------------------------------------------------------------------------
# ProductOperator


def test_product_operator_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        ProductOperator(0.0, (I2, I2))
    with pytest.raises(DegenerateInputError):
        ProductOperator(1.0, (I2, np.zeros((2, 2))))
    with pytest.raises(ParameterError):
        ProductOperator(1.0, ())
    with pytest.raises(ShapeError, match="2-D factors"):
        ProductOperator(1.0, (np.ones(2),))


def test_product_operator_factors_are_read_only():
    op = ProductOperator(1.0, (I2,))
    with pytest.raises(ValueError):
        op.factors[0][0, 0] = 5.0


def test_assemble_is_weighted_kron_chain():
    rng = np.random.default_rng(10)
    a, b, c = crand(rng, 2, 2), crand(rng, 3, 2), crand(rng, 2, 4)
    op = ProductOperator(2.5 - 1j, (a, b, c))
    np.testing.assert_allclose(
        op.assemble(), (2.5 - 1j) * np.kron(a, np.kron(b, c)), atol=1e-14
    )


def test_ladder_third_member_is_corner_unit():
    # E10 (x) E10 assembled: single entry 1 at row 3, col 0.
    fam = gen_ladder_channel(0.5)
    m = fam.members[2].assemble()
    expected = np.zeros((4, 4))
    expected[3, 0] = 1.0
    np.testing.assert_allclose(m, expected, atol=0)


def test_grouped_sides_recombine_to_assembled():
    rng = np.random.default_rng(11)
    factors = tuple(crand(rng, 2, 2) for _ in range(3))
    op = ProductOperator(1.3 + 0.2j, factors)
    left = op.grouped((0, 2), include_weight=True)
    right = op.grouped((1,))
    # Recombination holds after undoing the interleaving permutation:
    # parties (0,2|1) ordered as 0,2,1.
    reordered = ProductOperator(op.weight, (factors[0], factors[2], factors[1]))
    np.testing.assert_allclose(np.kron(left, right), reordered.assemble(), atol=1e-13)


def test_grouped_weight_appears_once():
    op = ProductOperator(3.0, (I2, SX))
    np.testing.assert_allclose(
        np.kron(op.grouped((0,), include_weight=True), op.grouped((1,))),
        op.assemble(),
        atol=0,
    )


def test_scaled():
    op = ProductOperator(2.0, (I2,))
    np.testing.assert_allclose(op.scaled(0.5j).assemble(), 1j * I2)


# ---------------------------------------------------------------------------
# Splits


def test_all_bipartitions_counts():
    assert all_bipartitions(2) == (((0,), (1,)),)
    assert all_bipartitions(3) == (((0,), (1, 2)), ((0, 1), (2,)), ((0, 2), (1,)))
    assert len(all_bipartitions(4)) == 7
    for side_a, side_b in all_bipartitions(4):
        assert 0 in side_a  # canonical: party 0 on side A
        assert sorted(side_a + side_b) == [0, 1, 2, 3]


def split_family():
    return random_family(np.random.default_rng(14), (2, 2, 2), 3), [1.0, 1.0, 1.0]


def test_bipartition_rejects_overlap():
    fam, coeffs = split_family()
    for split in [((0, 1), (1, 2)), ((0, 1), (1,)), ((), (0, 1, 2))]:
        with pytest.raises(UsageError):
            span_bound_report(fam, coeffs, split)


def test_bipartition_sorts_sides():
    fam, coeffs = split_family()
    report = span_bound_report(fam, coeffs, ((2, 0), [1]))
    assert report.split == ((0, 2), (1,))
    assert report == span_bound_report(fam, coeffs, ((0, 2), (1,)))


def test_bipartition_of_and_validate():
    fam, coeffs = split_family()
    # A split must name every party of the family exactly once.
    for split in [((0,), (2,)), ((0, 3), (1, 2)), ((0,), (1, 2, 3))]:
        with pytest.raises(UsageError):
            span_bound_report(fam, coeffs, split)
    assert span_bound_report(fam, coeffs).split == ((0,), (1, 2))


def test_party_pairs():
    assert party_pairs(3) == ((0, 1), (0, 2), (1, 2))
    # One party has no split.
    assert party_pairs(1) == ()
    assert all_bipartitions(1) == ()


# ---------------------------------------------------------------------------
# OperatorFamily


def test_family_rejects_shape_mismatch():
    spec = PartySpec(((2, 2), (2, 2)))
    with pytest.raises(ShapeError) as err:
        OperatorFamily(spec, (ProductOperator(1.0, (I2, np.eye(3))),))
    assert str(err.value) == "member 0: factor shapes [(2, 2), (3, 3)] do not match spec [(2, 2), (2, 2)]"


def test_family_rejects_empty():
    # Every constructor path meets the one gate, _from_stacks.
    rng = np.random.default_rng(0)
    for build in [
        lambda: OperatorFamily(PartySpec(((2, 2),)), ()),
        lambda: random_product_family(rng, (2, 2), 0),
        lambda: random_product_family(rng, (2, 2), -1),
        lambda: shared_factor_family(rng, 2, 0, 0, 2),
        lambda: OperatorFamily._from_stacks(PartySpec(((2, 2), (2, 3))), np.ones(0, dtype=complex),
                                            [np.ones((0, 2, 2), dtype=complex),
                                             np.ones((0, 3, 2), dtype=complex)]),
    ]:
        with pytest.raises(ParameterError) as err:
            build()
        assert str(err.value) == "a family needs at least one member"


def _families_of_every_origin(tmp_path):
    """Generated, derived, Choi and loaded families."""
    ladder = gen_ladder_channel(0.5)
    hw = heisenberg_weyl_unitaries(2)
    out = {
        **_zoo(),
        "random-23": random_product_family(np.random.default_rng(5), (2, 3), 6),
        "relabelled": OperatorFamily(ladder.spec, ladder.members[::-1]),
        "subfamily": gen_fourier_channel((2, 2, 2)).subfamily((6, 0, 3)),
        "augmented-ladder": augment_channel(ladder, hw[:3], hw[-3:]),
        "choi": channel_to_choi_ensemble(ladder),
    }
    save_family(tmp_path / "fourier.json", gen_fourier_channel((2, 3)))
    out["loaded"] = load_family(tmp_path / "fourier.json").family
    return out


def test_members_are_views_into_the_stacks(tmp_path):
    for name, fam in _families_of_every_origin(tmp_path).items():
        members = fam.members
        assert fam.members is members, name  # built once
        assert len(members) == fam.n_members
        assert np.array([m.weight for m in members]).tobytes() == fam.weights.tobytes(), name
        assert not fam.weights.flags.writeable
        for p in range(fam.n_parties):
            stack = fam.local_factors(p)
            factors = [m.factors[p] for m in members]
            assert not stack.flags.writeable, name
            assert all(not f.flags.writeable and np.shares_memory(f, stack) for f in factors), name
            assert np.stack(factors).tobytes() == stack.tobytes(), name


def test_every_family_is_checked_once(monkeypatch, tmp_path):
    member_fault, calls = families._member_fault, []

    def counted(weights, stacks):
        calls.append(len(weights))
        return member_fault(weights, stacks)

    ladder = gen_ladder_channel(0.5)
    save_family(tmp_path / "ladder.json", ladder)
    hw = heisenberg_weyl_unitaries(2)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(families, "_member_fault", counted)
    for build, checks in [
        (lambda: OperatorFamily(ladder.spec, ladder.members), 1),
        (lambda: ladder.subfamily((2, 0)), 1),
        (lambda: augment_channel(ladder, hw[:3], hw[-3:]), 1),
        (lambda: channel_to_choi_ensemble(ladder), 1),
        (lambda: load_family(tmp_path / "ladder.json"), 1),
        (lambda: gen_ladder_channel(0.5), 1),
        (lambda: gen_fourier_channel((2, 2, 2)), 1),
        (gen_pauli_pair_channel, 1),
        (lambda: gen_projective_basis(3, 3), 1),
        (lambda: gen_product_unitary_channel([hw[:2], hw[2:]], [0.5, 0.5]), 1),
        (lambda: gen_tight_family(2, 3), 1),
        (lambda: random_product_family(rng, (2, 2, 2), 13), 1),
        (lambda: random_product_measurement(rng, (2, 3), (2, 3)), 1),
        (lambda: shared_factor_family(rng, 3, 1, 4, 2), 1),
        # The shared-factor family it extends is a family of its own.
        (lambda: planted_dependent_family(rng, 3, 1, 3, 2, 2), 2),
    ]:
        calls.clear()
        build()
        assert len(calls) == checks, calls


def test_subfamily():
    fam = gen_ladder_channel(0.5)
    sub = fam.subfamily((0, 2))
    assert sub.n_members == 2
    np.testing.assert_array_equal(sub.members[1].factors[0], fam.members[2].factors[0])
    with pytest.raises(UsageError):
        fam.subfamily((0, 0))
    with pytest.raises(UsageError):
        fam.subfamily((0, 7))


def test_member_indices():
    fam = gen_ladder_channel(0.5)
    assert fam.member_indices([2, 0]) == (2, 0)
    assert fam.member_indices(np.array([1, 2]), minimum=2) == (1, 2)
    for bad, minimum in [((), 1), ((1,), 2), ((0, 0), 1), ((0, 3), 1), ((-1,), 1)]:
        with pytest.raises(UsageError):
            fam.member_indices(bad, minimum)


def test_assembled_stacks_members():
    fam = gen_ladder_channel(0.5)
    mats = fam.assembled()
    assert len(mats) == 3
    np.testing.assert_allclose(mats[0], fam.members[0].assemble())


# ---------------------------------------------------------------------------
# Local spans


def test_ladder_local_span_dims():
    fam = gen_ladder_channel(0.5)
    for party in (0, 1):
        assert fam.span_dim((party,)) == 3
        assert fam.span_dim((party,), (0, 1, 2)) == 3
        assert fam.span_dim((party,), (0, 1)) == 2
        assert fam.span_dim((party,), ()) == 0
    # Both parties grouped: the assembled members, independent.
    assert fam.span_dim((0, 1), range(3)) == 3


def test_side_matrix_columns_are_vectorized_grouped_factors():
    fam = gen_ladder_channel(0.5)
    for side in [(0,), (1,), (1, 0)]:
        for include_weight in (False, True):
            m = fam.side_matrix(side, include_weight)
            assert m.shape == (16 if len(side) == 2 else 4, fam.n_members)
            for j, g in enumerate(fam.grouped_factors(side, include_weight)):
                np.testing.assert_array_equal(m[:, j], g.reshape(-1, order="F"))
    with pytest.raises(UsageError):
        fam.side_matrix((1, 1))


@st.composite
def batched_cases(draw):
    """A family of 1-4 parties with dimensions 1..3 (kets included), 1-6
    members, complex weights, and some members whose factors carry 1e150 on
    one party and 1e-150 on another."""
    kets = draw(st.booleans())
    parties = draw(
        st.lists(
            st.tuples(st.just(1) if kets else st.integers(1, 3), st.integers(1, 3)),
            min_size=1,
            max_size=4,
        )
    )
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    members = []
    for _ in range(n):
        factors = [crand(rng, dout, din) for din, dout in parties]
        if len(parties) > 1 and draw(st.booleans()):
            up, down = rng.choice(len(parties), 2, replace=False)
            factors[up] *= 1e150
            factors[down] *= 1e-150
        members.append((complex(*rng.standard_normal(2)), factors))
    return family_from_factors(parties, members)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(batched_cases())
@settings(max_examples=60, deadline=None)
def test_batched_sides_equal_the_per_member_build(fam):
    stacks = [fam.local_factors(p) for p in range(fam.n_parties)]
    for p, stack in enumerate(stacks):
        assert not stack.flags.writeable
        assert _same_bytes(stack, np.stack([m.factors[p] for m in fam.members]))
    sides = [
        side
        for size in range(1, fam.n_parties + 1)
        for side in itertools.combinations(range(fam.n_parties), size)
    ]
    for side, include_weight in itertools.product(sides, (False, True)):
        groups = fam.grouped_factors(side[::-1], include_weight)
        assert len(groups) == fam.n_members
        for g, m in zip(groups, fam.members):
            assert _same_bytes(g, m.grouped(side, include_weight))
        # Fresh, or read-only: no caller writes through it into the cache.
        assert not groups.flags.writeable or not any(
            np.shares_memory(groups, stack) for stack in stacks
        )
        mat = fam.side_matrix(side, include_weight)
        reference = np.hstack(
            [vectorize(m.grouped(side, include_weight)) for m in fam.members]
        )
        assert _same_bytes(mat, reference)
        assert mat.flags.c_contiguous
    for a, m in zip(fam.assembled(), fam.members):
        assert _same_bytes(a, m.assemble())
    for bad in [(0, 0), (fam.n_parties,), ()]:
        with pytest.raises(UsageError):
            fam.grouped_factors(bad)
        with pytest.raises(UsageError):
            fam.side_matrix(bad, include_weight=True)


def test_span_bound_report_validation():
    fam = gen_ladder_channel(0.5)
    with pytest.raises(ParameterError):
        span_bound_report(fam, [1.0, 0.0, 1.0])
    with pytest.raises(ShapeError):
        span_bound_report(fam, [1.0, 1.0])


def test_span_bound_holds_on_random_families():
    rng = np.random.default_rng(12)
    for _ in range(20):
        fam = random_family(rng, (2, 3), 4)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        report = span_bound_report(fam, c)
        assert report.holds
        assert report.delta_sum == report.delta_a + report.delta_b


def test_span_bound_report_fields():
    # The three ladder members are independent on both sides, and their sum
    # has Schmidt rank 3, so the bound 3 + 3 <= 3 + 3 is tight.
    fam = gen_ladder_channel(0.5)
    report = span_bound_report(fam, [1.0, 1.0, 1.0])
    d = report.to_dict()
    assert d["split"] == {"side_a": [0], "side_b": [1]}
    assert d["n_members"] == 3
    assert d["delta_a"] == 3 and d["delta_b"] == 3
    assert d["schmidt_rank"] == 3
    assert d["holds"] is True
    assert report.equality is True


def _scaled_ladder(s):
    """The ladder with member 1's party-0 factor multiplied by ``s``."""
    fam = gen_ladder_channel(0.5)
    m = fam.members[1]
    scaled = ProductOperator(m.weight, (s * m.factors[0], m.factors[1]))
    return OperatorFamily(fam.spec, (fam.members[0], scaled, fam.members[2]))


@pytest.mark.parametrize("s", [1e13, 1e150])
def test_span_dimensions_do_not_depend_on_member_scale(s):
    # Every span dimension ranks unit columns, as certify does, so the
    # scaled member counts as much as the others: 3 and 3, as unscaled.
    fam = _scaled_ladder(s)
    spans = [(fam.span_dim((p,)), span_dimension(fam.local_factors(p))) for p in (0, 1)]
    assert spans == [(3, 3), (3, 3)]
    report = span_bound_report(fam, [1.0, 1.0, 1.0])
    assert (report.delta_a, report.delta_b) == (3, 3)
    # r_s is the rank of the caller's combination: with equal coefficients
    # the scaled member dominates it, so its numerical rank is 1 and the
    # bound reads as violated; weighting that member by 1 / s restores 3.
    assert (report.schmidt_rank, report.holds) == (1, False)
    balanced = span_bound_report(fam, [1.0, 1.0 / s, 1.0])
    assert (balanced.schmidt_rank, balanced.holds) == (3, True)


def kronecker_span_bound(fam, coeffs, split):
    """(delta_a, delta_b, r_s) from the assembled combination and grouped lists."""
    side_a, side_b = split
    a_groups = fam.grouped_factors(side_a, include_weight=True)
    b_groups = fam.grouped_factors(side_b)
    s = sum(c * np.kron(a, b) for c, a, b in zip(coeffs, a_groups, b_groups))
    dims = a_groups[0].shape + b_groups[0].shape
    return span_dimension(a_groups), span_dimension(b_groups), schmidt_rank(s, dims)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (2, 2, 2, 2)])
def test_span_bound_report_matches_kronecker_reference(dims):
    n_parties = len(dims)
    cases = []
    for seed in range(6):
        rng = np.random.default_rng([17, n_parties, seed])
        fam = random_product_family(rng, dims, 2 + seed % 4)
        coeffs = random_nonzero_coefficients(rng, fam.n_members)
        cases.append((fam, coeffs))
        # A repeated member whose two copies cancel: the combination has
        # fewer terms than members, so r_s depends on the coefficients.
        twins = OperatorFamily(fam.spec, fam.members + fam.members[-1:])
        cases.append((twins, np.r_[coeffs, -coeffs[-1]]))
        cases.append((twins, np.r_[coeffs, coeffs[-1]]))
        if len(set(dims)) == 1:
            planted, planted_coeffs = planted_dependent_family(
                rng, n_parties, seed % n_parties, 1 + seed % 3, 1 + seed % 2, dims[0]
            )
            cases.append((planted, planted_coeffs))
            cases.append((planted, random_nonzero_coefficients(rng, planted.n_members)))
    for fam, coeffs in cases:
        for split in all_bipartitions(n_parties):
            report = span_bound_report(fam, coeffs, split)
            reference = kronecker_span_bound(fam, coeffs, split)
            assert (report.delta_a, report.delta_b, report.schmidt_rank) == reference
            assert report.holds


def test_grouping_dominance():
    # Spanning dimension of grouped products never falls below that of one side.
    rng = np.random.default_rng(13)
    for _ in range(25):
        fam = random_family(rng, (2, 2), 4)
        left = [m.grouped((0,)) for m in fam.members]
        pairs = [np.kron(m.grouped((0,)), m.grouped((1,))) for m in fam.members]
        assert span_dimension(pairs) >= span_dimension(left)
