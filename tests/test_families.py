"""Tests for product-operator families, splits, and span bookkeeping."""

import numpy as np
import pytest

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
from sepcert.linalg import schmidt_rank, span_dimension
from sepcert.sampling import (
    planted_dependent_family,
    random_nonzero_coefficients,
    random_product_family,
)
from sepcert.zoo import gen_ladder_channel

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
    with pytest.raises(ParameterError):
        party_pairs(1)


# ---------------------------------------------------------------------------
# OperatorFamily


def test_family_rejects_shape_mismatch():
    spec = PartySpec(((2, 2), (2, 2)))
    with pytest.raises(ShapeError):
        OperatorFamily(spec, (ProductOperator(1.0, (I2, np.eye(3))),))


def test_family_rejects_empty():
    spec = PartySpec(((2, 2),))
    with pytest.raises(ParameterError):
        OperatorFamily(spec, ())


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
