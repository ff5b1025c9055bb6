"""Product operators over multiple parties and their span-dimension machinery.

A :class:`ProductOperator` is one operator of the form ``weight * M1 (x) M2
(x) ... (x) MP`` stored as its per-party local factors.  An
:class:`OperatorFamily` is an ordered set of such operators sharing one
:class:`PartySpec`, held as a weight vector and one factor stack per party;
it is the universal carrier for candidate Kraus representations and product
ensembles (a ket ensemble is simply a family whose factors all have one
column).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    SepcertError,
    ShapeError,
    UsageError,
)
from .linalg import (
    _check_elements,
    _coefficient_vector,
    _kron_rows,
    _rescaled,
    kron,
    numerical_rank,
    unit_columns,
)


@dataclass(frozen=True)
class PartySpec:
    """Per-party (d_in, d_out) dimensions, each at least 1, in party order;
    a total operator past the element budget is a ``SizeBudgetError``."""

    parties: tuple[tuple[int, int], ...]

    def __post_init__(self):
        parties = tuple((int(din), int(dout)) for din, dout in self.parties)
        object.__setattr__(self, "parties", parties)
        if not parties:
            raise ParameterError("a PartySpec needs at least one party")
        if any(din < 1 or dout < 1 for din, dout in parties):
            raise ParameterError(f"party dimensions must be >= 1, got {parties}")
        _check_elements(self.total_d_in * self.total_d_out, "the total operator")

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    def d_in(self, party: int) -> int:
        return self.parties[party][0]

    def d_out(self, party: int) -> int:
        return self.parties[party][1]

    @property
    def total_d_in(self) -> int:
        return math.prod(din for din, _ in self.parties)

    @property
    def total_d_out(self) -> int:
        return math.prod(dout for _, dout in self.parties)

    def factor_shape(self, party: int) -> tuple[int, int]:
        """Shape (rows, cols) = (d_out, d_in) of party's local factors."""
        din, dout = self.parties[party]
        return (dout, din)

    def to_dicts(self) -> list[dict]:
        return [{"d_in": din, "d_out": dout} for din, dout in self.parties]


@dataclass(frozen=True, eq=False)
class ProductOperator:
    """One product operator: a scalar weight and per-party local factors.

    Construction refuses what ``_member_fault`` refuses: every term of a
    product family must be finite, nonvanishing and within the float range.
    """

    weight: complex
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.array(f, dtype=np.complex128) for f in self.factors)  # private copies
        if any(m.ndim != 2 for m in mats):
            raise ShapeError(f"expected 2-D factors, got ndim {[m.ndim for m in mats]}")
        fault = _member_fault(np.array([complex(self.weight)]), [m[None] for m in mats])
        if fault is not None:
            raise fault[1]
        if not mats:
            raise ParameterError("a product operator needs at least one factor")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "weight", complex(self.weight))
        object.__setattr__(self, "factors", mats)

    @property
    def n_parties(self) -> int:
        return len(self.factors)

    def assemble(self) -> np.ndarray:
        """weight times the Kronecker product of all factors, in party order."""
        return self.weight * reduce(kron, self.factors)

    def grouped(self, side, include_weight: bool = False) -> np.ndarray:
        """Kronecker product of the factors on ``side`` (ascending party order).

        The scalar weight is attached only when ``include_weight`` is set, so
        that bipartite reconstructions count it exactly once.
        """
        side = _validated_side(side, self.n_parties)
        out = reduce(kron, (self.factors[p] for p in side))
        if include_weight:
            out = self.weight * out
        return out

    def scaled(self, scalar: complex) -> "ProductOperator":
        return ProductOperator(self.weight * complex(scalar), self.factors)


def _member_fault(weights: np.ndarray, stacks) -> tuple[int, SepcertError] | None:
    """The first member that is no valid product operator, and its error.

    Member j is ``weights[j]`` times the product of the ``stacks[p][j]``.
    In this order: its weight is finite and nonzero; per party, its factor
    is finite and not zero; |weight| times the product of the factors'
    Frobenius norms, each at least 1, is finite, which bounds every entry
    of the operator and of any group of its factors.  All at once."""
    n = len(weights)
    flats = [s.reshape(n, -1) for s in stacks]
    with np.errstate(over="ignore", invalid="ignore"):
        tops = [np.abs(flat).max(axis=1) for flat in flats]
        # sqrt(size) times the largest entry bounds a norm: below 2**1000, no overflow.
        est = np.maximum(np.abs(weights), 1.0)
        for flat, top in zip(flats, tops):
            est *= np.maximum(top * math.sqrt(flat.shape[1]), 1.0)
    rows = [~np.isfinite(weights), weights == 0]
    errors = [(NumericError, "product operator weight must be finite"),
              (DegenerateInputError, "product operator weight must be nonzero")]
    for p, (flat, top) in enumerate(zip(flats, tops)):
        rows += [~np.isfinite(flat).all(axis=1), top == 0]
        errors += [(NumericError, "matrix contains non-finite entries"),
                   (DegenerateInputError, f"factor {p} is the zero matrix")]
    # math.hypot scales its arguments, so a norm is inf only past the float
    # range; the float product then overflows to inf.
    overflow = np.zeros(n, dtype=bool)
    for j in np.flatnonzero(~np.any(rows, axis=0) & ~(est < 2.0**1000)):
        bound = max(math.hypot(weights[j].real, weights[j].imag), 1.0)
        for flat in flats:
            bound *= max(math.hypot(*np.abs(flat[j]).tolist()), 1.0)
        overflow[j] = bound == math.inf
    rows.append(overflow)
    errors.append((NumericError, "product operator overflows: |weight| times its factor "
                   "norms exceeds the float range"))
    table = np.array(rows)
    bad = np.flatnonzero(table.any(axis=0))
    if not bad.size:
        return None
    kind, message = errors[int(np.argmax(table[:, bad[0]]))]
    return int(bad[0]), kind(message)


def _unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, past its constructor:
    for values that passed its checks already."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _validated_side(side, n_parties: int) -> tuple[int, ...]:
    side = tuple(int(p) for p in side)
    if not side:
        raise UsageError("a party group must be nonempty")
    if len(set(side)) != len(side):
        raise UsageError(f"repeated party index in group {side}")
    if any(p < 0 or p >= n_parties for p in side):
        raise UsageError(f"party index out of range in group {side}")
    return tuple(sorted(side))


#: A split of the parties into two groups: (side_a, side_b), each a sorted
#: tuple of party indices.
Split = tuple[tuple[int, ...], tuple[int, ...]]


def all_bipartitions(n_parties: int) -> tuple[Split, ...]:
    """Every two-block split of {0..P-1} as a (side_a, side_b) pair of sorted
    party tuples; party 0 always sits on side A.

    There are 2**(P-1) - 1 of them, ordered by the size of side A and then
    lexicographically.  A single party cannot be split: it has none.
    """
    rest = range(1, n_parties)
    return tuple(
        ((0,) + extra, tuple(p for p in rest if p not in extra))
        for r in range(n_parties - 1)
        for extra in itertools.combinations(rest, r)
    )


def party_pairs(n_parties: int) -> tuple[tuple[int, int], ...]:
    """Every pair (a, b) of parties with a < b; one party has none."""
    return tuple(itertools.combinations(range(n_parties), 2))


@dataclass(frozen=True, eq=False, init=False)
class OperatorFamily:
    """An ordered set of product operators conforming to one PartySpec.

    The family is its read-only arrays: ``weights``, the (N,) vector of
    member weights, and ``_party_stacks[p]``, the (N, d_out, d_in) stack of
    party p's factors.  ``OperatorFamily(spec, members)`` stacks the given
    members; every family is built by ``_from_stacks``.  ``members`` are
    read-only views into the stacks, made when first read.
    """

    spec: PartySpec
    weights: np.ndarray
    _party_stacks: tuple[np.ndarray, ...]

    def __new__(cls, spec: PartySpec, members) -> "OperatorFamily":
        members = tuple(members)
        want = [spec.factor_shape(p) for p in range(spec.n_parties)]
        for j, m in enumerate(members):
            if [f.shape for f in m.factors] != want:
                raise ShapeError(f"member {j}: factor shapes {[f.shape for f in m.factors]} "
                                 f"do not match spec {want}")
        weights = np.array([m.weight for m in members], dtype=np.complex128)
        stacks = [np.array(s) for s in zip(*(m.factors for m in members))]
        return cls._from_stacks(spec, weights, stacks)

    @classmethod
    def _from_stacks(cls, spec: PartySpec, weights: np.ndarray, stacks) -> "OperatorFamily":
        """The family of members ``weights[j]`` (x)_p ``stacks[p][j]``, the
        (N, d_out, d_in) stacks of ``spec``'s parties: at least one member,
        checked at once by ``_member_fault``.  The family takes the arrays
        over, read-only."""
        if not len(weights):
            raise ParameterError("a family needs at least one member")
        fault = _member_fault(weights, stacks)
        if fault is not None:
            raise type(fault[1])(f"member {fault[0]}: {fault[1]}")
        for a in (weights, *stacks):
            a.setflags(write=False)
        return _unchecked(cls, spec=spec, weights=weights, _party_stacks=tuple(stacks))

    @cached_property
    def members(self) -> tuple[ProductOperator, ...]:
        """Member j: ``weights[j]`` and the read-only views ``local_factors(p)[j]``."""
        return tuple(_unchecked(ProductOperator, weight=w, factors=fs)
                     for w, fs in zip(self.weights.tolist(), zip(*self._party_stacks)))

    @property
    def n_members(self) -> int:
        return len(self.weights)

    @property
    def n_parties(self) -> int:
        return self.spec.n_parties

    def assembled(self) -> np.ndarray:
        """The (N, d_out, d_in) stack of assembled members: entry j equals
        ``members[j].assemble()``, read from the all-party weighted stack."""
        return self.grouped_factors(range(self.n_parties), include_weight=True)

    def local_factors(self, party: int) -> np.ndarray:
        """The read-only (N, d_out, d_in) stack of every member's ``party`` factor."""
        return self._party_stacks[party]

    def grouped_factors(self, side, include_weight: bool = False) -> np.ndarray:
        """The (N, rows, cols) stack of every member's grouped ``side`` factors.

        The side's party stacks are combined by one broadcast multiply per
        extra party, in ascending party order, and the weights multiply in
        last, so entry j equals ``members[j].grouped(side, include_weight)``
        bit for bit.  The result is fresh, or a cached read-only stack.
        Every side matrix is built here.
        """
        side = _validated_side(side, self.n_parties)
        out = _kron_rows([self._party_stacks[p] for p in side])
        if include_weight:
            out = self.weights[:, None, None] * out
        return out

    def member_indices(self, indices, minimum: int = 1) -> tuple[int, ...]:
        """``indices`` as distinct, in-range member indices, at least ``minimum``."""
        idx = tuple(int(i) for i in indices)
        if len(idx) < minimum:
            raise UsageError(f"need at least {minimum} member indices, got {idx}")
        if len(set(idx)) != len(idx):
            raise UsageError(f"repeated member index in {idx}")
        if any(i < 0 or i >= self.n_members for i in idx):
            raise UsageError(f"member index out of range in {idx}")
        return idx

    def subfamily(self, indices) -> "OperatorFamily":
        idx = self.member_indices(indices)
        if idx == tuple(range(self.n_members)):
            return self  # a family is immutable
        rows = list(idx)
        return OperatorFamily._from_stacks(self.spec, self.weights[rows],
                                           [s[rows] for s in self._party_stacks])

    def side_matrix(self, side, include_weight: bool = False) -> np.ndarray:
        """Vectorized grouped ``side`` factors of every member, one column each.

        Column j is ``vectorize(members[j].grouped(side, include_weight))``.
        The matrix is C-contiguous, like the ``np.hstack`` of the members'
        vectorizations: the layout of a matrix and of its column selections
        picks the BLAS path of a product with it, and so its rounding.
        """
        g = self.grouped_factors(side, include_weight)
        n, rows, cols = g.shape
        return np.ascontiguousarray(g.transpose(2, 1, 0).reshape(rows * cols, n))

    def unit_side(self, side) -> tuple[np.ndarray, np.ndarray]:
        """``compressed_side`` of ``side_matrix(side)``: what every rank, the
        hunt's objective and its screen read, and the member scales."""
        return compressed_side(self.side_matrix(side))

    def span_dim(self, side, subset=None) -> int:
        """Dimension of the span of the grouped ``side`` factors: the rank of
        the ``unit_side`` matrix.

        ``subset`` restricts to the given member indices (default: all).
        """
        m = self.unit_side(side)[0]
        if subset is not None:
            m = m[:, list(subset)]
        return numerical_rank(m)


def compressed_side(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The side matrix ``m`` at ``unit_columns``, so that no member's scale
    weighs on another's cutoff, and the member scales: column j is member
    j's grouped factors over ``scales[j]``.  A matrix with more rows than
    columns is replaced by the R factor of its thin QR: every column
    selection keeps its singular values, and each SVD has at most N rows."""
    rows, n = m.shape
    m, scales = unit_columns(m)
    return (np.linalg.qr(m, mode="r") if rows > n else m), scales


def family_from_factors(party_dims, members) -> OperatorFamily:
    """Build a family from raw data.

    ``party_dims``: iterable of (d_in, d_out); ``members``: iterable of
    (weight, [factor arrays]).
    """
    spec = PartySpec(tuple(tuple(p) for p in party_dims))
    ops = tuple(ProductOperator(w, tuple(fs)) for w, fs in members)
    return OperatorFamily(spec, ops)


@dataclass(frozen=True)
class SpanBoundReport:
    """Outcome of the bipartite span/Schmidt-rank bound check.

    For S = sum_j c_j * (member j) with every c_j nonzero, the span
    dimensions across the split obey delta_A + delta_B <= N + r_s where r_s
    is the Schmidt rank of S.  ``holds`` records whether the sampled
    instance satisfied it (a false value indicates a numerical-rank
    misjudgement, not new mathematics).
    """

    split: Split
    delta_a: int
    delta_b: int
    delta_sum: int
    n_members: int
    schmidt_rank: int
    holds: bool

    @property
    def equality(self) -> bool:
        return self.delta_sum == self.n_members + self.schmidt_rank

    def to_dict(self) -> dict:
        return {
            "split": {"side_a": list(self.split[0]), "side_b": list(self.split[1])},
            "delta_a": self.delta_a,
            "delta_b": self.delta_b,
            "delta_sum": self.delta_sum,
            "n_members": self.n_members,
            "schmidt_rank": self.schmidt_rank,
            "holds": self.holds,
        }


def span_bound_report(
    fam: OperatorFamily, coeffs, split: Split | None = None
) -> SpanBoundReport:
    """Evaluate delta_A + delta_B against N + schmidt_rank(sum_j c_j M_j).

    Every coefficient must be finite and nonzero — the bound is stated for
    genuinely N-term combinations.  ``split`` is a (side_a, side_b) pair of
    party groups, such as an entry of ``all_bipartitions``; it defaults to
    party 0 versus the rest.  Its sides must be disjoint and cover every
    party; the report holds them sorted.  The spans are the ranks of the
    two ``unit_side`` matrices A and B.  Member j is w_j s^A_j s^B_j times
    the product of its unit columns, so the combination realigns to
    (B * u) @ A^T with u = c w s^A s^B (``_rescaled``): no operator is
    assembled, and the rank is that of the caller's combination.
    """
    c = _coefficient_vector(coeffs, fam.n_members)
    if np.any(c == 0):
        raise ParameterError("all coefficients must be nonzero for the span bound")
    n = fam.n_parties
    if split is None:
        split = ((0,), range(1, n))
    side_a, side_b = (_validated_side(side, n) for side in split)
    if sorted(side_a + side_b) != list(range(n)):
        raise UsageError(
            f"split {side_a}|{side_b} does not divide the {n} parties into "
            "two disjoint groups"
        )

    a, scale_a = fam.unit_side(side_a)
    b, scale_b = fam.unit_side(side_b)
    r_s = numerical_rank((b * _rescaled(c[None], fam.weights * scale_a * scale_b)[0]) @ a.T)
    delta_a = numerical_rank(a)
    delta_b = numerical_rank(b)
    return SpanBoundReport(
        split=(side_a, side_b),
        delta_a=delta_a,
        delta_b=delta_b,
        delta_sum=delta_a + delta_b,
        n_members=fam.n_members,
        schmidt_rank=r_s,
        holds=(delta_a + delta_b <= fam.n_members + r_s),
    )
