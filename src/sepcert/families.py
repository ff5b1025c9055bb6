"""Product operators over multiple parties and their span-dimension machinery.

A :class:`ProductOperator` is one operator of the form ``weight * M1 (x) M2
(x) ... (x) MP`` stored as its per-party local factors.  An
:class:`OperatorFamily` is an ordered set of such operators sharing one
:class:`PartySpec`; it is the universal carrier for candidate Kraus
representations and product ensembles (a ket ensemble is simply a family
whose factors all have one column).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
    SizeBudgetError,
    UsageError,
)
from .linalg import (
    MAX_MATRIX_ELEMENTS,
    _coefficient_vector,
    _kron_rows,
    _rescaled,
    as_matrix,
    kron,
    numerical_rank,
    unit_columns,
)


@dataclass(frozen=True)
class PartySpec:
    """Per-party (d_in, d_out) dimensions, in party order."""

    parties: tuple[tuple[int, int], ...]

    def __post_init__(self):
        parties = tuple((int(din), int(dout)) for din, dout in self.parties)
        object.__setattr__(self, "parties", parties)
        if not parties:
            raise ParameterError("a PartySpec needs at least one party")
        if any(din < 1 or dout < 1 for din, dout in parties):
            raise ParameterError(f"party dimensions must be >= 1, got {parties}")
        if self.total_d_in * self.total_d_out > MAX_MATRIX_ELEMENTS:
            raise SizeBudgetError(
                f"total operator size {self.total_d_out}x{self.total_d_in} "
                f"exceeds the element budget {MAX_MATRIX_ELEMENTS}"
            )

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

    Zero weights and zero factors are rejected at construction; every term
    of a product family is required to be genuinely nonvanishing.  Like
    its factors' entries, the weight must be finite, and so must |weight|
    times the product of the factors' Frobenius norms, each norm and the
    weight counted as at least 1: that bounds every entry of the assembled
    operator and of any group of its factors.
    """

    weight: complex
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = complex(self.weight)
        if not cmath.isfinite(w):
            raise NumericError("product operator weight must be finite")
        if w == 0:
            raise DegenerateInputError("product operator weight must be nonzero")
        mats = []
        for idx, f in enumerate(self.factors):
            m = np.array(as_matrix(f))  # private copy
            if not m.any():
                raise DegenerateInputError(f"factor {idx} is the zero matrix")
            m.setflags(write=False)
            mats.append(m)
        if not mats:
            raise ParameterError("a product operator needs at least one factor")
        # math.hypot scales its arguments, so a norm is inf only when it
        # exceeds the float range; Python's float product then overflows to inf.
        bound = max(math.hypot(w.real, w.imag), 1.0)
        for m in mats:
            bound *= max(math.hypot(*np.abs(m).ravel().tolist()), 1.0)
        if bound == math.inf:
            raise NumericError(
                "product operator overflows: |weight| times its factor norms "
                "exceeds the float range"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "factors", tuple(mats))

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
    lexicographically.
    """
    if n_parties < 2:
        raise ParameterError("bipartitions need at least two parties")
    rest = range(1, n_parties)
    return tuple(
        ((0,) + extra, tuple(p for p in rest if p not in extra))
        for r in range(n_parties - 1)
        for extra in itertools.combinations(rest, r)
    )


def party_pairs(n_parties: int) -> tuple[tuple[int, int], ...]:
    if n_parties < 2:
        raise ParameterError("party pairs need at least two parties")
    return tuple(itertools.combinations(range(n_parties), 2))


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """An ordered set of product operators conforming to one PartySpec."""

    spec: PartySpec
    members: tuple[ProductOperator, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ParameterError("a family needs at least one member")
        for j, m in enumerate(members):
            if m.n_parties != self.spec.n_parties:
                raise ShapeError(
                    f"member {j} has {m.n_parties} factors, spec has "
                    f"{self.spec.n_parties} parties"
                )
            for p, f in enumerate(m.factors):
                want = self.spec.factor_shape(p)
                if f.shape != want:
                    raise ShapeError(
                        f"member {j}, party {p}: factor shape {f.shape} "
                        f"does not match spec {want}"
                    )

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_parties(self) -> int:
        return self.spec.n_parties

    @cached_property
    def _party_stacks(self) -> tuple[np.ndarray, ...]:
        """Per party, the read-only (N, d_out, d_in) stack of its factors."""
        stacks = tuple(
            np.stack([m.factors[p] for m in self.members])
            for p in range(self.n_parties)
        )
        for stack in stacks:
            stack.setflags(write=False)
        return stacks

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only (N,) vector of member weights."""
        w = np.array([m.weight for m in self.members], dtype=np.complex128)
        w.setflags(write=False)
        return w

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
        return OperatorFamily(self.spec, tuple(self.members[i] for i in idx))

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

    def unit_side(self, side) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """The side matrix that every rank, the hunt's objective and its
        screen read, the members' multiset weights, and the member scales.

        The columns of ``side_matrix(side)`` go through ``unit_columns``, so
        no member's scale weighs on another's cutoff; column j is member j's
        grouped factors over ``scales[j]``.  A matrix with more rows than
        columns is then replaced by the R factor of its thin QR: every column
        selection keeps its singular values, while each SVD shrinks to at
        most N rows.

        Members whose raw columns are equal bit for bit form a class.  When
        some class has two or more members, member j gets the mixed-radix
        weight prod over classes c < class(j) of (size(c) + 1), so
        ``weights[T].sum()`` names the multiset of T's columns uniquely and
        lies below prod over c of (size(c) + 1): subsets sharing a multiset
        share one rank.  With every column distinct the weights are None.
        """
        m = self.side_matrix(side)
        rows, n = m.shape
        ids: dict[bytes, int] = {}
        cls = np.array([ids.setdefault(col.tobytes(), len(ids)) for col in m.T])
        weights = None
        if len(ids) < n:
            sizes = np.bincount(cls)
            weights = np.concatenate(([1], np.cumprod(sizes[:-1] + 1)))[cls]
        m, scales = unit_columns(m)
        if rows > n:
            m = np.linalg.qr(m, mode="r")
        return m, weights, scales

    def span_dim(self, side, subset=None) -> int:
        """Dimension of the span of the grouped ``side`` factors: the rank of
        the ``unit_side`` matrix.

        ``subset`` restricts to the given member indices (default: all).
        """
        m = self.unit_side(side)[0]
        if subset is not None:
            m = m[:, list(subset)]
        return numerical_rank(m)


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

    a, _, scale_a = fam.unit_side(side_a)
    b, _, scale_b = fam.unit_side(side_b)
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
