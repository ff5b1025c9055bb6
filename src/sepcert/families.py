"""Product operators over multiple parties and their span-dimension machinery.

A :class:`ProductOperator` is one operator of the form ``weight * M1 (x) M2
(x) ... (x) MP`` stored as its per-party local factors.  An
:class:`OperatorFamily` is an ordered set of such operators sharing one
:class:`PartySpec`; it is the universal carrier for candidate Kraus
representations and product ensembles (a ket ensemble is simply a family
whose factors all have one column).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DegenerateInputError,
    ParameterError,
    ShapeError,
    SizeBudgetError,
    UsageError,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    MAX_MATRIX_ELEMENTS,
    TolerancePolicy,
    as_matrix,
    kron,
    numerical_rank,
    vectorized_columns,
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
        out = 1
        for din, _ in self.parties:
            out *= din
        return out

    @property
    def total_d_out(self) -> int:
        out = 1
        for _, dout in self.parties:
            out *= dout
        return out

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
    of a product family is required to be genuinely nonvanishing.
    """

    weight: complex
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = complex(self.weight)
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


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of the party set {0, ..., P-1}."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(int(p) for p in self.side_a))
        b = tuple(sorted(int(p) for p in self.side_b))
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        if not a or not b:
            raise ParameterError("both sides of a bipartition must be nonempty")
        if set(a) & set(b):
            raise ParameterError(f"bipartition sides overlap: {a} | {b}")

    @property
    def n_parties(self) -> int:
        return len(self.side_a) + len(self.side_b)

    def validate_for(self, n_parties: int) -> None:
        if set(self.side_a) | set(self.side_b) != set(range(n_parties)):
            raise UsageError(
                f"bipartition {self.side_a}|{self.side_b} does not cover "
                f"all {n_parties} parties"
            )

    @staticmethod
    def of(side_a, n_parties: int) -> "Bipartition":
        a = _validated_side(side_a, n_parties)
        b = tuple(p for p in range(n_parties) if p not in a)
        return Bipartition(a, b)


def all_bipartitions(n_parties: int) -> tuple[Bipartition, ...]:
    """Every two-block split of {0..P-1}; party 0 always sits on side A.

    There are 2**(P-1) - 1 of them.
    """
    if n_parties < 2:
        raise ParameterError("bipartitions need at least two parties")
    rest = list(range(1, n_parties))
    out = []
    for r in range(0, n_parties - 1):
        for extra in itertools.combinations(rest, r):
            out.append(Bipartition.of((0,) + extra, n_parties))
    return tuple(out)


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

    def assembled(self) -> list[np.ndarray]:
        return [m.assemble() for m in self.members]

    def local_factors(self, party: int) -> list[np.ndarray]:
        return [m.factors[party] for m in self.members]

    def grouped_factors(self, side, include_weight: bool = False) -> list[np.ndarray]:
        return [m.grouped(side, include_weight) for m in self.members]

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
        """Vectorized grouped ``side`` factors of every member, one column each."""
        return vectorized_columns(self.grouped_factors(side, include_weight))

    def span_dim(self, side, subset=None, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
        """Dimension of the span of the grouped ``side`` factors.

        ``subset`` restricts to the given member indices (default: all).
        """
        m = self.side_matrix(side)
        if subset is not None:
            m = m[:, list(subset)]
        return numerical_rank(m, tol)


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

    split: Bipartition
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
            "split": {"side_a": list(self.split.side_a), "side_b": list(self.split.side_b)},
            "delta_a": self.delta_a,
            "delta_b": self.delta_b,
            "delta_sum": self.delta_sum,
            "n_members": self.n_members,
            "schmidt_rank": self.schmidt_rank,
            "holds": self.holds,
        }


def span_bound_report(
    fam: OperatorFamily,
    coeffs,
    split: Bipartition | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> SpanBoundReport:
    """Evaluate delta_A + delta_B against N + schmidt_rank(sum_j c_j M_j).

    Every coefficient must be nonzero — the bound is stated for genuinely
    N-term combinations.  ``split`` defaults to party 0 versus the rest.
    The spans are the ranks of the two side matrices, and the combination's
    realignment is (B * c) @ A^T, so no operator is assembled.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != fam.n_members:
        raise ShapeError(f"got {c.size} coefficients for {fam.n_members} members")
    if np.any(c == 0):
        raise ParameterError("all coefficients must be nonzero for the span bound")
    if split is None:
        split = Bipartition.of((0,), fam.n_parties)
    split.validate_for(fam.n_parties)

    a = fam.side_matrix(split.side_a, include_weight=True)
    b = fam.side_matrix(split.side_b)
    r_s = numerical_rank((b * c) @ a.T, tol)
    delta_a = numerical_rank(a, tol)
    delta_b = numerical_rank(b, tol)
    return SpanBoundReport(
        split=split,
        delta_a=delta_a,
        delta_b=delta_b,
        delta_sum=delta_a + delta_b,
        n_members=fam.n_members,
        schmidt_rank=r_s,
        holds=(delta_a + delta_b <= fam.n_members + r_s),
    )
