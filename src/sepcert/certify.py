"""Uniqueness certificates for product Kraus families and product ensembles.

The certifier enumerates member subsets and eliminates each one by finding a
party split whose local span dimensions are too large for the subset to admit
a product linear combination with all coefficients nonzero.  If every subset
of size >= 2 is eliminated, no alternative product representation of the same
channel (or state) can exist and the certificate is Unique.  Surviving
subsets are returned as witnesses; they mean the certificate is Inconclusive,
never that the representation is actually non-unique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, UsageError
from .linalg import (
    DEFAULT_TOLERANCE,
    TolerancePolicy,
    frobenius,
    numerical_rank,  # noqa: F401  (perfbench/spans.py traces this name)
    span_dimension,
    stacked_ranks,
)
from .families import (
    OperatorFamily,
    all_bipartitions,
    party_pairs,
)

#: Families larger than this are refused by certify_unique unless the caller
#: raises the cap explicitly; subset enumeration is exponential in N.
DEFAULT_ENUMERATION_CAP = 20

#: Subsets of one size ranked per stacked SVD.  Larger blocks save little
#: call overhead and raise peak memory.
SUBSET_BLOCK = 64

STRATEGY_PAIRS = "pairs"
STRATEGY_ALL_BIPARTITIONS = "all_bipartitions"


@dataclass(frozen=True)
class SplitSums:
    """Span dimensions of one examined split, restricted to a witness subset."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    delta_a: int
    delta_b: int

    def to_dict(self) -> dict:
        return {
            "side_a": list(self.side_a),
            "side_b": list(self.side_b),
            "delta_a": self.delta_a,
            "delta_b": self.delta_b,
        }


@dataclass(frozen=True)
class Witness:
    """A member subset that no examined split could eliminate.

    For every recorded split, delta_a + delta_b <= len(members) + 1, so a
    product linear combination over this subset is not ruled out.
    """

    members: tuple[int, ...]
    split_sums: tuple[SplitSums, ...]

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "split_sums": [s.to_dict() for s in self.split_sums],
        }


@dataclass(frozen=True)
class Certificate:
    """Outcome of the uniqueness check."""

    status: str  # "Unique" | "Inconclusive"
    witnesses: tuple[Witness, ...]
    strategy: str
    tol: TolerancePolicy
    subsets_examined: int
    n_members: int

    @property
    def unique(self) -> bool:
        return self.status == "Unique"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "strategy": self.strategy,
            "tolerance": self.tol.to_dict(),
            "subsets_examined": self.subsets_examined,
            "n_members": self.n_members,
        }


def _examined_splits(n_parties: int, strategy: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    if n_parties == 1:
        # A single party cannot be split; no subset is ever eliminated.
        return []
    if strategy == STRATEGY_PAIRS:
        return [((a,), (b,)) for a, b in party_pairs(n_parties)]
    if strategy == STRATEGY_ALL_BIPARTITIONS:
        return [(bp.side_a, bp.side_b) for bp in all_bipartitions(n_parties)]
    raise UsageError(
        f"unknown strategy {strategy!r}; expected "
        f"{STRATEGY_PAIRS!r} or {STRATEGY_ALL_BIPARTITIONS!r}"
    )


def default_strategy(n_parties: int) -> str:
    """All bipartitions up to six parties, party pairs beyond.

    Bipartitions eliminate at least everything pairs do, but their number
    grows as 2**(P-1) - 1 while pairs grow only quadratically.
    """
    return STRATEGY_ALL_BIPARTITIONS if n_parties <= 6 else STRATEGY_PAIRS


def _side_matrix(fam: OperatorFamily, side: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Vectorized grouped ``side`` factors as columns, and their row count.

    A matrix with more rows than columns is replaced by the R factor of its
    thin QR: every column selection keeps its singular values, so ranks are
    unchanged while each SVD shrinks to at most N rows.
    """
    m = fam.side_matrix(side)
    rows = m.shape[0]
    if rows > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    return m, rows


def _block_survivors(
    block: np.ndarray,
    splits: list[tuple[tuple[int, ...], tuple[int, ...]]],
    sides: dict[tuple[int, ...], tuple[np.ndarray, int]],
    tol: TolerancePolicy,
) -> tuple[np.ndarray, dict[tuple[int, ...], np.ndarray]]:
    """Eliminate a (B, n) block of n-member subsets split by split.

    Returns the positions in ``block`` of the subsets no split eliminated,
    and per side a (B,) array of span dimensions.  A side is ranked once
    for each subset still alive when a split first needs it, so a side
    shared by several splits costs one SVD per subset; entries never
    needed stay -1.  Every survivor has the ranks of every side.
    """
    size = block.shape[1]
    alive = np.arange(len(block))
    ranks: dict[tuple[int, ...], np.ndarray] = {}
    for side_a, side_b in splits:
        for side in (side_a, side_b):
            r = ranks.setdefault(side, np.full(len(block), -1, dtype=np.int64))
            todo = alive[r[alive] < 0]
            if todo.size:
                m, rows = sides[side]
                r[todo] = stacked_ranks(np.moveaxis(m[:, block[todo]], 1, 0), rows, tol)
        alive = alive[ranks[side_a][alive] + ranks[side_b][alive] <= size + 1]
        if alive.size == 0:
            break
    return alive, ranks


def certify_unique(
    fam: OperatorFamily,
    strategy: str | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
    max_members: int = DEFAULT_ENUMERATION_CAP,
    fail_fast: bool = False,
) -> Certificate:
    """Certify that ``fam`` is the unique product representation of its channel.

    Enumerates every subset T of members with |T| = n >= 2 (increasing size,
    lexicographic within a size).  A subset is eliminated when some examined
    split has delta_A + delta_B > n + 1; any subset that survives every split
    is reported as a witness and the status is Inconclusive.  With
    ``fail_fast`` the scan stops at the first witness.

    The subsets of each size are streamed in blocks of ``SUBSET_BLOCK``.
    Per split side, the block's surviving subsets not yet ranked on that
    side gather their column selections of the side matrix into one stack,
    and a single SVD call ranks them all with the per-matrix cutoff of
    ``tol``.  Side matrices taller than N are first compressed to their
    thin-QR R factor, which keeps every selection's singular values;
    cutoffs still use the original row count.
    """
    n = fam.n_members
    if n > max_members:
        raise EnumerationCapError(
            f"family has {n} members; exhaustive subset enumeration is capped "
            f"at {max_members} (2**{n} subsets). Raise max_members to override, "
            f"or use the pairs strategy to cut the per-subset cost."
        )
    if strategy is None:
        strategy = default_strategy(fam.n_parties)
    splits = _examined_splits(fam.n_parties, strategy)

    if n < 2:
        return Certificate("Unique", (), strategy, tol, 0, n)

    sides = {side: _side_matrix(fam, side) for split in splits for side in split}
    witnesses: list[Witness] = []
    examined = 0
    for size in range(2, n + 1):
        subsets = itertools.combinations(range(n), size)
        while block := list(itertools.islice(subsets, SUBSET_BLOCK)):
            alive, ranks = _block_survivors(np.array(block), splits, sides, tol)
            for i in alive.tolist():
                sums = tuple(
                    SplitSums(side_a, side_b, int(ranks[side_a][i]), int(ranks[side_b][i]))
                    for side_a, side_b in splits
                )
                w = Witness(block[i], sums)
                if fail_fast:
                    return Certificate(
                        "Inconclusive", (w,), strategy, tol, examined + i + 1, n
                    )
                witnesses.append(w)
            examined += len(block)

    status = "Unique" if not witnesses else "Inconclusive"
    return Certificate(status, tuple(witnesses), strategy, tol, examined, n)


def certify_unique_ensemble(
    ens: OperatorFamily,
    strategy: str | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
    max_members: int = DEFAULT_ENUMERATION_CAP,
    fail_fast: bool = False,
) -> Certificate:
    """Uniqueness certificate for a product ensemble of (unnormalized) kets.

    Identical subset logic, applied to the spans of the local kets.  Every
    factor must be a single-column matrix.
    """
    if ens.spec.total_d_in != 1:
        p = next(p for p in range(ens.n_parties) if ens.spec.d_in(p) != 1)
        raise UsageError(
            f"ensemble certification requires ket members; party {p} has "
            f"d_in = {ens.spec.d_in(p)}"
        )
    return certify_unique(ens, strategy, tol, max_members, fail_fast)


@dataclass(frozen=True)
class CompletenessReport:
    """Trace-preservation residual plus the local-positive-span condition.

    ``residual`` is ||sum_j K_j^dag K_j - I||_F.  ``pair_sums`` maps each
    party pair to delta_alpha + delta_beta where delta_alpha is the span
    dimension of the positive local parts {K_j^(alpha)dag K_j^(alpha)};
    any complete product family must keep every pair sum at or below N + 1,
    so a violated pair rules out completeness (it can never prove it).
    """

    is_complete: bool
    residual: float
    necessary_condition_holds: bool
    pair_sums: dict[tuple[int, int], int]
    local_positive_spans: tuple[int, ...]
    n_members: int

    def to_dict(self) -> dict:
        return {
            "is_complete": self.is_complete,
            "residual": self.residual,
            "necessary_condition_holds": self.necessary_condition_holds,
            "pair_sums": {f"{a},{b}": s for (a, b), s in self.pair_sums.items()},
            "local_positive_spans": list(self.local_positive_spans),
            "n_members": self.n_members,
        }


def verify_completeness(
    fam: OperatorFamily,
    tol: float = 1e-10,
    rank_tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> CompletenessReport:
    """Check sum_j K_j^dag K_j = I and the local-positive-span pair bounds."""
    d_in = fam.spec.total_d_in
    gram = np.zeros((d_in, d_in), dtype=np.complex128)
    for k in fam.assembled():
        gram += k.conj().T @ k
    residual = frobenius(gram - np.eye(d_in))
    is_complete = bool(residual <= tol * np.sqrt(d_in))

    spans = tuple(
        span_dimension([f.conj().T @ f for f in fam.local_factors(p)], rank_tol)
        for p in range(fam.n_parties)
    )
    n = fam.n_members
    pair_sums = {}
    holds = True
    if fam.n_parties >= 2:
        for a, b in party_pairs(fam.n_parties):
            s = spans[a] + spans[b]
            pair_sums[(a, b)] = s
            if s > n + 1:
                holds = False
    return CompletenessReport(is_complete, residual, holds, pair_sums, spans, n)

