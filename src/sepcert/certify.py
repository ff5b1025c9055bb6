"""Uniqueness certificates for product Kraus families and product ensembles.

The certifier decides every member subset of size >= 2 and eliminates it by
finding a party split whose local span dimensions are too large for the
subset to admit a product linear combination with all coefficients nonzero.
If every subset is eliminated, no alternative product representation of the
same channel (or state) can exist and the certificate is Unique.  Surviving
subsets are returned as witnesses; they mean the certificate is Inconclusive,
never that the representation is actually non-unique.

Subsets are decided top down, from the full set to the pairs.  Removing one
member lowers a span dimension by at most one, also numerically (singular
values interlace and the rank cutoff can only shrink), so the ranks of the
larger subsets bound those of the smaller ones from below, and a subset is
ranked on a side only when those bounds cannot decide it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, ParameterError, SizeBudgetError, UsageError
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

#: Column selections ranked per stacked SVD.  Larger stacks save little
#: call overhead and raise peak memory.
SUBSET_BLOCK = 64

#: Subsets of one size whose bounds are gathered and decided together.
LEVEL_BLOCK = 1024

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

    def _fields(self, witnesses: list) -> dict:
        return {
            "status": self.status,
            "witnesses": witnesses,
            "strategy": self.strategy,
            "tolerance": self.tol.to_dict(),
            "subsets_examined": self.subsets_examined,
            "n_members": self.n_members,
        }

    def to_dict(self) -> dict:
        return self._fields([w.to_dict() for w in self.witnesses])

    def to_json(self, head: dict) -> str:
        """The report ``{**head, **self.to_dict()}`` as indent-2 JSON text.

        Equals ``json.dumps({**head, **self.to_dict()}, indent=2)`` byte for
        byte.  ``json.dumps`` still renders everything but the witness array.
        Each witness is filled into one template per split list
        (``certify_unique`` gives all witnesses the same one): a join of its
        members and a ``%`` format of its deltas, instead of a walk of its
        dicts through the stdlib's pure-Python indent encoder.  Witnesses
        must have members, as every witness of ``certify_unique`` has.
        """
        text = json.dumps({**head, **self._fields([])}, indent=2)
        if not self.witnesses:
            return text
        # JSON strings hold no raw newline, so this is the top-level key.
        before, _, after = text.partition('\n  "witnesses": []')
        templates = {}
        items = []
        for w in self.witnesses:
            sides = tuple((s.side_a, s.side_b) for s in w.split_sums)
            template = templates.get(sides)
            if template is None:
                template = templates[sides] = _witness_template(sides)
            deltas = [d for s in w.split_sums for d in (s.delta_a, s.delta_b)]
            items.append(template % (",\n        ".join(map(str, w.members)), *deltas))
        witnesses = ",\n    ".join(items)
        return f'{before}\n  "witnesses": [\n    {witnesses}\n  ]{after}'


def _witness_template(
    sides: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
) -> str:
    """One witness of the indent-2 report as a ``%`` format over its
    members (already joined) and then delta_a, delta_b of each split.

    ``json.dumps`` lays it out with placeholder strings, which become the
    slots, so keys and layout are those of ``SplitSums.to_dict``.
    """
    sums = [
        {**SplitSums(a, b, 0, 0).to_dict(), "delta_a": "\x00", "delta_b": "\x00"}
        for a, b in sides
    ]
    text = json.dumps({"members": ["\x01"], "split_sums": sums}, indent=2)
    # A witness sits two levels deep in the report.
    text = text.replace("\n", "\n    ")
    return text.replace('"\\u0001"', "%s").replace('"\\u0000"', "%d")


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


def _decide_block(
    members: np.ndarray,
    n: int,
    splits: list[tuple[tuple[int, ...], tuple[int, ...]]],
    sides: dict[tuple[int, ...], tuple[np.ndarray, int]],
    known: dict[tuple[int, ...], np.ndarray],
    tol: TolerancePolicy,
) -> tuple[np.ndarray, dict[tuple[int, ...], np.ndarray]]:
    """Eliminate a (B, m) block of m-member subsets of n members split by split.

    ``known`` maps each side to an array over member bitmasks holding the
    exact rank of each subset ranked so far and the lower bound of every
    other decided subset; all subsets of m + 1 members must be decided.  A
    subset starts from ``max_x known(T | x) - 1`` on each side and is ranked
    on a side only when its bounds leave a split undecided: first the side
    with more headroom (fewer compressed rows on a tie), then the other side
    if the subset is still alive.  The block's entries of ``known`` are
    written on return.

    Returns the positions in ``members`` of the subsets no split eliminated,
    and per side a (B,) array of rank bounds that is exact for every survivor.
    """
    size = members.shape[1]
    masks = np.left_shift(1, members).sum(axis=1)
    supersets = masks[:, None] | np.left_shift(1, np.arange(n))
    # For x in T, T | x is T itself, still 0 here, so it only adds the -1
    # that the clip at 0 removes; the full set thus starts at 0.
    val = {
        side: np.maximum(k[supersets].max(axis=1).astype(np.int64) - 1, 0)
        for side, k in known.items()
    }
    exact = {side: np.zeros(len(members), dtype=bool) for side in sides}

    def rank(side, todo):
        m, rows = sides[side]
        for i in range(0, len(todo), SUBSET_BLOCK):
            sel = todo[i : i + SUBSET_BLOCK]
            val[side][sel] = stacked_ranks(np.moveaxis(m[:, members[sel]], 1, 0), rows, tol)
        exact[side][todo] = True

    alive = np.arange(len(members))
    for side_a, side_b in splits:
        rows_a, rows_b = len(sides[side_a][0]), len(sides[side_b][0])
        # Two rounds: each subset's first side, then the other for those the
        # first rank left alive.  After the first round a subset needs at most
        # one side, so the headroom comparison no longer matters.
        for _ in range(2):
            alive = alive[val[side_a][alive] + val[side_b][alive] <= size + 1]
            need_a, need_b = ~exact[side_a][alive], ~exact[side_b][alive]
            room_a = min(size, rows_a) - val[side_a][alive]
            room_b = min(size, rows_b) - val[side_b][alive]
            b_first = need_b & (
                ~need_a | (room_b > room_a) | ((room_b == room_a) & (rows_b < rows_a))
            )
            rank(side_a, alive[need_a & ~b_first])
            rank(side_b, alive[b_first])
        alive = alive[val[side_a][alive] + val[side_b][alive] <= size + 1]
        if alive.size == 0:
            break
    for side, k in known.items():
        k[masks] = val[side]
    return alive, val


def certify_unique(
    fam: OperatorFamily,
    strategy: str | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
    max_members: int = DEFAULT_ENUMERATION_CAP,
    fail_fast: bool = False,
) -> Certificate:
    """Certify that ``fam`` is the unique product representation of its channel.

    Decides every subset T of members with |T| = n >= 2.  A subset is
    eliminated when some examined split has delta_A + delta_B > n + 1; any
    subset that survives every split is reported as a witness and the status
    is Inconclusive.  Witnesses come in increasing size, lexicographic within
    a size.  With ``fail_fast`` only the first witness is reported, and
    ``subsets_examined`` is its position in that order plus one; the pass
    itself still decides every subset.

    The pass runs top down, from the full set to the pairs, and keeps per
    split side a rank lower bound for every subset: removing a member lowers
    a side's numerical rank by at most one, since singular values interlace
    and the cutoff of ``tol`` can only shrink when a column goes (its
    sigma_max and max(rows, k) shrink, the row count stays).  So the rank of
    a superset bounds the rank of each subset one member smaller, and most
    subsets die on their bounds with no SVD.  Bounds propagate downward only:
    under a relative cutoff, a subset's rank says nothing sound about its
    supersets.  A survivor is ranked exactly on every side.  The bounds take
    2**N bytes per split side.

    The subsets of each size are streamed in blocks of ``LEVEL_BLOCK``, and
    the sides left undecided are ranked in stacks of at most
    ``SUBSET_BLOCK`` column selections of the side matrix, one SVD call per
    stack with the per-matrix cutoff of ``tol``.  Side matrices taller than
    N are first compressed to their thin-QR R factor, which keeps every
    selection's singular values; cutoffs still use the original row count.
    """
    n = fam.n_members
    if max_members < 1:
        raise ParameterError(f"max_members must be at least 1, got {max_members}")
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
    try:
        known = {side: np.zeros(1 << n, dtype=np.int8) for side in sides}
    except (MemoryError, ValueError):
        raise SizeBudgetError(
            f"rank bounds for {n} members need 2**{n} bytes per split side"
        ) from None
    levels = []  # the witnesses of each size, largest size first
    first = 0  # ascending position of the first witness of the smallest size
    for size in range(n, 1, -1):
        level = []
        pos = sum(math.comb(n, s) for s in range(2, size))
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), size))
        while (block := np.fromiter(itertools.islice(flat, LEVEL_BLOCK * size), np.intp)).size:
            block = block.reshape(-1, size)
            alive, ranks = _decide_block(block, n, splits, sides, known, tol)
            if alive.size and not level:
                first = pos + int(alive[0])
            for i in alive.tolist():
                sums = tuple(
                    SplitSums(side_a, side_b, int(ranks[side_a][i]), int(ranks[side_b][i]))
                    for side_a, side_b in splits
                )
                level.append(Witness(tuple(block[i].tolist()), sums))
            pos += len(block)
        levels.append(level)

    witnesses = tuple(w for level in reversed(levels) for w in level)
    if fail_fast and witnesses:
        return Certificate("Inconclusive", witnesses[:1], strategy, tol, first + 1, n)
    status = "Unique" if not witnesses else "Inconclusive"
    return Certificate(status, witnesses, strategy, tol, (1 << n) - n - 1, n)


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


def verify_completeness(fam: OperatorFamily, tol: float = 1e-10) -> CompletenessReport:
    """Check sum_j K_j^dag K_j = I and the local-positive-span pair bounds."""
    if not (0.0 <= tol < np.inf):
        raise ParameterError(f"completeness tolerance must be finite and nonnegative, got {tol}")
    d_in = fam.spec.total_d_in
    gram = np.zeros((d_in, d_in), dtype=np.complex128)
    for k in fam.assembled():
        gram += k.conj().T @ k
    residual = frobenius(gram - np.eye(d_in))
    is_complete = bool(residual <= tol * np.sqrt(d_in))

    spans = tuple(
        span_dimension([f.conj().T @ f for f in fam.local_factors(p)])
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

