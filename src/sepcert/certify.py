"""Uniqueness certificates for product Kraus families and product ensembles.

The certifier decides every member subset of size >= 2 and eliminates it by
finding a party split whose local span dimensions are too large for the
subset to admit a product linear combination with all coefficients nonzero.
If every subset is eliminated, no alternative product representation of the
same channel (or state) can exist and the certificate is Unique.  Surviving
subsets are returned as witnesses; they mean the certificate is Inconclusive,
never that the representation is actually non-unique.

Subsets are enumerated as member bitmasks and decided top down, one size at
a time, from the full set to the pairs.  Removing one member lowers a span
dimension by at most one, also numerically (singular values interlace and
the rank cutoff can only shrink), so the ranks of the larger subsets bound
those of the smaller ones from below, and a subset is ranked on a side only
when those bounds cannot decide it.  Subsets that select the same multiset
of a side's columns share one SVD: their side matrices are column
permutations of each other, so they have the same singular values, and the
same size fixes the same cutoff.  The witnesses of each size stay one
integer array of members and deltas from the pass to the JSON report, which
fills one text template per size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

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


Split = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Witness:
    """A member subset that no examined split could eliminate.

    ``deltas`` holds delta_a, delta_b of each of its certificate's splits, in
    split order.  Each pair sums to at most len(members) + 1, so a product
    linear combination over this subset is not ruled out.
    """

    members: tuple[int, ...]
    deltas: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of the uniqueness check: Unique iff no witness survives.

    ``levels`` holds the witnesses of each size that has any, in increasing
    size: one (B, size + 2 * len(splits)) int array per size whose rows are
    the B witnesses in lexicographic order, each its members and then its
    deltas.  ``splits`` lists the examined splits as (side_a, side_b) party
    tuples, once for all witnesses.  Certificates are equal when their
    witnesses, splits, strategy, tolerance and counts are.
    """

    levels: tuple[np.ndarray, ...]
    splits: tuple[Split, ...]
    strategy: str
    tol: TolerancePolicy
    subsets_examined: int
    n_members: int

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        """The rows of ``levels`` as ``Witness`` objects, smallest size first."""
        deltas = 2 * len(self.splits)
        return tuple(
            Witness(tuple(row[: len(row) - deltas]), tuple(row[len(row) - deltas :]))
            for level in self.levels
            for row in level.tolist()
        )

    @property
    def status(self) -> str:
        return "Unique" if self.unique else "Inconclusive"

    @property
    def unique(self) -> bool:
        return not any(len(level) for level in self.levels)

    def _scalars(self) -> tuple:
        return (self.splits, self.strategy, self.tol, self.subsets_examined, self.n_members)

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return self._scalars() == other._scalars() and self.witnesses == other.witnesses

    def __hash__(self):
        return hash(self._scalars())

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
        return self._fields([
            {
                "members": list(w.members),
                "split_sums": [
                    _split_sum(a, b, da, db)
                    for (a, b), da, db in zip(self.splits, w.deltas[::2], w.deltas[1::2])
                ],
            }
            for w in self.witnesses
        ])

    def to_json(self, head: dict) -> str:
        """The report ``{**head, **self.to_dict()}`` as indent-2 JSON text.

        Equals ``json.dumps({**head, **self.to_dict()}, indent=2)`` byte for
        byte.  ``json.dumps`` still renders everything but the witness array.
        Each size of ``levels`` makes one witness template with a ``%d`` slot
        per member and per delta; the template is repeated once per witness
        of that size and filled from the level's flattened ints in one ``%``
        call, with no ``Witness`` object built and no walk of dicts through
        the stdlib's pure-Python indent encoder.
        """
        text = json.dumps({**head, **self._fields([])}, indent=2)
        deltas = 2 * len(self.splits)
        witnesses = ",\n    ".join(
            ",\n    ".join([_witness_template(self.splits, level.shape[1] - deltas)] * len(level))
            % tuple(level.ravel().tolist())
            for level in self.levels
            if len(level)
        )
        if not witnesses:
            return text
        # JSON strings hold no raw newline, so this is the top-level key.
        before, _, after = text.partition('\n  "witnesses": []')
        return f'{before}\n  "witnesses": [\n    {witnesses}\n  ]{after}'


def _split_sum(side_a, side_b, delta_a, delta_b) -> dict:
    """One entry of a witness's ``split_sums`` in the JSON report."""
    return {"side_a": list(side_a), "side_b": list(side_b), "delta_a": delta_a, "delta_b": delta_b}


def _witness_template(splits: tuple[Split, ...], size: int) -> str:
    """One witness of ``size`` members in the indent-2 report as a ``%``
    format over its members and then delta_a, delta_b of each split.

    ``json.dumps`` lays it out with placeholder strings, which become the
    ``%d`` slots, so keys and layout are those of ``Certificate.to_dict``.
    """
    sums = [_split_sum(a, b, "\x00", "\x00") for a, b in splits]
    text = json.dumps({"members": ["\x00"] * size, "split_sums": sums}, indent=2)
    # A witness sits two levels deep in the report.
    return text.replace("\n", "\n    ").replace('"\\u0000"', "%d")


def _examined_splits(n_parties: int, strategy: str) -> tuple[Split, ...]:
    if n_parties == 1:
        # A single party cannot be split; no subset is ever eliminated.
        return ()
    if strategy == STRATEGY_PAIRS:
        return tuple(((a,), (b,)) for a, b in party_pairs(n_parties))
    if strategy == STRATEGY_ALL_BIPARTITIONS:
        return tuple((bp.side_a, bp.side_b) for bp in all_bipartitions(n_parties))
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


def _side_matrix(
    fam: OperatorFamily, side: tuple[int, ...]
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Vectorized grouped ``side`` factors as columns, their row count, and
    the members' multiset weights when some columns are equal.

    A matrix with more rows than columns is replaced by the R factor of its
    thin QR: every column selection keeps its singular values, so ranks are
    unchanged while each SVD shrinks to at most N rows.

    Members whose columns are equal bit for bit form a class.  When some
    class has two or more members, member j gets the mixed-radix weight
    prod over classes c < class(j) of (size(c) + 1), so ``weights[T].sum()``
    names the multiset of T's columns uniquely and lies below prod over c of
    (size(c) + 1).  Subsets sharing a multiset select the same columns in
    another order and thus share one rank; with every column distinct the
    weights are None.
    """
    m = fam.side_matrix(side)
    rows, n = m.shape
    ids: dict[bytes, int] = {}
    cls = np.array([ids.setdefault(col.tobytes(), len(ids)) for col in m.T])
    weights = None
    if len(ids) < n:
        sizes = np.bincount(cls)
        weights = np.concatenate(([1], np.cumprod(sizes[:-1] + 1)))[cls]
    if rows > n:
        m = np.linalg.qr(m, mode="r")
    return m, rows, weights


def _member_bits(n: int) -> np.ndarray:
    """The bit of each of n members in a subset's bitmask: member i is bit
    n-1-i, so the bitmasks of one size in descending order list its subsets
    in lexicographic order."""
    return np.left_shift(1, np.arange(n - 1, -1, -1))


def _popcounts(n: int) -> np.ndarray:
    """The number of members in each bitmask below 2**n, as uint8."""
    popcount = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        popcount[1 << k : 2 << k] = popcount[: 1 << k] + 1
    return popcount


def _subset_blocks(popcount: np.ndarray, bits: np.ndarray, size: int):
    """The subsets of ``size`` members in lexicographic order, in blocks of at
    most ``LEVEL_BLOCK``: per block its position in the order, its (B,)
    bitmasks and its (B, size) member indices.

    ``popcount`` is ``_popcounts(n)`` and ``bits`` is ``_member_bits(n)``.
    """
    n = len(bits)
    masks = np.flatnonzero(popcount == size)[::-1]
    for start in range(0, len(masks), LEVEL_BLOCK):
        block = masks[start : start + LEVEL_BLOCK]
        # Row-major order lists each subset's members in increasing order.
        members = np.flatnonzero((block[:, None] & bits) != 0) % n
        yield start, block, members.reshape(-1, size)


def _decide_block(
    masks: np.ndarray,
    members: np.ndarray,
    bits: np.ndarray,
    splits: tuple[Split, ...],
    sides: dict[tuple[int, ...], tuple[np.ndarray, int, np.ndarray | None]],
    known: dict[tuple[int, ...], np.ndarray],
    tables: dict[tuple[int, ...], np.ndarray],
    tol: TolerancePolicy,
) -> tuple[np.ndarray, dict[tuple[int, ...], np.ndarray]]:
    """Eliminate a (B, m) block of m-member subsets split by split.

    ``masks`` holds the subsets' member bitmasks, with ``bits[i]`` the bit
    of member i, and ``members`` their (B, m) member indices.  ``known``
    maps each side to an array over member bitmasks holding the
    exact rank of each subset ranked so far and the lower bound of every
    other decided subset; all subsets of m + 1 members must be decided.  A
    subset starts from ``max_x known(T | x) - 1`` on each side and is ranked
    on a side only when its bounds leave a split undecided: first the side
    with more headroom (fewer compressed rows on a tie), then the other side
    if the subset is still alive.  The block's entries of ``known`` are
    written on return.

    ``tables`` maps each side with multiset weights (see ``_side_matrix``)
    to the ranks of the column multisets ranked so far, -1 elsewhere; a side
    ranks one subset per multiset not yet in its table and reads every
    other rank from there.

    A side tries the full-rank screen of ``stacked_ranks`` only when the
    full set, decided first, was ranked on it and found full rank,
    min(rows, n): on a deficient side the screen cannot succeed.

    Returns the positions in ``members`` of the subsets no split eliminated,
    and per side a (B,) array of rank bounds that is exact for every survivor.
    """
    size = members.shape[1]
    n = len(bits)
    supersets = masks[:, None] | bits
    # For x in T, T | x is T itself, still 0 here, so it only adds the -1
    # that the clip at 0 removes; the full set thus starts at 0.
    val = {
        side: np.maximum(k[supersets].max(axis=1).astype(np.int64) - 1, 0)
        for side, k in known.items()
    }
    exact = {side: np.zeros(len(members), dtype=bool) for side in sides}

    def rank(side, todo):
        m, rows, weights = sides[side]
        reps = todo
        if weights is not None:
            table = tables[side]
            keys = weights[members[todo]].sum(axis=1)
            missing = table[keys] < 0
            new, first = np.unique(keys[missing], return_index=True)
            reps = todo[missing][first]
        # The full set's entry holds its rank, or 0 while it is unranked.
        screen = bool(known[side][-1] == min(rows, n))
        for i in range(0, len(reps), SUBSET_BLOCK):
            sel = reps[i : i + SUBSET_BLOCK]
            stack = np.moveaxis(m[:, members[sel]], 1, 0)
            val[side][sel] = stacked_ranks(stack, rows, tol, screen=screen)
        if weights is not None:
            table[new] = val[side][reps]
            val[side][todo] = table[keys]
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

    The subsets of one size are the bitmasks below 2**N with that many set
    bits, read off a uint8 popcount table; with member i as bit N-1-i they
    come in lexicographic order when taken in descending order, and each
    block of ``LEVEL_BLOCK`` of them yields its member indices with one bit
    test.  The sides left undecided are ranked in stacks of at most
    ``SUBSET_BLOCK`` column selections of the side matrix, one SVD call per
    stack with the per-matrix cutoff of ``tol``.  Side matrices taller than
    N are first compressed to their thin-QR R factor, which keeps every
    selection's singular values; cutoffs still use the original row count.
    On a side where the full set, decided first, was ranked and found full
    rank (min(rows, N)), each stack first tries the full-rank screen of
    ``stacked_ranks``: one batched Cholesky factorization of the
    selections' Gram matrices, shifted by (cutoff + d)^2 + e, where d
    bounds the SVD's error and e the rounding of the Gram product and the
    factorization.  Its success proves sigma_min > cutoff + d, so the SVD
    would count every singular value as well and the ranks are the same;
    when it fails, and on every other side, the SVD decides.
    On a side where some members have equal columns, each column multiset
    is ranked once for all subsets selecting it, which is exact: reordering
    columns keeps the singular values, and the cutoff depends only on the
    row count and the subset size.

    The survivors of each size stay one int array of members and exact
    deltas, which ``Certificate.levels`` holds; ``Certificate.witnesses``
    builds ``Witness`` objects from it only when asked.
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
        return Certificate((), splits, strategy, tol, 0, n)

    sides = {side: _side_matrix(fam, side) for split in splits for side in split}
    try:
        known = {side: np.zeros(1 << n, dtype=np.int8) for side in sides}
        # The full set has the largest key, prod over classes of (size + 1) - 1.
        tables = {
            side: np.full(int(weights.sum()) + 1, -1, dtype=np.int8)
            for side, (_, _, weights) in sides.items()
            if weights is not None
        }
        popcount = _popcounts(n)
    except (MemoryError, ValueError):
        raise SizeBudgetError(
            f"rank bounds for {n} members need 2**{n} bytes per split side"
        ) from None
    bits = _member_bits(n)
    levels = []  # the witnesses of each size with any, largest size first
    first = 0  # ascending position of the first witness of the smallest size
    for size in range(n, 1, -1):
        level = []
        for start, block, members in _subset_blocks(popcount, bits, size):
            alive, ranks = _decide_block(block, members, bits, splits, sides, known, tables, tol)
            if alive.size == 0:
                continue
            if not level:
                first = sum(math.comb(n, s) for s in range(2, size)) + start + int(alive[0])
            exact = [ranks[side][alive] for split in splits for side in split]
            level.append(np.column_stack([members[alive], *exact]))
        if level:
            levels.append(np.concatenate(level))

    levels.reverse()
    if fail_fast and levels:
        return Certificate((levels[0][:1],), splits, strategy, tol, first + 1, n)
    return Certificate(tuple(levels), splits, strategy, tol, (1 << n) - n - 1, n)


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

