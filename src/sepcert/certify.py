"""Uniqueness certificates for product Kraus families and product ensembles.

The certifier decides every member subset of size >= 2 and eliminates it by
finding a party split whose local span dimensions are too large for the
subset to admit a product linear combination with all coefficients nonzero.
If every subset is eliminated, no alternative product representation of the
same channel (or state) can exist and the certificate is Unique.  Surviving
subsets are returned as witnesses; they mean the certificate is Inconclusive,
never that the representation is actually non-unique.

``certify_unique`` states what a certificate holds; ``_decide_block``
describes the pass that decides the subsets, and each function it calls
describes its own step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EnumerationCapError, NumericError, ParameterError, SizeBudgetError, UsageError
from .linalg import (
    DEFAULT_TOLERANCE,
    TolerancePolicy,
    _svdvals,
    frobenius,
    numerical_rank,  # noqa: F401  (perfbench/spans.py traces this name)
    span_dimension,
    stacked_ranks,
    svd_error_scale,
)
from .families import (
    OperatorFamily,
    Split,
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
        return all_bipartitions(n_parties)
    raise UsageError(
        f"unknown strategy {strategy!r}; expected "
        f"{STRATEGY_PAIRS!r} or {STRATEGY_ALL_BIPARTITIONS!r}"
    )


def default_strategy(n_parties: int) -> str:
    """All bipartitions up to six parties, party pairs beyond.

    The bipartitions eliminate at least everything pairs do, but their number
    grows as 2**(P-1) - 1 while pairs grow only quadratically.
    """
    return STRATEGY_ALL_BIPARTITIONS if n_parties <= 6 else STRATEGY_PAIRS


def _side_matrix(
    fam: OperatorFamily, side: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized grouped ``side`` factors as unit columns, and the members'
    multiset weights when some columns are equal.

    Each column is scaled to unit norm, so no member's scale weighs on the
    cutoff of another's: the span dimensions do not depend on it.  A column
    is divided by its largest entry before its norm is taken, so the norm
    cannot overflow.  A matrix with more rows than columns is then replaced
    by the R factor of its thin QR: every column selection keeps its
    singular values, so ranks are unchanged while each SVD shrinks to at
    most N rows.

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
    # A column that underflowed to zero stays zero.
    top = np.abs(m).max(axis=0)
    m = m / np.where(top > 0, top, 1.0)
    norm = np.linalg.norm(m, axis=0)
    m /= np.where(norm > 0, norm, 1.0)
    if rows > n:
        m = np.linalg.qr(m, mode="r")
    return m, weights


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


@dataclass
class _Side:
    """A split side's matrix and the pass's rank state on it.

    ``m`` and ``weights`` are those of ``_side_matrix``.  ``known``
    and ``floor`` are int8 arrays over member bitmasks: ``known`` holds the
    exact rank of each subset ranked on the side so far and the lower bound
    of every other decided subset, 0 elsewhere, and ``floor`` the maximum
    of the ``_subset_floors`` of each k in ``floored``, 0 before any.  With
    multiset weights, ``table`` holds the rank of each column multiset
    ranked so far, -1 elsewhere; else it is None.
    """

    m: np.ndarray
    weights: np.ndarray | None
    known: np.ndarray
    floor: np.ndarray
    table: np.ndarray | None
    floored: set[int] = field(default_factory=set)


def _size_budget_error(n: int) -> SizeBudgetError:
    return SizeBudgetError(f"rank bounds for {n} members need 2 * 2**{n} bytes per split side")


def _open_side(fam: OperatorFamily, side: tuple[int, ...], n: int) -> _Side:
    """The side matrix of ``side`` and its rank state before any subset of
    the n members is decided: no rank known, no floor, no multiset ranked."""
    m, weights = _side_matrix(fam, side)
    try:
        known, floor = np.zeros((2, 1 << n), dtype=np.int8)
        # The full set has the largest key, prod over classes of (size + 1) - 1.
        table = None if weights is None else np.full(int(weights.sum()) + 1, -1, dtype=np.int8)
    except (MemoryError, ValueError):
        raise _size_budget_error(n) from None
    return _Side(m, weights, known, floor, table)


def _subset_floors(
    m: np.ndarray,
    popcount: np.ndarray,
    bits: np.ndarray,
    k: int,
    tol: TolerancePolicy,
    floor: np.ndarray,
) -> None:
    """Raise ``floor`` to a lower bound on the rank of every subset's
    selection of ``m``'s columns: the largest robust rank of a k-member
    subset that the subset holds.  Entries already larger are kept, so the
    floors from several k combine into their maximum.

    ``m`` is an r x N side matrix; ``popcount`` and ``bits`` are those of
    ``_subset_blocks``.  One SVD call per block of k-member subsets ranks
    them; a k-subset's robust rank counts its singular values above C + 2d,
    with s = ||m||_F (1 + kappa), kappa the ``svd_error_scale`` of ``m``'s
    shape, d = kappa s and the global cap C = ``tol.cutoff(s + d)``.  For a
    subset T holding the k-subset S, sigma_i(m_T) >= sigma_i(m_S) (adding
    columns never lowers a singular value), and each computed singular
    value is within d of the exact one (Weyl): no column selection of m is
    larger or has a larger norm.  The SVD of m_T finds sigma_max <= s + d,
    so T's cutoff is at most C: every singular value the robust rank of S
    counts lies above C + 2d, hence T's computed one above C, and T's rank
    counts it as well.  A floor of min(|T|, r) is therefore T's rank.
    The k-subset ranks reach every superset in one max pass per member bit.
    """
    r, n = m.shape
    kappa = svd_error_scale(max(r, n), min(r, n))
    s = np.linalg.norm(m) * (1 + kappa)
    d = kappa * s
    robust = tol.cutoff(s + d) + 2 * d
    for _, masks, members in _subset_blocks(popcount, bits, k):
        sigma = _svdvals(np.moveaxis(m[:, members], 1, 0))
        count = np.count_nonzero(sigma > robust, axis=1)
        floor[masks] = np.maximum(floor[masks], count)
    for b in range(n):
        # Axis 1 is bit b: each mask with the bit set takes its floor without it.
        half = floor.reshape(-1, 2, 1 << b)
        np.maximum(half[:, 0], half[:, 1], out=half[:, 1])


def _decide_block(
    masks: np.ndarray,
    members: np.ndarray,
    popcount: np.ndarray,
    bits: np.ndarray,
    splits: tuple[Split, ...],
    fam: OperatorFamily,
    sides: dict[tuple[int, ...], _Side],
    tol: TolerancePolicy,
) -> tuple[np.ndarray, dict[tuple[int, ...], np.ndarray]]:
    """Eliminate a (B, m) block of m-member subsets split by split.

    ``masks`` holds the subsets' member bitmasks, with ``bits[i]`` the bit
    of member i, and ``members`` their (B, m) member indices; all subsets of
    m + 1 members must be decided.  ``popcount`` and ``bits`` are those of
    ``_subset_blocks``.  ``sides`` maps each side opened so far to its
    ``_Side``.  A side is opened here (``_open_side`` of ``fam``) when a
    block first reaches one of its splits, and a block gathers a side's
    start values only when it reaches the side.

    On each side a subset T starts from max(``max_x known(T | x) - 1``,
    ``floor(T)``).  The first bound holds because removing a member lowers
    a side's numerical rank by at most one: singular values interlace, and
    the cutoff of ``tol``, a fixed fraction of sigma_max, can only shrink
    when a column goes.  The floors of ``_subset_floors``, counted against
    the cap C of the whole side matrix, hold at every size.  A start value
    of min(m, r), r the rows of the side matrix, is exact, since no rank
    exceeds it.  A subset is ranked on a side only when its bounds leave a
    split undecided: on side A first, then on side B if the subset is still
    alive, so every survivor has exact ranks.  The block's entries of
    ``known`` on the sides it reached are written on return; the others
    keep 0, still a lower bound.

    Floors are built once per side and k, each when it costs less than the
    ranks it replaces.  Pair floors raise only start values below 2, so
    they are built when, in a block of three or more members, the subsets
    starting below 2 hold at least the n (n - 1) columns of the member
    pairs.  On a side whose full set was ranked and found full rank r, with
    2 < r < m, a floor of r is exact, since no rank exceeds r: a subset
    holding an independent r-subset has rank r.  So the floors of the
    r-member subsets are built when the subsets the block would rank there
    hold more columns than the C(n, r) r-subsets do; until then those
    subsets are ranked.  A floor below r is not exact, and its subset is
    ranked.

    The subsets left to rank on a side go to ``stacked_ranks`` in stacks of
    at most ``SUBSET_BLOCK`` column selections.  A side tries the full-rank
    screen of ``stacked_ranks`` only when the full set was ranked on it and
    found full rank, min(rows, n), the row count of the side matrix after
    its thin QR: on a deficient side the screen cannot succeed.  A side
    with multiset weights (see ``_side_matrix``) ranks one subset per
    column multiset not yet in its table and reads every other rank from
    there.

    Returns the positions in ``members`` of the subsets no split eliminated,
    and per reached side a (B,) array of rank bounds that is exact for every
    survivor.
    """
    size = members.shape[1]
    n = len(bits)
    supersets = masks[:, None] | bits
    val: dict[tuple[int, ...], np.ndarray] = {}
    exact: dict[tuple[int, ...], np.ndarray] = {}

    def reach(side) -> None:
        """Open ``side`` and gather its start values."""
        if side not in sides:
            sides[side] = _open_side(fam, side, n)
        state = sides[side]
        if side not in val:
            # For x in T, T | x is T itself, still 0 here, so it only adds the
            # -1 that the clip at 0 (or the floor) removes.
            lower = state.known[supersets].max(axis=1).astype(np.int64) - 1
            start = np.maximum(lower, state.floor[masks])
            # Fewer subsets below 2 are ranked for no more than the pair
            # floors cost, and pairs rank themselves as cheaply.  The full
            # set, alone in its block, never qualifies.
            if (
                2 not in state.floored
                and size > 2
                and np.count_nonzero(start < 2) * size >= n * (n - 1)
            ):
                _subset_floors(state.m, popcount, bits, 2, tol, state.floor)
                state.floored.add(2)
                start = np.maximum(lower, state.floor[masks])
            val[side] = start
            exact[side] = start >= min(size, len(state.m))

    def rank(side, todo):
        state = sides[side]
        r = len(state.m)
        # The full set's entry holds its rank, or its start value while unranked.
        screen = bool(state.known[-1] == r)
        exact[side][todo] = True
        if (
            screen
            and 2 < r < size
            and r not in state.floored
            and len(todo) * size > r * math.comb(n, r)
        ):
            # A floor of r is exact: the subsets it reaches need no rank.
            _subset_floors(state.m, popcount, bits, r, tol, state.floor)
            state.floored.add(r)
            val[side][todo] = np.maximum(val[side][todo], state.floor[masks[todo]])
            todo = todo[val[side][todo] < r]
        reps = todo
        if state.weights is not None:
            keys = state.weights[members[todo]].sum(axis=1)
            missing = state.table[keys] < 0
            new, first = np.unique(keys[missing], return_index=True)
            reps = todo[missing][first]
        for i in range(0, len(reps), SUBSET_BLOCK):
            sel = reps[i : i + SUBSET_BLOCK]
            stack = np.moveaxis(state.m[:, members[sel]], 1, 0)
            val[side][sel] = stacked_ranks(stack, tol, screen=screen)
        if state.weights is not None:
            state.table[new] = val[side][reps]
            val[side][todo] = state.table[keys]

    alive = np.arange(len(members))
    for side_a, side_b in splits:
        reach(side_a)
        reach(side_b)
        for side in (side_a, side_b):
            alive = alive[val[side_a][alive] + val[side_b][alive] <= size + 1]
            rank(side, alive[~exact[side][alive]])
        alive = alive[val[side_a][alive] + val[side_b][alive] <= size + 1]
        if alive.size == 0:
            break
    for side, v in val.items():
        sides[side].known[masks] = v
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
    subset that survives every split is reported as a witness with its exact
    deltas, and the status is Inconclusive; with no witness it is Unique.
    Witnesses come in increasing size, lexicographic within a size.  With
    ``fail_fast`` only the first witness is reported, and
    ``subsets_examined`` is its position in that order plus one; the pass
    itself still decides every subset.  Without it ``subsets_examined``
    counts every subset, 2**N - N - 1.

    ``strategy`` defaults to ``default_strategy`` of the party count; an
    unknown one is a ``UsageError``.  More than ``max_members`` members is an
    ``EnumerationCapError`` and a ``max_members`` below 1 a
    ``ParameterError``.  Each split side the pass reaches takes 2 * 2**N
    bytes of rank bounds and floors; an allocation that fails is a
    ``SizeBudgetError``.  An SVD that fails is a ``NumericError``.

    The subsets are decided top down, from the full set to the pairs, in
    blocks of one size from ``_subset_blocks``; ``_decide_block`` describes
    how a block is decided.  The survivors of each size stay one int array
    of members and exact deltas, which ``Certificate.levels`` holds.
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

    try:
        popcount = _popcounts(n)
    except (MemoryError, ValueError):
        raise _size_budget_error(n) from None
    bits = _member_bits(n)
    sides: dict[tuple[int, ...], _Side] = {}
    levels = []  # the witnesses of each size with any, largest size first
    first = 0  # ascending position of the first witness of the smallest size
    for size in range(n, 1, -1):
        level = []
        for start, block, members in _subset_blocks(popcount, bits, size):
            alive, ranks = _decide_block(block, members, popcount, bits, splits, fam, sides, tol)
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


def _positive_part(f: np.ndarray) -> np.ndarray:
    """F^dag F for F = ``f`` over the modulus of its largest entry: its
    entries are at most F's row count, and it spans what ``f``'s does."""
    f = f / np.abs(f).max()
    return f.conj().T @ f


#: Default bound on ||sum_j K_j^dag K_j - I||_F / sqrt(d_in) for a complete family.
COMPLETENESS_TOL = 1e-10


def verify_completeness(fam: OperatorFamily, tol: float = COMPLETENESS_TOL) -> CompletenessReport:
    """Check sum_j K_j^dag K_j = I and the local-positive-span pair bounds.

    Raises ``NumericError`` naming the first member whose K^dag K, added to
    those before it, overflows the float range.  Each local factor is
    divided by its largest entry before its positive part is taken, so no
    positive part overflows or underflows, and the span dimensions do not
    depend on how a member's scale is split between its factors.
    """
    if not (0.0 <= tol < np.inf):
        raise ParameterError(f"completeness tolerance must be finite and nonnegative, got {tol}")
    d_in = fam.spec.total_d_in
    gram = np.zeros((d_in, d_in), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in enumerate(fam.assembled()):
            gram += k.conj().T @ k
            if not math.isfinite(frobenius(gram)):
                raise NumericError(f"member {j}: K^dag K overflows the float range")
    residual = frobenius(gram - np.eye(d_in))
    is_complete = bool(residual <= tol * np.sqrt(d_in))

    spans = tuple(
        span_dimension([_positive_part(f) for f in fam.local_factors(p)])
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

