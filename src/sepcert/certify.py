"""Uniqueness certificates for product Kraus families and product ensembles.

The certifier decides every member subset of size >= 2 and eliminates it by
finding a party split whose local span dimensions are too large for the
subset to admit a product linear combination with all coefficients nonzero.
If every subset is eliminated, no alternative product representation of the
same channel (or state) can exist and the certificate is Unique.  Surviving
subsets are returned as witnesses; they mean the certificate is Inconclusive,
never that the representation is actually non-unique.

``certify_unique`` states what a certificate holds.  ``_kruskal_proves``
first tries to prove Unique from the sizes alone; ``_decide_block``
describes the pass that otherwise decides the subsets, and each function it
calls describes its own step.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnumerationCapError, NumericError, ParameterError, SizeBudgetError, UsageError
from .linalg import (
    DEFAULT_TOLERANCE,
    TolerancePolicy,
    _check_elements,
    _proves_full_rank,
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
    compressed_side,
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
    size: one (B, size + 2 * len(splits)) int8 array per size whose rows are
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
        byte; it joins the pieces of ``json_chunks``.
        """
        return "".join(self.json_chunks(head))

    def json_chunks(self, head: dict):
        """The text of ``to_json`` in pieces, each witness piece holding at
        most ``LEVEL_BLOCK`` witnesses, so a writer need not hold it whole.

        ``json.dumps`` still renders everything but the witness array.  A
        witness piece is built with no ``Witness`` object and no walk of
        dicts through the stdlib's pure-Python indent encoder: it looks up
        each int of its rows of ``levels`` in the string table of
        ``_slot_table``, built once per report, and joins the strings.
        """
        text = json.dumps({**head, **self._fields([])}, indent=2)
        if self.unique:
            yield text
            return
        # JSON strings hold no raw newline, so this is the top-level key.
        before, _, after = text.partition('\n  "witnesses": []')
        yield before + '\n  "witnesses": ['
        deltas = 2 * len(self.splits)
        table = _slot_table(self.splits, max(int(level.max()) for level in self.levels) + 1)
        first = True
        for level in self.levels:
            # The first member, the others, each delta, and the last slot.
            size = level.shape[1] - deltas
            rows = np.array([0] + [1] * (size - 1) + list(range(2, 2 + deltas)))
            rows[-1] = len(table) - 1
            for start in range(0, len(level), LEVEL_BLOCK):
                pieces = table[rows, level[start : start + LEVEL_BLOCK]].ravel().tolist()
                if first:
                    # The first witness has no comma before it.
                    pieces[0] = pieces[0][1:]
                    first = False
                yield "".join(pieces)
        yield "\n  ]" + after


def _split_sum(side_a, side_b, delta_a, delta_b) -> dict:
    """One entry of a witness's ``split_sums`` in the JSON report."""
    return {"side_a": list(side_a), "side_b": list(side_b), "delta_a": delta_a, "delta_b": delta_b}


def _slot_table(splits: tuple[Split, ...], values: int) -> np.ndarray:
    """The indent-2 report text of a witness, cut at its int slots (its
    members, then delta_a, delta_b of each split), as an object array whose
    entry [i, v] is the text from the end of the slot before through the
    decimal of v in a slot of row i.

    Row 0 serves the first member, row 1 every later member and rows 2 on
    each delta in order; the last row is the one before it run on to the
    witness's end, and serves each witness's last slot.  Entries of row 0
    start with the comma and newline that follow the witness before.
    ``json.dumps`` lays out a two-member witness with placeholder strings
    where the slots go, so keys and layout are those of
    ``Certificate.to_dict``.
    """
    sums = [_split_sum(a, b, "\x00", "\x00") for a, b in splits]
    text = json.dumps({"members": ["\x00"] * 2, "split_sums": sums}, indent=2)
    # A witness sits two levels deep in the report.
    *literals, end = f",\n{text}".replace("\n", "\n    ").split('"\\u0000"')
    decimals = [str(v) for v in range(values)]
    table = [[literal + v for v in decimals] for literal in literals]
    table.append([entry + end for entry in table[-1]])
    return np.array(table, dtype=object)


def _examined_splits(n_parties: int, strategy: str) -> tuple[Split, ...]:
    """The splits ``strategy`` examines; none for one party, so that no
    subset is eliminated.  An unknown strategy is a ``UsageError``."""
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


def _member_bits(n: int) -> np.ndarray:
    """The bit of each of n members in a subset's bitmask: member i is bit
    n-1-i, so the bitmasks of one size in descending order list its subsets
    in lexicographic order."""
    return np.left_shift(1, np.arange(n - 1, -1, -1))


def _popcounts(n: int) -> np.ndarray:
    """The number of members in each bitmask below 2**n, as uint8."""
    popcount = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        np.add(popcount[: 1 << k], 1, out=popcount[1 << k : 2 << k])
    return popcount


def _members(masks: np.ndarray, bits: np.ndarray, size: int) -> np.ndarray:
    """The (B, size) member indices, each row increasing, of B bitmasks of
    ``size`` members; ``bits`` is ``_member_bits(n)``."""
    # Row-major order lists each subset's members in increasing order.  Rows
    # padded with zero bits to a power-of-two width give each position's
    # column with an AND in place of a modulo.
    width = 1 << (len(bits) - 1).bit_length()
    padded = np.zeros(width, dtype=bits.dtype)
    padded[: len(bits)] = bits
    return (np.flatnonzero((masks[:, None] & padded) != 0) & (width - 1)).reshape(-1, size)


def _subset_blocks(popcount: np.ndarray, bits: np.ndarray, size: int):
    """The subsets of ``size`` members in lexicographic order, in blocks of at
    most ``LEVEL_BLOCK``: per block its position in the order, its (B,)
    bitmasks and its (B, size) member indices.

    ``popcount`` is ``_popcounts(n)`` and ``bits`` is ``_member_bits(n)``.
    """
    masks = np.flatnonzero(popcount == size)[::-1]
    for start in range(0, len(masks), LEVEL_BLOCK):
        block = masks[start : start + LEVEL_BLOCK]
        yield start, block, _members(block, bits, size)


def _subset_stacks(m: np.ndarray, columns, k: int, block: int = SUBSET_BLOCK):
    """The selections of ``m``'s columns at each k-subset of ``columns``, in
    the order of ``itertools.combinations``, as (B, r, k) stacks of at most
    ``block`` selections."""
    combos = itertools.chain.from_iterable(itertools.combinations(columns, k))
    while (chosen := np.fromiter(itertools.islice(combos, block * k), np.intp)).size:
        yield m.T[chosen.reshape(-1, k)].swapaxes(1, 2)


def _size_budget_error(n: int) -> SizeBudgetError:
    return SizeBudgetError(f"rank bounds for {n} members need 2**{n} bytes per split side")


def _column_classes(raw: np.ndarray) -> np.ndarray:
    """The class of each column of ``raw``: columns equal bit for bit share
    one, numbered in order of first appearance."""
    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault(col.tobytes(), len(ids)) for col in raw.T])


def _side_cap(m: np.ndarray, tol: TolerancePolicy) -> tuple[float, float, float]:
    """kappa, the ``svd_error_scale`` of the side matrix ``m``'s shape, d =
    kappa s and the global cap C = ``tol.cutoff(s + d)``, with s = ||m||_F
    (1 + kappa): s bounds the norm of every column selection of ``m``, d
    the SVD's error on each of its singular values, and C its cutoff."""
    r, n = m.shape
    kappa = svd_error_scale(max(r, n), min(r, n))
    s = np.linalg.norm(m) * (1 + kappa)
    d = kappa * s
    return kappa, d, tol.cutoff(s + d)


class _Side:
    """A split side as one ``certify_unique`` call knows it, built once by
    ``_Sides`` and read by both the Kruskal check and the subset pass.

    ``m`` is the side's ``unit_side`` matrix, r x n, ``cls`` the
    ``_column_classes`` of its raw columns, ``classes`` their count and
    ``tol`` the call's policy; ``side_cap`` is ``_side_cap`` of ``m``.

    The Kruskal check's facts: ``rank``, the proven full-side rank, is None
    until the check tries it, then r when ``_proves_full_rank`` proves
    sigma_r(m) > ``floor``, else 0.  Every selection of at most ``kruskal``
    columns is proven to have exact sigma_min > ``floor``; a proof for some
    k failed from ``refuted`` on, and no larger k is tried.  A side with
    bit-equal twins has ``refuted`` 2 from the start: a twin pair is
    singular.

    ``class_proven`` holds when the side has fewer classes than members and
    ``_proves_class_ranks`` holds on it; the proof runs at most once per
    side, when ``class_proven`` is first read.  A side is ``exact`` when it
    is ``class_proven`` or its Kruskal rank is proven to be r, ``kruskal``
    = r: every subset T's computed rank is then min(|T|, r), as
    ``_kruskal_proves`` shows, which no subset's can exceed.

    The pass's state: ``bound`` is None until ``open`` makes it an int8
    array over member bitmasks.  On an ``exact`` side every entry is the
    exact rank of that subset's columns of ``m``, written once, by
    ``_class_ranks`` on a ``class_proven`` side, and no subset is ranked or
    floored there.  Elsewhere it is 0 at first: each entry is a proven
    lower bound on the computed rank, and the exact rank once the subset
    has been ranked on the side; ``bound`` holds the ``_subset_floors`` of
    each k in ``floored``.
    ``ranked`` counts the columns of the subsets ranked on the side so far.
    ``raised`` is True when some entry of ``bound`` has risen, by a rank or
    a floor, since ``_close_downward`` last ran on it.
    """

    def __init__(self, m: np.ndarray, cls: np.ndarray, tol: TolerancePolicy):
        self.m, self.cls, self.tol = m, cls, tol
        self.classes = int(cls.max()) + 1
        self.refuted = 2 if self.classes < len(cls) else len(m) + 1
        self.rank: int | None = None
        self.kruskal = 0
        self.bound: np.ndarray | None = None
        self.floored: set[int] = set()
        self.ranked = 0
        self.raised = False

    @cached_property
    def side_cap(self) -> tuple[float, float, float]:
        return _side_cap(self.m, self.tol)

    @cached_property
    def class_proven(self) -> bool:
        return self.classes < len(self.cls) and _proves_class_ranks(self)

    @property
    def exact(self) -> bool:
        return self.kruskal == len(self.m) or self.class_proven

    @property
    def floor(self) -> float:
        """C + d, with d and the cap C of ``side_cap``."""
        _, d, cap = self.side_cap
        return cap + d

    def open(self) -> None:
        """Set ``bound`` for every subset of the n members: its exact rank on
        an ``exact`` side, else 0."""
        n = len(self.cls)
        try:
            if self.class_proven:
                self.bound = _class_ranks(self.cls, len(self.m))
            elif self.exact:
                sizes = _popcounts(n)
                self.bound = np.minimum(sizes, len(self.m), out=sizes).view(np.int8)
            else:
                self.bound = np.zeros(1 << n, dtype=np.int8)
        except (MemoryError, ValueError):
            raise _size_budget_error(n) from None


class _Sides(dict):
    """The ``_Side`` of each split side of one call on ``fam``'s n members
    under ``tol``, keyed by its party tuple and built when first read, and
    the Gram matrices the Kruskal check may still prove, ``budget``, an
    eighth of 2**n.  A proof is charged a whole stack of ``SUBSET_BLOCK``
    matrices, whatever it holds: a stack's fixed cost dominates at small n."""

    __slots__ = ("fam", "n", "tol", "budget")

    def __init__(self, fam: OperatorFamily, tol: TolerancePolicy):
        self.fam, self.n, self.tol = fam, fam.n_members, tol
        self.budget = (1 << self.n) >> 3

    def __missing__(self, key: tuple[int, ...]) -> _Side:
        raw = self.fam.side_matrix(key)
        self[key] = side = _Side(compressed_side(raw)[0], _column_classes(raw), self.tol)
        return side

    def try_rank(self, side: _Side) -> bool:
        """Set ``side.rank`` by one Gram proof of the whole side."""
        self.budget -= SUBSET_BLOCK
        proven = _proves_full_rank(side.m[None], self.tol, bound=side.floor)
        side.rank = len(side.m) if proven else 0
        return bool(side.rank)

    def try_kruskal(self, side: _Side, k: int, block: int = SUBSET_BLOCK) -> bool:
        """Prove every k-subset of ``side``'s columns, a stack of
        ``_subset_stacks`` of ``block`` at a time, and raise ``side.kruskal``
        to k; the first stack that fails sets ``side.refuted`` to k instead."""
        for stack in _subset_stacks(side.m, range(self.n), k, block):
            self.budget -= block
            if not _proves_full_rank(stack, self.tol, bound=side.floor):
                side.refuted = k
                return False
        side.kruskal = k
        return True


def _proves_class_ranks(side: _Side) -> bool:
    """True only when the class proof holds on ``side``: every subset T's
    computed rank on the side is min(h(T), r), h(T) the number of classes T
    holds, which ``_class_ranks`` writes for every T at once.

    The columns of a class are equal before ``compressed_side``; its thin QR
    may leave them apart by rounding (Higham Thm 19.4).  Let m be the side
    matrix, r x n, with c classes, e bound the distance of each column of m
    from its class's first column, the representative, w = sqrt(n) e, and
    d, C be those of ``side_cap``.  The proof has two checks:

    * Every k-subset of the representatives, k = min(c, r), has exact
      sigma_min > C + d + w, by ``_proves_full_rank`` on the stacks of
      ``_subset_stacks``.  Let g = min(h, r).  T holds g classes whose
      representatives lie in one proven k-subset, so their sigma_min
      exceeds C + d + w too (deleting columns never lowers it), and one
      member of each of those classes gives g columns of m_T within w, in
      spectral norm, of them.  So sigma_g(m_T) > C + d by Weyl, the
      computed value exceeds C, and C bounds T's cutoff (see
      ``_subset_floors``): T's rank counts g values.
    * w + d is at most the cutoff of every column selection
      (``_zero_under_every_cutoff``), whose computed sigma_max is at least
      its largest column norm less d.  Moving each column of m_T to its
      representative moves m_T by at most w and leaves rank at most h, so
      sigma_{h+1}(m_T) <= w, and its computed value is at most w + d: T's
      rank counts no more than h values, and never more than r.

    e and the column norms are computed, then widened by the kappa of
    ``side_cap`` for their rounding; e is 0 on an uncompressed side.  The
    proof fails when some k representatives are dependent, or when the
    tolerance nears 0.
    """
    m, cls, tol = side.m, side.cls, side.tol
    r, n = m.shape
    reps = np.unique(cls, return_index=True)[1]
    kappa, d, cap = side.side_cap
    shift = math.sqrt(n) * np.linalg.norm(m - m[:, reps[cls]], axis=0).max() * (1 + kappa)
    low = np.linalg.norm(m, axis=0).min() * (1 - kappa)
    if not _zero_under_every_cutoff(shift + d, low - d, tol):
        return False
    return all(
        _proves_full_rank(stack, tol, bound=cap + d + shift)
        for stack in _subset_stacks(m, reps, min(len(reps), r))
    )


def _class_ranks(cls: np.ndarray, r: int) -> np.ndarray:
    """min(h(T), r) for every member bitmask T, as int8, h(T) the number of
    the classes ``cls`` that T's members hold.

    One doubling pass over the member bits, as in ``_popcounts``, ORs each
    member's class bit, 1 << class, into the classes every mask holds, in
    the narrowest unsigned dtype that has a bit per class, and counts one
    more class wherever that OR changed them.  Member i is bit n-1-i, as in
    ``_member_bits``.
    """
    n = len(cls)
    held = np.zeros(1 << n, dtype=np.min_scalar_type((1 << (int(cls.max()) + 1)) - 1))
    rank = np.zeros(1 << n, dtype=np.uint8)
    class_bits = np.left_shift(1, cls[::-1]).astype(held.dtype)
    for b in range(n):
        # The masks whose highest bit is b: those below, with member n-1-b added.
        below, above = slice(0, 1 << b), slice(1 << b, 2 << b)
        np.bitwise_or(held[below], class_bits[b], out=held[above])
        np.add(rank[below], held[above] != held[below], out=rank[above])
    return np.minimum(rank, r, out=rank).view(np.int8)


def _zero_under_every_cutoff(value: float, low: float, tol: TolerancePolicy) -> bool:
    """True when a computed singular value of at most ``value`` counts as
    zero in the rank of every matrix whose computed sigma_max is at least
    ``low``: a rank counts only the values above its cutoff."""
    return value <= tol.cutoff(low)


def _subset_floors(side: _Side, popcount: np.ndarray, bits: np.ndarray, k: int) -> None:
    """Raise the opened ``side``'s ``bound`` to a lower bound on the rank of
    every subset's selection of its matrix m's columns: the largest robust
    rank of a k-member subset that the subset holds.  Entries already
    larger are kept, so a lower bound stays one and an exact rank stays
    exact.  The side then has k in ``floored`` and is ``raised``.

    m is r x N; ``popcount`` and ``bits`` are those of ``_subset_blocks``.
    One SVD call per block of k-member subsets ranks them; a k-subset's
    robust rank counts its singular values above C + 2d, with s, d and the
    global cap C those of ``side_cap``.  For a subset T holding the k-subset
    S, sigma_i(m_T) >= sigma_i(m_S) (adding columns never lowers a singular
    value), and each computed singular value is within d of the exact one
    (Weyl): no column selection of m is larger or has a larger norm.  The
    SVD of m_T finds sigma_max <= s + d, so T's cutoff is at most C: every
    singular value the robust rank of S counts lies above C + 2d, so its
    exact one above C + d, hence T's computed one above C, and T's rank
    counts it as well.  A floor of min(|T|, r) is therefore T's rank.  When
    k = r, a block is first given to the Gram-Cholesky proof of
    ``_proves_full_rank`` that every r x r selection has exact sigma_min >
    C + d, the middle step above; when it succeeds every floor of the block
    is r, and only when it fails is the block ranked by its SVD.  The
    k-subset ranks reach every superset in one max pass per member bit over
    a scratch array, so that only they, not the other entries of ``bound``,
    pass to supersets.
    """
    m, bound, tol = side.m, side.bound, side.tol
    r, n = m.shape
    _, d, cap = side.side_cap
    floor = np.zeros_like(bound)
    for _, masks, members in _subset_blocks(popcount, bits, k):
        stack = np.moveaxis(m[:, members], 1, 0)
        if k == r and _proves_full_rank(stack, tol, bound=cap + d):
            count = r
        else:
            count = np.count_nonzero(_svdvals(stack) > cap + 2 * d, axis=1)
        floor[masks] = count
    for b in range(n):
        # Axis 1 is bit b: each mask with the bit set takes its floor without it.
        half = floor.reshape(-1, 2, 1 << b)
        np.maximum(half[:, 0], half[:, 1], out=half[:, 1])
    np.maximum(bound, floor, out=bound)
    side.floored.add(k)
    side.raised = True


def _close_downward(bound: np.ndarray, sizes: np.ndarray) -> None:
    """Raise each entry bound(T) of a side's int8 ``bound`` to max over
    supersets S of T of bound(S) - |S \\ T|, in place; ``sizes`` is
    ``_popcounts(n)`` viewed as int8.

    Lower bounds stay lower bounds.  Removing a column x lowers a side's
    rank by at most one: sigma_i(m_S) >= sigma_i(m_{S-x}) >= sigma_{i+1}(m_S)
    (interlacing), and the cutoff, a fixed fraction of sigma_max, can only
    shrink when x goes.  Chained over the members of S \\ T, one at a time,
    rank(T) >= rank(S) - |S \\ T|.  With g = bound - |T|, the superset
    maximum of g takes one pass per member bit, g(T) = max(g(T), g(T | bit)):
    the zeta transform over the subset lattice, in max form.  Every value
    fits int8, since ranks and sizes are at most n <= 62.
    """
    g = bound - sizes
    for b in range(len(bound).bit_length() - 1):
        if b < 3:
            # Short runs of one bit value: strided slices beat the reshaped view.
            step = 2 << b
            for j in range(1 << b):
                np.maximum(g[j::step], g[j + (1 << b) :: step], out=g[j::step])
        else:
            # Axis 1 is bit b: each mask without the bit takes its value with it.
            half = g.reshape(-1, 2, 1 << b)
            np.maximum(half[:, 0], half[:, 1], out=half[:, 0])
    np.maximum(bound, g + sizes, out=bound)


def _open_size_below(
    sides: _Sides, splits: tuple[Split, ...], popcount: np.ndarray, size: int
) -> int:
    """Close the bounds of each side ``raised`` since its last closure
    (``_close_downward``), then return the largest size below ``size`` in
    which some subset T may survive every split whose two sides are open,
    bound_A(T) + bound_B(T) <= |T| + 1; 1 when no size from 2 up may.  An
    allocation that fails is a ``SizeBudgetError``.
    """
    n = len(popcount).bit_length() - 1
    opened = [
        (sides[a].bound, sides[b].bound)
        for a, b in splits
        if all(side in sides and sides[side].bound is not None for side in (a, b))
    ]
    try:
        for state in sides.values():
            if state.raised:
                _close_downward(state.bound, popcount.view(np.int8))
                state.raised = False
        for below in range(size - 1, 1, -1):
            masks = np.flatnonzero(popcount == below)
            alive = np.ones(len(masks), dtype=bool)
            for bound_a, bound_b in opened:
                alive &= bound_a[masks] + bound_b[masks] <= below + 1
            if alive.any():
                return below
    except (MemoryError, ValueError):
        raise _size_budget_error(n) from None
    return 1


def _decide_block(
    masks: np.ndarray,
    members: np.ndarray,
    popcount: np.ndarray,
    bits: np.ndarray,
    splits: tuple[Split, ...],
    sides: _Sides,
) -> np.ndarray:
    """Eliminate a (B, m) block of m-member subsets split by split.

    ``masks`` holds the subsets' member bitmasks, with ``bits[i]`` the bit
    of member i, and ``members`` their (B, m) member indices; all subsets of
    m + 1 members must be decided, or settled by ``_open_size_below``.
    ``popcount`` and ``bits`` are those of ``_subset_blocks``.  ``sides``
    holds the call's ``_Side`` of each split side and its ``tol``; the
    block reads and raises a side's ``bound`` in place.  A side is opened
    here (``_Side.open``) when a block first reaches one of its splits, and
    a block raises its subsets' bounds on a side to their start values only
    when it reaches the side.  An ``exact`` side's bounds are exact from its
    opening on, and nothing there is ranked or floored: a Kruskal proof of
    its r-subsets that ``_lattice_certificate`` or ``_kruskal_proves`` made
    is reused when the lattice declines for another side.

    On each side a subset T starts from max(``bound(T)``, ``max_x
    bound(T | x) - 1``).  The first holds the floors built so far.  The
    second holds because removing a member lowers a side's numerical rank
    by at most one: singular values interlace, and the cutoff of ``tol``, a
    fixed fraction of sigma_max, can only shrink when a column goes.  The
    floors of ``_subset_floors``, counted against the cap C of the whole
    side matrix, hold at every size.  A bound of min(m, r), r the rows of
    the side matrix, is exact, since no rank exceeds it.  A subset is ranked
    on a side only when its bounds leave a split undecided: on side A
    first, then on side B if the subset is still alive, and its bound
    becomes its rank, so every survivor's bounds are exact.  On a side the
    block never reaches, its bounds stay as they were, still lower bounds.
    Each rank or floor written on a side marks it ``raised``, for the next
    closure of ``_open_size_below``, which chains the one-step start value
    over the whole subset lattice.

    Floors are built once per side and k, each when it costs less than the
    ranks it replaces.  Pair floors raise only bounds below 2, so they are
    built when, in a block of three or more members, the subsets starting
    below 2 hold at least the n (n - 1) columns of the member pairs.  On a
    side whose full set has the bound r, its full row rank, with 2 < r < m,
    a floor of r is exact, since no rank exceeds r: a subset holding an
    independent r-subset has rank r.  So the floors of the r-member subsets
    are built once the columns the side has ranked over the pass, ``ranked``,
    and those of the subsets the block would rank there exceed the
    r C(n, r) columns of the r-subsets; until then those subsets are
    ranked.  This rent-or-buy rule spends at most twice the columns of the
    better of never building and building at once.  A floor below r is not
    exact, and its subset is ranked.

    The subsets left to rank on a side go to ``stacked_ranks`` in stacks of
    at most ``SUBSET_BLOCK`` column selections.  A side tries the full-rank
    screen of ``stacked_ranks`` only when its full set's bound is r, the row
    count of the side matrix after its thin QR: on a deficient side the
    screen cannot succeed.

    Returns the positions in ``members`` of the subsets no split
    eliminated; their bounds on every side of ``splits`` are exact.
    """
    size = members.shape[1]
    n = len(bits)
    tol = sides.tol
    supersets = masks[:, None] | bits
    exact: dict[tuple[int, ...], np.ndarray] = {}

    def reach(side) -> None:
        """Open ``side`` and raise the block's bounds there to their start values."""
        state = sides[side]
        if state.bound is None:
            state.open()
        if side in exact:
            return
        if state.exact:
            exact[side] = np.ones(len(masks), dtype=bool)
            return
        bound = state.bound
        # For x in T, T | x is T itself, which only adds bound(T) - 1.
        bound[masks] = np.maximum(bound[masks], bound[supersets].max(axis=1) - 1)
        # Fewer subsets below 2 are ranked for no more than the pair
        # floors cost, and pairs rank themselves as cheaply.  The full
        # set, alone in its block, never qualifies.
        if (
            2 not in state.floored
            and size > 2
            and np.count_nonzero(bound[masks] < 2) * size >= n * (n - 1)
        ):
            _subset_floors(state, popcount, bits, 2)
        exact[side] = bound[masks] >= min(size, len(state.m))

    def rank(side, todo):
        state = sides[side]
        bound = state.bound
        r = len(state.m)
        # No rank exceeds r, so a bound of r on the full set is its rank.
        screen = bool(bound[-1] == r)
        exact[side][todo] = True
        state.raised |= todo.size > 0
        if (
            screen
            and 2 < r < size
            and r not in state.floored
            and state.ranked + len(todo) * size > r * math.comb(n, r)
        ):
            # A floor of r is exact: the subsets it reaches need no rank.
            _subset_floors(state, popcount, bits, r)
            todo = todo[bound[masks[todo]] < r]
        state.ranked += len(todo) * size
        for i in range(0, len(todo), SUBSET_BLOCK):
            sel = todo[i : i + SUBSET_BLOCK]
            stack = np.moveaxis(state.m[:, members[sel]], 1, 0)
            bound[masks[sel]] = stacked_ranks(stack, tol, screen=screen)

    alive = np.arange(len(members))
    for side_a, side_b in splits:
        reach(side_a)
        reach(side_b)
        bound_a, bound_b = sides[side_a].bound, sides[side_b].bound
        for side in (side_a, side_b):
            alive = alive[bound_a[masks[alive]] + bound_b[masks[alive]] <= size + 1]
            rank(side, alive[~exact[side][alive]])
        alive = alive[bound_a[masks[alive]] + bound_b[masks[alive]] <= size + 1]
        if alive.size == 0:
            break
    return alive


def _side_rows(fam: OperatorFamily, side: tuple[int, ...]) -> int:
    """The row count of ``side``'s raw side matrix, from ``fam``'s spec."""
    return math.prod(math.prod(fam.spec.factor_shape(q)) for q in side)


def _rank_proofs_pay(fam: OperatorFamily, splits: tuple[Split, ...]) -> bool:
    """True when, on every examined side, the r-subsets that prove it
    ``exact`` hold no more columns than the subsets of the sizes the pass
    would leave alive on generic sides, whose ranks it must make exact:
    r C(n, r) <= the sum of t C(n, t) over the sizes t >= 2 with min(t,
    r_A) + min(t, r_B) <= t + 1 on every split.  r is the side's row count
    capped at n, as after ``compressed_side``, read from the spec before
    any side is built.  ``_decide_block``'s rent-or-buy rule, applied up
    front; it decides only what runs, never the certificate."""
    n = fam.n_members
    rows = [[min(_side_rows(fam, side), n) for side in split] for split in splits]
    alive = sum(
        t * math.comb(n, t)
        for t in range(2, n + 1)
        if all(min(t, a) + min(t, b) <= t + 1 for a, b in rows)
    )
    return all(r * math.comb(n, r) <= alive for split in rows for r in split)


def _stacks(count: int) -> int:
    """The budget a proof of ``count`` matrices takes: whole stacks of
    ``SUBSET_BLOCK``."""
    return SUBSET_BLOCK * -(-count // SUBSET_BLOCK)


def _kruskal_plan(n: int, a: _Side, b: _Side, budget: int) -> tuple | None:
    """The cheapest plan within ``budget`` whose lower bounds cover every
    size of the split with sides ``a`` and ``b`` (``_kruskal_proves``), as
    (cost, (k_a, rho_a), (k_b, rho_b)), or None.  A side's k runs from 2 to
    r, below its ``refuted``, and its rho is 0 or, when r < n and unless
    refuted, r.  A proven k or rho costs nothing, a new rho one stack and a
    new k the stacks of its C(n, k) subsets (see ``_Sides``), so a
    larger k can be cheaper."""
    options = []
    for side in (a, b):
        r = len(side.m)
        ranks = [(0, 0)]
        if side.rank != 0 and r < n:
            ranks.append((r, 0 if side.rank else SUBSET_BLOCK))
        options.append(sorted(
            (cost, k, rank, [max(min(t, k), rank - (n - t)) for t in range(2, n + 1)])
            for k in range(2, min(r + 1, side.refuted))
            for rank, rank_cost in ranks
            if (cost := rank_cost + (k > side.kruskal) * _stacks(math.comb(n, k))) <= budget
        ))
    best = None
    for cost_a, k_a, rank_a, bounds_a in options[0]:
        for cost_b, k_b, rank_b, bounds_b in options[1]:
            # Options come in increasing cost: the first that covers is the cheapest.
            if cost_a + cost_b > (budget if best is None else best[0] - 1):
                break
            if all(x + y >= t + 2 for t, x, y in zip(range(2, n + 1), bounds_a, bounds_b)):
                best = (cost_a + cost_b, (k_a, rank_a), (k_b, rank_b))
                break
    return best


def _kruskal_proves(sides: _Sides, splits: tuple[Split, ...]) -> bool:
    """True only when one split's Kruskal bounds eliminate every subset, or
    when fewer than two members leave no subset, so the pass of
    ``_subset_pass`` would find no witness.

    On a side with matrix m, r x n, and C, d of ``_side_cap``, two Gram
    proofs of ``_proves_full_rank`` bound every subset T's computed rank
    from below.  If every k-subset S has exact sigma_min(m_S) > C + d
    (Kruskal rank k, Kruskal, LAA 18, 1977), then sigma_min(m_T) > C + d
    for |T| <= k, since deleting columns never lowers sigma_min of a
    selection with no more columns than rows, and sigma_k(m_T) > C + d for
    |T| >= k, since adding columns never lowers a singular value.  If
    sigma_rho(m) > C + d for the full-side rank rho = r, then interlacing,
    sigma_i(m_{S-x}) >= sigma_{i+1}(m_S), applied once per member outside
    T, gives sigma_{rho-(n-t)}(m_T) >= sigma_rho(m) > C + d, t = |T|.  Each
    computed singular value is within d of the exact one, and T's cutoff is
    at most C (see ``_subset_floors``), so T's computed rank is at least
    lb(t) = max(min(t, k), rho - (n - t)).  A split whose sides have
    lb_A(t) + lb_B(t) >= t + 2 for every t from 2 to n eliminates every
    subset, however the pass bounds or ranks it: every bound of the pass is
    a lower bound on the same computed rank, and every survivor's is exact.
    This is the two-sided form of Kruskal's condition that the paper's
    split test takes for each subset.

    Splits are tried in order.  One whose row counts give min(r_A, n) +
    min(r_B, n) < n + 2 cannot be covered and is skipped before its sides
    are built, and so is one with bit-equal twins on a side (their pair has
    rank 1) before any Gram.  The first split that ``_kruskal_plan`` can
    cover within ``sides.budget`` decides the check: its rho proofs run
    first, then its k with fewer subsets, in stacks of ``SUBSET_BLOCK``, and
    the first stack that fails declines.  So a check that declines costs at
    most a fraction of the pass, which touches each of the 2**n subsets.  A
    plan costs at least a stack per side, so a smaller budget, any n below
    10, declines at once.
    """
    if sides.n < 2:
        return True
    if sides.budget < 2 * SUBSET_BLOCK:
        return False
    fam, n = sides.fam, sides.n
    for split in splits:
        rows = [_side_rows(fam, side) for side in split]
        if min(rows[0], n) + min(rows[1], n) < n + 2:
            continue
        pair = sides[split[0]], sides[split[1]]
        plan = _kruskal_plan(n, *pair, sides.budget)
        if plan is None:
            continue
        choices = list(zip(pair, plan[1:]))
        ranks = [side for side, (_, rank) in choices if rank and side.rank is None]
        ks = [(side, k) for side, (k, _) in choices if k > side.kruskal]
        ks.sort(key=lambda step: math.comb(n, step[1]))
        return all(map(sides.try_rank, ranks)) and all(
            sides.try_kruskal(side, k) for side, k in ks
        )
    return False


def _witness_rows(
    sides: _Sides, splits: tuple[Split, ...], masks: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """The rows of ``Certificate.levels`` of the survivors with bitmasks
    ``masks`` and (B, size) ``members``: the members, then the deltas of
    each split, their exact entries of the split sides' ``bound``."""
    size = members.shape[1]
    rows = np.empty((len(masks), size + 2 * len(splits)), dtype=np.int8)
    rows[:, :size] = members
    for column, side in enumerate((side for split in splits for side in split), size):
        rows[:, column] = sides[side].bound[masks]
    return rows


def _lattice_certificate(
    sides: _Sides, splits: tuple[Split, ...], strategy: str, fail_fast: bool
) -> Certificate | None:
    """The certificate of ``_subset_pass``, read off the whole subset
    lattice at once, when every side of ``splits`` is ``exact``; otherwise
    None.  Vacuously so for one party, which has no split.

    The sides are tried in split order, built as the pass would build them,
    and the first side that is not proven stops the check.  A side with
    fewer classes than members runs its class proof.  One with as many, and
    r rows, is proven by ``_Sides.try_kruskal`` of its r-subsets, in stacks
    of ``LEVEL_BLOCK``, unless a Kruskal proof already refuted some k <= r
    there or ``_rank_proofs_pay`` finds the proofs dearer than the pass;
    then it declines with no proof.  Each proven side's ``open`` writes its
    exact rank for every subset, so a subset T survives iff |T| >= 2 and
    bound_A(T) + bound_B(T) <= |T| + 1 on every split: one vectorized
    filter over the 2**n bitmasks, one byte each.  The survivors of each
    size are listed in lexicographic order, ``LEVEL_BLOCK`` at a time, with
    their bounds as deltas (``_witness_rows``).  With ``fail_fast`` only the first survivor of the
    smallest size is listed, with its position in the order of
    ``certify_unique``.  An allocation that fails is a ``SizeBudgetError``.
    """
    pays = _rank_proofs_pay(sides.fam, splits)
    for side in (sides[key] for split in splits for key in split):
        r = len(side.m)
        if not (
            side.exact or pays and r < side.refuted and sides.try_kruskal(side, r, LEVEL_BLOCK)
        ):
            return None
    n = sides.n
    try:
        sizes = _popcounts(n)
        for split in splits:
            for side in split:
                if sides[side].bound is None:
                    sides[side].open()
            bound_a, bound_b = (sides[side].bound for side in split)
            # A subset the split eliminates counts as size 0 from here on.
            np.multiply(sizes, bound_a + bound_b <= sizes.view(np.int8) + 1, out=sizes)
    except (MemoryError, ValueError):
        raise _size_budget_error(n) from None
    bits = _member_bits(n)
    # The lattice in rows of 64 KiB, searched from the top row down: no
    # temporary spans all 2**n bitmasks.
    lattice = sizes.reshape(-1, min(len(sizes), 1 << 16))
    width = lattice.shape[1]
    levels = []
    for size in range(2, n + 1):
        masks = np.concatenate([
            np.flatnonzero(lattice[i] == size)[::-1] + i * width
            for i in range(len(lattice) - 1, -1, -1)
        ])
        if not masks.size:
            continue
        if fail_fast:
            first = masks[:1]
            # The subsets of this size before it in lexicographic order.
            before = np.count_nonzero(_popcounts(n)[first[0] + 1 :] == size)
            examined = sum(math.comb(n, s) for s in range(2, size)) + int(before) + 1
            rows = _witness_rows(sides, splits, first, _members(first, bits, size))
            return Certificate((rows,), splits, strategy, sides.tol, examined, n)
        level = np.empty((len(masks), size + 2 * len(splits)), dtype=np.int8)
        for i in range(0, len(masks), LEVEL_BLOCK):
            block = masks[i : i + LEVEL_BLOCK]
            level[i : i + LEVEL_BLOCK] = _witness_rows(
                sides, splits, block, _members(block, bits, size)
            )
        levels.append(level)
    return Certificate(tuple(levels), splits, strategy, sides.tol, (1 << n) - n - 1, n)


def _subset_pass(
    sides: _Sides, splits: tuple[Split, ...], strategy: str, fail_fast: bool
) -> Certificate:
    """The certificate of ``certify_unique`` from deciding the subsets
    themselves, on ``sides``.

    The subsets are decided top down, from the full set to the pairs, in
    blocks of one size from ``_subset_blocks``; ``_decide_block`` describes
    how a block is decided; a survivor's exact deltas are its entries of
    the split sides' ``bound``.  The survivors of each size stay one int8
    array of members and deltas (N <= 62), which ``Certificate.levels``
    holds.  A subset dies when the bounds of a split, each a proven lower
    bound on a side's rank, sum past its size + 1.  After a size that
    leaves no survivor, ``_open_size_below`` closes the bounds down the
    subset lattice and the sizes below it in which no subset can survive
    are skipped.
    They hold no witness, so the certificate and ``subsets_examined`` are
    those of deciding every size.  After k closures in a row that skip no
    size, the next waits for 2**(k-1) - 1 more survivor-free sizes.
    """
    tol = sides.tol
    n = sides.n
    try:
        popcount = _popcounts(n)
    except (MemoryError, ValueError):
        raise _size_budget_error(n) from None
    bits = _member_bits(n)
    levels = []  # the witnesses of each size with any, largest size first
    first = 0  # ascending position of the first witness of the smallest size
    visit = n  # no subset of a size above it and below the last decided one survives
    wait = misses = 0  # survivor-free sizes to decide before the next closure
    for size in range(n, 1, -1):
        if size > visit:
            continue
        level = []
        for start, block, members in _subset_blocks(popcount, bits, size):
            alive = _decide_block(block, members, popcount, bits, splits, sides)
            if alive.size == 0:
                continue
            if not level:
                first = sum(math.comb(n, s) for s in range(2, size)) + start + int(alive[0])
            level.append(_witness_rows(sides, splits, block[alive], members[alive]))
        if level:
            levels.append(np.concatenate(level))
        elif wait:
            wait -= 1
        elif size > 2:
            visit = _open_size_below(sides, splits, popcount, size)
            misses = 0 if visit < size - 1 else misses + 1
            wait = (1 << max(misses - 1, 0)) - 1

    levels.reverse()
    if fail_fast and levels:
        return Certificate((levels[0][:1],), splits, strategy, tol, first + 1, n)
    return Certificate(tuple(levels), splits, strategy, tol, (1 << n) - n - 1, n)


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
    One member has no such subset; one party has no split, so none is eliminated.
    Witnesses come in increasing size, lexicographic within a size.  With
    ``fail_fast`` only the first witness is reported, and
    ``subsets_examined`` is its position in that order plus one; the pass
    itself still decides every subset.  Without it ``subsets_examined``
    counts every subset, 2**N - N - 1.

    ``strategy`` defaults to ``default_strategy`` of the party count; an
    unknown one is a ``UsageError``.  More than ``max_members`` members is an
    ``EnumerationCapError`` and a ``max_members`` below 1 a
    ``ParameterError``.  Each split side the pass reaches takes 2**N bytes
    of rank bounds, one per subset; an allocation that fails is a
    ``SizeBudgetError``.  An SVD that fails is a ``NumericError``.

    Each examined side is built once, as a ``_Side``.  First
    ``_kruskal_proves`` tries to show from the sizes alone, with a few Gram
    proofs and no 2**N array, that one split eliminates every subset; the
    certificate is then the Unique one the pass would give.  Next, when a
    class proof, or on a side with as many classes as members a Kruskal
    proof of its r-subsets, gives every subset's rank on every examined
    side, ``_lattice_certificate`` reads the pass's certificate off the
    subset lattice with no block walk; the Kruskal proofs run only where
    ``_rank_proofs_pay``.  Otherwise ``_subset_pass`` decides the subsets
    on the same sides, and reads the exact ranks of each side proven so.
    """
    n = fam.n_members
    if max_members < 1:
        raise ParameterError(f"max_members must be at least 1, got {max_members}")
    if n > max_members:
        raise EnumerationCapError(
            f"family has {n} members; exhaustive subset enumeration is capped "
            f"at {max_members} (2**{n} subsets). Raise max_members (--max-subset "
            f"on the command line) to override."
        )
    if strategy is None:
        strategy = default_strategy(fam.n_parties)
    splits = _examined_splits(fam.n_parties, strategy)
    sides = _Sides(fam, tol)
    if _kruskal_proves(sides, splits):
        return Certificate((), splits, strategy, tol, (1 << n) - n - 1, n)
    cert = _lattice_certificate(sides, splits, strategy, fail_fast)
    if cert is None:
        cert = _subset_pass(sides, splits, strategy, fail_fast)
    return cert


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

    A d_in x d_in sum past the element budget is a ``SizeBudgetError``; one
    party has no pair, so its ``pair_sums`` is empty.
    Raises ``NumericError`` naming the first member whose K^dag K, added to
    those before it, overflows the float range.  Each local factor is
    divided by its largest entry before its positive part is taken, so no
    positive part overflows or underflows, and the span dimensions do not
    depend on how a member's scale is split between its factors.
    """
    if not (0.0 <= tol < np.inf):
        raise ParameterError(f"completeness tolerance must be finite and nonnegative, got {tol}")
    d_in = fam.spec.total_d_in
    _check_elements(d_in * d_in, "the K^dag K sum")
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
    pair_sums = {(a, b): spans[a] + spans[b] for a, b in party_pairs(fam.n_parties)}
    holds = all(s <= fam.n_members + 1 for s in pair_sums.values())
    return CompletenessReport(is_complete, residual, holds, pair_sums, spans, fam.n_members)

