"""Numerical falsifiers: hunt for product operators hiding in spans.

The certifier proves uniqueness; this module attacks it.  ``hunt_product``
searches a member subset for coefficients (all bounded away from zero) whose
linear combination is a product operator: a product across each cut
{p} | rest of one party from the others.  It runs on the members at unit
norm (``_unit_members``), with the cut sides that certify ranks
(``OperatorFamily.unit_side``), so no member's scale moves its feasible
set, its compound screen or its objective; its docstring describes the
screen, the search and what each proves.  ``mixing_search`` scans
two-member isometric remixings, which by construction preserve the
represented channel.  ``fuzz_span_bound`` hammers the bipartite span
inequality with random and planted instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, UsageError
from .families import (
    OperatorFamily,
    PartySpec,
    ProductOperator,
    all_bipartitions,
    span_bound_report,
)
from .linalg import (
    MAX_MATRIX_ELEMENTS,
    _check_elements,
    _check_unitary,
    _coefficient_vector,
    _compound_gram,
    _kron_rows,
    _proves_gram_floor,
    _rescaled,
    as_matrix,
    frobenius,
    proportional,
    realign_bipartite,
    svd_error_scale,
    unit_columns,
    unvectorize,
)
from .sampling import (
    check_seed,
    complex_randn,
    random_nonzero_coefficients,
    random_product_family,
)
from .serialize import complex_to_json

_ZERO_CUTOFF = 1e-150

# hunt_product runs its restarts as one stack of at most this many rows;
# restarts are independent, so the block size bounds memory and nothing else.
RESTART_BLOCK = 64

#: Every hunted coefficient keeps at least this magnitude (unit-norm vector).
COEFFICIENT_FLOOR = 1e-6

#: A restart stops when its objective moves by less than this.
CONVERGENCE = 1e-12

#: A found product is novel unless it is proportional to a member within this.
NOVELTY_TOL = 1e-6

#: The product-residual threshold: a hunt finds a product below it by
#: default, and both remixed operators of a mixing pass at or below it.
PRODUCT_TOL = 1e-8


def _product_cuts(n_parties: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The cuts {p} | rest as (side_a, side_b), party 0 always on side A.

    An operator is a product exactly when it is a product across each of
    these P cuts (one cut when P = 2, none when P = 1).
    """
    if n_parties < 2:
        return []
    parties = range(n_parties)
    cuts = [((0,), tuple(parties[1:]))]
    if n_parties > 2:
        cuts += [(tuple(q for q in parties if q != p), (p,)) for p in parties[1:]]
    return cuts


def _unit_members(fam: OperatorFamily) -> tuple[np.ndarray, np.ndarray, list]:
    """``full``, the C-contiguous vectorized members at unit norm, one
    column each; the member scales, member j being ``scales[j]`` times
    column j; and per product cut the ``unit_side`` matrices A and B, across
    which coefficients u of these unit members realign to (B * u) @ A^T, up
    to the unitary factors of the sides' thin QRs, which keep its singular
    values."""
    full, norms = unit_columns(fam.side_matrix(range(fam.n_parties)))
    stacks = [(fam.unit_side(a)[0], fam.unit_side(b)[0]) for a, b in _product_cuts(fam.n_parties)]
    return full, fam.weights * norms, stacks


def _residuals(fam: OperatorFamily, coeffs: np.ndarray) -> np.ndarray:
    """``product_residual`` of each row of the (R, N) ``coeffs``."""
    _, scales, stacks = _unit_members(fam)
    return _worst_ratio(stacks, _rescaled(coeffs, scales))


def _worst_ratio(stacks, coeffs: np.ndarray) -> np.ndarray:
    """Worst sigma_2/sigma_1 over the cuts, one entry per row of ``coeffs``.

    Row k of the (R, n) ``coeffs`` is one combination.  Its entry is zero
    for a product operator and 1.0 for a combination that vanishes.  Each
    cut costs one stacked SVD of the R realignments.
    """
    worst = np.zeros(len(coeffs))
    for a_mat, b_mat in stacks:
        sigma = np.linalg.svd(
            (b_mat * coeffs[:, None, :]) @ a_mat.T, compute_uv=False
        )
        lead = sigma[:, 0]
        second = sigma[:, 1] if sigma.shape[1] > 1 else np.zeros_like(lead)
        ratio = np.divide(
            second, lead, out=np.ones_like(lead), where=lead > _ZERO_CUTOFF
        )
        worst = np.maximum(worst, ratio)
    return worst


def product_residual(fam: OperatorFamily, coeffs) -> float:
    """Scale-free product-ness of sum_j coeffs[j] * (member j).

    The worst sigma_2/sigma_1 of the combination's realignments over the
    cuts {p} | rest: zero for an exact product operator, 1.0 for a
    combination that vanishes.  A one-party family has no cut, so every
    combination counts as a product (0.0).
    """
    return float(_residuals(fam, _coefficient_vector(coeffs, fam.n_members)[None])[0])


def _unvectorize_rows(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Row-wise :func:`unvectorize` of a (R, rows*cols) stack."""
    rows, cols = shape
    return v.reshape(len(v), cols, rows).transpose(0, 2, 1)


def _row_norms(c: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (R, n) stack.

    Two dot products per row, as ``np.linalg.norm`` takes them for a single
    vector; ``norm(axis=1)`` rounds differently.
    """
    re, im = c.real, c.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def _peel(stack: np.ndarray, spec: PartySpec) -> list[np.ndarray]:
    """Leading-singular-vector peel of each operator in a (R, d_out, d_in) stack.

    Returns one (R, d_out(p), d_in(p)) factor stack per party; the scale of
    each operator ends up on its last factor.  Each party split costs one
    stacked SVD.
    """
    factors = []
    rest = stack
    for lead in range(spec.n_parties - 1):
        tail = range(lead + 1, spec.n_parties)
        a_out, a_in = spec.d_out(lead), spec.d_in(lead)
        b_out = int(np.prod([spec.d_out(p) for p in tail]))
        b_in = int(np.prod([spec.d_in(p) for p in tail]))
        r = realign_bipartite(rest, (a_out, a_in, b_out, b_in))
        # The thin SVD of a tall realignment has the same leading vectors
        # and a far smaller U; on a wide one it rounds differently.
        u, s, vh = np.linalg.svd(r, full_matrices=r.shape[1] <= r.shape[2])
        factors.append(_unvectorize_rows(vh[:, 0], (a_out, a_in)))
        rest = _unvectorize_rows(s[:, :1] * u[:, :, 0], (b_out, b_in))
    factors.append(rest)
    return factors


def recover_product(matrix, spec: PartySpec) -> ProductOperator:
    """Closest-product reconstruction by leading-singular-vector peeling.

    Splits off party after party, keeping the rank-1 part of each
    realignment.  Exact when the input is a product operator; otherwise a
    greedy rank-1 approximation whose quality is measured separately by
    :func:`product_residual`.  The overall scale ends up on the last factor.
    """
    m = as_matrix(matrix)
    if frobenius(m) <= _ZERO_CUTOFF:
        raise DegenerateInputError("cannot recover a product from the zero matrix")
    return ProductOperator(1.0, tuple(f[0] for f in _peel(m[None], spec)))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one product hunt."""

    found: bool
    coefficients: np.ndarray
    residual: float
    candidate: ProductOperator | None
    novel: bool
    restarts_used: int
    seed: int
    subset: tuple[int, ...]
    threshold: float

    def to_dict(self) -> dict:
        out = {
            "found": self.found,
            "residual": self.residual,
            "threshold": self.threshold,
            "seed": self.seed,
            "subset": list(self.subset),
            "restarts_used": self.restarts_used,
            "coefficients": complex_to_json(self.coefficients),
            "novel": self.novel,
            "candidate": None,
        }
        if self.candidate is not None:
            out["candidate"] = {
                "weight": complex_to_json(self.candidate.weight),
                "factors": [complex_to_json(f) for f in self.candidate.factors],
            }
        return out


def _screens(spec: PartySpec, full: np.ndarray, stacks, threshold: float) -> bool:
    """True when the subset's second-compound matrix W proves that the hunt
    objective reaches ``threshold`` on all of its feasible set.

    Let c be unit with every |c_j| >= f, P the number of cuts, R(c) the
    realignment across a cut, r the largest rank R can have and m = C(r, 2).
    Then sigma_1 sigma_2 >= |C_2 R(c)|_F / sqrt(m) and sigma_1 <= |R(c)|_F
    = |full @ c| <= sigma_max(full), while over the cuts together
    |W p(c)| >= sigma_min(W) |p(c)| (see ``_compound_gram``).  So the worst
    sigma_2 / sigma_1 is at least

        sigma_min(W) p_min / (sqrt(P m) sigma_max(full)^2),

    with p_min = sqrt(x (2 - x - f^2) / 2), x = (n - 1) f^2, the least
    |p(c)| on the feasible set.  ``_project`` clamps magnitudes to
    COEFFICIENT_FLOOR and then renormalizes, so f = COEFFICIENT_FLOOR / 2.
    ``_proves_gram_floor`` proves that the bound exceeds threshold + kappa
    (kappa = ``svd_error_scale`` of (rows, pairs) tops a computed residual's
    O(rows^2 eps) rounding), given the Gram's rounding kappa P |full|_F^4
    (``_compound_gram``) and sigma_max(full) raised by its SVD's error.
    ``rows`` counts the rows of the cut sides of ``spec`` before their thin
    QR, so that kappa covers the QR's rounding too.  False claims nothing:
    W deficient, one party, past MAX_MATRIX_ELEMENTS.
    """
    n = full.shape[1]
    pairs = n * (n - 1) // 2
    if not stacks or not 0 < pairs * pairs <= MAX_MATRIX_ELEMENTS:
        return False
    f = COEFFICIENT_FLOOR / 2
    x = (n - 1) * f * f
    p_min = np.sqrt(x * (2 - x - f * f) / 2)
    # Each cut holds one party's side and the rest's (P = 2: one cut).
    rows = max(max(s, len(full) // s) for s in (din * dout for din, dout in spec.parties))
    r = max(min(len(a_mat), len(b_mat), n) for a_mat, b_mat in stacks)
    kappa = svd_error_scale(max(rows, pairs), min(rows, pairs))
    kappa_full = svd_error_scale(max(full.shape), min(full.shape))
    norm = frobenius(full)
    sigma_max = np.linalg.svd(full, compute_uv=False)[0]
    sigma_max += kappa_full * norm * (1 + kappa_full)
    scale = np.sqrt(len(stacks) * r * (r - 1) / 2) * sigma_max**2
    needed = (threshold + kappa) * scale / p_min
    err = kappa * len(stacks) * norm**4
    return _proves_gram_floor(_compound_gram(stacks), needed**2, err)


def _project(c: np.ndarray) -> np.ndarray:
    """Each row scaled to unit norm with every magnitude at the floor or above."""
    nrm = _row_norms(c)
    vanished = nrm <= _ZERO_CUTOFF
    c = c / np.where(vanished, 1.0, nrm)[:, None]
    mags = np.abs(c)
    small = mags < COEFFICIENT_FLOOR
    fix = small.any(axis=1) & ~vanished
    if fix.any():
        phases = np.where(mags > _ZERO_CUTOFF, c / np.maximum(mags, _ZERO_CUTOFF), 1.0)
        c = np.where(small, COEFFICIENT_FLOOR * phases, c)
        c[fix] = c[fix] / _row_norms(c[fix])[:, None]
    c[vanished] = 1.0 / np.sqrt(c.shape[1])
    return c


def _start(ns: int, seed: int, r: int, init: np.ndarray | None) -> np.ndarray:
    """Restart r's unprojected start: ``init`` for restart 0 when given."""
    if r == 0 and init is not None:
        return init
    return complex_randn(np.random.default_rng([seed, r]), ns)


def _search(
    spec: PartySpec,
    full: np.ndarray,
    stacks,
    *,
    restarts: int,
    max_iters: int,
    seed: int,
    init: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """Lowest objective and its coefficients over the stacked ALS restarts.

    ``full`` holds the vectorized subset members as columns and ``stacks``
    their cut sides (``_unit_members``).  Ties go to the lower restart index.
    """
    d_out, d_in = spec.total_d_out, spec.total_d_in

    def refine(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best objective and coefficients of each restart started at a row of ``c``.

        All restarts iterate together; a restart leaves the stack when its
        combination vanishes or its objective moves by less than
        ``CONVERGENCE``, so each runs the iterations it would run alone.
        """
        best_obj = _worst_ratio(stacks, c)
        best_c = c.copy()
        prev = best_obj.copy()
        rows = np.arange(len(c))
        for _ in range(max_iters):
            # A stack of matrix-vector products rounds as full @ c does for
            # one vector; c @ full.T would not.
            s_vec = (full @ c[:, :, None])[:, :, 0]
            live = _row_norms(s_vec) > _ZERO_CUTOFF
            rows, s_vec = rows[live], s_vec[live]
            if rows.size == 0:
                break
            target = _kron_rows(
                _peel(_unvectorize_rows(s_vec, (d_out, d_in)), spec)
            )
            # Column k of the right-hand side is vectorize(target[k]).
            rhs = target.transpose(0, 2, 1).reshape(len(rows), -1).T
            c, *_ = np.linalg.lstsq(full, rhs, rcond=None)
            c = _project(c.T)
            obj = _worst_ratio(stacks, c)
            better = obj < best_obj[rows]
            best_obj[rows[better]] = obj[better]
            best_c[rows[better]] = c[better]
            moving = ~(np.abs(prev[rows] - obj) < CONVERGENCE)
            prev[rows] = obj
            rows, c = rows[moving], c[moving]
        return best_obj, best_c

    ns = full.shape[1]
    best_obj, best_c = np.inf, None
    for first in range(0, restarts, RESTART_BLOCK):
        block = range(first, min(first + RESTART_BLOCK, restarts))
        objs, coeffs = refine(_project(np.array([_start(ns, seed, r, init) for r in block])))
        k = int(np.argmin(objs))
        if best_c is None or objs[k] < best_obj:
            best_obj, best_c = float(objs[k]), coeffs[k].copy()
    return best_obj, best_c


def hunt_product(
    fam: OperatorFamily,
    subset=None,
    *,
    restarts: int = 64,
    max_iters: int = 500,
    threshold: float = PRODUCT_TOL,
    seed: int = 0,
    initial_coefficients=None,
) -> SearchResult:
    """Search a member subset for a product operator in its span.

    Minimizes, over unit-norm coefficient vectors of the subset's unit
    members (``_unit_members``) with every magnitude kept at or above
    ``COEFFICIENT_FLOOR``, the worst sigma_2/sigma_1 of the combination
    realigned across each cut {p} | rest.  ``threshold`` must lie strictly
    between 0 and 1, the range of the residual.

    The hunt first tries to prove that a lower bound of that objective
    over the whole feasible set reaches ``threshold``, rounding included
    (``_screens``; not when a member's product underflows to scale 0, as
    it then has no coefficient on the members as given).  Then no
    combination with every coefficient nonzero is a product: the hunt
    returns at once, not found, with ``restarts_used`` 0 and restart 0's
    projected start as the best coefficients.  The proof
    is one-sided: when it fails it proves nothing, and the search runs; a
    search that finds nothing is evidence, not proof, as the objective is
    nonconvex.  ``found``, ``novel`` and the residual's side of
    ``threshold`` are thus what the search would have given.

    ``initial_coefficients``, when given, replaces restart 0.  It and the
    reported unit-norm ``coefficients`` are on the members as given;
    ``residual`` is the latter's ``product_residual``, below ``threshold``
    exactly when ``found``.

    The subset's unit members enter as the columns of ``full`` and as the
    two ``unit_side`` matrices of each cut (``_unit_members``).  The search
    alternates between projecting the current combination to its nearest
    product (leading-singular-vector peeling) and re-fitting coefficients
    by least squares.  The restarts iterate together, up to
    ``RESTART_BLOCK`` at a time, with one stacked SVD per cut and one
    multi-right-hand-side least-squares solve per iteration; each restart
    still takes the steps it would take alone.

    The reported result is the minimum-residual restart, ties broken by
    restart index, so identical inputs reproduce bit for bit.  When the best
    coefficients converge pinned at the floor the hunt re-runs on the subset
    without the pinned members (they wanted to be zero, which the
    all-nonzero-coefficients requirement forbids).

    ``subset`` defaults to every member; fewer than two members is a
    ``UsageError``.  A stack of min(``restarts``, ``RESTART_BLOCK``)
    vectorized operators past the element budget is a ``SizeBudgetError``;
    both are raised before any side is built.
    """
    subset = fam.member_indices(range(fam.n_members) if subset is None else subset, minimum=2)
    if restarts < 1:
        raise UsageError("restarts must be at least 1")
    _check_elements(
        min(restarts, RESTART_BLOCK) * fam.spec.total_d_out * fam.spec.total_d_in,
        "the hunt's restart stack",
    )
    if max_iters < 1:
        raise UsageError("max_iters must be at least 1")
    if not (0 < threshold < 1):
        raise ParameterError(f"threshold must lie in (0, 1), got {threshold}")
    check_seed(seed)

    ns = len(subset)
    full, scales, stacks = _unit_members(fam.subfamily(subset))

    init = None
    if initial_coefficients is not None:
        init = _coefficient_vector(initial_coefficients, ns)
        if np.linalg.norm(init) <= _ZERO_CUTOFF:
            raise ParameterError("initial_coefficients must not be the zero vector")
        init = _rescaled(init[None], scales)[0]

    screened = bool(scales.all()) and _screens(fam.spec, full, stacks, threshold)
    if screened:
        best = _project(_start(ns, seed, 0, init)[None])[0]
    else:
        _, best = _search(
            fam.spec, full, stacks,
            restarts=restarts, max_iters=max_iters, seed=seed, init=init,
        )
    coefficients = _rescaled(best[None], scales, inverse=True)[0]
    residual = float(_worst_ratio(stacks, _rescaled(coefficients[None], scales))[0])
    found = residual < threshold
    candidate = None
    novel = False
    if found:
        shape = (fam.spec.total_d_out, fam.spec.total_d_in)
        candidate = recover_product(unvectorize(full @ (coefficients * scales), shape), fam.spec)
        cand = candidate.assemble()
        novel = all(
            proportional(cand, k, NOVELTY_TOL) is None for k in fam.assembled()
        )
        pinned = np.abs(best) <= 2.0 * COEFFICIENT_FLOOR
        if np.any(pinned) and ns - int(np.count_nonzero(pinned)) >= 2:
            reduced = tuple(subset[k] for k in range(ns) if not pinned[k])
            retried = hunt_product(
                fam,
                reduced,
                restarts=restarts,
                max_iters=max_iters,
                threshold=threshold,
                seed=seed,
            )
            if retried.found:
                return retried

    return SearchResult(
        found=found,
        coefficients=coefficients,
        residual=residual,
        candidate=candidate,
        novel=novel,
        restarts_used=0 if screened else restarts,
        seed=seed,
        subset=subset,
        threshold=threshold,
    )


def mixing_unitary(theta: float, phi: float) -> np.ndarray:
    """The 2x2 unitary [[cos t, e^{i p} sin t], [-e^{-i p} sin t, cos t]]."""
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [[ct, np.exp(1j * phi) * st], [-np.exp(-1j * phi) * st, ct]],
        dtype=np.complex128,
    )


def _member_pair(fam: OperatorFamily, pair) -> tuple[int, int]:
    idx = fam.member_indices(pair, minimum=2)
    if len(idx) != 2:
        raise UsageError(f"mixing needs a pair of member indices, got {idx}")
    return idx


@dataclass(frozen=True)
class MixingPoint:
    """A grid point at which both remixed operators are products."""

    theta: float
    phi: float
    unitary: np.ndarray
    residuals: tuple[float, float]


def mixing_search(fam: OperatorFamily, pair: tuple[int, int]) -> list[MixingPoint]:
    """Scan 2x2 unitary remixings of two members for all-product outcomes.

    Remixing members i and j by any unitary leaves the represented channel
    untouched; a grid point where both remixed operators are products (within
    ``PRODUCT_TOL`` in the sigma_2/sigma_1 sense, across every cut {p} | rest)
    therefore exhibits an alternative product representation of the same
    channel.  The grid is 17 angles in [0, pi/2] by 8 phases in [0, 2 pi).
    """
    i, j = _member_pair(fam, pair)

    # Row k of a remix unitary is the coefficient vector on members (i, j),
    # so the rows of all grid unitaries are scored by one objective call.
    grid = [
        (float(theta), float(phi))
        for theta in np.linspace(0.0, np.pi / 2, 17)
        for phi in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ]
    unitaries = [mixing_unitary(theta, phi) for theta, phi in grid]
    rows = np.array(unitaries, dtype=np.complex128).reshape(-1, 2)
    ratios = _residuals(fam.subfamily((i, j)), rows).reshape(-1, 2)
    return [
        MixingPoint(theta, phi, u, (float(ri), float(rj)))
        for (theta, phi), u, (ri, rj) in zip(grid, unitaries, ratios)
        if ri <= PRODUCT_TOL and rj <= PRODUCT_TOL
    ]


def apply_mixing(fam: OperatorFamily, pair: tuple[int, int], unitary) -> OperatorFamily:
    """Replace members i, j by their unitary remix, refactored into products.

    Raises if the remixed operators fail the product test — only grid points
    reported by :func:`mixing_search` (or unitaries known to work) make sense
    here.  The result represents the same channel as ``fam``.
    """
    i, j = _member_pair(fam, pair)
    u = as_matrix(unitary)
    if u.shape != (2, 2):
        raise ParameterError(f"mixing unitary must be 2x2, got {u.shape}")
    _check_unitary(u, "mixing matrix")
    ki = fam.members[i].assemble()
    kj = fam.members[j].assemble()
    residuals = _residuals(fam.subfamily((i, j)), u)
    new_members = list(fam.members)
    for idx, row, res in zip((i, j), u, residuals):
        if res > PRODUCT_TOL:
            raise ParameterError(
                f"remixed member {idx} is not a product operator "
                f"(residual {res:.3e} > {PRODUCT_TOL:.1e})"
            )
        new_members[idx] = recover_product(row[0] * ki + row[1] * kj, fam.spec)
    return OperatorFamily(fam.spec, tuple(new_members))


@dataclass(frozen=True)
class SpanBoundStats:
    """Tally from fuzzing the bipartite span bound.

    ``violations`` must be zero on every run — the bound is a theorem, so a
    nonzero count means the numerical rank thresholds misjudged an instance.
    """

    trials: int
    violations: int
    equality_hits: int
    delta_sum_histogram: dict[int, int]


def fuzz_span_bound(
    local_dims,
    n_members: int,
    trials: int,
    seed: int = 0,
) -> SpanBoundStats:
    """Fuzz delta_A + delta_B <= N + r_s on random product families.

    Each trial samples a family, an all-nonzero coefficient vector, and a
    split drawn uniformly from ``all_bipartitions``, a (side_a, side_b)
    pair that ``span_bound_report`` takes as is, then checks the bound.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    check_seed(seed)
    dims = tuple(int(d) for d in local_dims)
    splits = all_bipartitions(len(dims))
    if not splits:
        raise ParameterError(f"fuzz_span_bound needs at least two parties, got {len(dims)}")

    violations = 0
    equality_hits = 0
    histogram: dict[int, int] = {}

    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        fam = random_product_family(rng, dims, n_members)
        coeffs = random_nonzero_coefficients(rng, n_members)
        split = splits[int(rng.integers(len(splits)))]
        rep = span_bound_report(fam, coeffs, split)
        if not rep.holds:
            violations += 1
        if rep.equality:
            equality_hits += 1
        histogram[rep.delta_sum] = histogram.get(rep.delta_sum, 0) + 1

    return SpanBoundStats(
        trials=trials,
        violations=violations,
        equality_hits=equality_hits,
        delta_sum_histogram=histogram,
    )
