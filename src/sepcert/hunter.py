"""Numerical falsifiers: hunt for product operators hiding in spans.

The certifier proves uniqueness; this module attacks it.  ``hunt_product``
searches a member subset for coefficients (all bounded away from zero) whose
linear combination is a product operator: a product across each cut
{p} | rest of one party from the others.
``mixing_search`` scans two-member isometric remixings, which by construction
preserve the represented channel.  ``fuzz_span_bound`` hammers the bipartite
span inequality with random and planted instances.

A hunt that finds nothing is evidence, not proof: the objective is nonconvex
and the search is restarted, not certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError, UsageError
from .families import (
    OperatorFamily,
    PartySpec,
    ProductOperator,
    all_bipartitions,
    span_bound_report,
)
from .linalg import (
    as_matrix,
    frobenius,
    proportional,
    realign_bipartite,
    unvectorize,
    vectorized_columns,
)
from .sampling import (
    check_seed,
    complex_randn,
    random_nonzero_coefficients,
    random_product_family,
    shared_factor_family,
)
from .serialize import complex_to_json, matrix_to_json

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

#: Both remixed operators of a mixing pass as products at residual <= this.
MIXING_TOL = 1e-8


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


def _split_stacks(fam: OperatorFamily, subset) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per product cut, the weighted side-A and the side-B matrices of ``subset``.

    Column k of each holds member ``subset[k]``; a combination with
    coefficients c realigns across the cut to (B * c) @ A^T.
    """
    cols = list(subset)
    return [
        (
            fam.side_matrix(side_a, include_weight=True)[:, cols],
            fam.side_matrix(side_b)[:, cols],
        )
        for side_a, side_b in _product_cuts(fam.n_parties)
    ]


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
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != fam.n_members:
        raise ShapeError(f"got {c.size} coefficients for {fam.n_members} members")
    return float(_worst_ratio(_split_stacks(fam, range(fam.n_members)), c[None])[0])


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


def _assemble_rows(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of per-party (R, rows, cols) factor stacks."""
    out = factors[0]
    for f in factors[1:]:
        (n, ra, ca), (_, rb, cb) = out.shape, f.shape
        out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(
            n, ra * rb, ca * cb
        )
    return out


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
            "coefficients": [complex_to_json(c) for c in self.coefficients],
            "novel": self.novel,
            "candidate": None,
        }
        if self.candidate is not None:
            out["candidate"] = {
                "weight": complex_to_json(self.candidate.weight),
                "factors": [matrix_to_json(f) for f in self.candidate.factors],
            }
        return out


def hunt_product(
    fam: OperatorFamily,
    subset=None,
    *,
    restarts: int = 64,
    max_iters: int = 500,
    threshold: float = 1e-8,
    seed: int = 0,
    initial_coefficients=None,
) -> SearchResult:
    """Search a member subset for a product operator in its span.

    Minimizes, over unit-norm coefficient vectors with every magnitude kept
    at or above ``COEFFICIENT_FLOOR``, the worst sigma_2/sigma_1 of the
    combination realigned across each cut {p} | rest.  Local refinement
    alternates between projecting the current combination to its nearest
    product (leading-singular-vector peeling) and re-fitting coefficients by
    least squares.  ``initial_coefficients``, when given, replaces restart 0.
    The restarts iterate together, up to ``RESTART_BLOCK`` at a time, with
    one stacked SVD per cut and one multi-right-hand-side least-squares
    solve per iteration; each restart still takes the steps it would take
    alone.  ``threshold`` must lie strictly between 0 and 1, the range of
    the residual.

    The reported result is the minimum-residual restart, ties broken by
    restart index, so identical inputs reproduce bit for bit.  When the best
    coefficients converge pinned at the floor the hunt re-runs on the subset
    without the pinned members (they wanted to be zero, which the
    all-nonzero-coefficients requirement forbids).
    """
    if subset is None:
        subset = tuple(range(fam.n_members))
    else:
        subset = fam.member_indices(subset, minimum=2)
    if restarts < 1:
        raise UsageError("restarts must be at least 1")
    if max_iters < 1:
        raise UsageError("max_iters must be at least 1")
    if not (0 < threshold < 1):
        raise ParameterError(f"threshold must lie in (0, 1), got {threshold}")
    check_seed(seed)

    ns = len(subset)
    d_out, d_in = fam.spec.total_d_out, fam.spec.total_d_in
    full = vectorized_columns(fam.members[i].assemble() for i in subset)
    stacks = _split_stacks(fam, subset)

    def project(c: np.ndarray) -> np.ndarray:
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
        c[vanished] = 1.0 / np.sqrt(ns)
        return c

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
            target = _assemble_rows(
                _peel(_unvectorize_rows(s_vec, (d_out, d_in)), fam.spec)
            )
            # Column k of the right-hand side is vectorize(target[k]).
            rhs = target.transpose(0, 2, 1).reshape(len(rows), -1).T
            c, *_ = np.linalg.lstsq(full, rhs, rcond=None)
            c = project(c.T)
            obj = _worst_ratio(stacks, c)
            better = obj < best_obj[rows]
            best_obj[rows[better]] = obj[better]
            best_c[rows[better]] = c[better]
            moving = ~(np.abs(prev[rows] - obj) < CONVERGENCE)
            prev[rows] = obj
            rows, c = rows[moving], c[moving]
        return best_obj, best_c

    if initial_coefficients is not None:
        init = np.asarray(initial_coefficients, dtype=np.complex128).reshape(-1)
        if init.size != ns:
            raise UsageError(
                f"initial_coefficients has length {init.size}, subset has {ns}"
            )
        if np.linalg.norm(init) <= _ZERO_CUTOFF:
            raise ParameterError("initial_coefficients must not be the zero vector")

    def start(r: int) -> np.ndarray:
        if r == 0 and initial_coefficients is not None:
            return init
        return complex_randn(np.random.default_rng([seed, r]), ns)

    best_obj, best_c = np.inf, None
    for first in range(0, restarts, RESTART_BLOCK):
        block = range(first, min(first + RESTART_BLOCK, restarts))
        objs, coeffs = refine(project(np.array([start(r) for r in block])))
        k = int(np.argmin(objs))
        if best_c is None or objs[k] < best_obj:
            best_obj, best_c = float(objs[k]), coeffs[k].copy()

    found = best_obj < threshold
    candidate = None
    novel = False
    if found:
        candidate = recover_product(
            unvectorize(full @ best_c, (d_out, d_in)), fam.spec
        )
        cand = candidate.assemble()
        novel = all(
            proportional(cand, k, NOVELTY_TOL) is None for k in fam.assembled()
        )
        pinned = np.abs(best_c) <= 2.0 * COEFFICIENT_FLOOR
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
        coefficients=best_c,
        residual=best_obj,
        candidate=candidate,
        novel=novel,
        restarts_used=restarts,
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
    ``MIXING_TOL`` in the sigma_2/sigma_1 sense, across every cut {p} | rest)
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
    ratios = _worst_ratio(_split_stacks(fam, (i, j)), rows).reshape(-1, 2)
    return [
        MixingPoint(theta, phi, u, (float(ri), float(rj)))
        for (theta, phi), u, (ri, rj) in zip(grid, unitaries, ratios)
        if ri <= MIXING_TOL and rj <= MIXING_TOL
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
    if frobenius(u.conj().T @ u - np.eye(2)) > 1e-10:
        raise ParameterError("mixing matrix is not unitary")
    ki = fam.members[i].assemble()
    kj = fam.members[j].assemble()
    residuals = _worst_ratio(_split_stacks(fam, (i, j)), u)
    new_members = list(fam.members)
    for idx, row, res in zip((i, j), u, residuals):
        if res > MIXING_TOL:
            raise ParameterError(
                f"remixed member {idx} is not a product operator "
                f"(residual {res:.3e} > {MIXING_TOL:.1e})"
            )
        new_members[idx] = recover_product(row[0] * ki + row[1] * kj, fam.spec)
    return OperatorFamily(fam.spec, tuple(new_members))


@dataclass(frozen=True)
class SpanBoundStats:
    """Tally from fuzzing the bipartite span bound.

    ``violations`` must be zero on every run — the bound is a theorem, so a
    nonzero count means the numerical rank thresholds misjudged an instance.
    The conjectured sum bound (every party's span dimensions adding to at
    most N + P - 1) is tallied only on probe trials that are linearly
    independent by construction and admit a product combination; it is
    reported, never asserted.
    """

    trials: int
    violations: int
    equality_hits: int
    delta_sum_histogram: dict[int, int]
    conjecture_checked: int
    conjecture_violations: int


def fuzz_span_bound(
    local_dims,
    n_members: int,
    trials: int,
    seed: int = 0,
    conjecture_probe_every: int = 0,
) -> SpanBoundStats:
    """Fuzz delta_A + delta_B <= N + r_s on random product families.

    Each trial samples a family, an all-nonzero coefficient vector, and a
    random bipartition, then checks the bound.  ``conjecture_probe_every``
    splices single-varying-party independent families into the stream to
    track the conjectured per-party sum bound.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    check_seed(seed)
    dims = tuple(int(d) for d in local_dims)
    n_parties = len(dims)

    violations = 0
    equality_hits = 0
    conjecture_checked = 0
    conjecture_violations = 0
    histogram: dict[int, int] = {}

    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        probe = False
        if conjecture_probe_every > 0 and t % conjecture_probe_every == 0:
            count = min(n_members, min(dims) ** 2)
            fam = shared_factor_family(
                rng, n_parties, int(rng.integers(n_parties)), count, min(dims)
            )
            coeffs = random_nonzero_coefficients(rng, fam.n_members)
            probe = True
        else:
            fam = random_product_family(rng, dims, n_members)
            coeffs = random_nonzero_coefficients(rng, n_members)

        splits = all_bipartitions(fam.n_parties)
        split = splits[int(rng.integers(len(splits)))]
        rep = span_bound_report(fam, coeffs, split)
        if not rep.holds:
            violations += 1
        if rep.equality:
            equality_hits += 1
        histogram[rep.delta_sum] = histogram.get(rep.delta_sum, 0) + 1

        if probe:
            sum_local = sum(fam.span_dim((p,)) for p in range(fam.n_parties))
            conjecture_checked += 1
            if sum_local > fam.n_members + fam.n_parties - 1:
                conjecture_violations += 1

    return SpanBoundStats(
        trials=trials,
        violations=violations,
        equality_hits=equality_hits,
        delta_sum_histogram=histogram,
        conjecture_checked=conjecture_checked,
        conjecture_violations=conjecture_violations,
    )
