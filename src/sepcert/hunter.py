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
    vectorize,
    vectorized_columns,
)
from .sampling import (
    complex_randn,
    random_nonzero_coefficients,
    random_product_family,
    shared_factor_family,
)

_ZERO_CUTOFF = 1e-150


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


def _worst_ratio(stacks, c: np.ndarray) -> float:
    """Worst sigma_2/sigma_1 over the cuts of the combination ``c``.

    Zero for a product operator; 1.0 for a combination that vanishes.
    """
    worst = 0.0
    for a_mat, b_mat in stacks:
        r = (b_mat * c) @ a_mat.T
        sigma = np.linalg.svd(r, compute_uv=False)
        if sigma[0] <= _ZERO_CUTOFF:
            return 1.0
        if sigma.size > 1:
            worst = max(worst, float(sigma[1] / sigma[0]))
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
    return _worst_ratio(_split_stacks(fam, range(fam.n_members)), c)


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
    remaining = list(range(spec.n_parties))
    factors = []
    rest = m
    while len(remaining) > 1:
        lead, tail = remaining[0], remaining[1:]
        a_out, a_in = spec.d_out(lead), spec.d_in(lead)
        b_out = int(np.prod([spec.d_out(p) for p in tail]))
        b_in = int(np.prod([spec.d_in(p) for p in tail]))
        r = realign_bipartite(rest, (a_out, a_in, b_out, b_in))
        u, s, vh = np.linalg.svd(r)
        factors.append(unvectorize(vh[0], (a_out, a_in)))
        rest = unvectorize(s[0] * u[:, 0], (b_out, b_in))
        remaining = tail
    factors.append(rest)
    return ProductOperator(1.0, tuple(factors))


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
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coefficients],
            "novel": self.novel,
            "candidate": None,
        }
        if self.candidate is not None:
            out["candidate"] = {
                "weight": [
                    float(self.candidate.weight.real),
                    float(self.candidate.weight.imag),
                ],
                "factors": [
                    [[[float(z.real), float(z.imag)] for z in row] for row in f]
                    for f in self.candidate.factors
                ],
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
    coefficient_floor: float = 1e-6,
    convergence: float = 1e-12,
    novelty_tol: float = 1e-6,
) -> SearchResult:
    """Search a member subset for a product operator in its span.

    Minimizes, over unit-norm coefficient vectors with every magnitude kept
    at or above ``coefficient_floor``, the worst sigma_2/sigma_1 of the
    combination realigned across each cut {p} | rest.  Local refinement
    alternates between projecting the current combination to its nearest
    product (leading-singular-vector peeling) and re-fitting coefficients by
    least squares.  ``initial_coefficients``, when given, replaces restart 0.

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
    if not (0 < coefficient_floor < 0.5):
        raise ParameterError(f"coefficient_floor out of range: {coefficient_floor}")

    ns = len(subset)
    d_out, d_in = fam.spec.total_d_out, fam.spec.total_d_in
    full = vectorized_columns(fam.members[i].assemble() for i in subset)
    stacks = _split_stacks(fam, subset)

    def project(c: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(c)
        if nrm <= _ZERO_CUTOFF:
            return np.full(ns, 1.0 / np.sqrt(ns), dtype=np.complex128)
        c = c / nrm
        mags = np.abs(c)
        small = mags < coefficient_floor
        if np.any(small):
            phases = np.where(mags > _ZERO_CUTOFF, c / np.maximum(mags, _ZERO_CUTOFF), 1.0)
            c = np.where(small, coefficient_floor * phases, c)
            c = c / np.linalg.norm(c)
        return c

    def refine(c: np.ndarray) -> tuple[float, np.ndarray]:
        best_obj = _worst_ratio(stacks, c)
        best_c = c
        prev = best_obj
        for _ in range(max_iters):
            s_vec = full @ c
            s_norm = np.linalg.norm(s_vec)
            if s_norm <= _ZERO_CUTOFF:
                break
            target = recover_product(
                unvectorize(s_vec, (d_out, d_in)), fam.spec
            ).assemble()
            c, *_ = np.linalg.lstsq(full, vectorize(target).ravel(), rcond=None)
            c = project(c)
            obj = _worst_ratio(stacks, c)
            if obj < best_obj:
                best_obj, best_c = obj, c
            if abs(prev - obj) < convergence:
                break
            prev = obj
        return best_obj, best_c

    if initial_coefficients is not None:
        init = np.asarray(initial_coefficients, dtype=np.complex128).reshape(-1)
        if init.size != ns:
            raise UsageError(
                f"initial_coefficients has length {init.size}, subset has {ns}"
            )
        if np.linalg.norm(init) <= _ZERO_CUTOFF:
            raise ParameterError("initial_coefficients must not be the zero vector")

    def run_restart(r: int) -> tuple[float, np.ndarray]:
        if r == 0 and initial_coefficients is not None:
            c0 = project(init.copy())
        else:
            rng = np.random.default_rng([seed, r])
            c0 = project(complex_randn(rng, ns))
        return refine(c0)

    results = [run_restart(r) for r in range(restarts)]
    best_obj, best_c = results[0]
    for obj, c in results[1:]:
        if obj < best_obj:
            best_obj, best_c = obj, c

    found = best_obj < threshold
    candidate = None
    novel = False
    if found:
        candidate = recover_product(
            unvectorize(full @ best_c, (d_out, d_in)), fam.spec
        )
        cand = candidate.assemble()
        novel = all(
            proportional(cand, k, novelty_tol) is None for k in fam.assembled()
        )
        pinned = np.abs(best_c) <= 2.0 * coefficient_floor
        if np.any(pinned) and ns - int(np.count_nonzero(pinned)) >= 2:
            reduced = tuple(subset[k] for k in range(ns) if not pinned[k])
            retried = hunt_product(
                fam,
                reduced,
                restarts=restarts,
                max_iters=max_iters,
                threshold=threshold,
                seed=seed,
                coefficient_floor=coefficient_floor,
                convergence=convergence,
                novelty_tol=novelty_tol,
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


def mixing_search(
    fam: OperatorFamily,
    pair: tuple[int, int],
    angles=None,
    phases=None,
    tol: float = 1e-8,
) -> list[MixingPoint]:
    """Scan 2x2 unitary remixings of two members for all-product outcomes.

    Remixing members i and j by any unitary leaves the represented channel
    untouched; a grid point where both remixed operators are products (within
    ``tol`` in the sigma_2/sigma_1 sense, across every cut {p} | rest)
    therefore exhibits an alternative product representation of the same
    channel.
    """
    i, j = _member_pair(fam, pair)
    if angles is None:
        angles = np.linspace(0.0, np.pi / 2, 17)
    if phases is None:
        phases = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)

    # Row k of a remix unitary is the coefficient vector on members (i, j).
    stacks = _split_stacks(fam, (i, j))
    hits = []
    for theta in np.atleast_1d(angles):
        for phi in np.atleast_1d(phases):
            u = mixing_unitary(float(theta), float(phi))
            ri = _worst_ratio(stacks, u[0])
            rj = _worst_ratio(stacks, u[1])
            if ri <= tol and rj <= tol:
                hits.append(MixingPoint(float(theta), float(phi), u, (ri, rj)))
    return hits


def apply_mixing(
    fam: OperatorFamily,
    pair: tuple[int, int],
    unitary,
    tol: float = 1e-8,
) -> OperatorFamily:
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
    stacks = _split_stacks(fam, (i, j))
    new_members = list(fam.members)
    for idx, row in zip((i, j), u):
        res = _worst_ratio(stacks, row)
        if res > tol:
            raise ParameterError(
                f"remixed member {idx} is not a product operator "
                f"(residual {res:.3e} > {tol:.1e})"
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
    injected: int
    conjecture_checked: int
    conjecture_violations: int


def fuzz_span_bound(
    local_dims,
    n_members: int,
    trials: int,
    seed: int = 0,
    inject_every: int = 0,
    inject=None,
    conjecture_probe_every: int = 0,
) -> SpanBoundStats:
    """Fuzz delta_A + delta_B <= N + r_s on random product families.

    Each trial samples a family, an all-nonzero coefficient vector, and a
    random bipartition, then checks the bound.  ``inject`` (with
    ``inject_every``) splices planted (family, coefficients) instances into
    the stream; ``conjecture_probe_every`` splices single-varying-party
    independent families to track the conjectured per-party sum bound.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    dims = tuple(int(d) for d in local_dims)
    n_parties = len(dims)

    violations = 0
    equality_hits = 0
    injected = 0
    conjecture_checked = 0
    conjecture_violations = 0
    histogram: dict[int, int] = {}

    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        probe = False
        if inject is not None and inject_every > 0 and t % inject_every == inject_every - 1:
            fam, coeffs = inject(rng)
            injected += 1
        elif conjecture_probe_every > 0 and t % conjecture_probe_every == 0:
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
        injected=injected,
        conjecture_checked=conjecture_checked,
        conjecture_violations=conjecture_violations,
    )
