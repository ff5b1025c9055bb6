"""Alternative-family search: coefficient hunts, mixing scans, fuzzing."""

import itertools
import json

import numpy as np
import pytest

from sepcert.errors import DegenerateInputError, ParameterError, ShapeError, UsageError
from sepcert.families import (
    OperatorFamily,
    PartySpec,
    ProductOperator,
    all_bipartitions,
    span_bound_report,
)
from sepcert.hunter import (
    COEFFICIENT_FLOOR,
    RESTART_BLOCK,
    _product_cuts,
    _project,
    _screens,
    _search,
    _split_stacks,
    _worst_ratio,
    apply_mixing,
    fuzz_span_bound,
    hunt_product,
    mixing_search,
    mixing_unitary,
    product_residual,
    recover_product,
)
from sepcert.linalg import (
    UNITARY_TOL,
    _compound_gram,
    _proves_gram_floor,
    proportional,
    realign_bipartite,
    schmidt_rank,
    unvectorize,
    vectorize,
    vectorized_columns,
)
from sepcert.sampling import (
    complex_randn,
    haar_unitary,
    planted_dependent_family,
    random_nonzero_coefficients,
    random_product_family,
)
from sepcert.serialize import matrix_from_json
from sepcert.zoo import (
    augment_channel,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
    gen_tight_family,
    heisenberg_weyl_unitaries,
)

E00 = np.diag([1.0, 0.0])


def crand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# hunt_product


def test_hunt_finds_alternative_in_degenerate_pair():
    # Members |00><00| and |01><01| share the left factor, so any mix of the
    # two is itself a product operator the family does not contain.
    fam = gen_projective_basis(2, 2)
    result = hunt_product(fam, subset=(0, 1), seed=0)
    assert result.found
    assert result.novel
    assert result.residual <= 1e-10
    assert result.candidate is not None
    # Left factor must stay pinned to |0><0|.
    assert proportional(result.candidate.factors[0], E00) is not None
    # Soundness: the assembled candidate really is a product operator.
    assembled = result.candidate.assemble()
    assert schmidt_rank(assembled, (2, 2, 2, 2)) == 1
    # ...and it really is the claimed combination of the subset members.
    target = sum(
        c * fam.members[i].assemble() for c, i in zip(result.coefficients, (0, 1))
    )
    np.testing.assert_allclose(assembled, target, atol=1e-9)


def test_hunt_fails_on_independent_pair():
    # |01><01| and |10><10| only combine to a product when one coefficient
    # vanishes, which the hunt's coefficient floor forbids.
    fam = gen_projective_basis(2, 2)
    result = hunt_product(fam, subset=(1, 2), seed=0)
    assert not result.found
    assert result.residual > 1e-8


def test_hunt_fails_on_ladder_channel():
    fam = gen_ladder_channel(0.5)
    result = hunt_product(fam, seed=7)
    assert not result.found
    # The compound bound proves the ladder holds no product: no restart runs.
    assert result.restarts_used == 0
    for subset in [(0, 1), (0, 2), (1, 2)]:
        assert not hunt_product(fam, subset=subset, seed=7).found


def test_hunt_seeded_with_known_combination():
    fam, coeffs = gen_tight_family(2, seed=0)
    result = hunt_product(fam, initial_coefficients=coeffs, seed=0)
    assert result.found
    assert result.residual < 1e-10
    # The planted combination reproduces member 0, so it is not novel.
    assert not result.novel
    assembled = result.candidate.assemble()
    assert proportional(assembled, fam.members[0].assemble()) is not None


def test_hunt_is_deterministic():
    fam = gen_projective_basis(2, 2)
    a = hunt_product(fam, subset=(0, 1), seed=3)
    b = hunt_product(fam, subset=(0, 1), seed=3)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.residual == b.residual


def test_hunt_result_dict():
    fam = gen_projective_basis(2, 2)
    d = hunt_product(fam, subset=(0, 1), seed=0).to_dict()
    assert d["found"] is True
    assert d["subset"] == [0, 1]
    assert isinstance(d["coefficients"][0], list)  # [re, im] pairs
    assert "residual" in d and "restarts_used" in d


@pytest.mark.parametrize(
    "fam,subset,found",
    [(gen_projective_basis(2, 2), (0, 1), True), (gen_ladder_channel(0.5), None, False)],
    ids=["projective-22-pair", "ladder"],
)
def test_hunt_report_round_trips_exactly(fam, subset, found):
    result = hunt_product(fam, subset, restarts=8, seed=0)
    d = json.loads(json.dumps(result.to_dict()))
    assert d["found"] is found
    coeffs = np.array([complex(re, im) for re, im in d["coefficients"]])
    assert np.array_equal(coeffs, result.coefficients)
    if not found:
        assert result.candidate is None and d["candidate"] is None
        return
    assert np.array_equal(complex(*d["candidate"]["weight"]), result.candidate.weight)
    factors = d["candidate"]["factors"]
    assert len(factors) == len(result.candidate.factors)
    for got, want in zip(factors, result.candidate.factors):
        assert np.array_equal(matrix_from_json(got, "factor"), want)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hunt_product(gen_ladder_channel(0.5), seed=-1),
        lambda: gen_tight_family(2, seed=-1),
        lambda: fuzz_span_bound((2, 2), 3, 2, seed=-1),
    ],
    ids=["hunt_product", "gen_tight_family", "fuzz_span_bound"],
)
def test_negative_seed_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="nonnegative"):
        call()


def test_hunt_argument_validation():
    fam = gen_projective_basis(2, 2)
    with pytest.raises(UsageError):
        hunt_product(fam, restarts=0)
    with pytest.raises(UsageError):
        hunt_product(fam, max_iters=0)
    with pytest.raises(UsageError):
        hunt_product(fam, subset=(0,))
    with pytest.raises(UsageError):
        hunt_product(fam, subset=(0, 0))
    with pytest.raises(UsageError):
        hunt_product(fam, subset=(0, 9))
    with pytest.raises(ParameterError):
        hunt_product(fam, subset=(0, 1), initial_coefficients=[0.0, 0.0])
    with pytest.raises(ShapeError):
        hunt_product(fam, subset=(0, 1), initial_coefficients=[1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "coeffs",
    [[np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [np.inf, 0, 0, 0], [1, 1, complex(0, np.nan), 1]],
    ids=["nan", "inf", "inf-zeros", "nan-imag"],
)
def test_non_finite_coefficients_are_rejected(coeffs):
    # Unchecked, they reach LAPACK, which fails with "SVD did not converge".
    fam = gen_projective_basis(2, 2)
    with pytest.raises(ParameterError, match="finite"):
        product_residual(fam, coeffs)
    with pytest.raises(ParameterError, match="finite"):
        hunt_product(fam, restarts=1, initial_coefficients=coeffs)
    with pytest.raises(ParameterError, match="finite"):
        span_bound_report(fam, coeffs)


# ---------------------------------------------------------------------------
# serial reference: one restart at a time, one vector per call


def reference_ratio(stacks, c):
    worst = 0.0
    for a_mat, b_mat in stacks:
        sigma = np.linalg.svd((b_mat * c) @ a_mat.T, compute_uv=False)
        if sigma[0] <= 1e-150:
            return 1.0
        if sigma.size > 1:
            worst = max(worst, float(sigma[1] / sigma[0]))
    return worst


def reference_peel(m, spec):
    remaining = list(range(spec.n_parties))
    factors = []
    rest = m
    while len(remaining) > 1:
        lead, tail = remaining[0], remaining[1:]
        a_out, a_in = spec.d_out(lead), spec.d_in(lead)
        b_out = int(np.prod([spec.d_out(p) for p in tail]))
        b_in = int(np.prod([spec.d_in(p) for p in tail]))
        u, s, vh = np.linalg.svd(realign_bipartite(rest, (a_out, a_in, b_out, b_in)))
        factors.append(unvectorize(vh[0], (a_out, a_in)))
        rest = unvectorize(s[0] * u[:, 0], (b_out, b_in))
        remaining = tail
    factors.append(rest)
    return ProductOperator(1.0, tuple(factors))


def reference_search(fam, subset, restarts, max_iters, seed, init=None,
                     floor=1e-6, convergence=1e-12):
    """Best (objective, coefficients) over restarts, each run alone."""
    ns = len(subset)
    full = vectorized_columns(fam.members[i].assemble() for i in subset)
    stacks = _split_stacks(fam, subset)
    shape = (fam.spec.total_d_out, fam.spec.total_d_in)

    def project(c):
        nrm = np.linalg.norm(c)
        if nrm <= 1e-150:
            return np.full(ns, 1.0 / np.sqrt(ns), dtype=np.complex128)
        c = c / nrm
        mags = np.abs(c)
        small = mags < floor
        if np.any(small):
            phases = np.where(mags > 1e-150, c / np.maximum(mags, 1e-150), 1.0)
            c = np.where(small, floor * phases, c)
            c = c / np.linalg.norm(c)
        return c

    best = None
    for r in range(restarts):
        if r == 0 and init is not None:
            c = project(np.asarray(init, dtype=np.complex128))
        else:
            c = project(complex_randn(np.random.default_rng([seed, r]), ns))
        obj_best, c_best = reference_ratio(stacks, c), c
        prev = obj_best
        for _ in range(max_iters):
            s_vec = full @ c
            if np.linalg.norm(s_vec) <= 1e-150:
                break
            target = reference_peel(unvectorize(s_vec, shape), fam.spec).assemble()
            c, *_ = np.linalg.lstsq(full, vectorize(target).ravel(), rcond=None)
            c = project(c)
            obj = reference_ratio(stacks, c)
            if obj < obj_best:
                obj_best, c_best = obj, c
            if abs(prev - obj) < convergence:
                break
            prev = obj
        if best is None or obj_best < best[0]:
            best = (obj_best, c_best)
    return best


def reference_hunt(fam, subset, restarts=64, max_iters=500, seed=0, init=None,
                   threshold=1e-8, floor=1e-6):
    """(subset, objective, coefficients) as hunt_product reports them."""
    obj, c = reference_search(fam, subset, restarts, max_iters, seed, init, floor)
    pinned = np.abs(c) <= 2.0 * floor
    if obj < threshold and pinned.any() and np.count_nonzero(~pinned) >= 2:
        reduced = tuple(i for i, p in zip(subset, pinned) if not p)
        retried = reference_hunt(fam, reduced, restarts, max_iters, seed,
                                 threshold=threshold, floor=floor)
        if retried[1] < threshold:
            return retried
    return subset, obj, c


def _tight_four_party():
    return gen_tight_family(1, seed=0, n_parties=4)[0]


def _random_222():
    return random_product_family(np.random.default_rng([99, 0]), (2, 2, 2), 6)


def _random_32():
    # Party 0 is the larger one, so the peel's realignment is wide.
    return random_product_family(np.random.default_rng([7, 2, 3]), (3, 2), 5)


@pytest.mark.parametrize(
    "make, kwargs, screened",
    [
        (lambda: gen_tight_family(2, seed=0)[0],
         dict(seed=1, initial_coefficients=gen_tight_family(2, seed=0)[1]), False),
        (_tight_four_party, dict(seed=0, restarts=20), False),
        (lambda: gen_projective_basis(3, 3),
         dict(subset=(0, 1, 5), seed=0, restarts=16, threshold=1e-5), False),
        (lambda: gen_ladder_channel(0.5), dict(seed=7), True),
        (_random_222, dict(seed=0, restarts=20, max_iters=3), True),
        (_random_32, dict(seed=1, restarts=12), True),
        (lambda: gen_ladder_channel(0.5), dict(seed=2, restarts=RESTART_BLOCK + 1), True),
        # One party has no cut: every combination is a product, and the
        # screen, with no side Gram to build from, proves nothing.
        (lambda: random_product_family(np.random.default_rng(0), (3,), 4),
         dict(seed=0, restarts=5), False),
    ],
    ids=[
        "tight-n2-init", "tight-n1-4p", "projective-33", "ladder", "random-222",
        "random-32", "ladder-65", "one-party",
    ],
)
def test_stacked_restarts_match_the_serial_loop(make, kwargs, screened):
    fam = make()
    subset = kwargs.get("subset", tuple(range(fam.n_members)))
    restarts = kwargs.get("restarts", 64)
    max_iters = kwargs.get("max_iters", 500)
    init = kwargs.get("initial_coefficients")
    threshold = kwargs.get("threshold", 1e-8)
    full = vectorized_columns(fam.members[i].assemble() for i in subset)
    stacks = _split_stacks(fam, subset)
    assert _screens(stacks, full, threshold) is screened
    if screened:
        # hunt_product returns before its search here, so the search itself
        # is compared with the serial loop.
        obj, c = _search(fam.spec, full, stacks, restarts=restarts,
                         max_iters=max_iters, seed=kwargs["seed"], init=init)
        ref_obj, ref_c = reference_search(fam, subset, restarts, max_iters,
                                          kwargs["seed"], init)
        assert obj == ref_obj
        assert np.array_equal(c, ref_c)
        return
    result = hunt_product(fam, **kwargs)
    assert result.restarts_used == restarts
    if fam.n_parties == 1:
        assert result.found and result.residual == 0.0
    subset, obj, c = reference_hunt(
        fam, subset, restarts=restarts, max_iters=max_iters, seed=kwargs["seed"],
        init=init, threshold=threshold,
    )
    assert result.subset == subset
    assert result.residual == obj
    assert np.array_equal(result.coefficients, c)
    assert result.found == (obj < threshold)
    if result.found:
        full = vectorized_columns(fam.members[i].assemble() for i in subset)
        shape = (fam.spec.total_d_out, fam.spec.total_d_in)
        expected = reference_peel(unvectorize(full @ c, shape), fam.spec)
        for got, want in zip(result.candidate.factors, expected.factors):
            assert np.array_equal(got, want)


def test_projective_33_hunt_reruns_without_pinned_members():
    # |00><00| and |01><01| share a left factor; |12><12| shares none, so the
    # best combination pins it at the floor (residual ~1e-6, accepted at
    # 1e-5) and the re-hunt drops it.
    fam = gen_projective_basis(3, 3)
    result = hunt_product(fam, subset=(0, 1, 5), seed=0, restarts=16, threshold=1e-5)
    assert result.found and result.novel
    assert result.subset == (0, 1)
    assert result.residual < 1e-10


def test_vanishing_start_stops_at_once():
    # With member 0 twice, the start (1, -1) combines to the zero operator:
    # that restart keeps its start and the objective of a vanishing
    # combination, while the other restarts still search.
    proj = gen_projective_basis(2, 2)
    twin = OperatorFamily(proj.spec, (proj.members[0], proj.members[0], proj.members[1]))
    alone = hunt_product(twin, subset=(0, 1), initial_coefficients=[1.0, -1.0], restarts=1)
    assert not alone.found
    assert alone.residual == 1.0
    np.testing.assert_allclose(alone.coefficients, [2**-0.5, -(2**-0.5)], atol=0)
    for kwargs in [dict(subset=(0, 1), restarts=3), dict(restarts=RESTART_BLOCK + 6)]:
        subset = kwargs.get("subset", (0, 1, 2))
        init = [1.0, -1.0, 0.0][: len(subset)]
        result = hunt_product(twin, initial_coefficients=init, seed=0, **kwargs)
        subset_ref, obj, c = reference_hunt(
            twin, subset, restarts=kwargs["restarts"], seed=0, init=init
        )
        assert (result.subset, result.residual) == (subset_ref, obj)
        assert np.array_equal(result.coefficients, c)


def test_restart_blocks_do_not_change_the_result(monkeypatch):
    fam = gen_projective_basis(2, 2)
    whole = hunt_product(fam, subset=(1, 2), seed=5, restarts=10)
    monkeypatch.setattr("sepcert.hunter.RESTART_BLOCK", 3)
    split = hunt_product(fam, subset=(1, 2), seed=5, restarts=10)
    assert split.to_dict() == whole.to_dict()


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.0, float("nan"), float("inf")])
def test_hunt_rejects_thresholds_outside_the_unit_interval(threshold):
    fam = gen_projective_basis(2, 2)
    with pytest.raises(ParameterError):
        hunt_product(fam, subset=(0, 1), threshold=threshold)


# ---------------------------------------------------------------------------
# compound screen


def _hunt_inputs(fam, subset=None):
    """The vectorized members and cut stacks hunt_product builds for ``subset``."""
    subset = tuple(range(fam.n_members)) if subset is None else subset
    full = vectorized_columns(fam.members[i].assemble() for i in subset)
    return full, _split_stacks(fam, subset)


def _unique_catalog():
    """The Unique families of the acceptance tests' hunter gate."""
    rng = np.random.default_rng(7)
    unitaries = [[haar_unitary(rng, 2) for _ in range(3)] for _ in range(2)]
    hw = list(heisenberg_weyl_unitaries(2))
    return {
        "ladder-half": gen_ladder_channel(0.5),
        "ladder-complex": gen_ladder_channel(0.9 * np.exp(1j * np.pi / 3), phi=np.pi / 7),
        "fourier-22": gen_fourier_channel((2, 2)),
        "fourier-23": gen_fourier_channel((2, 3)),
        "fourier-222": gen_fourier_channel((2, 2, 2)),
        "pauli": gen_pauli_pair_channel(),
        "product-unitary": gen_product_unitary_channel(unitaries, [0.5, 0.25, 0.25]),
        "augmented-projective": augment_channel(gen_projective_basis(2, 2), hw, hw[::-1]),
    }


UNIQUE_CATALOG = _unique_catalog()


def test_compound_gram_gives_the_realignment_compound_norm():
    # p(c)^H G p(c) = sum over cuts of |C_2 R(c)|_F^2 = sum_{i<j} s_i^2 s_j^2.
    rng = np.random.default_rng(12)
    for fam in [
        gen_fourier_channel((2, 2, 2)),
        gen_ladder_channel(0.5),
        random_product_family(rng, (2, 3), 6),
        gen_projective_basis(2, 2),
    ]:
        _, stacks = _hunt_inputs(fam)
        gram = _compound_gram(stacks)
        n = fam.n_members
        assert gram.shape == (n * (n - 1) // 2,) * 2
        np.testing.assert_allclose(gram, gram.conj().T, rtol=1e-14)
        c = complex_randn(rng, n)
        j, k = np.triu_indices(n, 1)
        p = c[j] * c[k]
        expected = 0.0
        for a_mat, b_mat in stacks:
            s2 = np.linalg.svd((b_mat * c) @ a_mat.T, compute_uv=False) ** 2
            expected += (s2.sum() ** 2 - (s2**2).sum()) / 2
        assert np.vdot(p, gram @ p).real == pytest.approx(expected, rel=1e-10)


def test_screen_error_bounds_the_compound_gram_rounding(monkeypatch):
    # The err that _screens passes covers the Gram's rounding, measured
    # against the same Gram built in extended precision, plus the
    # factorization's (pairs + 4) eps trace; members scaled by 10^-3 and
    # 10^3 move |full|_F^4 by 24 orders.
    calls = []
    prove = _proves_gram_floor

    def spy(gram, floor, err):
        calls.append((gram.copy(), err))
        return prove(gram, floor, err)

    monkeypatch.setattr("sepcert.hunter._proves_gram_floor", spy)
    rng = np.random.default_rng(8)
    for fam in [gen_fourier_channel((2, 2, 2)), gen_ladder_channel(0.5),
                random_product_family(rng, (2, 3), 7), random_product_family(rng, (2, 2, 2), 6)]:
        for scale in (1e-3, 1.0, 1e3):
            scaled = OperatorFamily(fam.spec, tuple(m.scaled(scale) for m in fam.members))
            full, stacks = _hunt_inputs(scaled)
            _screens(stacks, full, 1e-8)
            gram, err = calls.pop()
            wide = _compound_gram([(a.astype(np.clongdouble), b.astype(np.clongdouble))
                                   for a, b in stacks])
            rounding = np.linalg.norm((gram - wide).astype(complex), 2)
            eps = np.finfo(float).eps
            assert rounding > 0
            assert err >= rounding + (len(gram) + 4) * eps * np.trace(gram).real


def _bound_cases():
    cases = {name: (fam, None) for name, fam in UNIQUE_CATALOG.items()}
    for dims, n in [((2, 2), 7), ((2, 2), 8), ((2, 3), 14)]:
        fam = random_product_family(np.random.default_rng([5, n]), dims, n)
        cases[f"random-{dims[0]}{dims[1]}-n{n}"] = (fam, None)
    for varying in range(3):
        planted, _ = planted_dependent_family(
            np.random.default_rng([42, varying]), 3, varying, 3, 2, 2
        )
        cases[f"planted-{varying}"] = (planted, None)
    cases["projective-22-pair"] = (gen_projective_basis(2, 2), (0, 1))
    return cases


BOUND_CASES = _bound_cases()


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_residual_floor_is_a_lower_bound(name):
    fam, subset = BOUND_CASES[name]
    full, stacks = _hunt_inputs(fam, subset)
    obj, _ = _search(fam.spec, full, stacks, restarts=8, max_iters=500, seed=0, init=None)
    # Corners of the feasible set, where |p(c)| is least: one coefficient
    # large and every other one clamped to the floor by the projection.
    n = full.shape[1]
    rng = np.random.default_rng(3)
    corners = 1e-3 * COEFFICIENT_FLOOR * complex_randn(rng, 4 * n, n)
    corners[np.arange(4 * n), np.arange(4 * n) % n] = np.exp(2j * np.pi * rng.random(4 * n))
    corners = np.vstack([_project(corners), _project(complex_randn(rng, 32, n))])
    assert np.abs(corners).min() >= COEFFICIENT_FLOOR / 2
    # No threshold above an objective that the search or a corner reaches
    # is ever proven.
    reached = min(obj, _worst_ratio(stacks, corners).min())
    assert not _screens(stacks, full, np.nextafter(reached, 1))
    # The catalog and the random families hold no product: the screen says
    # so where certify_unique is Inconclusive for (2,2)/N7, N8 and (2,3)/N14.
    if name in UNIQUE_CATALOG:
        assert _screens(stacks, full, 1e-8)
    elif name.startswith("random"):
        assert _screens(stacks, full, 1e-9)


def test_projective_pairs_are_screened_exactly_when_they_hold_no_product():
    # A pair of projectors holds a product iff the two share a factor; the
    # compound matrix of a pair is 1x1 and vanishes exactly then.
    for dims in [(2, 2), (2, 3)]:
        fam = gen_projective_basis(*dims)
        for pair in itertools.combinations(range(fam.n_members), 2):
            result = hunt_product(fam, pair, restarts=4, seed=0)
            subset, obj, c = reference_hunt(fam, pair, restarts=4, seed=0)
            (i, j), cols = pair, dims[1]
            shares = i // cols == j // cols or i % cols == j % cols
            assert result.found is shares is bool(obj < 1e-8)
            assert (result.restarts_used == 0) is not shares
            if shares:
                assert (result.subset, result.residual) == (subset, obj)
                assert np.array_equal(result.coefficients, c)


def test_overflowing_side_grams_are_not_screened():
    # Party factors scaled by 1e160 and 1e-160 keep every member's norm but
    # overflow the side Grams; a non-finite compound Gram proves nothing.
    proj = gen_projective_basis(2, 2)
    fam = OperatorFamily(proj.spec, tuple(
        ProductOperator(m.weight, (1e160 * m.factors[0], 1e-160 * m.factors[1]))
        for m in proj.members
    ))
    full, stacks = _hunt_inputs(fam, (0, 1))
    with np.errstate(all="ignore"):
        assert not _screens(stacks, full, 1e-8)
        result = hunt_product(fam, (0, 1), restarts=4, seed=0)
    assert result.found and result.novel


def _deficient_cases():
    cases = {f"tight-n{n}": (gen_tight_family(n, seed=0)[0], None, 1e-8) for n in (1, 2, 3)}
    for varying in range(3):
        planted, _ = planted_dependent_family(
            np.random.default_rng([42, varying]), 3, varying, 3, 2, 2
        )
        cases[f"planted-{varying}"] = (planted, None, 1e-8)
    proj33 = gen_projective_basis(3, 3)
    cases["projective-33"] = (proj33, (0, 1, 5), 1e-5)
    cases["projective-33-rehunt"] = (proj33, (0, 1), 1e-5)
    return cases


DEFICIENT_CASES = _deficient_cases()


@pytest.mark.parametrize("name", list(DEFICIENT_CASES))
def test_screen_never_fires_on_deficient_subsets(name):
    fam, subset, threshold = DEFICIENT_CASES[name]
    full, stacks = _hunt_inputs(fam, subset)
    assert not _screens(stacks, full, threshold)
    result = hunt_product(fam, subset, restarts=8, seed=0, threshold=threshold)
    assert result.restarts_used == 8
    subset_ref, obj, c = reference_hunt(
        fam, subset or tuple(range(fam.n_members)), restarts=8, seed=0, threshold=threshold
    )
    assert (result.subset, result.residual) == (subset_ref, obj)
    assert np.array_equal(result.coefficients, c)


# ---------------------------------------------------------------------------
# recover_product / product_residual


def test_recover_product_on_exact_product():
    rng = np.random.default_rng(30)
    spec = PartySpec(((2, 2), (3, 3), (2, 2)))
    factors = [crand(rng, 2, 2), crand(rng, 3, 3), crand(rng, 2, 2)]
    target = np.kron(factors[0], np.kron(factors[1], factors[2]))
    np.testing.assert_allclose(
        recover_product(target, spec).assemble(), target, atol=1e-12
    )


def test_recover_product_rejects_zero():
    with pytest.raises(DegenerateInputError):
        recover_product(np.zeros((4, 4)), PartySpec(((2, 2), (2, 2))))


def test_product_residual_cases():
    rng = np.random.default_rng(31)
    spec2 = PartySpec(((2, 2), (2, 2)))
    single_member = OperatorFamily(
        spec2, (ProductOperator(1.0, (crand(rng, 2, 2), crand(rng, 2, 2))),)
    )
    assert product_residual(single_member, [0.3 - 2j]) < 1e-14
    proj = gen_projective_basis(2, 2)
    # |00><00| + |01><01| shares its left factor: a product.
    assert product_residual(proj.subfamily((0, 1)), [1.0, 1j]) < 1e-14
    # |00><00| + |11><11| has Schmidt rank two with equal weights.
    assert product_residual(proj.subfamily((0, 3)), [1.0, 1.0]) == pytest.approx(1.0)
    # A vanishing combination is no product.
    assert product_residual(proj.subfamily((0, 3)), [0.0, 0.0]) == 1.0
    # Single party: no split, so every combination counts as a product.
    one_party = OperatorFamily(
        PartySpec(((3, 3),)),
        tuple(ProductOperator(1.0, (crand(rng, 3, 3),)) for _ in range(2)),
    )
    assert product_residual(one_party, [1.0, 0.5j]) == 0.0
    assert product_residual(one_party, [0.0, 0.0]) == 0.0
    with pytest.raises(ShapeError):
        product_residual(proj, [1.0, 1.0])


def test_product_cuts_are_the_bipartitions_up_to_three_parties():
    for n_parties in (2, 3):
        expected = set(all_bipartitions(n_parties))
        cuts = _product_cuts(n_parties)
        assert len(cuts) == len(expected)
        assert set(cuts) == expected
    assert _product_cuts(1) == []


def test_product_cuts_single_out_each_party():
    for n_parties in (4, 5):
        cuts = _product_cuts(n_parties)
        assert len(cuts) == n_parties
        singles = set()
        for side_a, side_b in cuts:
            assert 0 in side_a
            assert sorted(side_a + side_b) == list(range(n_parties))
            singles.add(side_a if len(side_a) == 1 else side_b)
        assert singles == {(p,) for p in range(n_parties)}


def test_product_residual_on_four_party_planted_family():
    # Every combination of a planted family is a product, so random product
    # members are appended: with them a random combination is no product.
    for varying in range(4):
        rng = np.random.default_rng([41, varying])
        planted, coeffs = planted_dependent_family(rng, 4, varying, 3, 2, 2)
        extra = random_product_family(rng, (2, 2, 2, 2), 2)
        fam = OperatorFamily(planted.spec, planted.members + extra.members)
        assert product_residual(fam, np.r_[coeffs, 0.0, 0.0]) < 1e-12
        random_coeffs = random_nonzero_coefficients(rng, fam.n_members)
        assert product_residual(fam, random_coeffs) > 1e-3


def test_product_residual_is_the_hunt_residual():
    fam = gen_projective_basis(2, 2)
    for subset in [(0, 1), (1, 2)]:
        result = hunt_product(fam, subset=subset, seed=0, restarts=4)
        residual = product_residual(fam.subfamily(result.subset), result.coefficients)
        assert residual == result.residual


def test_screened_hunt_reports_its_projected_start():
    fourier = gen_fourier_channel((2, 2, 2))
    ladder = gen_ladder_channel(0.5)
    for fam, kwargs in [
        (fourier, dict(seed=3)),
        (fourier, dict(subset=(1, 4, 6), seed=0)),
        (ladder, dict(seed=1, initial_coefficients=[1.0, 1e-9, -2j])),
    ]:
        result = hunt_product(fam, **kwargs)
        assert result.restarts_used == 0
        assert not result.found and not result.novel and result.candidate is None
        residual = product_residual(fam.subfamily(result.subset), result.coefficients)
        assert residual == result.residual
        assert result.residual >= result.threshold
        assert np.abs(result.coefficients).min() >= COEFFICIENT_FLOOR / 2
        assert np.linalg.norm(result.coefficients) == pytest.approx(1.0, abs=1e-15)
    init = hunt_product(ladder, seed=1, initial_coefficients=[1.0, 1e-9, -2j])
    # Normalized first, then the small entry is clamped to the floor.
    np.testing.assert_allclose(
        init.coefficients, [5**-0.5, COEFFICIENT_FLOOR, -2j * 5**-0.5], rtol=1e-11
    )


# ---------------------------------------------------------------------------
# mixing


def test_mixing_unitary_is_unitary():
    u = mixing_unitary(0.7, 1.3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(mixing_unitary(0.0, 0.0), np.eye(2), atol=0)


def test_mixing_search_on_degenerate_pair_hits_everywhere():
    # Both members share the |0><0| left factor, so every 2x2 remix of the
    # pair stays a product family: the full 17 x 8 grid reports hits.
    fam = gen_projective_basis(2, 2)
    hits = mixing_search(fam, (0, 1))
    assert len(hits) == 17 * 8
    thetas = {round(h.theta, 12) for h in hits}
    assert round(np.pi / 4, 12) in thetas
    assert all(max(h.residuals) <= 1e-8 for h in hits)


def test_mixing_search_on_rigid_pair_hits_only_permutations():
    # Ladder members are genuinely different products; only the trivial
    # theta = 0 and the swap theta = pi/2 remixes survive.
    fam = gen_ladder_channel(0.5)
    hits = mixing_search(fam, (0, 1))
    thetas = {round(h.theta, 12) for h in hits}
    assert thetas == {0.0, round(np.pi / 2, 12)}


def test_mixing_search_validation():
    fam = gen_ladder_channel(0.5)
    with pytest.raises(UsageError):
        mixing_search(fam, (1, 1))
    with pytest.raises(UsageError):
        mixing_search(fam, (0, 5))


def test_mixing_validates_the_pair():
    fam = gen_projective_basis(2, 2)
    u = mixing_unitary(np.pi / 4, 0.0)
    for pair in [(0, 0), (0, 9), (0, 1, 2), (1,)]:
        with pytest.raises(UsageError):
            apply_mixing(fam, pair, u)
        with pytest.raises(UsageError):
            mixing_search(fam, pair)


def test_apply_mixing_identity_returns_same_members():
    fam = gen_projective_basis(2, 2)
    remixed = apply_mixing(fam, (0, 1), np.eye(2))
    for a, b in zip(remixed.members, fam.members):
        assert proportional(a.assemble(), b.assemble()) is not None


def test_apply_mixing_produces_equivalent_distinct_family():
    fam = gen_projective_basis(2, 2)
    u = mixing_unitary(np.pi / 4, 0.0)
    remixed = apply_mixing(fam, (0, 1), u)
    # Member 0 is now (|0><0| x (|0><0| + |1><1|)) / sqrt(2) -- a new product.
    new0 = remixed.members[0].assemble()
    assert proportional(new0, fam.members[0].assemble()) is None
    expected = np.kron(E00, np.eye(2)) / np.sqrt(2)
    assert proportional(new0, expected) is not None


def test_apply_mixing_rejects_nonproduct_result():
    fam = gen_ladder_channel(0.5)
    with pytest.raises(ParameterError):
        apply_mixing(fam, (0, 1), mixing_unitary(np.pi / 4, 0.0))


def test_apply_mixing_rejects_bad_unitary():
    fam = gen_projective_basis(2, 2)
    with pytest.raises(ParameterError):
        apply_mixing(fam, (0, 1), np.ones((2, 2)))
    with pytest.raises(ParameterError):
        apply_mixing(fam, (0, 1), np.eye(3))


@pytest.mark.parametrize("scale, accepted", [(0.4, True), (0.6, False)])
def test_apply_mixing_checks_unitarity_to_the_package_tolerance(scale, accepted):
    # u = (1 + e) U has |u^dag u - I|_F = (2e + e^2) sqrt(2), on either side
    # of the bound UNITARY_TOL sqrt(2) for a 2x2 matrix.
    fam = gen_projective_basis(2, 2)
    u = (1 + scale * UNITARY_TOL) * mixing_unitary(np.pi / 4, 0.0)
    if accepted:
        apply_mixing(fam, (0, 1), u)
    else:
        with pytest.raises(ParameterError, match="not unitary"):
            apply_mixing(fam, (0, 1), u)


# ---------------------------------------------------------------------------
# fuzzing


def test_fuzz_span_bound_no_violations():
    stats = fuzz_span_bound((2, 2), n_members=3, trials=40, seed=0)
    assert stats.trials == 40
    assert stats.violations == 0
    assert sum(stats.delta_sum_histogram.values()) == 40


def test_fuzz_span_bound_rejects_bad_trials():
    with pytest.raises(ParameterError):
        fuzz_span_bound((2, 2), n_members=3, trials=0)
