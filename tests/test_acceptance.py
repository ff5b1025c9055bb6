"""Release gate: the twelve numbered guarantees this package ships with.

Each test states one externally visible promise — reference channels certify
the way their constructions dictate, the randomized identities hold at scale,
the search tools neither invent nor miss alternatives — and is pinned to the
stated tolerance and time budget.  One test per guarantee; the test name
carries the number.
"""

import json
import time

import numpy as np
import pytest

from sepcert import (
    STRATEGY_ALL_BIPARTITIONS,
    apply_mixing,
    augment_channel,
    certify_unique,
    certify_unique_ensemble,
    channel_to_choi_ensemble,
    channels_equal,
    family_from_factors,
    fuzz_span_bound,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
    gen_tight_family,
    haar_unitary,
    heisenberg_weyl_unitaries,
    hunt_product,
    kron,
    mixing_search,
    planted_dependent_family,
    random_product_measurement,
    realign_bipartite,
    span_bound_report,
    span_dimension,
    vectorize,
    verify_completeness,
)
from sepcert.cli import main

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def crand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _zoo():
    """The reference catalog the transfer and soundness gates sweep over."""
    rng = np.random.default_rng(7)
    unitaries = [
        [haar_unitary(rng, 2) for _ in range(3)],
        [haar_unitary(rng, 2) for _ in range(3)],
    ]
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
        "projective-22": gen_projective_basis(2, 2),
        "projective-23": gen_projective_basis(2, 3),
        "tight-n2": gen_tight_family(2, seed=0)[0],
    }


def test_criterion_01_ladder_channel_certifies_unique_fast(tmp_path, capsys):
    # 0.9 e^{i pi/3} written out as a complex literal for the CLI.
    mu_values = ["0.5", "0.45+0.7794228634059948j", "0"]
    phi_values = ["0", str(np.pi / 7)]
    for i, mu in enumerate(mu_values):
        for j, phi in enumerate(phi_values):
            path = tmp_path / f"ladder-{i}{j}.json"
            assert main(["gen", "eq701", "--mu", mu, "--phi", phi, "--out", str(path)]) == 0
            capsys.readouterr()
            start = time.perf_counter()
            code = main(["certify", str(path)])
            elapsed = time.perf_counter() - start
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["status"] == "Unique"
            assert elapsed < 1.0


def test_criterion_02_fourier_channels_certify_unique_within_budget():
    fam5 = gen_fourier_channel((2, 2))
    assert fam5.n_members == 5
    assert verify_completeness(fam5).residual < 1e-10
    assert certify_unique(fam5, strategy=STRATEGY_ALL_BIPARTITIONS).status == "Unique"

    fam11 = gen_fourier_channel((2, 2, 2))
    assert fam11.n_members == 11
    assert verify_completeness(fam11).residual < 1e-10
    start = time.perf_counter()
    cert = certify_unique(fam11, strategy=STRATEGY_ALL_BIPARTITIONS)
    elapsed = time.perf_counter() - start
    assert cert.status == "Unique"
    assert elapsed < 30.0


def test_criterion_03_projective_basis_admits_equivalent_alternative():
    fam = gen_projective_basis(2, 2)
    cert = certify_unique(fam)
    assert cert.status == "Inconclusive"
    assert (0, 1) in [w.members for w in cert.witnesses]

    hits = mixing_search(fam, (0, 1))
    quarter = [h for h in hits if abs(h.theta - np.pi / 4) < 1e-12]
    assert quarter, "the quarter-rotation remix must stay within the product set"
    mixed = apply_mixing(fam, (0, 1), quarter[0].unitary)
    # A genuinely different family...
    assert any(
        not np.allclose(a.assemble(), b.assemble())
        for a, b in zip(mixed.members, fam.members)
    )
    # ...representing the same channel.
    assert channels_equal(fam, mixed, tol=1e-9)


def test_criterion_04_span_bound_fuzz_is_violation_free():
    start = time.perf_counter()
    total = 0
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        for n_members in range(2, 7):
            stats = fuzz_span_bound(dims, n_members=n_members, trials=50, seed=n_members)
            assert stats.violations == 0
            total += stats.trials
    elapsed = time.perf_counter() - start
    assert total == 1000
    assert elapsed < 60.0


def test_criterion_05_realignment_factorization_identity():
    rng = np.random.default_rng(105)
    for _ in range(200):
        a_out, a_in, b_out, b_in = rng.integers(2, 4, size=4)
        n = int(rng.integers(2, 6))
        a_list = [crand(rng, a_out, a_in) for _ in range(n)]
        b_list = [crand(rng, b_out, b_in) for _ in range(n)]
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = sum(cj * kron(aj, bj) for cj, aj, bj in zip(c, a_list, b_list))
        a_mat = np.hstack([vectorize(a) for a in a_list])
        b_mat = np.hstack([vectorize(b) for b in b_list])
        product = b_mat @ np.diag(c) @ a_mat.T
        err = np.linalg.norm(
            realign_bipartite(s, (int(a_out), int(a_in), int(b_out), int(b_in))) - product
        ) / np.linalg.norm(product)
        assert err < 1e-12


def test_criterion_06_duplicated_family_saturates_the_bound():
    fam, coeffs = gen_tight_family(2, n_parties=2, local_dim=3)
    n = fam.n_members
    assert n == 5
    delta_a, delta_b = fam.span_dim((0,), range(n)), fam.span_dim((1,), range(n))
    assert delta_a + delta_b == n + 1 == 6
    assert sum(fam.span_dim((p,)) for p in range(2)) == 2 * (n + 1) // 2 == 6
    report = span_bound_report(fam, coeffs)
    assert report.schmidt_rank == 1
    assert report.equality


def test_criterion_07_grouping_never_shrinks_span():
    rng = np.random.default_rng(107)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        dr = int(rng.integers(2, 4))
        dq = int(rng.integers(2, 4))
        r_list = [crand(rng, dr, dr) for _ in range(n)]
        q_list = [crand(rng, dq, dq) for _ in range(n)]
        paired = [kron(r, q) for r, q in zip(r_list, q_list)]
        assert span_dimension(paired) >= span_dimension(r_list)


def test_criterion_08_dependent_families_obey_span_cap():
    rng = np.random.default_rng(108)
    for trial in range(100):
        n_parties = int(rng.integers(2, 4))
        fam, _ = planted_dependent_family(
            rng,
            n_parties=n_parties,
            varying_party=int(rng.integers(n_parties)),
            n_independent=int(rng.integers(2, 5)),
            n_extra=int(rng.integers(1, 3)),
            local_dim=3,
        )
        span_cap = span_dimension(fam.assembled()) + 1
        everyone = range(fam.n_members)
        for alpha in range(n_parties):
            for beta in range(alpha + 1, n_parties):
                delta_a = fam.span_dim((alpha,), everyone)
                delta_b = fam.span_dim((beta,), everyone)
                assert delta_a + delta_b <= span_cap


def test_criterion_09_complete_measurements_pass_necessary_condition():
    rng = np.random.default_rng(109)
    for trial in range(200):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=2))
        outcomes = tuple(int(k) for k in rng.integers(2, 4, size=2))
        fam = random_product_measurement(rng, dims, outcomes)
        assert verify_completeness(fam).necessary_condition_holds
    # And the converse direction: an operator sum that is not the identity
    # must be caught.
    p_plus = (I2 + SX) / 2
    violating = family_from_factors(
        [(2, 2), (2, 2)],
        [
            (1.0, [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]),
            (1.0, [np.diag([0.0, 1.0]), np.diag([0.0, 1.0])]),
            (1.0, [p_plus, p_plus]),
        ],
    )
    assert not verify_completeness(violating).is_complete


def test_criterion_10_pauli_channel_profile():
    fam = gen_pauli_pair_channel()
    assert verify_completeness(fam).is_complete
    assert certify_unique(fam).status == "Unique"
    for party in (0, 1):
        factors = fam.local_factors(party)
        for i in range(4):
            for j in range(i + 1, 4):
                assert span_dimension([factors[i], factors[j]]) == 2
        for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            assert span_dimension([factors[k] for k in triple]) == 3
        assert span_dimension(factors) == 3


def test_criterion_11_certificates_transfer_to_state_ensembles():
    for name, fam in _zoo().items():
        channel_cert = certify_unique(fam)
        ensemble_cert = certify_unique_ensemble(channel_to_choi_ensemble(fam))
        assert channel_cert.status == ensemble_cert.status, name


def test_criterion_12_hunter_soundness_and_sensitivity():
    zoo = _zoo()
    unique_names = [n for n, f in zoo.items() if certify_unique(f).status == "Unique"]
    assert len(unique_names) == 8
    for name in unique_names:
        for seed in range(1, 9):
            result = hunt_product(zoo[name], restarts=64, seed=seed, threshold=1e-8)
            assert not (result.found and result.novel), (name, seed)

    # Sensitivity: the degenerate projector pair admits a genuine alternative...
    found = hunt_product(zoo["projective-22"], subset=(0, 1), seed=1)
    assert found.found and found.novel and found.residual <= 1e-8
    # ...and the saturating family's defining combination is recovered when
    # the search is started on it.
    fam, coeffs = gen_tight_family(2, seed=0)
    seeded = hunt_product(fam, initial_coefficients=coeffs, seed=1)
    assert seeded.found and seeded.residual < 1e-10
