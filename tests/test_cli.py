"""Command-line interface: exit codes, JSON payloads, file round trips."""

import json
import subprocess
import sys

import numpy as np
import pytest

from sepcert import (
    TolerancePolicy,
    __version__,
    certify_unique,
    family_from_factors,
    gen_ladder_channel,
    gen_projective_basis,
    gen_tight_family,
    load_family,
    random_product_family,
    save_family,
)
from sepcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


# ---------------------------------------------------------------------------
# gen


def test_gen_eq701_round_trips_exactly(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    code, payload, _ = run_json(capsys, "gen", "eq701", "--out", str(path))
    assert code == 0
    assert payload["generator"] == "eq701"
    loaded = load_family(path)
    reference = gen_ladder_channel(0.5)
    for a, b in zip(loaded.family.members, reference.members):
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)
    assert loaded.metadata["generator"] == "eq701"


def test_gen_eq701_complex_mu(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    code, _, _ = run_json(
        capsys, "gen", "eq701", "--mu", "0.9*exp(1j*pi/3)", "--out", str(path)
    )
    # Expression syntax is not supported; complex literals are.
    assert code == 2

    code, payload, _ = run_json(
        capsys, "gen", "eq701", "--mu", "0.45+0.779422863405995j", "--out", str(path)
    )
    assert code == 0
    mu = payload["metadata"]["parameters"]["mu"]
    assert abs(complex(*mu) - (0.45 + 0.779422863405995j)) < 1e-15


def test_gen_rejects_out_of_range_mu(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen", "eq701", "--mu", "2.0", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "mu" in err or "error" in err.lower()


def test_gen_fourier_reports_member_count(capsys, tmp_path):
    path = tmp_path / "fourier.json"
    code, payload, _ = run_json(
        capsys, "gen", "fourier", "--dims", "2,2,2", "--out", str(path)
    )
    assert code == 0
    assert payload["n_members"] == 11
    assert payload["metadata"]["N"] == 11
    assert load_family(path).family.n_members == 11


def test_gen_fourier_rejects_unsorted_dims(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen", "fourier", "--dims", "3,2", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "ascending" in err


def test_gen_tight_writes_coefficient_sidecar(capsys, tmp_path):
    path = tmp_path / "tight.json"
    code, _, _ = run_json(capsys, "gen", "tight", "--n", "2", "--out", str(path))
    assert code == 0
    sidecar = json.loads((tmp_path / "tight.json.coeffs.json").read_text())
    assert sidecar["coefficients"] == [
        [1.0, 0.0],
        [1.0, 0.0],
        [-1.0, 0.0],
        [1.0, 0.0],
        [-1.0, 0.0],
    ]


def test_gen_unknown_generator_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen", "banana", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "invalid choice" in err


def test_gen_requires_out(capsys):
    code, _, err = run_cli(capsys, "gen", "eq701")
    assert code == 2
    assert "--out" in err


def test_gen_projective_and_pauli(capsys, tmp_path):
    code, _, _ = run_json(
        capsys, "gen", "projective", "--dims", "2,2", "--out", str(tmp_path / "p.json")
    )
    assert code == 0
    code, _, _ = run_json(capsys, "gen", "pauli", "--out", str(tmp_path / "q.json"))
    assert code == 0


def test_gen_over_the_element_budget_exits_5(capsys, tmp_path):
    out = tmp_path / "p.json"
    code, stdout, err = run_cli(
        capsys, "gen", "projective", "--dims", "65,65", "--out", str(out)
    )
    assert code == 5
    assert stdout == "" and "element budget" in err
    assert not out.exists()


def test_gen_augment_from_file(capsys, tmp_path):
    base = tmp_path / "base.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(base))
    out = tmp_path / "augmented.json"
    code, payload, _ = run_json(
        capsys, "gen", "augment", "--file", str(base), "--out", str(out)
    )
    assert code == 0
    fam = load_family(out).family
    assert fam.n_parties == 4


# ---------------------------------------------------------------------------
# verify


def test_verify_complete_channel(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 0
    assert payload["is_complete"] is True
    assert payload["residual"] < 1e-12
    assert payload["command"] == "verify"


def test_verify_incomplete_channel_exits_3(capsys, tmp_path):
    fam = family_from_factors(
        [(2, 2), (2, 2)], [(0.5, [np.eye(2), np.eye(2)])]
    )
    path = tmp_path / "half.json"
    save_family(path, fam)
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 3
    assert payload["is_complete"] is False
    assert payload["residual"] == pytest.approx(1.5)


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_rejects_invalid_tol(capsys, tmp_path, tol):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, out, err = run_cli(capsys, "verify", str(path), "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tolerance" in err


# ---------------------------------------------------------------------------
# certify


@pytest.mark.parametrize("tol", ["2", "-1", "nan"])
def test_certify_rejects_invalid_tol(capsys, tmp_path, tol):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "relative_rank_threshold" in err


def test_certify_unique_channel(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, payload, _ = run_json(capsys, "certify", str(path))
    assert code == 0
    assert payload["status"] == "Unique"
    assert payload["strategy"] == "all_bipartitions"
    assert payload["kind"] == "channel"


def test_certify_inconclusive_exits_4(capsys, tmp_path):
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, payload, _ = run_json(capsys, "certify", str(path))
    assert code == 4
    assert payload["status"] == "Inconclusive"
    assert [0, 1] in payload["witnesses"] or {"members": [0, 1]} in [
        {k: w[k] for k in ("members",)} for w in payload["witnesses"]
    ]


def test_certify_strategy_flag(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    for strategy in ("pairs", "bipartitions"):
        code, payload, _ = run_json(capsys, "certify", str(path), "--strategy", strategy)
        assert code == 0


def test_certify_cap_exits_5(capsys, tmp_path):
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, _, err = run_cli(capsys, "certify", str(path), "--max-subset", "3")
    assert code == 5
    assert "cap" in err or "enumeration" in err.lower()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_certify_rejects_non_positive_cap(capsys, tmp_path, cap):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--max-subset", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_members" in err


# (id, family, certify_unique keywords, the same as CLI flags, file name)
BYTE_CASES = [
    ("one-party", random_product_family(np.random.default_rng(0), (3,), 4), {}, [],
     "family.json"),
    ("unique", gen_ladder_channel(0.5), {}, [], "family.json"),
    ("fail-fast", gen_projective_basis(2, 3), {"fail_fast": True}, ["--fail-fast"],
     "family.json"),
    ("four-party-pairs", gen_tight_family(2, n_parties=4)[0], {"strategy": "pairs"},
     ["--strategy", "pairs"], "family.json"),
    ("three-party", gen_tight_family(2, n_parties=3)[0], {}, [], "family.json"),
    ("quoted-path", gen_projective_basis(2, 2), {}, [], 'fa"mil\u00e9.json'),
]


@pytest.mark.parametrize(
    "fam,kwargs,flags,name", [c[1:] for c in BYTE_CASES], ids=[c[0] for c in BYTE_CASES]
)
def test_certify_json_is_json_dumps_byte_for_byte(capsys, tmp_path, fam, kwargs, flags, name):
    path = tmp_path / name
    save_family(path, fam)
    # The CLI's --tol default, which the library's default policy leaves unset.
    cert = certify_unique(fam, tol=TolerancePolicy(relative_rank_threshold=1e-10), **kwargs)
    head = {"command": "certify", "tool_version": __version__, "file": str(path),
            "kind": "channel"}
    expected = json.dumps({**head, **cert.to_dict()}, indent=2)
    assert cert.to_json(head) == expected
    code, out, _ = run_cli(capsys, "certify", str(path), *flags)
    assert code == (0 if cert.unique else 4)
    assert out == expected + "\n"


def test_certify_text_report(capsys, tmp_path):
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, out, _ = run_cli(capsys, "certify", str(path), "--report", "text")
    assert code == 4
    assert "status:" in out
    assert "witness" in out


def test_certify_ensemble_kind(capsys, tmp_path):
    channel = tmp_path / "ladder.json"
    ensemble = tmp_path / "ladder-ens.json"
    run_json(capsys, "gen", "eq701", "--out", str(channel))
    run_json(capsys, "choi", str(channel), "--out", str(ensemble))
    code, payload, _ = run_json(capsys, "certify", str(ensemble))
    assert code == 0
    assert payload["kind"] == "ensemble"
    assert payload["status"] == "Unique"


# ---------------------------------------------------------------------------
# hunt


def test_hunt_finds_degenerate_combination(capsys, tmp_path):
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, payload, _ = run_json(capsys, "hunt", str(path), "--subset", "0,1")
    assert code == 0
    assert payload["found"] is True
    assert payload["residual"] <= 1e-10


def test_hunt_reports_failure_with_exit_4(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, payload, _ = run_json(capsys, "hunt", str(path), "--seed", "7")
    assert code == 4
    assert payload["found"] is False


@pytest.mark.parametrize("subset", ["7,9", "a,b", "0"])
def test_hunt_rejects_bad_subsets(capsys, tmp_path, subset):
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, _, err = run_cli(capsys, "hunt", str(path), "--subset", subset)
    assert code == 2
    assert err


@pytest.mark.parametrize("command", ["hunt", "gen-product-unitary", "gen-tight"])
def test_negative_seed_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    out_path = tmp_path / "out.json"
    argv = {
        "hunt": ["hunt", str(path)],
        "gen-product-unitary": ["gen", "product-unitary", "--dims", "2,2", "--out", str(out_path)],
        "gen-tight": ["gen", "tight", "--n", "2", "--out", str(out_path)],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed" in err and "nonnegative" in err
    assert not out_path.exists()


def test_hunt_rejects_zero_restarts(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, _, _ = run_cli(capsys, "hunt", str(path), "--restarts", "0")
    assert code == 2


def test_hunt_rejects_negative_threshold(capsys, tmp_path):
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, out, err = run_cli(capsys, "hunt", str(path), "--subset", "0,1", "--threshold", "-1")
    assert code == 2
    assert out == ""
    assert "threshold" in err


# ---------------------------------------------------------------------------
# choi


def test_choi_writes_ensemble_and_state(capsys, tmp_path):
    channel = tmp_path / "ladder.json"
    ensemble = tmp_path / "ens.json"
    state = tmp_path / "state.json"
    run_json(capsys, "gen", "eq701", "--out", str(channel))
    code, payload, _ = run_json(
        capsys, "choi", str(channel), "--out", str(ensemble), "--state-out", str(state)
    )
    assert code == 0
    loaded = load_family(ensemble)
    assert loaded.kind == "ensemble"
    assert loaded.metadata["transform"] == "choi_ensemble"
    doc = json.loads(state.read_text())
    assert doc["dims"] == [4, 4]
    assert doc["trace"] == pytest.approx(4.0)


def test_choi_rejects_ensemble_input(capsys, tmp_path):
    channel = tmp_path / "ladder.json"
    ensemble = tmp_path / "ens.json"
    run_json(capsys, "gen", "eq701", "--out", str(channel))
    run_json(capsys, "choi", str(channel), "--out", str(ensemble))
    code, _, err = run_cli(
        capsys, "choi", str(ensemble), "--out", str(tmp_path / "again.json")
    )
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# error handling and misc


def test_truncated_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1, "members":')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "line" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "ghost.json"))
    assert code == 2
    assert "cannot read" in err


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "sepcert", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
