"""Command-line interface: exit codes, JSON payloads, file round trips."""

import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sepcert.cli
import sepcert.hunter
import sepcert.zoo
from sepcert import __version__
from sepcert.certify import certify_unique
from sepcert.cli import main
from sepcert.families import OperatorFamily, ProductOperator, family_from_factors
from sepcert.sampling import random_product_family
from sepcert.serialize import load_family, save_family
from sepcert.zoo import gen_ladder_channel, gen_projective_basis, gen_tight_family


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


@pytest.mark.parametrize("option, value", [("--phi", "inf"), ("--mu", "nan")])
def test_gen_refuses_non_finite_ladder_parameters(tmp_path, option, value):
    # A subprocess, so that a numpy warning would reach stderr as it does for a user.
    proc = subprocess.run(
        [sys.executable, "-m", "sepcert", "gen", "eq701", option, value,
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: mu and phi must be finite")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert not (tmp_path / "x.json").exists()


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


def test_gen_augment_over_the_element_budget_exits_5_before_the_basis(
    capsys, tmp_path, monkeypatch
):
    base = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(base))

    def refuse(dim):
        raise AssertionError(f"built {dim * dim} unitaries for a refused spec")

    # cli imports the generators when gen runs, so the patch goes on their module.
    monkeypatch.setattr(sepcert.zoo, "heisenberg_weyl_unitaries", refuse)
    out = tmp_path / "augmented.json"
    code, stdout, err = run_cli(
        capsys, "gen", "augment", "--file", str(base), "--dim", "64", "--out", str(out)
    )
    assert code == 5
    assert stdout == "" and err.startswith("error: ") and "element budget" in err
    assert not out.exists()


@pytest.mark.parametrize("dims, members", [("100000", "1"), ("2,2", "4194305")])
def test_gen_product_unitary_over_the_element_budget_exits_5_before_any_draw(
    capsys, tmp_path, monkeypatch, dims, members
):
    def refuse(rng, d):
        raise AssertionError("drew a unitary for a refused request")

    monkeypatch.setattr(sepcert.cli, "haar_unitary", refuse)
    out = tmp_path / "mixture.json"
    code, stdout, err = run_cli(
        capsys, "gen", "product-unitary", "--dims", dims, "--members", members, "--out", str(out)
    )
    assert code == 5
    assert stdout == "" and err.startswith("error: ") and "element budget" in err
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


def test_gen_product_unitary_is_a_complete_channel(capsys, tmp_path):
    path = tmp_path / "mixture.json"
    code, payload, _ = run_json(
        capsys, "gen", "product-unitary", "--dims", "2,3", "--members", "3", "--out", str(path)
    )
    assert code == 0
    assert payload["metadata"]["parameters"] == {"dims": [2, 3], "members": 3, "seed": 0}
    fam = load_family(path).family
    assert (fam.n_members, fam.n_parties) == (3, 2)
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 0 and payload["is_complete"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fourier"], "gen fourier requires --dims"),
        (["product-unitary"], "gen product-unitary requires --dims"),
        (["product-unitary", "--dims", "2,2", "--members", "0"], "--members must be at least 1"),
        (["projective"], "gen projective requires --dims"),
        (["projective", "--dims", "2,2,2"], "exactly two dimensions"),
        (["augment"], "gen augment requires --file"),
        (["augment", "--file", "{base}", "--dim", "1"], "--dim 1 gives only 1"),
        (["tight"], "gen tight requires --n"),
    ],
    ids=[
        "fourier-no-dims",
        "product-unitary-no-dims",
        "product-unitary-no-members",
        "projective-no-dims",
        "projective-three-dims",
        "augment-no-file",
        "augment-small-dim",
        "tight-no-n",
    ],
)
def test_gen_usage_errors_exit_2(capsys, tmp_path, argv, message):
    base = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(base))
    out = tmp_path / "out.json"
    argv = [arg.format(base=base) for arg in argv]
    code, stdout, err = run_cli(capsys, "gen", *argv, "--out", str(out))
    assert code == 2
    assert stdout == "" and message in err
    assert not out.exists()


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


def test_verify_past_the_element_budget_exits_5(capsys, tmp_path):
    # One member of two (d_in, d_out) = (4096, 1) parties: its K^dag K sum
    # would be 2**24 x 2**24.
    path = tmp_path / "wide.json"
    row = np.ones((1, 4096))
    save_family(path, family_from_factors([(4096, 1)] * 2, [(1.0, [row, row])]))
    code, stdout, err = run_cli(capsys, "verify", str(path))
    assert code == 5
    assert stdout == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "element budget" in err


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


@pytest.mark.parametrize("flags", [[], ["--strategy", "pairs"]], ids=["default", "pairs"])
def test_certify_cap_message_names_the_flag(capsys, tmp_path, flags):
    # The cap counts members, whatever the strategy, so the message names
    # the flag and the library keyword that raise it and nothing else.
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, out, err = run_cli(capsys, "certify", str(path), "--max-subset", "3", *flags)
    assert (code, out) == (5, "")
    assert err == (
        "error: family has 4 members; exhaustive subset enumeration is capped at 3 "
        "(2**4 subsets). Raise max_members (--max-subset on the command line) to override.\n"
    )


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
    # The library's default policy is the CLI's --tol default.
    cert = certify_unique(fam, **kwargs)
    head = {"command": "certify", "tool_version": __version__, "file": str(path),
            "kind": "channel"}
    expected = json.dumps({**head, **cert.to_dict()}, indent=2)
    assert cert.to_json(head) == expected
    code, out, _ = run_cli(capsys, "certify", str(path), *flags)
    assert code == (0 if cert.unique else 4)
    assert out == expected + "\n"


@pytest.mark.parametrize("noise", [1e-11, 1e-10, 1e-9])
def test_library_and_cli_default_verdicts_agree(capsys, tmp_path, noise):
    # The 2x2 projector basis with Gaussian noise on every factor entry: its
    # verdict turns with the noise level, so library and CLI must share one
    # rank cutoff to agree at each level.
    rng = np.random.default_rng(0)
    proj = gen_projective_basis(2, 2)
    members = tuple(
        ProductOperator(m.weight, [f + noise * rng.standard_normal(f.shape) for f in m.factors])
        for m in proj.members
    )
    fam = OperatorFamily(proj.spec, members)
    path = tmp_path / "noisy-projective-22.json"
    save_family(path, fam)
    cert = certify_unique(fam)
    code, report, _ = run_json(capsys, "certify", str(path))
    assert code == (0 if cert.unique else 4)
    assert report["status"] == cert.status
    assert [w["members"] for w in report["witnesses"]] == [list(w.members) for w in cert.witnesses]


# Tight n=2 on three parties: each witness's members and its delta on every
# side of every split (both strategies agree on both).
TIGHT3_WITNESSES = [
    ("1,2", 1), ("3,4", 1), ("0,1,2", 2), ("0,3,4", 2), ("1,2,3", 2),
    ("1,2,4", 2), ("1,3,4", 2), ("2,3,4", 2), ("1,2,3,4", 2), ("0,1,2,3,4", 3),
]


def test_certify_text_report(capsys, tmp_path):
    path = tmp_path / "tight.json"
    save_family(path, gen_tight_family(2, n_parties=3)[0])
    for flag, strategy, splits in [
        ("pairs", "pairs", ["[0]|[1]", "[0]|[2]", "[1]|[2]"]),
        ("bipartitions", "all_bipartitions", ["[0]|[1, 2]", "[0, 1]|[2]", "[0, 2]|[1]"]),
    ]:
        code, out, _ = run_cli(capsys, "certify", str(path), "--report", "text",
                               "--strategy", flag)
        lines = ["status: Inconclusive", f"strategy: {strategy}", "members: 5",
                 "subsets examined: 26"]
        for members, delta in TIGHT3_WITNESSES:
            sums = "; ".join(f"{split} -> {delta}+{delta}" for split in splits)
            lines.append(f"witness {{{members}}}: {sums}")
        assert code == 4
        assert out == "\n".join(lines) + "\n"


def test_certify_text_report_of_one_party(capsys, tmp_path):
    # One party has no split: every subset survives, with no split sums.
    path = tmp_path / "one-party.json"
    save_family(path, random_product_family(np.random.default_rng(0), (3,), 4))
    code, out, _ = run_cli(capsys, "certify", str(path), "--report", "text")
    subsets = [s for size in (2, 3, 4) for s in itertools.combinations("0123", size)]
    lines = ["status: Inconclusive", "strategy: none, one party has no split", "members: 4",
             "subsets examined: 11"] + [f"witness {{{','.join(s)}}}" for s in subsets]
    assert code == 4
    assert out == "\n".join(lines) + "\n"


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


def _no_sides(*args):
    raise AssertionError("the hunt built its sides")


@pytest.mark.parametrize("dims", [(2, 2), (4096, 1), (32, 32)], ids=["2x2", "4096x1", "32x32"])
def test_hunt_on_one_member_exits_2_before_the_sides(capsys, tmp_path, monkeypatch, dims):
    # The default subset, every member, needs two members as --subset does.
    path = tmp_path / "one.json"
    d_in, d_out = dims
    factor = np.ones((d_out, d_in))
    save_family(path, family_from_factors([dims] * 2, [(1.0, [factor, factor])]))
    monkeypatch.setattr(sepcert.hunter, "_unit_members", _no_sides)
    code, stdout, err = run_cli(capsys, "hunt", str(path))
    assert code == 2
    assert stdout == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "at least 2 member indices" in err


def test_hunt_restart_stack_past_the_element_budget_exits_5(capsys, tmp_path, monkeypatch):
    # Two members of two 32 x 32 parties: 64 restarts of 2**20 entries each.
    path = tmp_path / "wide.json"
    eye, diag = np.eye(32), np.diag(np.arange(1.0, 33.0))
    save_family(path, family_from_factors([(32, 32)] * 2, [(1.0, [eye, eye]), (1.0, [diag, eye])]))
    monkeypatch.setattr(sepcert.hunter, "_unit_members", _no_sides)
    code, stdout, err = run_cli(capsys, "hunt", str(path))
    assert code == 5
    assert stdout == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "restart stack" in err and "element budget" in err


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


def test_non_integer_seed_is_usage_error(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    run_json(capsys, "gen", "eq701", "--out", str(path))
    code, out, err = run_cli(capsys, "hunt", str(path), "--seed", "abc")
    assert code == 2
    assert out == ""
    assert "--seed" in err and "'abc'" in err


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


def test_hunt_on_fourier_222_is_settled_by_the_compound_bound(capsys, tmp_path):
    path = tmp_path / "fourier.json"
    run_json(capsys, "gen", "fourier", "--dims", "2,2,2", "--out", str(path))
    code, payload, _ = run_json(capsys, "hunt", str(path), "--restarts", "16")
    assert code == 4
    assert payload["restarts_used"] == 0
    assert payload["found"] is False and payload["novel"] is False
    assert payload["candidate"] is None
    assert payload["residual"] >= payload["threshold"]
    assert set(payload) == {
        "command", "tool_version", "file", "found", "residual", "threshold", "seed",
        "subset", "restarts_used", "coefficients", "novel", "candidate",
    }


@pytest.mark.parametrize("s", [1e78, 1e150])
def test_hunt_on_a_scaled_member_is_screened_with_a_clean_stderr(tmp_path, s):
    # Member 1's party-0 factor times s: the hunt reads unit members, so
    # the screen's |full|_F^4 stays finite, the pair is still proven to
    # hold no product, and nothing is printed to stderr.
    ladder = gen_ladder_channel(0.5)
    m = ladder.members[1]
    scaled = ProductOperator(m.weight, (s * m.factors[0], m.factors[1]))
    path = tmp_path / "scaled.json"
    save_family(path, OperatorFamily(ladder.spec, (ladder.members[0], scaled, ladder.members[2])))
    proc = subprocess.run(
        [sys.executable, "-m", "sepcert", "hunt", str(path), "--subset", "0,1",
         "--restarts", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (4, "")
    assert json.loads(proc.stdout)["restarts_used"] == 0


def test_one_parser_serves_consecutive_calls(capsys, tmp_path):
    # Options given to one call must not leak into the next.
    path = tmp_path / "proj.json"
    run_json(capsys, "gen", "projective", "--dims", "2,2", "--out", str(path))
    code, first, _ = run_json(capsys, "hunt", str(path), "--subset", "0,1", "--seed", "3")
    assert (code, first["subset"], first["seed"]) == (0, [0, 1], 3)
    code, second, _ = run_json(capsys, "hunt", str(path), "--restarts", "2")
    assert (code, second["subset"], second["seed"]) == (0, [0, 1, 2, 3], 0)
    assert run_cli(capsys, "hunt")[0] == 2
    code, out, _ = run_cli(capsys, "--version")
    assert (code, out) == (0, f"sepcert {__version__}\n")


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


def test_choi_state_past_the_element_budget_exits_5_and_writes_nothing(capsys, tmp_path):
    # One member of two 32 x 32 parties: its Choi matrix would be 2**20 x 2**20.
    channel = tmp_path / "wide.json"
    eye = np.eye(32)
    save_family(channel, family_from_factors([(32, 32)] * 2, [(1.0, [eye, eye])]))
    ensemble = tmp_path / "ens.json"
    state = tmp_path / "state.json"
    code, stdout, err = run_cli(
        capsys, "choi", str(channel), "--out", str(ensemble), "--state-out", str(state)
    )
    assert code == 5
    assert stdout == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "element budget" in err
    assert not ensemble.exists() and not state.exists()


def test_choi_state_out_in_a_missing_directory_names_the_target(capsys, tmp_path):
    channel = tmp_path / "ladder.json"
    state = tmp_path / "missing" / "state.json"
    run_json(capsys, "gen", "eq701", "--out", str(channel))
    code, _, err = run_cli(
        capsys, "choi", str(channel), "--out", str(tmp_path / "ens.json"), "--state-out", str(state)
    )
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{state}'\n"


def test_choi_state_out_onto_a_directory_names_the_target(capsys, tmp_path):
    channel = tmp_path / "ladder.json"
    state = tmp_path / "state.json"
    state.mkdir()
    run_json(capsys, "gen", "eq701", "--out", str(channel))
    code, _, err = run_cli(
        capsys, "choi", str(channel), "--out", str(tmp_path / "ens.json"), "--state-out", str(state)
    )
    assert code == 2
    assert err == f"error: [Errno 21] Is a directory: '{state}'\n"
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.json", "ladder.json", "state.json"]
    assert not any(state.iterdir())


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


def _ladder_file_with(tmp_path, old, new):
    """The eq701 ladder file with the first ``old`` in member 1 made ``new``."""
    path = tmp_path / "ladder.json"
    save_family(path, gen_ladder_channel(0.5))
    data = json.loads(path.read_text())
    member = json.dumps(data["members"][1])
    assert old in member
    path.write_text(json.dumps(data).replace(member, member.replace(old, new, 1)))
    return path


@pytest.mark.parametrize(
    "old, new",
    [
        ('"weight": [1.0, 0.0]', '"weight": [NaN, 0.0]'),
        ('"weight": [1.0, 0.0]', '"weight": [Infinity, 0.0]'),
        ('"weight": [1.0, 0.0]', '"weight": [1e400, 0.0]'),
        ("[1.0, 0.0]]", "[1e400, 0.0]]"),
    ],
    ids=["weight-nan", "weight-inf", "weight-overflow", "factor-overflow"],
)
@pytest.mark.parametrize("command", ["certify", "verify", "choi"])
def test_non_finite_member_exits_2_and_names_it(capsys, tmp_path, old, new, command):
    path = _ladder_file_with(tmp_path, old, new)
    out = tmp_path / "ensemble.json"
    extra = ["--out", str(out)] if command == "choi" else []
    code, stdout, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2
    assert "member 1" in err and "finite" in err
    assert not stdout and not out.exists()


@pytest.mark.parametrize("command", ["certify", "verify", "hunt", "choi"])
def test_overflowing_member_exits_2_and_names_it(capsys, tmp_path, command):
    # Each number is finite, but member 1's operator, 1e200 * 1e200 times the
    # ladder's, is not.
    path = tmp_path / "ladder.json"
    save_family(path, gen_ladder_channel(0.5))
    data = json.loads(path.read_text())
    member = data["members"][1]
    member["weight"] = [1e200, 0.0]
    member["factors"][0] = [[[1e200 * x for x in z] for z in row] for row in member["factors"][0]]
    path.write_text(json.dumps(data))
    out = tmp_path / "ensemble.json"
    extra = {"choi": ["--out", str(out)], "hunt": ["--subset", "0,1"]}.get(command, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2
    assert "member 1" in err and "overflows" in err
    assert not stdout and not out.exists()


def test_verify_names_the_member_whose_gram_overflows(capsys, tmp_path):
    # Member 1's operator, 1e160 times the ladder's, fits the float range,
    # but its K^dag K does not.
    path = tmp_path / "ladder.json"
    save_family(path, gen_ladder_channel(0.5))
    data = json.loads(path.read_text())
    factors = data["members"][1]["factors"]
    factors[0] = [[[1e160 * x for x in z] for z in row] for row in factors[0]]
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert f"error: {path}, member 1: " in err and "overflows" in err
    assert not stdout


def test_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(capsys, "certify", str(path))
    assert code == 2
    assert str(path) in err and "UTF-8" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert str(path) in err and "nested" in err


def _loaded_after(module: str, names: list[str]) -> list[bool]:
    """Which of ``names`` a fresh interpreter has in ``sys.modules`` after
    importing ``module``."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import json, sys, {module}; print(json.dumps([n in sys.modules for n in {names}]))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_leaves_out_secrets():
    # secrets pulls hmac and hashlib into every process; os.urandom suffices.
    assert _loaded_after("sepcert.cli", ["secrets"]) == [False]


def test_importing_certify_leaves_out_the_other_modules():
    # The paper's test needs errors, linalg and families only.
    names = ["sepcert.linalg", "sepcert.hunter", "sepcert.zoo", "sepcert.choi",
             "sepcert.sampling", "sepcert.serialize"]
    assert _loaded_after("sepcert.certify", names) == [True] + [False] * 5


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "sepcert", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.parametrize("read", [0, 10], ids=["closed", "head-c10"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_certify_into_a_closed_pipe_exits_2(tmp_path, read, unbuffered):
    # A reader that leaves after `read` bytes of the streamed 1 MB report:
    # exit 2 with one line on stderr, and no second error when the
    # interpreter flushes stdout at exit.
    path = tmp_path / "projective-26.json"
    save_family(path, gen_projective_basis(2, 6))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepcert", "certify", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize(
    "command, name",
    [("verify", "ladder"), ("certify", "ladder"), ("hunt", "ladder"),
     ("certify", "projective-26")],
)
def test_a_report_that_stdout_cannot_take_exits_2(tmp_path, command, name, sink):
    # With buffered stdout the ladder's reports fit the buffer, so they are
    # written by the flush in main, not at exit; the 1 MB report is written
    # while it streams.  A reader that has gone or a full device gives exit
    # 2 with one line on stderr, and no second error at exit.
    if sink == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    fam = gen_ladder_channel(0.5) if name == "ladder" else gen_projective_basis(2, 6)
    path = tmp_path / f"{name}.json"
    save_family(path, fam)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "sepcert", command, str(path)]
    if sink == "closed-pipe":
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        expected = b"error: [Errno 32] Broken pipe\n"
    else:
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60
            )
        code, err = proc.returncode, proc.stderr
        expected = b"error: [Errno 28] No space left on device\n"
    assert code == 2
    assert err == expected
