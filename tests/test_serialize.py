"""JSON (de)serialization of operator families."""

import copy
import json
import os
import stat

import numpy as np
import pytest

from sepcert.choi import channel_to_choi_ensemble
from sepcert.cli import main
from sepcert.errors import UsageError
from sepcert.families import family_from_factors
from sepcert.sampling import random_product_family
from sepcert.serialize import (
    FORMAT_VERSION,
    _complex_from,
    detect_kind,
    dump_json,
    family_from_dict,
    family_to_dict,
    load_family,
    matrix_from_json,
    save_family,
)
from sepcert.zoo import gen_fourier_channel, gen_ladder_channel, gen_projective_basis
from test_acceptance import _zoo


def _per_entry_document(fam, metadata):
    """The file document of ``fam`` encoded one complex entry at a time."""

    def pair(z):
        return [complex(z).real, complex(z).imag]

    return {
        "format_version": FORMAT_VERSION,
        "parties": fam.spec.to_dicts(),
        "kind": detect_kind(fam),
        "members": [
            {"weight": pair(m.weight),
             "factors": [[[pair(z) for z in row] for row in f] for f in m.factors]}
            for m in fam.members
        ],
        "metadata": metadata,
    }


def _signed_zeros_family():
    z = complex(-0.0, -0.0)
    return family_from_factors(((2, 2), (1, 2)), [
        (complex(1.0, -0.0), [[[1.0, complex(-0.0, 0.0)], [complex(0.0, -0.0), z]], [[z], [2.0]]]),
        (complex(-0.0, 0.5), [[[z, 1.0], [z, z]], [[-1.0], [complex(-0.0, 3.0)]]]),
    ])


def test_round_trip_is_bit_exact(tmp_path):
    families = {**_zoo(), "signed-zeros": _signed_zeros_family(),
                "ladder-choi": channel_to_choi_ensemble(gen_ladder_channel(0.5))}
    for name, fam in families.items():
        path = tmp_path / f"{name}.json"
        save_family(path, fam, metadata={"note": "round trip"})
        # The stacked encoder writes the bytes of the per-entry one.
        expected = _per_entry_document(fam, {"note": "round trip"})
        assert path.read_text() == json.dumps(expected, indent=2) + "\n", name
        loaded = load_family(path)
        assert loaded.kind == detect_kind(fam)
        assert loaded.metadata == {"note": "round trip"}
        assert tuple(loaded.family.spec.parties) == tuple(fam.spec.parties)
        assert loaded.family.weights.tobytes() == fam.weights.tobytes(), name
        for p in range(fam.n_parties):
            assert loaded.family.local_factors(p).tobytes() == fam.local_factors(p).tobytes()


def test_detect_kind():
    fam = gen_fourier_channel((2, 2))
    assert detect_kind(fam) == "channel"
    assert detect_kind(channel_to_choi_ensemble(fam)) == "ensemble"


def test_family_to_dict_schema():
    fam = gen_ladder_channel(0.5)
    data = family_to_dict(fam)
    assert data["format_version"] == FORMAT_VERSION
    assert data["kind"] == "channel"
    assert data["parties"] == [{"d_in": 2, "d_out": 2}, {"d_in": 2, "d_out": 2}]
    assert len(data["members"]) == 3
    member = data["members"][0]
    assert member["weight"] == [1.0, 0.0]
    # Entries are [re, im] pairs: E01 upper-right entry.
    assert member["factors"][0][0][1] == [1.0, 0.0]
    json.dumps(data)  # everything must already be JSON-native


def test_dump_json_writes_trailing_newline(tmp_path):
    path = tmp_path / "doc.json"
    dump_json(path, {"x": 1})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"x": 1}
    # No temp droppings left behind next to the target.
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_dump_json_honours_the_umask(tmp_path):
    path = tmp_path / "doc.json"
    old = os.umask(0o022)
    try:
        dump_json(path, {"x": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_load_family_missing_file(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        load_family(tmp_path / "nope.json")


def test_load_family_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1,')
    with pytest.raises(UsageError, match=r"line 1, column"):
        load_family(path)


def _valid_doc():
    return family_to_dict(gen_ladder_channel(0.5))


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("members"), "members"),
        (lambda d: d.pop("parties"), "parties"),
        (lambda d: d.update(format_version=2), "format_version"),
        (lambda d: d.update(format_version=True), "format_version"),
        (lambda d: d.update(kind="potato"), "kind"),
        (lambda d: d.update(members=[]), "members"),
        (lambda d: d.update(metadata="hello"), "metadata"),
        (lambda d: d["parties"][0].update(d_in=0), "d_in"),
        (lambda d: d["members"][0].update(weight=[1.0]), "weight"),
        (lambda d: d["members"][0]["factors"].pop(), "factors"),
    ],
)
def test_family_from_dict_diagnostics(mutate, fragment):
    data = _valid_doc()
    mutate(data)
    with pytest.raises(UsageError, match=fragment):
        family_from_dict(data)


def test_ragged_matrix_rows_name_the_row():
    data = _valid_doc()
    data["members"][0]["factors"][0][1] = [[1.0, 0.0]]  # row 1 now has 1 entry
    with pytest.raises(UsageError, match="row 1"):
        family_from_dict(data)


def test_wrong_factor_shape_names_member_and_party():
    data = _valid_doc()
    data["members"][2]["factors"][1] = [[[1.0, 0.0]]]  # 1x1 instead of 2x2
    with pytest.raises(UsageError, match=r"member 2.*party 1|party 1.*member 2"):
        family_from_dict(data)


def test_zero_factor_wrapped_with_member_context():
    data = _valid_doc()
    zero_2x2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    data["members"][1]["factors"][0] = zero_2x2
    with pytest.raises(UsageError, match="member 1"):
        family_from_dict(data)


def test_ensemble_round_trip(tmp_path):
    ens = channel_to_choi_ensemble(gen_ladder_channel(0.5))
    path = tmp_path / "ens.json"
    save_family(path, ens)
    loaded = load_family(path)
    assert loaded.kind == "ensemble"
    assert tuple(loaded.family.spec.parties) == ((1, 4), (1, 4))


def test_complex_entries_survive_exactly(tmp_path):
    # Weights and entries with exact binary fractions must round-trip bit for bit.
    fam = gen_fourier_channel((2, 2))
    path = tmp_path / "fourier.json"
    save_family(path, fam)
    loaded = load_family(path)
    for a, b in zip(loaded.family.members, fam.members):
        assert complex(a.weight) == complex(b.weight)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)


@pytest.mark.parametrize(
    "pair,value",
    [
        ([1.5, -2], 1.5 - 2j),
        ([3, 4], 3 + 4j),
        ((1.0, 2.0), 1 + 2j),
        ([np.float64(0.25), 2.0], 0.25 + 2j),
        ([1.0, np.int64(-3)], 1 - 3j),
    ],
)
def test_number_pairs_load_as_complex(pair, value):
    z = _complex_from(pair, "w")
    assert type(z) is complex and z == value


def test_signed_zeros_load_exactly():
    z = _complex_from([-0.0, -0.0], "w")
    assert np.signbit(z.real) and np.signbit(z.imag)


@pytest.mark.parametrize(
    "pair",
    [[True, 0.0], [1.0, False], ["1", 0.0], [1.0, None], [1.0, 2.0, 3.0], [1.0], [], 1.0,
     {"re": 1.0, "im": 0.0}, [1j, 0.0]],
    ids=["bool-re", "bool-im", "str", "none", "three", "one", "empty", "scalar", "dict", "complex"],
)
def test_non_number_pairs_are_usage_errors(pair):
    with pytest.raises(UsageError) as err:
        _complex_from(pair, "m, weight")
    assert str(err.value) == f"m, weight: expected a [re, im] number pair, got {pair!r}"


# ---------------------------------------------------------------------------
# The one load path: a gated vectorized parse into per-party stacks


def _per_entry(doc):
    """Weights and per-party factor stacks read entry by entry."""
    members = doc["members"]
    weights = np.array([_complex_from(m["weight"], "w") for m in members])
    stacks = [
        np.stack([matrix_from_json(m["factors"][p], "f") for m in members])
        for p in range(len(doc["parties"]))
    ]
    return weights, stacks


def _with_entries(doc, values):
    """``doc`` with member j's party-p entry (r, c) set to each of ``values``."""
    for j, p, r, c, value in values:
        doc["members"][j]["factors"][p][r][c] = value
    return doc


def _loader_docs():
    ladder = family_to_dict(gen_ladder_channel(0.9 * np.exp(1j * np.pi / 3), phi=np.pi / 7))
    return {
        "ladder": ladder,
        "fourier-222": family_to_dict(gen_fourier_channel((2, 2, 2))),
        "projective-33": family_to_dict(gen_projective_basis(3, 3)),
        "random-33": family_to_dict(random_product_family(np.random.default_rng(3), (3, 3), 7)),
        "ensemble": family_to_dict(channel_to_choi_ensemble(gen_ladder_channel(0.5))),
        "signed-zeros": _with_entries(copy.deepcopy(ladder), [
            (0, 0, 0, 0, [-0.0, -0.0]), (1, 1, 1, 1, [-0.0, 0.0]), (2, 0, 0, 0, [0.0, -0.0])]),
        "integers": _with_entries(copy.deepcopy(ladder), [
            (0, 0, 0, 0, [3, -4]), (1, 1, 0, 1, [2**70 + 1, 0]), (2, 1, 1, 1, [-(2**63), 7])]),
        "extremes": _with_entries(copy.deepcopy(ladder), [
            (0, 0, 0, 0, [1e300, -1e-300]), (1, 1, 1, 0, [5e-324, 1e-300]),
            (2, 1, 0, 0, [-1e-300, 1e300])]),
        "python-scalars": _with_entries(copy.deepcopy(ladder), [
            (0, 0, 0, 0, (0.5, 1)), (1, 1, 1, 1, [np.float64(0.25), np.int64(-3)])]),
    }


@pytest.mark.parametrize("name", list(_loader_docs()))
def test_loaded_stacks_are_the_per_entry_parse(name):
    doc = _loader_docs()[name]
    fam = family_from_dict(doc).family
    weights, stacks = _per_entry(doc)
    assert fam.weights.tobytes() == weights.tobytes()
    assert not fam.weights.flags.writeable
    for p, stack in enumerate(stacks):
        loaded = fam.local_factors(p)
        assert loaded.dtype == np.complex128 and loaded.shape == stack.shape
        assert loaded.tobytes() == stack.tobytes()
        assert not loaded.flags.writeable
        # The members' factors are read-only views into the stack.
        members = [m.factors[p] for m in fam.members]
        assert all(not f.flags.writeable and np.shares_memory(f, loaded) for f in members)
        assert np.stack(members).tobytes() == stack.tobytes()
    assert np.array([m.weight for m in fam.members]).tobytes() == weights.tobytes()
    assert all(type(m.weight) is complex for m in fam.members)


def _ladder_doc():
    return family_to_dict(gen_ladder_channel(0.5))


def _zero(doc, j, p):
    doc["members"][j]["factors"][p] = [[[0.0, -0.0]] * 2] * 2


def _entry(j, p, r, c, value):
    return lambda d: _with_entries(d, [(j, p, r, c, value)])


#: (mutation of the ladder document, error after the file's name).
MALFORMED = {
    "bool-entry": (_entry(1, 0, 0, 1, [True, 0.0]),
                   "member 1, party 0, row 0, column 1: expected a [re, im] number pair, "
                   "got [True, 0.0]"),
    "string-entry": (_entry(1, 0, 0, 1, ["1.5", 0.0]),
                     "member 1, party 0, row 0, column 1: expected a [re, im] number pair, "
                     "got ['1.5', 0.0]"),
    "null-entry": (_entry(2, 1, 1, 0, None),
                   "member 2, party 1, row 1, column 0: expected a [re, im] number pair, "
                   "got None"),
    "three-numbers": (_entry(0, 1, 0, 0, [1.0, 0.0, 0.0]),
                      "member 0, party 1, row 0, column 0: expected a [re, im] number pair, "
                      "got [1.0, 0.0, 0.0]"),
    "ragged-rows": (lambda d: d["members"][1]["factors"][0][1].pop(),
                    "member 1, party 0, row 1: ragged matrix (1 entries, expected 2)"),
    "wrong-shape": (lambda d: d["members"][2]["factors"].__setitem__(1, [[[1.0, 0.0]]]),
                    "member 2, party 1: expected shape (2, 2), got (1, 1)"),
    "integer-past-float": (_entry(1, 0, 0, 0, [10**400, 0]),
                           "member 1, party 0, row 0, column 0: [re, im] pair holds an integer "
                           "beyond the float range"),
    "nan-entry": (_entry(1, 1, 0, 0, [float("nan"), 0.0]),
                  "member 1: matrix contains non-finite entries"),
    "infinity-entry": (_entry(2, 0, 1, 1, [0.0, -float("inf")]),
                       "member 2: matrix contains non-finite entries"),
    "nan-weight": (lambda d: d["members"][0].update(weight=[float("nan"), 0.0]),
                   "member 0: product operator weight must be finite"),
    "zero-factor": (lambda d: _zero(d, 1, 1), "member 1: factor 1 is the zero matrix"),
    "zero-weight": (lambda d: d["members"][2].update(weight=[0.0, -0.0]),
                    "member 2: product operator weight must be nonzero"),
    "overflowing-member": (
        lambda d: (d["members"][1].update(weight=[1e200, 0.0]),
                   _with_entries(d, [(1, 0, 0, 1, [1e200, 0.0])])),
        "member 1: product operator overflows: |weight| times its factor norms exceeds "
        "the float range"),
    "zero-weight-before-bool-entry": (
        lambda d: (d["members"][0].update(weight=[0.0, 0.0]),
                   _with_entries(d, [(2, 1, 0, 0, [True, 0.0])])),
        "member 0: product operator weight must be nonzero"),
    "bool-entry-before-zero-factor": (
        lambda d: (_with_entries(d, [(0, 1, 1, 1, [False, 0.0])]), _zero(d, 2, 0)),
        "member 0, party 1, row 1, column 1: expected a [re, im] number pair, "
        "got [False, 0.0]"),
    "string-entry-before-nan-entry": (
        lambda d: _with_entries(d, [(1, 1, 0, 0, [float("nan"), 0.0]), (1, 0, 1, 1, ["0", 0])]),
        "member 1, party 0, row 1, column 1: expected a [re, im] number pair, got ['0', 0]"),
    "member-not-an-object": (lambda d: d["members"].__setitem__(1, [1, 2]),
                             "member 1: expected an object with weight/factors"),
    "member-without-weight": (lambda d: d["members"][2].pop("weight"),
                              "member 2: missing required field 'weight'"),
    "member-without-factors": (lambda d: d["members"][0].pop("factors"),
                               "member 0: missing required field 'factors'"),
    "empty-factor": (lambda d: d["members"][1]["factors"].__setitem__(0, []),
                     "member 1, party 0: expected a non-empty list of rows"),
    "empty-row": (lambda d: d["members"][1]["factors"].__setitem__(1, [[]]),
                  "member 1, party 1, row 0: expected a non-empty list of entries"),
    "shape-before-null-entry": (
        lambda d: (d["members"][0]["factors"][0].append([[1.0, 0.0]] * 2),
                   _with_entries(d, [(0, 1, 0, 0, None)])),
        "member 0, party 0: expected shape (2, 2), got (3, 2)"),
}


def _assert_refused(doc, message, tmp_path, capsys):
    """``doc`` is refused with "<file name><message>", by the library and
    by ``sepcert certify`` (exit 2, nothing on stdout)."""
    with pytest.raises(UsageError) as err:
        family_from_dict(doc, where="ladder.json")
    assert str(err.value) == f"ladder.json{message}"
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as JSON's tokens
    assert main(["certify", str(path)]) == 2
    out, stderr = capsys.readouterr()
    assert not out and stderr == f"error: {path}{message}\n"


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_members_name_the_first_fault(name, tmp_path, capsys):
    mutate, message = MALFORMED[name]
    doc = _ladder_doc()
    mutate(doc)
    _assert_refused(doc, f", {message}", tmp_path, capsys)


#: (the ladder document with a malformed head, error after the file's name).
MALFORMED_HEADS = {
    "top-level-list": (lambda d: [d], ": top level must be a JSON object"),
    "no-parties": (lambda d: {**d, "parties": []}, ": 'parties' must be a non-empty list"),
    "party-not-an-object": (lambda d: {**d, "parties": [d["parties"][0], [2, 2]]},
                            ", party 1: expected an object with d_in/d_out"),
    "ensemble-with-inputs": (lambda d: {**d, "kind": "ensemble"},
                             ": kind 'ensemble' requires d_in = 1 for every party"),
}


@pytest.mark.parametrize("name", list(MALFORMED_HEADS))
def test_malformed_heads_are_refused(name, tmp_path, capsys):
    build, message = MALFORMED_HEADS[name]
    _assert_refused(build(_ladder_doc()), message, tmp_path, capsys)


def test_null_metadata_reads_as_empty(tmp_path, capsys):
    doc = {**_ladder_doc(), "metadata": None}
    assert family_from_dict(doc).metadata == {}
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Unique"


def test_an_integer_past_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    # Python refuses to read an integer of more than 4,300 digits.
    text = json.dumps(_ladder_doc())
    path = tmp_path / "ladder.json"
    path.write_text(text.replace('"weight": [1.0, 0.0]', '"weight": [1' + "0" * 5000 + ", 0.0]", 1))
    assert path.read_text() != text
    with pytest.raises(UsageError) as err:
        load_family(path)
    assert str(err.value).startswith(str(path))
    assert main(["certify", str(path)]) == 2
    out, stderr = capsys.readouterr()
    assert not out and stderr.startswith(f"error: {path}")
