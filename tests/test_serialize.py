"""JSON (de)serialization of operator families."""

import json
import os
import stat

import numpy as np
import pytest

from sepcert.choi import channel_to_choi_ensemble
from sepcert.errors import UsageError
from sepcert.serialize import (
    FORMAT_VERSION,
    _complex_from,
    detect_kind,
    dump_json,
    family_from_dict,
    family_to_dict,
    load_family,
    save_family,
)
from sepcert.zoo import gen_fourier_channel, gen_ladder_channel


def test_round_trip_is_bit_exact(tmp_path):
    fam = gen_ladder_channel(0.9 * np.exp(1j * np.pi / 3), phi=np.pi / 7)
    path = tmp_path / "ladder.json"
    save_family(path, fam, metadata={"note": "round trip"})
    loaded = load_family(path)
    assert loaded.kind == "channel"
    assert loaded.metadata == {"note": "round trip"}
    assert loaded.family.n_members == fam.n_members
    assert tuple(loaded.family.spec.parties) == tuple(fam.spec.parties)
    for a, b in zip(loaded.family.members, fam.members):
        assert a.weight == b.weight
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)


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
