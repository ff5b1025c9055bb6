"""Versioned JSON interchange for product operator families.

One file format covers both Kraus families (``kind: "channel"``) and ket
ensembles (``kind: "ensemble"``, every factor a single column):

    {
      "format_version": 1,
      "parties": [{"d_in": 2, "d_out": 2}, ...],
      "kind": "channel",
      "members": [{"weight": [re, im], "factors": [matrix, ...]}, ...],
      "metadata": {...}
    }

Matrices are row-major nested lists with complex entries as ``[re, im]``
pairs, which ``complex_to_json`` writes for the weights and each party's
factor stack at once.  Python's repr-based float serialization makes
save/load round trips bit-exact.  A document loads along one path: ``_parsed_members`` gates and
reads every party's numbers at once into the family's factor stacks, and
``OperatorFamily._from_stacks`` checks the members in one batch.  Only a
document that fails the gate is walked entry by entry, to name its first
fault in document order (``_raise_first_fault``).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from itertools import chain
from numbers import Real
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import DegenerateInputError, NumericError, UsageError
from .families import OperatorFamily, PartySpec, _member_fault

FORMAT_VERSION = 1

KIND_CHANNEL = "channel"
KIND_ENSEMBLE = "ensemble"
_KINDS = (KIND_CHANNEL, KIND_ENSEMBLE)


def complex_to_json(a) -> list:
    """A complex scalar, vector, matrix or stack as nested lists whose
    entries are [re, im] pairs of floats, read through one float view."""
    a = np.asarray(a, dtype=np.complex128, order="C")
    return a.reshape(*a.shape, 1).view(np.float64).tolist()


def _complex_from(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, Real) and not isinstance(v, bool) for v in obj)
    ):
        raise UsageError(f"{where}: expected a [re, im] number pair, got {obj!r}")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except OverflowError:
        raise UsageError(f"{where}: [re, im] pair holds an integer beyond the float range") from None


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{where}: expected a non-empty list of rows")
    width = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise UsageError(f"{where}, row {r}: expected a non-empty list of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise UsageError(
                f"{where}, row {r}: ragged matrix ({len(row)} entries, expected {width})"
            )
        rows.append([_complex_from(v, f"{where}, row {r}, column {c}")
                     for c, v in enumerate(row)])
    return np.asarray(rows, dtype=np.complex128)


@dataclass(frozen=True)
class LoadedFile:
    """A parsed interchange file: the family plus its kind and metadata."""

    family: OperatorFamily
    kind: str
    metadata: dict = field(default_factory=dict)


def detect_kind(fam: OperatorFamily) -> str:
    """"ensemble" when every party is a ket (d_in = 1), else "channel"."""
    if fam.spec.total_d_in == 1:
        return KIND_ENSEMBLE
    return KIND_CHANNEL


def family_to_dict(fam: OperatorFamily, metadata: dict | None = None) -> dict:
    """The file document of ``fam``; its kind is :func:`detect_kind`."""
    return {
        "format_version": FORMAT_VERSION,
        "parties": fam.spec.to_dicts(),
        "kind": detect_kind(fam),
        "members": [
            {"weight": w, "factors": list(fs)}
            for w, fs in zip(complex_to_json(fam.weights),
                             zip(*map(complex_to_json, fam._party_stacks)))
        ],
        "metadata": dict(metadata) if metadata else {},
    }


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise UsageError(f"{where}: missing required field '{key}'")
    return data[key]


def _all(items, kinds) -> bool:
    """Whether every item is an instance of ``kinds``, asked once per type."""
    return all(issubclass(t, kinds) for t in set(map(type, items)))


def _parsed_members(raw_members: list, spec: PartySpec) -> tuple | None:
    """The weights and per-party (N, d_out, d_in) factor stacks, or None
    when some member breaks the format.  Each level is gated over every
    member at once, asking each distinct type once what ``_complex_from``
    and ``matrix_from_json`` ask each entry; numpy would read "1.5" or true
    as a number.  Then one ``np.array`` per party reads all its numbers."""
    if not _all(raw_members, dict) or not all("weight" in m and "factors" in m
                                               for m in raw_members):
        return None
    weights, factors = [m["weight"] for m in raw_members], [m["factors"] for m in raw_members]
    if not _all(factors, list) or set(map(len, factors)) != {spec.n_parties}:
        return None
    arrays = []
    for entries, shape in [(weights, ())] + [([f[p] for f in factors], spec.factor_shape(p))
                                             for p in range(spec.n_parties)]:
        for kinds, width in [(list, w) for w in shape] + [((list, tuple), 2)]:
            if not _all(entries, kinds) or set(map(len, entries)) != {width}:
                return None
            entries = list(chain.from_iterable(entries))
        if not all(issubclass(t, Real) and not issubclass(t, bool) for t in set(map(type, entries))):
            return None
        try:
            numbers = np.array(entries, dtype=np.float64)
        except (OverflowError, TypeError, ValueError):
            return None
        arrays.append(numbers.view(np.complex128).reshape(len(raw_members), *shape))
    return arrays[0], arrays[1:]


def _raise_first_fault(raw_members: list, spec: PartySpec, where: str) -> NoReturn:
    """Raise the error of the first fault of the members in document order,
    as the entries are read one by one; it never returns a family."""
    for j, entry in enumerate(raw_members):
        ctx = f"{where}, member {j}"
        if not isinstance(entry, dict):
            raise UsageError(f"{ctx}: expected an object with weight/factors")
        weight = _complex_from(_require(entry, "weight", ctx), f"{ctx}, weight")
        raw_factors = _require(entry, "factors", ctx)
        if not isinstance(raw_factors, list) or len(raw_factors) != spec.n_parties:
            raise UsageError(
                f"{ctx}: expected {spec.n_parties} factors, got "
                f"{len(raw_factors) if isinstance(raw_factors, list) else raw_factors!r}"
            )
        factors = []
        for p, raw in enumerate(raw_factors):
            f = matrix_from_json(raw, f"{ctx}, party {p}")
            if f.shape != spec.factor_shape(p):
                raise UsageError(
                    f"{ctx}, party {p}: expected shape {spec.factor_shape(p)}, "
                    f"got {f.shape}"
                )
            factors.append(f[None])
        fault = _member_fault(np.array([weight]), factors)
        if fault is not None:
            raise UsageError(f"{ctx}: {fault[1]}")
    raise UsageError(f"{where}: 'members' holds numbers that numpy cannot read as floats")


def family_from_dict(data, where: str = "channel file") -> LoadedFile:
    if not isinstance(data, dict):
        raise UsageError(f"{where}: top level must be a JSON object")
    version = _require(data, "format_version", where)
    if isinstance(version, bool) or not isinstance(version, int):
        raise UsageError(f"{where}: format_version must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise UsageError(
            f"{where}: unsupported format_version {version} (this build reads "
            f"version {FORMAT_VERSION})"
        )

    raw_parties = _require(data, "parties", where)
    if not isinstance(raw_parties, list) or not raw_parties:
        raise UsageError(f"{where}: 'parties' must be a non-empty list")
    parties = []
    for p, entry in enumerate(raw_parties):
        if not isinstance(entry, dict):
            raise UsageError(f"{where}, party {p}: expected an object with d_in/d_out")
        for key in ("d_in", "d_out"):
            v = entry.get(key)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise UsageError(
                    f"{where}, party {p}: '{key}' must be a positive integer, got {v!r}"
                )
        parties.append((entry["d_in"], entry["d_out"]))
    spec = PartySpec(tuple(parties))

    kind = _require(data, "kind", where)
    if kind not in _KINDS:
        raise UsageError(f"{where}: kind must be one of {_KINDS}, got {kind!r}")
    if kind == KIND_ENSEMBLE and spec.total_d_in != 1:
        raise UsageError(
            f"{where}: kind 'ensemble' requires d_in = 1 for every party"
        )

    raw_members = _require(data, "members", where)
    if not isinstance(raw_members, list) or not raw_members:
        raise UsageError(f"{where}: 'members' must be a non-empty list")
    parsed = _parsed_members(raw_members, spec)
    if parsed is None:
        _raise_first_fault(raw_members, spec, where)
    try:
        family = OperatorFamily._from_stacks(spec, *parsed)
    except (DegenerateInputError, NumericError) as exc:
        raise UsageError(f"{where}, {exc}") from exc

    metadata = data.get("metadata", {})
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict):
        raise UsageError(f"{where}: 'metadata' must be an object")

    return LoadedFile(family=family, kind=kind, metadata=metadata)


def dump_json(path, payload: dict) -> None:
    """Write a JSON document atomically (temp file + rename in the target dir).

    The file gets mode 0666 less the umask, as a plain ``open`` would give it.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2) + "\n"
    tmp = path.with_name(f"{path.name}{os.urandom(4).hex()}.tmp")
    # Errors name the file the caller asked for, not the temp file.
    try:
        # O_EXCL refuses an existing name or symlink; the kernel applies the umask.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def save_family(path, fam: OperatorFamily, metadata: dict | None = None) -> None:
    """Serialize and write atomically."""
    dump_json(path, family_to_dict(fam, metadata))


def load_family(path) -> LoadedFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise UsageError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    return family_from_dict(data, where=str(path))
