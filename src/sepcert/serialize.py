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
pairs.  Python's repr-based float serialization makes save/load round trips
bit-exact.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ShapeError, UsageError
from .families import OperatorFamily, PartySpec, ProductOperator

FORMAT_VERSION = 1

KIND_CHANNEL = "channel"
KIND_ENSEMBLE = "ensemble"
_KINDS = (KIND_CHANNEL, KIND_ENSEMBLE)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _complex_from(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, Real) and not isinstance(v, bool) for v in obj)
    ):
        raise UsageError(f"{where}: expected a [re, im] number pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_to_json(z) for z in row] for row in m]


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
            {
                "weight": complex_to_json(m.weight),
                "factors": [matrix_to_json(f) for f in m.factors],
            }
            for m in fam.members
        ],
        "metadata": dict(metadata) if metadata else {},
    }


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise UsageError(f"{where}: missing required field '{key}'")
    return data[key]


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
    members = []
    for j, entry in enumerate(raw_members):
        ctx = f"{where}, member {j}"
        if not isinstance(entry, dict):
            raise UsageError(f"{ctx}: expected an object with weight/factors")
        weight = _complex_from(_require(entry, "weight", ctx), f"{ctx}, weight")
        raw_factors = _require(entry, "factors", ctx)
        if not isinstance(raw_factors, list) or len(raw_factors) != len(parties):
            raise UsageError(
                f"{ctx}: expected {len(parties)} factors, got "
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
            factors.append(f)
        try:
            members.append(ProductOperator(weight, tuple(factors)))
        except (DegenerateInputError, ShapeError) as exc:
            raise UsageError(f"{ctx}: {exc}") from exc

    metadata = data.get("metadata", {})
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict):
        raise UsageError(f"{where}: 'metadata' must be an object")

    family = OperatorFamily(spec, tuple(members))
    return LoadedFile(family=family, kind=kind, metadata=metadata)


def dump_json(path, payload: dict) -> None:
    """Write a JSON document atomically (temp file + rename in the target dir).

    The file gets mode 0666 less the umask, as a plain ``open`` would give it.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2) + "\n"
    tmp = path.with_name(f"{path.name}{secrets.token_hex(4)}.tmp")
    # O_EXCL refuses an existing name or symlink; the kernel applies the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_family(path, fam: OperatorFamily, metadata: dict | None = None) -> None:
    """Serialize and write atomically."""
    dump_json(path, family_to_dict(fam, metadata))


def load_family(path) -> LoadedFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return family_from_dict(data, where=str(path))
