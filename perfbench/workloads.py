"""Benchmark inputs, request lists and the closed-form oracles for their outputs.

Every workload is a fixed list of ``sepcert`` CLI requests.  The input files
are made here from the workload seed with the package's own generators; the
program under test sees only those files and the argv.  Each request carries
a check that compares the CLI's exit code and JSON report with an answer
known in closed form, so a faster but wrong program counts as failing.

Why these three workloads: the ROADMAP names two hot paths, subset
enumeration in ``certify.py`` and the ALS loop in ``hunter.py``.  Each does
most of the work in one workload and none in another, so a change to one
path has a workload that should move and a control that should not.

* ``certify-eliminate``: every subset is eliminated at the first split, so
  nearly all time is the rank oracle (``numerical_rank`` and its SVD).
* ``certify-witness``: almost every subset survives, so each one examines
  every split, builds a ``Witness`` and is emitted as JSON (~1 MB a request).
* ``hunt-soundness``: 16-restart hunts, two per Unique catalog family, plus
  one projector pair that does admit a novel product; certify is idle.

Every workload is many requests of well under a second, not a few long
ones, so that ``run.py`` can measure the host's speed close in time to each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sepcert.families import OperatorFamily
from sepcert.sampling import haar_unitary, random_product_family
from sepcert.serialize import save_family
from sepcert.zoo import (
    gen_fourier_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
)

EXIT_OK = 0
EXIT_NEGATIVE = 4

#: Each hunt request's restarts, and how many hunts each family gets.  Short
#: requests let ``run.py`` measure the host's speed between them often.
HUNT_RESTARTS = 16
HUNT_SEEDS = 2

#: A check takes (exit code, report summary) and returns an error message,
#: or None when the output is right.
Check = Callable[[int, dict], "str | None"]


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple[str, ...]
    check: Check


def all_subsets(n: int):
    """Member subsets of size >= 2 in the certifier's order: by size, then
    lexicographic."""
    for size in range(2, n + 1):
        yield from itertools.combinations(range(n), size)


def subset_count(n: int) -> int:
    return 2**n - n - 1


def projective_witnesses(labels) -> list[list[int]]:
    """Witnesses of a projective family whose member k is |i j><i j| with
    ``labels[k] == (i, j)``: the subsets with #distinct i + #distinct j <= n+1."""
    out = []
    for subset in all_subsets(len(labels)):
        rows = {labels[k][0] for k in subset}
        cols = {labels[k][1] for k in subset}
        if len(rows) + len(cols) <= len(subset) + 1:
            out.append(list(subset))
    return out


def random_22_witnesses(n: int) -> list[list[int]]:
    """Generic random (2,2) families: local spans are min(size, 4), so exactly
    the subsets of size >= 7 survive."""
    return [list(s) for s in all_subsets(n) if len(s) >= 7]


def expect_unique(n_members: int) -> Check:
    def check(code: int, report: dict) -> str | None:
        if code != EXIT_OK:
            return f"exit code {code}, expected {EXIT_OK}"
        if report.get("status") != "Unique" or report.get("witnesses"):
            return f"status {report.get('status')!r}, expected 'Unique'"
        if report.get("subsets_examined") != subset_count(n_members):
            return (
                f"subsets_examined {report.get('subsets_examined')}, "
                f"expected {subset_count(n_members)}"
            )
        return None

    return check


def expect_witnesses(n_members: int, witnesses: list[list[int]]) -> Check:
    def check(code: int, report: dict) -> str | None:
        if code != EXIT_NEGATIVE:
            return f"exit code {code}, expected {EXIT_NEGATIVE}"
        if report.get("status") != "Inconclusive":
            return f"status {report.get('status')!r}, expected 'Inconclusive'"
        if report.get("subsets_examined") != subset_count(n_members):
            return f"subsets_examined {report.get('subsets_examined')}"
        got = report.get("witnesses")
        if got != witnesses:
            return (
                f"witness list differs: {len(got or [])} witnesses, "
                f"expected {len(witnesses)}"
            )
        return None

    return check


def expect_hunt(novel: bool) -> Check:
    """``novel=False``: a Unique family, where found-and-novel is impossible.
    ``novel=True``: a subset that does hold a novel product."""

    def check(code: int, report: dict) -> str | None:
        found = report.get("found")
        if code != (EXIT_OK if found else EXIT_NEGATIVE):
            return f"exit code {code} does not match found={found}"
        hit = bool(found and report.get("novel"))
        if hit != novel:
            return f"found and novel is {hit}, expected {novel}"
        return None

    return check


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed % 2**63])


def relabel(fam: OperatorFamily, rng: np.random.Generator):
    """Seeded member permutation and unit phases; neither changes a verdict.

    Returns the new family and ``order`` with new member k = old ``order[k]``.
    """
    order = [int(k) for k in rng.permutation(fam.n_members)]
    phases = np.exp(2j * np.pi * rng.random(fam.n_members))
    members = tuple(fam.members[k].scaled(p) for k, p in zip(order, phases))
    return OperatorFamily(fam.spec, members), order


def _certify(path: Path) -> tuple[str, ...]:
    return ("certify", str(path))


def certify_eliminate(seed: int, workdir: Path, *,
                      random_members: tuple[int, int] = (13, 13),
                      copies: int = 2) -> list[Request]:
    n222, n33 = random_members
    families = {}
    for c in range(copies):
        families[f"random-222-n{n222}-{c}"] = random_product_family(
            _rng(seed, 10 + c), (2, 2, 2), n222
        )
        families[f"random-33-n{n33}-{c}"] = random_product_family(
            _rng(seed, 20 + c), (3, 3), n33
        )
    families["fourier-222"], _ = relabel(gen_fourier_channel((2, 2, 2)), _rng(seed, 3))
    out = []
    for name, fam in families.items():
        path = workdir / f"{name}.json"
        save_family(path, fam)
        out.append(Request(name, _certify(path), expect_unique(fam.n_members)))
    return out


def certify_witness(seed: int, workdir: Path, *, random_members: int = 12,
                    projective_dims: tuple[tuple[int, int], ...] = ((3, 4), (2, 6)),
                    copies: int = 2) -> list[Request]:
    cases = []
    for c in range(copies):
        rand = random_product_family(_rng(seed, 40 + c), (2, 2), random_members)
        cases.append((f"random-22-n{random_members}-{c}", rand,
                      random_22_witnesses(random_members)))
    for d1, d2 in projective_dims:
        for c in range(copies):
            rng = _rng(seed, 100 * d1 + 10 * d2 + c)
            proj, order = relabel(gen_projective_basis(d1, d2), rng)
            labels = [divmod(k, d2) for k in order]
            cases.append((f"projective-{d1}{d2}-{c}", proj, projective_witnesses(labels)))
    out = []
    for name, fam, witnesses in cases:
        path = workdir / f"{name}.json"
        save_family(path, fam)
        out.append(
            Request(name, _certify(path), expect_witnesses(fam.n_members, witnesses))
        )
    return out


def hunt_catalog() -> dict[str, OperatorFamily]:
    """The Unique catalog families of the acceptance tests' hunter gate."""
    rng = np.random.default_rng(7)
    unitaries = [[haar_unitary(rng, 2) for _ in range(3)] for _ in range(2)]
    return {
        "pauli": gen_pauli_pair_channel(),
        "fourier-22": gen_fourier_channel((2, 2)),
        "fourier-23": gen_fourier_channel((2, 3)),
        "product-unitary": gen_product_unitary_channel(unitaries, [0.5, 0.25, 0.25]),
        "fourier-222": gen_fourier_channel((2, 2, 2)),
    }


def hunt_soundness(seed: int, workdir: Path, *,
                   restarts: int = HUNT_RESTARTS) -> list[Request]:
    """Every catalog family is hunted ``HUNT_SEEDS`` times, with consecutive
    ``--seed`` values derived from the workload seed; the projector pair once."""

    def flags(j: int) -> tuple[str, ...]:
        hunt_seed = (seed * HUNT_SEEDS + j) % 2**31
        return ("--restarts", str(restarts), "--seed", str(hunt_seed))

    out = []
    for name, fam in hunt_catalog().items():
        path = workdir / f"{name}.json"
        save_family(path, fam)
        for j in range(HUNT_SEEDS):
            out.append(Request(f"{name}-{j}", ("hunt", str(path), *flags(j)),
                               expect_hunt(False)))
    path = workdir / "projective-22.json"
    save_family(path, gen_projective_basis(2, 2))
    argv = ("hunt", str(path), "--subset", "0,1", *flags(0))
    out.append(Request("projective-22-pair", argv, expect_hunt(True)))
    return out


WORKLOADS: dict[str, Callable[[int, Path], list[Request]]] = {
    "certify-eliminate": certify_eliminate,
    "certify-witness": certify_witness,
    "hunt-soundness": hunt_soundness,
}
