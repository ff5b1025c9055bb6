"""Output check: certificates must not change between a revision and the working tree.

    python tools/same_output.py REV

Extracts REV with ``git archive`` into a temporary directory.  Then the same
grid of requests runs twice in subprocesses, once importing REV's ``src``
and once the working tree's, and each run prints the SHA-256 of every
request's output: ``Certificate.to_json`` for each family with the default,
pairs and bipartitions strategies, relative rank thresholds 1e-10, 1e-6 and
1e-3, with and without ``fail_fast``, and the ``verify_completeness`` JSON
of the one-member, one-party, ladder, Pauli and Fourier families.  The
families near the member cap, and random (3,3)/N16 and N18 and (2,3)/N16,
run with the default strategy and tolerance only.  A request that raises
hashes its exception's type and message.  The runner prints each request
whose digests differ and exits 1 if any does.

Run it from the root of a git checkout; it takes a few minutes.  CI runs it
against the parent commit, ``HEAD^1``, which a checkout two commits deep
holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _families():
    """(name, family builder, whether to verify it, whether to run the full grid)."""
    import numpy as np

    from sepcert.families import OperatorFamily, ProductOperator
    from sepcert.sampling import random_product_family
    from sepcert.zoo import (
        gen_fourier_channel,
        gen_ladder_channel,
        gen_pauli_pair_channel,
        gen_projective_basis,
        gen_tight_family,
    )

    def random(dims, n, seed):
        return lambda: random_product_family(np.random.default_rng(seed), dims, n)

    def near_twins(noise):
        # The last of nine members is a multiple of the eighth, its factors perturbed.
        def build():
            rng = np.random.default_rng(3)
            fam = random_product_family(rng, (2, 2, 2), 8)
            twin = fam.members[-1]
            factors = tuple(f + noise * rng.standard_normal(f.shape) for f in twin.factors)
            return OperatorFamily(
                fam.spec, fam.members + (ProductOperator(0.5j * twin.weight, factors),)
            )
        return build

    def repeated_classes():
        # Five party-0 factors, each on three of fifteen members.
        fam = random_product_family(np.random.default_rng(0), (2, 2), 15)
        return OperatorFamily(fam.spec, tuple(
            ProductOperator(m.weight, (fam.members[j % 5].factors[0], m.factors[1]))
            for j, m in enumerate(fam.members)
        ))

    out = []
    for dims, n in [((2, 2), 9), ((2, 2), 12), ((2, 3), 12), ((2, 3), 14), ((2, 2, 2), 13),
                    ((2, 2, 2), 16), ((3, 3), 13), ((2, 2, 2, 2), 12), ((3,), 6)]:
        for seed in range(3):
            out.append((f"random{dims}/N{n}/s{seed}", random(dims, n, seed), False, True))
    for d1, d2 in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 6), (4, 3), (2, 8), (3, 5), (4, 4)]:
        out.append((f"projective({d1},{d2})", lambda d1=d1, d2=d2: gen_projective_basis(d1, d2),
                    False, True))
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        out.append((f"fourier{dims}", lambda dims=dims: gen_fourier_channel(dims), True, True))
    for parties in (2, 3):
        for n in (1, 2, 3):
            out.append((f"tight/n{n}/P{parties}",
                        lambda n=n, p=parties: gen_tight_family(n, n_parties=p, seed=0)[0],
                        False, True))
    for mu in (0.5, 0.9j, 0.0, 1.0, -0.3j):
        out.append((f"ladder/{mu}", lambda mu=mu: gen_ladder_channel(mu), True, True))
    out.append(("pauli", gen_pauli_pair_channel, True, True))
    for noise in (0.0, 1e-15, 1e-12, 1e-10, 1e-8):
        out.append((f"near-twins/{noise:g}", near_twins(noise), False, True))
    out.append(("repeated-classes(2,2)/N15", repeated_classes, False, True))
    for dims in [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]:
        out.append((f"one-member{dims}", random(dims, 1, 0), True, True))
    for dims in [(2,), (3,), (4,)]:
        for n in range(1, 7):
            out.append((f"one-party{dims}/N{n}", random(dims, n, 0), True, True))
    for dims, n, seed in [((2, 2, 2), 18, 0), ((2, 2, 2), 19, 2), ((2, 2, 2), 20, 1),
                          ((2, 2, 2, 2), 20, 0), ((3, 3), 16, 0), ((3, 3), 18, 0),
                          ((2, 3), 16, 0)]:
        out.append((f"random{dims}/N{n}/s{seed}", random(dims, n, seed), False, False))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _worker() -> None:
    """Print one JSON object mapping each request of the grid to its digest."""
    from sepcert.certify import (
        STRATEGY_ALL_BIPARTITIONS,
        STRATEGY_PAIRS,
        certify_unique,
        verify_completeness,
    )
    from sepcert.linalg import TolerancePolicy

    grid = [
        (strategy, rel)
        for strategy in (None, STRATEGY_PAIRS, STRATEGY_ALL_BIPARTITIONS)
        for rel in (1e-10, 1e-6, 1e-3)
    ]
    digests = {}
    for name, build, verify, full in _families():
        fam = build()
        for strategy, rel in grid if full else [(None, None)]:
            tol = TolerancePolicy() if rel is None else TolerancePolicy(relative_rank_threshold=rel)
            for fail_fast in (False, True):
                key = f"certify {name} strategy={strategy} rel={rel} fail_fast={fail_fast}"
                try:
                    cert = certify_unique(fam, strategy=strategy, tol=tol, fail_fast=fail_fast)
                    digests[key] = _digest(cert.to_json({}))
                except Exception as exc:  # a raise is output too
                    digests[key] = _digest(f"{type(exc).__name__}: {exc}")
        if verify:
            digests[f"verify {name}"] = _digest(json.dumps(verify_completeness(fam).to_dict()))
    print(json.dumps(digests))


def _run(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        _worker()
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "archive", argv[0]], cwd=ROOT, check=True,
                             capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=tar.stdout, check=True)
        before = _run(Path(tmp) / "src")
    after = _run(ROOT / "src")
    differ = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    for key in differ:
        print(f"DIFFERS {key}")
    print(f"{len(before.keys() | after.keys()) - len(differ)} of "
          f"{len(before.keys() | after.keys())} outputs equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
