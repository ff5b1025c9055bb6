"""Measure how fast this host runs right now, with a fixed reference kernel.

    python perfbench/calibrate.py

The host is a few shared cores whose speed drifts by tens of percent within
seconds and minutes, as other tenants load it.  ``run.py`` keeps one of these
processes for a run and asks it for a *slice* between every two requests of
a pass, so that each request's time can be rescaled by the host speed
measured just before and just after it.

Protocol: each line on stdin is a duration in seconds.  The server runs whole
units of the kernel until that much wall time has passed (at least one unit)
and answers with one JSON line: ``{"units": n, "wall_s": w, "cpu_s": c}``.
It exits at end of input.

One unit does the kinds of work the workloads do, in fixed amounts: small
complex SVDs, rank tests and least-squares solves through numpy's LAPACK,
subset enumeration and set arithmetic in the interpreter, and JSON encoding.
It imports numpy only, never ``sepcert``, so a change to the program under
test cannot change the kernel's time.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import numpy as np


class Kernel:
    """One unit of reference work, about 0.05 s on the reference host."""

    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        shape = (16, 12)
        self.mats = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(100)
        ]
        self.rhs = [rng.standard_normal(shape[0]) + 0j for _ in range(100)]

    def _linalg(self) -> float:
        acc = 0.0
        for m, b in zip(self.mats, self.rhs):
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            acc += float(np.linalg.matrix_rank(m @ m.conj().T, tol=1e-9))
            acc += float(np.abs(np.linalg.lstsq(m, b, rcond=None)[0]).sum())
        return acc

    @staticmethod
    def _interpreter(n: int = 12) -> int:
        seen: dict[frozenset, int] = {}
        total = 0
        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                rows = {k // 3 for k in subset}
                cols = {k % 3 for k in subset}
                key = frozenset(subset[:2])
                seen[key] = seen.get(key, 0) + len(rows) + len(cols)
                total += len(rows) + len(cols) <= size + 1
        return total + len(seen)

    @staticmethod
    def _emit(n: int = 12) -> int:
        items = [
            {"members": list(s), "rank": len(s)}
            for s in itertools.combinations(range(n), 5)
        ]
        return len(json.dumps({"witnesses": items}, indent=2))

    def unit(self) -> None:
        self._linalg()
        self._interpreter()
        self._emit()


def run_slice(kernel: Kernel, seconds: float) -> dict:
    units = 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while True:
        kernel.unit()
        units += 1
        wall = time.perf_counter() - wall0
        if wall >= seconds:
            break
    return {"units": units, "wall_s": wall, "cpu_s": time.process_time() - cpu0}


def main() -> int:
    kernel = Kernel()
    # Fault in code and data before the first timed slice.
    kernel.unit()
    for line in sys.stdin:
        print(json.dumps(run_slice(kernel, float(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
