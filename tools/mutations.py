"""Mutation check: every soundness-critical edit below must fail tier-1.

Each entry names one edit of the package that the tests must notice: a
dropped error term of a certified bound, a lost flush of the CLI's report,
a side matrix built past the one builder, a dropped check of the loader.  The runner
applies each edit alone to a fresh ``git archive`` of HEAD and runs tier-1
there (``python -X dev -m pytest -q -x``).  It prints one line per edit with
the first failing test, and exits 1 if some edit leaves tier-1 passing or
no longer matches the code it edits (the list has gone stale).

    python tools/mutations.py

Run it from the root of a git checkout; it takes about one tier-1 run per
edit.  A new certified bound enters the list in the change that adds it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (description, file, text to replace, replacement): each text must occur
#: exactly once in its file.
EDITS = [
    (
        "start value from the supersets' bounds without the - 1",
        "src/sepcert/certify.py",
        "bound[masks] = np.maximum(bound[masks], bound[supersets].max(axis=1) - 1)",
        "bound[masks] = np.maximum(bound[masks], bound[supersets].max(axis=1))",
    ),
    (
        "start value one below min(size, r) counted as exact",
        "src/sepcert/certify.py",
        "exact[side] = bound[masks] >= min(size, len(state.m))",
        "exact[side] = bound[masks] >= min(size, len(state.m)) - 1",
    ),
    (
        "closure of the bounds without - popcount",
        "src/sepcert/certify.py",
        "g = bound - sizes",
        "g = bound.copy()",
    ),
    (
        "skip test < for <=",
        "src/sepcert/certify.py",
        "alive &= bound_a[masks] + bound_b[masks] <= below + 1",
        "alive &= bound_a[masks] + bound_b[masks] < below + 1",
    ),
    (
        "class ranks without the cap min(., r)",
        "src/sepcert/certify.py",
        "return np.minimum(rank, r, out=rank).view(np.int8)",
        "return rank.view(np.int8)",
    ),
    (
        "lattice survival test < for <=",
        "src/sepcert/certify.py",
        "bound_a + bound_b <= sizes.view(np.int8) + 1, out=sizes)",
        "bound_a + bound_b < sizes.view(np.int8) + 1, out=sizes)",
    ),
    (
        "lattice fail-fast position off by one",
        "src/sepcert/certify.py",
        "np.count_nonzero(_popcounts(n)[first[0] + 1 :] == size)",
        "np.count_nonzero(_popcounts(n)[first[0] :] == size)",
    ),
    (
        "exact side fill without the cap min(., r)",
        "src/sepcert/certify.py",
        "self.bound = np.minimum(sizes, len(self.m), out=sizes).view(np.int8)",
        "self.bound = sizes.view(np.int8)",
    ),
    (
        "generic side's exactness proof run with k = r - 1",
        "src/sepcert/certify.py",
        "sides.try_kruskal(side, r, LEVEL_BLOCK)",
        "sides.try_kruskal(side, r - 1, LEVEL_BLOCK)",
    ),
    (
        "generic side counted as exact without its Kruskal proof",
        "src/sepcert/certify.py",
        "return self.kruskal == len(self.m) or self.class_proven",
        "return len(self.m) < self.refuted or self.class_proven",
    ),
    (
        "class proof without the spread term in its bound",
        "src/sepcert/certify.py",
        "tol, bound=cap + d + shift)",
        "tol, bound=cap + d)",
    ),
    (
        "class proof without the noise check",
        "src/sepcert/certify.py",
        "    if not _zero_under_every_cutoff(shift + d, low - d, tol):\n        return False\n",
        "",
    ),
    (
        "class proof noise check < for <=",
        "src/sepcert/certify.py",
        "return value <= tol.cutoff(low)",
        "return value < tol.cutoff(low)",
    ),
    (
        "_proves_full_rank default bound c + d -> c",
        "src/sepcert/linalg.py",
        "bound = tol.cutoff(s + d) + d",
        "bound = tol.cutoff(s + d)",
    ),
    (
        "_proves_full_rank err -> 0 (screen and r-subset floors)",
        "src/sepcert/linalg.py",
        "return _proves_gram_floor(gram, floor, kappa * s * s)",
        "return _proves_gram_floor(gram, floor, 0.0)",
    ),
    (
        "_subset_floors bound=C + d -> C",
        "src/sepcert/certify.py",
        "_proves_full_rank(stack, tol, bound=cap + d)",
        "_proves_full_rank(stack, tol, bound=cap)",
    ),
    (
        "Kruskal proofs' floor C + d -> C",
        "src/sepcert/certify.py",
        "        return cap + d\n",
        "        return cap\n",
    ),
    (
        "Kruskal cover test t + 2 -> t + 1",
        "src/sepcert/certify.py",
        "x + y >= t + 2 for t, x, y in zip(",
        "x + y >= t + 1 for t, x, y in zip(",
    ),
    (
        "Kruskal interlacing bound rho - (n - t) + 1",
        "src/sepcert/certify.py",
        "rank - (n - t)) for t in range(2, n + 1)]",
        "rank - (n - t) + 1) for t in range(2, n + 1)]",
    ),
    (
        "Kruskal check answering Unique at two members",
        "src/sepcert/certify.py",
        "    if sides.n < 2:\n        return True\n",
        "    if sides.n < 3:\n        return True\n",
    ),
    (
        "Kruskal full-side rank taken without its proof",
        "src/sepcert/certify.py",
        "side.rank = len(side.m) if proven else 0",
        "side.rank = len(side.m)",
    ),
    (
        "k-subset stacks without their final partial stack",
        "src/sepcert/certify.py",
        "itertools.islice(combos, block * k), np.intp)).size:",
        "itertools.islice(combos, block * k), np.intp)).size == block * k:",
    ),
    (
        "_screens needed without + kappa",
        "src/sepcert/hunter.py",
        "needed = (threshold + kappa) * scale / p_min",
        "needed = threshold * scale / p_min",
    ),
    (
        "_screens err without the factor P",
        "src/sepcert/hunter.py",
        "err = kappa * len(stacks) * norm**4",
        "err = kappa * norm**4",
    ),
    (
        "_screens without the SVD error on sigma_max(full)",
        "src/sepcert/hunter.py",
        "    sigma_max += kappa_full * norm * (1 + kappa_full)\n",
        "",
    ),
    (
        "_screens err without the QR term (kappa at the compressed rows)",
        "src/sepcert/hunter.py",
        "rows = max(max(s, len(full) // s) for s in (din * dout for din, dout in spec.parties))",
        "rows = max(max(len(a_mat), len(b_mat)) for a_mat, b_mat in stacks)",
    ),
    (
        "cli.main without _discard_stdout()",
        "src/sepcert/cli.py",
        "        _discard_stdout()\n        print(f\"error: {exc}\"",
        "        print(f\"error: {exc}\"",
    ),
    (
        "cli.main without sys.stdout.flush()",
        "src/sepcert/cli.py",
        "        sys.stdout.flush()\n        return code",
        "        return code",
    ),
    (
        "cli.main discarding stdout only on BrokenPipeError",
        "src/sepcert/cli.py",
        "        _discard_stdout()\n        print(f\"error: {exc}\"",
        "        if isinstance(exc, BrokenPipeError):\n            _discard_stdout()\n"
        "        print(f\"error: {exc}\"",
    ),
    (
        "grouped_factors multiplying the weights into the first party's stack",
        "src/sepcert/families.py",
        "        out = _kron_rows([self._party_stacks[p] for p in side])\n"
        "        if include_weight:\n"
        "            out = self.weights[:, None, None] * out",
        "        stacks = [self._party_stacks[p] for p in side]\n"
        "        if include_weight:\n"
        "            stacks[0] = self.weights[:, None, None] * stacks[0]\n"
        "        out = _kron_rows(stacks)",
    ),
    (
        "side_matrix returning the F-ordered transposed view",
        "src/sepcert/families.py",
        "return np.ascontiguousarray(g.transpose(2, 1, 0).reshape(rows * cols, n))",
        "return g.reshape(n, cols * rows).T",
    ),
    (
        "unit_side ranking raw, not unit, columns",
        "src/sepcert/families.py",
        "    m, scales = unit_columns(m)\n",
        "    scales = np.ones(n)\n",
    ),
    (
        "the hunter's full built per member, past the side builder",
        "src/sepcert/hunter.py",
        "full, norms = unit_columns(fam.side_matrix(range(fam.n_parties)))",
        "full, norms = unit_columns(np.hstack([m.grouped(range(fam.n_parties)).reshape(-1, 1, "
        "order='F') for m in fam.members]))",
    ),
    (
        "the loader without the type gate on the numbers",
        "src/sepcert/serialize.py",
        "        if not all(issubclass(t, Real) and not issubclass(t, bool) for t in set(map(type, "
        "entries))):\n            return None\n",
        "",
    ),
    (
        "_member_fault without the finiteness check of the factors",
        "src/sepcert/families.py",
        "rows += [~np.isfinite(flat).all(axis=1), top == 0]",
        "rows += [np.zeros(n, dtype=bool), top == 0]",
    ),
    (
        "_member_fault without the zero-factor check",
        "src/sepcert/families.py",
        "rows += [~np.isfinite(flat).all(axis=1), top == 0]",
        "rows += [~np.isfinite(flat).all(axis=1), np.zeros(n, dtype=bool)]",
    ),
    (
        "_member_fault without the overflow bound",
        "src/sepcert/families.py",
        "overflow[j] = bound == math.inf",
        "overflow[j] = False",
    ),
    (
        "OperatorFamily._from_stacks without _member_fault",
        "src/sepcert/families.py",
        "        fault = _member_fault(weights, stacks)\n",
        "        fault = None\n",
    ),
    (
        "OperatorFamily._from_stacks without the emptiness check",
        "src/sepcert/families.py",
        "        if not len(weights):\n"
        "            raise ParameterError(\"a family needs at least one member\")\n",
        "",
    ),
    (
        "hunt_product screening a member at scale 0",
        "src/sepcert/hunter.py",
        "screened = bool(scales.all()) and _screens(",
        "screened = _screens(",
    ),
    (
        "_choi_gram without its element check",
        "src/sepcert/choi.py",
        "    _check_elements((fam.spec.total_d_in * fam.spec.total_d_out) ** 2, \"the Choi matrix\")\n",
        "",
    ),
    (
        "verify_completeness without its element check",
        "src/sepcert/certify.py",
        "    _check_elements(d_in * d_in, \"the K^dag K sum\")\n",
        "",
    ),
    (
        "cmd_choi saving the ensemble before it builds the state",
        "src/sepcert/cli.py",
        "    state = ensemble_to_state(ens) if args.state_out else None\n",
        "    save_family(args.out, ens, metadata={})\n"
        "    state = ensemble_to_state(ens) if args.state_out else None\n",
    ),
    (
        "gen augment building the basis before the spec",
        "src/sepcert/cli.py",
        "        PartySpec(base.family.spec.parties + ((dim, dim),) * 2)\n"
        "        basis = heisenberg_weyl_unitaries(dim)\n",
        "        basis = heisenberg_weyl_unitaries(dim)\n"
        "        PartySpec(base.family.spec.parties + ((dim, dim),) * 2)\n",
    ),
    (
        "gen product-unitary sampling before its size check",
        "src/sepcert/cli.py",
        "        PartySpec(tuple((d, d) for d in dims))\n"
        "        _check_elements(args.members * max(dims) ** 2, \"the largest party's unitary stack\")\n"
        "        rng = np.random.default_rng(args.seed)\n"
        "        unitaries = [\n"
        "            [haar_unitary(rng, d) for _ in range(args.members)] for d in dims\n"
        "        ]\n",
        "        rng = np.random.default_rng(args.seed)\n"
        "        unitaries = [\n"
        "            [haar_unitary(rng, d) for _ in range(args.members)] for d in dims\n"
        "        ]\n"
        "        PartySpec(tuple((d, d) for d in dims))\n"
        "        _check_elements(args.members * max(dims) ** 2, \"the largest party's unitary stack\")\n",
    ),
    (
        "_examined_splits returning () for one party before the strategy check",
        "src/sepcert/certify.py",
        "    subset is eliminated.  An unknown strategy is a ``UsageError``.\"\"\"\n",
        "    subset is eliminated.  An unknown strategy is a ``UsageError``.\"\"\"\n"
        "    if n_parties == 1:\n        return ()\n",
    ),
    (
        "hunt_product's default subset without the two-member check",
        "src/sepcert/hunter.py",
        "subset = fam.member_indices(range(fam.n_members) if subset is None else subset, minimum=2)",
        "subset = tuple(range(fam.n_members)) if subset is None else fam.member_indices(subset, "
        "minimum=2)",
    ),
    (
        "hunt_product without the restart-stack element check",
        "src/sepcert/hunter.py",
        "min(restarts, RESTART_BLOCK) * fam.spec.total_d_out * fam.spec.total_d_in,",
        "0,",
    ),
    (
        "hunt_product reporting unit-member coefficients",
        "src/sepcert/hunter.py",
        "coefficients = _rescaled(best[None], scales, inverse=True)[0]",
        "coefficients = best",
    ),
]


def _archive(dest: Path) -> None:
    """Extract HEAD's committed tree into ``dest``."""
    tar = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def _apply(tree: Path, path: str, old: str, new: str) -> bool:
    """Apply one edit; False when ``old`` does not occur exactly once."""
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        return False
    target.write_text(text.replace(old, new))
    return True


def _tier1(tree: Path) -> tuple[int, str]:
    """Tier-1's exit code in ``tree`` and its first failing test, if any."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode, failed[0] if failed else ""


def main() -> int:
    survivors = 0
    for description, path, old, new in EDITS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _archive(tree)
            if not _apply(tree, path, old, new):
                print(f"STALE   {description}: the edited text is not in {path} exactly once")
                survivors += 1
                continue
            code, first = _tier1(tree)
        if code == 0:
            print(f"PASSED  {description}: tier-1 does not notice this edit")
            survivors += 1
        else:
            print(f"caught  {description}: {first}")
    print(f"{len(EDITS) - survivors} of {len(EDITS)} edits caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
