"""Command-line front end.

Subcommands: ``verify`` (trace preservation), ``certify`` (uniqueness of the
product representation), ``hunt`` (numerical search for product combinations),
``gen`` (reference family generators), ``choi`` (channel -> ket ensemble).

Exit codes are a stable contract:

* 0 — success / affirmative answer
* 2 — input or usage error (bad file, bad flags, malformed JSON)
* 3 — channel is not trace preserving
* 4 — negative or inconclusive answer (witnesses found / no product found)
* 5 — resource cap hit (enumeration cap, size budget)
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .certify import (
    DEFAULT_ENUMERATION_CAP,
    STRATEGY_ALL_BIPARTITIONS,
    STRATEGY_PAIRS,
    certify_unique,
    verify_completeness,
)
from .choi import channel_to_choi_ensemble, ensemble_to_state
from .errors import (
    EnumerationCapError,
    ParameterError,
    SepcertError,
    SizeBudgetError,
    UsageError,
)
from .hunter import hunt_product
from .linalg import TolerancePolicy
from .sampling import haar_unitary
from .serialize import (
    KIND_CHANNEL,
    complex_to_json,
    dump_json,
    load_family,
    matrix_to_json,
    save_family,
)
from .zoo import (
    augment_channel,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
    gen_tight_family,
    heisenberg_weyl_unitaries,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCOMPLETE = 3
EXIT_NEGATIVE = 4
EXIT_RESOURCE = 5

GENERATORS = (
    "eq701",
    "fourier",
    "product-unitary",
    "pauli",
    "projective",
    "augment",
    "tight",
)

_STRATEGY_FLAGS = {
    "pairs": STRATEGY_PAIRS,
    "bipartitions": STRATEGY_ALL_BIPARTITIONS,
}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "")
    for candidate in (s, s.replace("i", "j").replace("I", "j")):
        try:
            return complex(candidate)
        except ValueError:
            continue
    raise UsageError(f"cannot parse {text!r} as a complex number")


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"cannot parse {what} {text!r}: expected comma-separated integers"
        ) from None


def _seed(text: str) -> int:
    """``--seed`` value: numpy's generators take only nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return seed


def cmd_verify(args) -> int:
    loaded = load_family(args.file)
    report = verify_completeness(loaded.family, tol=args.tol)
    _emit(
        {
            "command": "verify",
            "tool_version": __version__,
            "file": str(args.file),
            "kind": loaded.kind,
            "tol": args.tol,
            **report.to_dict(),
        }
    )
    return EXIT_OK if report.is_complete else EXIT_INCOMPLETE


def cmd_certify(args) -> int:
    loaded = load_family(args.file)
    strategy = _STRATEGY_FLAGS[args.strategy] if args.strategy else None
    tol = TolerancePolicy(relative_rank_threshold=args.tol)
    # load_family already rejects ensembles whose parties have d_in != 1.
    cert = certify_unique(
        loaded.family,
        strategy=strategy,
        tol=tol,
        max_members=args.max_subset,
        fail_fast=args.fail_fast,
    )
    if args.report == "text":
        print(f"status: {cert.status}")
        print(f"strategy: {cert.strategy}")
        print(f"members: {cert.n_members}")
        print(f"subsets examined: {cert.subsets_examined}")
        for w in cert.witnesses:
            sums = "; ".join(
                f"{list(s.side_a)}|{list(s.side_b)} -> {s.delta_a}+{s.delta_b}"
                for s in w.split_sums
            )
            print(f"witness {{{','.join(map(str, w.members))}}}: {sums}")
    else:
        head = {
            "command": "certify",
            "tool_version": __version__,
            "file": str(args.file),
            "kind": loaded.kind,
        }
        print(cert.to_json(head))
    return EXIT_OK if cert.unique else EXIT_NEGATIVE


def cmd_hunt(args) -> int:
    loaded = load_family(args.file)
    subset = (
        _parse_int_list(args.subset, "--subset") if args.subset is not None else None
    )
    result = hunt_product(
        loaded.family,
        subset,
        restarts=args.restarts,
        max_iters=args.max_iters,
        threshold=args.threshold,
        seed=args.seed,
    )
    _emit(
        {
            "command": "hunt",
            "tool_version": __version__,
            "file": str(args.file),
            **result.to_dict(),
        }
    )
    return EXIT_OK if result.found else EXIT_NEGATIVE


def _gen_dispatch(args):
    """Build (family, metadata, extras) for the requested generator."""
    name = args.generator
    if name == "eq701":
        mu = _parse_complex(args.mu)
        fam = gen_ladder_channel(mu, args.phi)
        return fam, {"mu": complex_to_json(mu), "phi": args.phi}, {}
    if name == "fourier":
        if args.dims is None:
            raise UsageError("gen fourier requires --dims (e.g. --dims 2,2)")
        dims = _parse_int_list(args.dims, "--dims")
        fam = gen_fourier_channel(dims)
        return fam, {"dims": list(dims)}, {"N": fam.n_members}
    if name == "product-unitary":
        if args.dims is None:
            raise UsageError("gen product-unitary requires --dims")
        dims = _parse_int_list(args.dims, "--dims")
        if args.members < 1:
            raise UsageError("--members must be at least 1")
        rng = np.random.default_rng(args.seed)
        unitaries = [
            [haar_unitary(rng, d) for _ in range(args.members)] for d in dims
        ]
        q = np.full(args.members, 1.0 / args.members)
        fam = gen_product_unitary_channel(unitaries, q)
        params = {"dims": list(dims), "members": args.members, "seed": args.seed}
        return fam, params, {}
    if name == "pauli":
        return gen_pauli_pair_channel(), {}, {}
    if name == "projective":
        if args.dims is None:
            raise UsageError("gen projective requires --dims (exactly two, e.g. 2,2)")
        dims = _parse_int_list(args.dims, "--dims")
        if len(dims) != 2:
            raise UsageError(f"gen projective takes exactly two dimensions, got {dims}")
        return gen_projective_basis(*dims), {"dims": list(dims)}, {}
    if name == "augment":
        if args.file is None:
            raise UsageError("gen augment requires --file with the base channel")
        base = load_family(args.file)
        n = base.family.n_members
        dim = args.dim if args.dim is not None else math.isqrt(max(n - 1, 0)) + 1
        basis = heisenberg_weyl_unitaries(dim)
        if len(basis) < n:
            raise ParameterError(
                f"--dim {dim} gives only {len(basis)} independent unitaries, "
                f"need {n}"
            )
        fam = augment_channel(base.family, basis[:n], basis[-n:][::-1])
        params = {"source": str(args.file), "dim": dim}
        return fam, params, {"base_metadata": base.metadata}
    if name == "tight":
        if args.n is None:
            raise UsageError("gen tight requires --n")
        fam, coeffs = gen_tight_family(args.n, args.parties, args.dim, args.seed)
        params = {
            "n": args.n,
            "parties": args.parties,
            "dim": args.dim if args.dim is not None else args.n + 1,
            "seed": args.seed,
        }
        return fam, params, {"coefficients": [complex_to_json(c) for c in coeffs]}
    raise UsageError(f"unknown generator {name!r}")  # pragma: no cover


def cmd_gen(args) -> int:
    fam, params, extras = _gen_dispatch(args)
    metadata = {"generator": args.generator, "parameters": params, **extras}
    save_family(args.out, fam, metadata=metadata)
    if args.generator == "tight":
        dump_json(
            f"{args.out}.coeffs.json",
            {"coefficients": extras["coefficients"], "family": str(args.out)},
        )
    _emit(
        {
            "command": "gen",
            "tool_version": __version__,
            "generator": args.generator,
            "out": str(args.out),
            "n_members": fam.n_members,
            "parties": fam.spec.to_dicts(),
            "metadata": metadata,
        }
    )
    return EXIT_OK


def cmd_choi(args) -> int:
    loaded = load_family(args.file)
    if loaded.kind != KIND_CHANNEL:
        raise UsageError(
            f"choi expects a channel file (kind {KIND_CHANNEL!r}), got {loaded.kind!r}"
        )
    ens = channel_to_choi_ensemble(loaded.family)
    metadata = {
        "derived_from": str(args.file),
        "transform": "choi_ensemble",
        "source_metadata": loaded.metadata,
    }
    save_family(args.out, ens, metadata=metadata)
    if args.state_out:
        state = ensemble_to_state(ens)
        dump_json(
            args.state_out,
            {
                "dims": list(state.dims),
                "trace": state.trace,
                "matrix": matrix_to_json(state.matrix),
            },
        )
    _emit(
        {
            "command": "choi",
            "tool_version": __version__,
            "file": str(args.file),
            "out": str(args.out),
            "state_out": str(args.state_out) if args.state_out else None,
            "n_members": ens.n_members,
        }
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcert",
        description="Certify, search, and generate product Kraus representations "
        "of separable channels.",
    )
    parser.add_argument(
        "--version", action="version", version=f"sepcert {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check trace preservation (sum K^dag K = I)")
    p.add_argument("file", help="channel JSON file")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative residual tolerance (default 1e-10)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="certify uniqueness of the representation")
    p.add_argument("file", help="channel or ensemble JSON file")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS),
                   help="which splits to examine (default: bipartitions up to "
                        "six parties, pairs beyond)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative rank threshold (default 1e-10)")
    p.add_argument("--max-subset", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help=f"member-count cap for exhaustive enumeration "
                        f"(default {DEFAULT_ENUMERATION_CAP})")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("--fail-fast", action="store_true",
                   help="report only the first witness subset")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("hunt", help="search a subset for product combinations")
    p.add_argument("file", help="channel or ensemble JSON file")
    p.add_argument("--subset", help="comma-separated member indices (default: all)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--threshold", type=float, default=1e-8,
                   help="product-residual acceptance threshold (default 1e-8)")
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("gen", help="write a reference family to a JSON file")
    p.add_argument("generator", choices=GENERATORS)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--mu", default="0.5", help="eq701 damping parameter")
    p.add_argument("--phi", type=float, default=0.0, help="eq701 phase")
    p.add_argument("--dims", help="comma-separated local dimensions")
    p.add_argument("--members", type=int, default=3,
                   help="member count for product-unitary")
    p.add_argument("--n", type=int, help="tight: number of repeated members")
    p.add_argument("--parties", type=int, default=2, help="tight: party count")
    p.add_argument("--dim", type=int,
                   help="tight: local dimension (default n+1); "
                        "augment: appended-party dimension")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--file", help="augment: base channel JSON file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("choi", help="convert a channel file to a ket ensemble")
    p.add_argument("file", help="channel JSON file")
    p.add_argument("--out", required=True, help="ensemble JSON path")
    p.add_argument("--state-out",
                   help="optionally write the dense (unnormalized) Choi matrix")
    p.set_defaults(func=cmd_choi)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (EnumerationCapError, SizeBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SepcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
