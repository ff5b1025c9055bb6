"""Byte-identity guard: ``sepcert certify`` JSON on the reference catalog.

Each file in ``tests/golden/`` holds the raw stdout of ``sepcert certify`` on
one catalog family or one family with repeated local factors, without the
line of the ``file`` key (it names a temporary path).  A refactor of the
certifier or of its JSON writer must reproduce every file byte for byte,
whitespace included.  Two reports too large to keep as files are pinned
by their SHA-256 digests instead (``LARGE_DIGESTS``).  Hunt reports are
left out: their float residuals depend on the BLAS library.

Regenerate the files (only when the certificate is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py

which also prints the digests of the large reports.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sepcert.cli import main
from sepcert.sampling import random_product_family
from sepcert.serialize import save_family
from sepcert.zoo import gen_projective_basis, gen_tight_family
from test_acceptance import _zoo
from test_certify import _relabelled

GOLDEN = Path(__file__).parent / "golden"


def _repeated_factors():
    """Families whose members share local factors, so that many subsets
    select the same side columns in another order."""
    return {
        "projective-34-relabelled": _relabelled(gen_projective_basis(3, 4), seed=11),
        "tight-n2-3party": gen_tight_family(2, n_parties=3, seed=0)[0],
    }


def _cases():
    """(golden file stem, family, extra certify flags), in catalog order,
    then the families with repeated factors.

    Families with three or more parties are also certified on party pairs,
    where a single-party side belongs to several splits.
    """
    out = []
    for name, fam in {**_zoo(), **_repeated_factors()}.items():
        out.append((name, fam, []))
        if fam.n_parties >= 3:
            out.append((f"{name}.pairs", fam, ["--strategy", "pairs"]))
    return out


def _certify_json(fam, flags, tmp_dir: Path) -> str:
    path = tmp_dir / "family.json"
    save_family(path, fam)
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["certify", str(path), *flags])
    out = buf.getvalue()
    assert json.loads(out)["file"] == str(path)
    file_line = f'  "file": {json.dumps(str(path))},\n'
    assert out.count(file_line) == 1
    return out.replace(file_line, "")


CASES = _cases()


@pytest.mark.parametrize("stem,fam,flags", CASES, ids=[c[0] for c in CASES])
def test_certify_reproduces_golden_json(stem, fam, flags, tmp_path):
    expected = (GOLDEN / f"{stem}.json").read_text()
    assert _certify_json(fam, flags, tmp_path) == expected


#: SHA-256 of the report without its ``file`` line, for families whose
#: reports are too large to keep as files: about 0.5 MB of witnesses on the
#: random family, 1 MB on the projective one.
LARGE_DIGESTS = {
    "random-22-n12": "12233a33c4ab7ad0f6002bacac8ac275ec1a961802e65fb48f6cc02541716dd9",
    "projective-26-relabelled": "99fb754d882fa0e4f083f5666110b2527ded21e84257fb16f4c85449e0b840c0",
}


def _large_families():
    return {
        "random-22-n12": random_product_family(np.random.default_rng(12), (2, 2), 12),
        "projective-26-relabelled": _relabelled(gen_projective_basis(2, 6), seed=26),
    }


@pytest.mark.parametrize("stem", list(LARGE_DIGESTS))
def test_certify_reproduces_large_report_digest(stem, tmp_path):
    out = _certify_json(_large_families()[stem], [], tmp_path)
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DIGESTS[stem]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, fam, flags in CASES:
            (GOLDEN / f"{stem}.json").write_text(_certify_json(fam, flags, Path(tmp)))
            print(f"wrote {stem}.json", file=sys.stderr)
        for stem, fam in _large_families().items():
            digest = hashlib.sha256(_certify_json(fam, [], Path(tmp)).encode()).hexdigest()
            print(f"{stem}: {digest}", file=sys.stderr)
