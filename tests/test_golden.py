"""Byte-identity guard: ``sepcert certify`` JSON on the reference catalog.

Each file in ``tests/golden/`` holds the raw stdout of ``sepcert certify`` on
one catalog family or one family with repeated local factors, without the
line of the ``file`` key (it names a temporary path).  A refactor of the
certifier or of its JSON writer must reproduce every file byte for byte,
whitespace included.  Hunt reports are left out: their float residuals
depend on the BLAS library.

Regenerate the files (only when the certificate is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sepcert import gen_projective_basis, gen_tight_family, save_family
from sepcert.cli import main
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


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, fam, flags in CASES:
            (GOLDEN / f"{stem}.json").write_text(_certify_json(fam, flags, Path(tmp)))
            print(f"wrote {stem}.json", file=sys.stderr)
