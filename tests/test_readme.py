"""The library tour in README.md runs and shows what its comments say."""

import ast
import re
from pathlib import Path

from sepcert.choi import DensityMatrix

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_values() -> dict:
    """Run the tour statement by statement.

    Maps the source of each bare expression to its value, and of each
    assignment to the value it assigned.
    """
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    ns: dict = {}
    shown = {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            shown[source] = eval(compile(ast.Expression(stmt.value), str(README), "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), ns)
            if isinstance(stmt, ast.Assign):
                shown[source] = ns[stmt.targets[0].id]
    return shown


def test_library_tour():
    shown = tour_values()
    assert shown["fam = gen_ladder_channel(0.5)"].n_members == 3
    assert shown["verify_completeness(fam).is_complete"] is True
    assert shown["cert = certify_unique(fam)"].status == "Unique"
    proj_cert = shown["cert = certify_unique(proj)"]
    assert proj_cert.status == "Inconclusive"
    assert len(proj_cert.witnesses) == 9
    assert shown["result.found, result.novel"] == (True, True)
    assert shown["channels_equal(proj, remixed)"] is True
    assert isinstance(shown["rho = ensemble_to_state(ens)"], DensityMatrix)
