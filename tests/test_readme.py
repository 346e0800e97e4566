"""The README's library example runs as printed, and the top level of the
package holds exactly the names that example imports, plus __version__."""

import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import floercas

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_example(), {})
    report = ast.literal_eval(out.getvalue())
    # the whole alpha spectrum of F_3, dim 10, is among the candidates
    assert report["remainder"] == {"coeffs": [{"re": "1", "im": "0"}]}
    assert sum(root["mult"] for root in report["roots"]) == 10


def test_top_level_names():
    imported = re.search(r"^from floercas import (.+)$", library_example(), re.M).group(1)
    public = {
        name
        for name, value in vars(floercas).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {name.strip() for name in imported.split(",")}
    assert floercas.__version__ == "0.1.0"
