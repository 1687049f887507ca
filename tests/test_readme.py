"""README's library example is run exactly as written, so the documented
API cannot drift from the library's."""

import contextlib
import io
import re
from pathlib import Path

from pdwg import run_study

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python block of README's "Library example" section."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    printed = [float(tok) for tok in out.getvalue().split()]
    # the example solves the t6, k=1, n=16 level that the CLI reports
    report = run_study("t6", [16], k=1).levels[0].report
    assert printed == [report.l2_e0, report.h1_e0, report.resid_u]
