import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_verdict():
    """Every python block of the README, run in order in one namespace, prints the one verdict the first shows."""
    text = README.read_text(encoding="utf-8")
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in re.findall(r"```python\n(.*?)```", text, re.S):
            exec(code, namespace)
    assert out.getvalue() == "satisfied\n", out.getvalue()
