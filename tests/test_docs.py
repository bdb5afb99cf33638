"""The user docs agree with the code they describe.

docs/expression-grammar.md's function list and check table are compared
with ``expr._OPS`` in test_expr.py.
"""

import re
from pathlib import Path

from fracbvp import cli

ROOT = Path(__file__).resolve().parents[1]
KINDS = {"real": float, "int": int, "text": str}


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_config_doc_key_table_is_the_schema():
    doc = (ROOT / "docs" / "config-format.md").read_text(encoding="utf-8")
    keys = doc.split("## Keys")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` +\| (\w+) +\| (\w+) +\|", keys, flags=re.M)
    documented = {key: (KINDS[kind], required == "yes") for key, kind, required in rows}
    assert len(rows) == len(documented)
    schema = {key: (kind, default is ...) for key, (kind, default, _) in cli._KEYS.items()}
    assert documented == schema
