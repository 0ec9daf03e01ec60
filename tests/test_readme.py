"""README's Library section stays runnable: its imports name real modules."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_first_python_block_runs():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert 0.0 <= namespace["estimate"].clamped <= 1.0


def test_module_map_names_exist():
    rows = re.findall(r"^\| `(fisrul\.\w+)` \| (.*) \|$", README, re.M)
    assert len(rows) == 8
    for module, names in rows:
        home = importlib.import_module(module)
        missing = [n for n in re.findall(r"`(\w+)`", names) if not hasattr(home, n)]
        assert not missing, (module, missing)
