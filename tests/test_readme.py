"""README's examples stay runnable: the Library section's code and imports,
and the CLI chain of the synthetic end-to-end example."""

import importlib
import re
import shlex
import warnings
from pathlib import Path

from fisrul.cli import main

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


def test_synthetic_cli_chain_runs(tmp_path, monkeypatch):
    block = re.search(r"End-to-end on synthetic data:\n\n```bash\n(.*?)```",
                      README, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("fisrul ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0, line
        out = argv[argv.index("--out") + 1]
        # evaluate's --out is a report prefix
        names = [f"{out}_curves.csv", f"{out}_summary.csv"] \
            if argv[0] == "evaluate" else [out]
        assert all((tmp_path / name).is_file() for name in names), line
