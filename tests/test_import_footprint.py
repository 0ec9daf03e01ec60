"""Which scipy and fisrul modules each code path loads, in a fresh interpreter.

scipy is needed only by the pairwise-distance feature kernels (lle, cd),
which import it on first use; every other path, ApEn included, must run
without loading it, so that a CLI call pays no scipy import cost.  The
package itself re-exports nothing: ``import fisrul`` loads no submodule, and
each module loads only the fisrul modules it imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fisrul

SRC = Path(fisrul.__file__).resolve().parents[1]

# Runs the snippet, then prints the loaded module names of one package as JSON.
_TEMPLATE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == {package!r})))
"""

FLEET_PATH = """
import numpy as np
from fisrul.clustering import concat_tables, subtractive_cluster
from fisrul.datasets import synth_bearing
from fisrul.fis import identify_weighted, infer, load_model, save_model
from fisrul.rul import evaluate_model
train = concat_tables([synth_bearing(s) for s in (0, 1)])
model = identify_weighted(train, subtractive_cluster(train))
save_model(model, sys.argv[1])
model = load_model(sys.argv[1])
test = synth_bearing(100)
infer(model, test.features[5], test.taus[5])
evaluate_model(model, {"b100": test})
"""


def features_path(names):
    return f"""
import numpy as np
from fisrul.features import SignalWindow, extract_features
gen = np.random.default_rng(0)
windows = [SignalWindow(gen.normal(size=2560), k, 10.0 * k)
           for k in range(1, 4)]
extract_features(windows, {names!r})
"""


def fresh_json(code, tmp_path):
    """The JSON value on the last stdout line of ``code`` run in a fresh
    interpreter (``sys.argv[1]`` is a scratch file path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "m.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(body, tmp_path, package="scipy"):
    return fresh_json(_TEMPLATE.format(body=body, package=package), tmp_path)


@pytest.mark.parametrize("body", [
    "import fisrul.cli",
    FLEET_PATH,
    features_path(["rms", "se"]),
    features_path(["ae"]),
], ids=["cli-import", "fleet-library-path", "rms-se-features", "ae-feature"])
def test_path_loads_no_scipy(body, tmp_path):
    assert loaded_modules(body, tmp_path) == []


def test_pairwise_kernel_loads_spatial_only(tmp_path):
    loaded = loaded_modules(features_path(["lle", "cd"]), tmp_path)
    assert "scipy.spatial" in loaded
    assert not any(m.startswith("scipy.signal") for m in loaded)


# The fisrul modules each import loads: itself, its package and what it imports.
FISRUL_IMPORTS = {
    "fisrul": ["fisrul"],
    "fisrul.clustering": ["fisrul", "fisrul.clustering", "fisrul.errors"],
    "fisrul.features": ["fisrul", "fisrul.clustering", "fisrul.errors",
                        "fisrul.features"],
    "fisrul.cli": ["fisrul"] + [f"fisrul.{m}" for m in (
        "cli", "clustering", "datasets", "errors", "features", "fis", "mixture",
        "rul")],
}


@pytest.mark.parametrize("module, expected", FISRUL_IMPORTS.items(),
                         ids=list(FISRUL_IMPORTS))
def test_import_loads_only_imported_fisrul_modules(module, expected, tmp_path):
    assert loaded_modules(f"import {module}", tmp_path, "fisrul") == expected


def test_package_exposes_only_its_version(tmp_path):
    names = fresh_json("import json, fisrul\n"
                       "print(json.dumps([n for n in vars(fisrul) if n[0] != '_']\n"
                       "                 + [fisrul.__version__]))", tmp_path)
    assert names == [fisrul.__version__]
