"""Which scipy modules each code path loads, in a fresh interpreter.

scipy is needed only by the pairwise-distance feature kernels (lle, cd),
which import it on first use; every other path, ApEn included, must run
without loading it, so that a CLI call pays no scipy import cost.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fisrul

SRC = Path(fisrul.__file__).resolve().parents[1]

# Runs the snippet, then prints the loaded scipy module names as JSON.
_TEMPLATE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
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
windows = [SignalWindow(gen.normal(size=2560), 25600.0, k, 10.0 * k)
           for k in range(1, 4)]
extract_features(windows, {names!r})
"""


def scipy_modules(body, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _TEMPLATE.format(body=body), str(tmp_path / "m.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("body", [
    "import fisrul.cli",
    FLEET_PATH,
    features_path(["rms", "se"]),
    features_path(["ae"]),
], ids=["cli-import", "fleet-library-path", "rms-se-features", "ae-feature"])
def test_path_loads_no_scipy(body, tmp_path):
    assert scipy_modules(body, tmp_path) == []


def test_pairwise_kernel_loads_spatial_only(tmp_path):
    loaded = scipy_modules(features_path(["lle", "cd"]), tmp_path)
    assert "scipy.spatial" in loaded
    assert not any(m.startswith("scipy.signal") for m in loaded)
