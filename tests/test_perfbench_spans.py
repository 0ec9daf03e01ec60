"""The traced benchmark harness (perfbench/spans.py) still wraps the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fisrul.cli  # noqa: F401  (TIMED names cli.main, looked up before install)
from fisrul.clustering import subtractive_cluster
from fisrul.datasets import synth_bearing

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_times_infer_and_counts_its_rows(spans):
    from fisrul import fis

    table = synth_bearing(0, n_obs=60)
    clusters = subtractive_cluster(table)
    originals = {short: {name: getattr(sys.modules[f"fisrul.{short}"], name)
                         for name in names}
                 for short, names in spans.TIMED.items()}
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for short, names in spans.TIMED.items():
            for name in names:
                wrapped = getattr(sys.modules[f"fisrul.{short}"], name)
                assert wrapped.__wrapped__ is originals[short][name]
        model = fis.identify_weighted(table, clusters)
        identified_rows = tracer.counts["mixture.normalized_rows"]
        assert identified_rows == 2 * table.n_rows
        for x, tau in zip(table.features, table.taus):
            fis.infer(model, x, tau)
    finally:
        spans.uninstall(restore)

    calls = sum(1 for span in tracer.spans if span[0] == "fis.infer")
    assert calls == table.n_rows
    assert tracer.counts["rul.estimates"] == calls
    assert tracer.counts["mixture.normalized_rows"] - identified_rows == calls
    for short, names in spans.TIMED.items():
        for name in names:
            assert getattr(sys.modules[f"fisrul.{short}"], name) \
                is originals[short][name]
