"""The benchmark's tracer wraps package attributes by name; a rename in
the package must fail here rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from optibase.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module, cls):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def test_tracer_wraps_every_traced_attribute_of_an_encode(tmp_path):
    tracer = _load_tracer()
    originals = [getattr(_owner(module, cls), attr)
                 for module, cls, attr, _ in tracer.TRACED]
    src = tmp_path / "t.opb"
    # the second half of the = reads the first half's network
    src.write_text("+16 x1 +30 x2 +54 x3 +60 x4 >= 87 ;\n+3 x1 +5 x5 +2 x6 = 5 ;\n")
    tr = tracer.Tracer()
    try:
        tr.install()
        for (module, cls, attr, _), original in zip(tracer.TRACED, originals):
            assert getattr(_owner(module, cls), attr) is not original, attr
        code = main(["encode", str(src), "-o", str(tmp_path / "t.cnf")])
    finally:
        tr.uninstall()
    assert code == 0
    for (module, cls, attr, _), original in zip(tracer.TRACED, originals):
        assert getattr(_owner(module, cls), attr) is original, attr
    metrics = tracer.layer_metrics(tr)
    assert metrics["search.calls"] >= 1
    assert metrics["cost.child_metrics_calls"] >= 1
    header = (tmp_path / "t.cnf").read_text().split("p cnf ")[1].split()
    assert metrics["encoder.clauses"] == int(header[1])
