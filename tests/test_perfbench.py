"""The benchmark's tracer wraps engine names that exist.

`perfbench/tracer.py` replaces each name through `owner.__dict__`, which
raises KeyError for a name that is gone, so removing a wrapped name breaks
every traced benchmark run.  The tracer is loaded by file path, so that
`perfbench/reference.py` cannot shadow `tests/reference.py` on sys.path."""

import importlib.util
from pathlib import Path

from ignorability_lab import inference

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_tracer_wraps_existing_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = [(owner, attribute) for _layer, owner, attribute, *_ in tracer.SPANS]
    wrapped += [(owner, attribute) for _name, owner, attribute, _amount in tracer.COUNTERS]
    missing = [f"{owner.__name__}.{attribute}" for owner, attribute in wrapped if attribute not in vars(owner)]
    assert missing == []
    # perfbench/workloads.py and scripts/rubin_sweep.py call it
    assert callable(inference.rubin_theorem_audit)
