"""The benchmark's tracer wraps engine names that exist, and the warm-up
timing script fails when a warm-up pass takes no sample.

`perfbench/tracer.py` replaces each name through `owner.__dict__`, which
raises KeyError for a name that is gone, so removing a wrapped name breaks
every traced benchmark run.  The tracer is loaded by file path, so that
`perfbench/reference.py` cannot shadow `tests/reference.py` on sys.path."""

import importlib.util
from pathlib import Path

from ignorability_lab import inference

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
WARMUP_MARGIN = Path(__file__).parent.parent / "scripts" / "warmup_margin.py"


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


def test_warmup_margin_exits_1_on_a_pass_with_no_sample(monkeypatch, capsys):
    # one run of one workload: a pass with no sample fails the script, a
    # pass with one passes it; each is counted under "passes with none"
    spec = importlib.util.spec_from_file_location("warmup_margin", WARMUP_MARGIN)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for pass_, code, none in (((10.0, 0), 1, 1), ((30.0, 1), 0, 0)):
        monkeypatch.setattr(script, "warmup", lambda _name, _out_dir, pass_=pass_: pass_)
        assert script.main(["--runs", "1", "--workload", "mc_verify"]) == code
        header, row = capsys.readouterr().out.splitlines()
        assert header.endswith("passes with none")
        assert row.split()[0] == "mc_verify" and int(row.split()[-1]) == none
