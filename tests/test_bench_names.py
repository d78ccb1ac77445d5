"""The benchmark tracer's function names, read from ``bench/tracer.py``.

The tracer wraps functions by name and rebinds every module attribute
that refers to one, so a renamed or re-imported function would only show
in the benchmark's own self-test.  These checks fail first.
"""

import importlib
import importlib.util
from pathlib import Path

from lgqsmooth import pipeline

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# kernels whose pipeline calls the per-layer times are made of
PIPELINE_IMPORTS = ("filter_means", "retro_info", "combine_arrays",
                    "simulate_truth_ensemble", "consistency_check", "vacf")


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _owners(targets) -> dict:
    """Function name -> the lgqsmooth module that TARGETS lists it under."""
    return {name: importlib.import_module(f"lgqsmooth.{mod}")
            for mod, funcs in targets.items() for name in funcs}


def test_every_traced_target_resolves():
    tracer = _tracer()
    missing = [f"{mod}.{name}" for mod, funcs in tracer.TARGETS.items()
               for name in funcs
               if not callable(getattr(
                   importlib.import_module(f"lgqsmooth.{mod}"), name, None))]
    assert missing == []


def test_every_criterion_exists_in_pipeline():
    tracer = _tracer()
    assert [name for name in tracer.CRITERIA
            if not callable(getattr(pipeline, name, None))] == []


def test_pipeline_imports_are_the_traced_objects():
    owners = _owners(_tracer().TARGETS)
    for name in PIPELINE_IMPORTS:
        assert getattr(pipeline, name) is getattr(owners[name], name), name
