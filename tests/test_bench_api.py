"""The benchmark in ``perfbench/`` reaches into forumlens by name.

``perfbench/tracer.py`` wraps the functions listed in its target tuples, and
``perfbench/run.py`` imports a few more names for set-up and scoring. A
rename or deletion in the library would break a benchmark run only at run
time; these tests make it fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TRACED = _tracer.SPAN_TARGETS + _tracer.COUNT_TARGETS + _tracer.SETUP_TARGETS

# names perfbench/run.py imports from forumlens
RUN_IMPORTS = (
    ("synth", "SynthConfig"),
    ("synth", "DEFAULT_ARCHETYPES"),
    ("synth", "generate"),
    ("synth", "write_synth"),
    ("synth", "load_truth"),
    ("synth", "community_agreement"),
    ("community", "Partition"),
    ("workspace", "STAGE_ARTIFACTS"),
)


def _resolve(module_name: str, qualname: str) -> object:
    obj = importlib.import_module(f"forumlens.{module_name}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("target", TRACED, ids=lambda t: ".".join(t))
def test_traced_name_resolves_to_a_function(target):
    assert callable(_resolve(*target))


@pytest.mark.parametrize("target", RUN_IMPORTS, ids=lambda t: ".".join(t))
def test_benchmark_import_resolves(target):
    _resolve(*target)
