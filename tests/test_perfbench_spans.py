"""The benchmark tracer must find every function it traces.

perfbench/spans.py patches isocert's layer functions by name; a rename in the
package would make `perfbench/run.py --trace 1` fail, so Tier-1 checks that
every traced target is patched on install and restored on uninstall."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_patches_every_target_and_restores_it(spans):
    originals = {(module, attr): _resolve(module, attr) for _, module, attr, _ in spans.TARGETS}
    bound = {
        (name, attr): module.__dict__[attr]
        for name, module in list(sys.modules.items())
        if name.startswith("isocert") and module is not None
        for (_, attr) in originals
        if "." not in attr and attr in module.__dict__
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            patched = _resolve(module, attr)
            assert patched is not original, f"{module}.{attr} not traced"
            assert patched.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert _resolve(module, attr) is original
    for (name, attr), original in bound.items():
        assert sys.modules[name].__dict__[attr] is original
