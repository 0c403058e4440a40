"""Every function that perfbench's tracer wraps still exists.

`perfbench/spans.py` lists its targets by name in `TARGETS`, and
`Tracer.install` looks each one up when a `--trace 1` run starts: a module
attribute, or for an owner written "module:Class" the attribute in the
class's own `__dict__`.  A target that was deleted or renamed makes that
run raise.  The file is run here as a script, which writes nothing, and
each target is looked up by the same rule."""
import importlib
import os
import runpy

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")
TARGETS = runpy.run_path(SPANS)["TARGETS"]


def _resolves(owner, attr):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        return attr in vars(getattr(module, class_name))
    return callable(getattr(module, attr, None))


def test_every_traced_target_resolves():
    assert [(owner, attr) for _, owner, attr in TARGETS if not _resolves(owner, attr)] == []
