"""The benchmark's tracer binds to package names; each must still resolve."""

import importlib
import importlib.util
import os


def _tracer():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer()
    for _, target, _ in tracer.TARGETS:
        assert tracer._resolve(target)  # raises TargetMissing when a name is gone


def test_no_subclass_overrides_a_traced_method():
    """A method traced on one class is not overridden below it.

    The tracer wraps `Class.name` on that class only, so a subclass with
    its own `name` would run untraced and its calls would go uncounted.
    """
    tracer = _tracer()
    classes = {v for m in tracer.MODULES for v in vars(importlib.import_module(m)).values()
               if isinstance(v, type) and v.__module__.startswith("odirac")}
    checked = 0
    for _, target, _ in tracer.TARGETS:
        modname, qual = target.split(":")
        parts = qual.split(".")
        if len(parts) != 2 or parts[0] == "Class":
            continue
        base = vars(importlib.import_module(modname)).get(parts[0])
        if not isinstance(base, type):
            continue
        checked += 1
        for cls in classes:
            if cls is not base and issubclass(cls, base):
                assert parts[1] not in vars(cls), f"{cls.__name__} overrides {target}"
    assert checked
