"""The benchmark's tracer binds to package names; each must still resolve."""

import importlib.util
import os


def test_tracer_targets_resolve():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, target, _ in tracer.TARGETS:
        assert tracer._resolve(target)  # raises TargetMissing when a name is gone
