"""The benchmark's trace hooks resolve against the package.

perfbench/pipeline.py times terntrain from outside, by wrapping functions
and methods by name, so a rename in src/ would crash a traced benchmark run
(`python3 perfbench/run.py --trace 1`). Installing every hook here makes
such a rename fail the test suite first.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import pipeline  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("arch", ["mlp-784-300-100-10", "lenet-small"])
def test_every_benchmark_trace_hook_installs(arch):
    tracer = Tracer()
    try:
        pipeline.install(tracer, arch)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} was not wrapped"
    finally:
        tracer.unwrap_all()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} was not restored"
