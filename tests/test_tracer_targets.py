"""The benchmark's tracer patches module attributes by name, so a refactor
that moves or renames one of them breaks ``perfbench/run.py --trace 1``.
This checks every name it patches, and the kernel call ``perfbench/run.py``
makes, against the package as it is."""

import importlib.util
import os

from zerosum import _kernels

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists_where_it_is_patched():
    targets = _load_tracing().Tracer()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in owner.__dict__]
    assert missing == []


def test_run_reads_the_kernel_backend_name():
    assert _kernels.backend_name() == "numpy"
