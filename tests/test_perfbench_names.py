"""The package names the benchmark in perfbench/ reads.

This suite does not collect perfbench/, so without these checks a rename or
deletion in the package would fail only the benchmark run. The benchmark's
own Tracer is installed on the package's modules and uninstalled again,
which must leave every attribute as it was, and every `tf.<module>.<name>`
that perfbench's code names must exist.
"""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def package():
    """The namespace of package modules perfbench builds; loading its runner
    pins BLAS threads in the environment and puts src/ on the path, so both
    are restored."""
    environ, path = os.environ.copy(), list(sys.path)
    try:
        return load("run").import_package()
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


def test_tracer_installs_and_restores_every_attribute(package):
    owners = [*package.modules, package.training.AdamOptimizer, package.training.ArraySamples]
    before = [dict(vars(owner)) for owner in owners]
    simulate = package.cli.cmd_simulate
    tracer = load("tracing").Tracer()
    tracer.install(package)
    try:
        assert package.cli.cmd_simulate is not simulate  # it did wrap
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert [k for k in saved if now[k] is not saved[k]] == [], owner


def test_every_package_name_the_benchmark_reads_exists(package):
    names = {name for path in sorted(PERFBENCH.glob("*.py"))
             for name in re.findall(r"\btf\.(\w+)\.(\w+)", path.read_text())}
    assert len(names) > 30
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(getattr(package, module, None), attr)]
    assert missing == []
