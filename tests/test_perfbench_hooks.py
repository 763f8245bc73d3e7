"""The benchmark's tracer wraps fisherctl functions by module attribute; every
name it lists must exist, or traced benchmark runs break.  The in-process
workloads' output checks must pass, or the benchmark counts failed
operations."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()
FUNCTIONS = sorted(set(spans.SPANNED_FUNCTIONS) | set(spans.COUNTED_FUNCTIONS))


@pytest.mark.parametrize("mod, attr", FUNCTIONS)
def test_wrapped_function_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"fisherctl.{mod}"), attr))


@pytest.mark.parametrize("mod, cls, attr", sorted(spans.SPANNED_METHODS))
def test_wrapped_method_resolves(mod, cls, attr):
    owner = getattr(importlib.import_module(f"fisherctl.{mod}"), cls)
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(owner.__dict__[attr])


def test_tracer_restores_an_export_first_read_while_installed():
    # the package used to bind an export in its namespace on first read, and
    # a binding made while the tracer was installed outlived uninstall
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "import fisherctl, fisherctl.models\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "fisherctl.get_model('zz')\n"
        "tracer.uninstall()\n"
        "assert fisherctl.get_model is fisherctl.models.get_model\n"
        "recorded = len(tracer.spans)\n"
        "fisherctl.get_model('zz')\n"
        "assert len(tracer.spans) == recorded\n"
    )
    src = str(SPANS.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _workload(monkeypatch, name, workdir):
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  SPANS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads.make(name, 101, SPANS.parents[1], workdir)


@pytest.mark.parametrize("name", ["optimize-noisy", "optimize-noiseless", "evaluate"])
def test_in_process_workload_passes_its_checks(monkeypatch, tmp_path, name):
    # one operation of each in-process benchmark workload, with the output
    # checks the benchmark applies to it
    workload = _workload(monkeypatch, name, tmp_path)
    workload.setup()
    outcome = workload.run(0)
    assert outcome.failures == []


def test_sweep_workload_passes_its_checks(monkeypatch, tmp_path):
    # one sweep command and the byte-identity check against a second,
    # single-worker run of the same seed: two fresh CLI processes
    workload = _workload(monkeypatch, "sweep", tmp_path)
    workload.setup()
    outcome = workload.run(0)
    assert outcome.failures == []
    assert workload.finish([outcome]) == []
