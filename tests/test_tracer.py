"""The benchmark's tracer still finds every name it wraps.

perfbench/spans.py patches amrgen's kernels, encoder methods and model
methods by name, so renaming or deleting one of them breaks `perfbench/run.py
--trace 1` alone. Installing the tracer in a fresh interpreter catches that
here; the tracer is read, never changed.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_name_it_patches():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    code = "import spans; spans.install(spans.Tracer()); print('installed')"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"
