"""Each demo prints exactly its golden output.

``tests/golden/<demo>.txt`` is the standard output of ``demos/<demo>.py``,
byte for byte.  A change that alters what a demo prints (a reflection
vector, a basis, a count) fails here; when the change is meant, regenerate
the file with

    PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt
"""

import os
import subprocess
import sys

import pytest

import wallfact

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_every_demo_has_a_golden_output():
    golden = sorted(name[:-4] for name in os.listdir(os.path.join(ROOT, "tests", "golden")))
    assert DEMOS and golden == DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_output(demo):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wallfact.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    with open(os.path.join(ROOT, "tests", "golden", demo + ".txt"), "rb") as handle:
        assert done.stdout == handle.read()
