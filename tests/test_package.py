import os
import pathlib
import re
import subprocess
import sys

import qkattn

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    for name in qkattn.__all__:
        getattr(qkattn, name)  # AttributeError names a dangling export


def test_readme_python_sketches_run(tmp_path):
    # each python block of the README runs as a script against this
    # package, so the docs cannot keep naming an API that is gone
    sketches = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert sketches
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qkattn.__file__)))
    for sketch in sketches:
        out = subprocess.run([sys.executable, "-c", sketch], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
