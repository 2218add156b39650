"""README's "Library at a glance" block runs as documented.

It is the only caller of several single-point calls and of
`VerificationReport.to_json`, so it runs here in a fresh interpreter, as a
reader would paste it.
"""

import os
import pathlib
import re
import subprocess
import sys

import crum

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _glance_block():
    section = README.read_text(encoding="utf-8").split("## Library at a glance", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    src = str(pathlib.Path(crum.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**{k: v for k, v in os.environ.items() if k != "CRUM_SEED"}, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _glance_block()], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    status, payload = done.stdout.split(" ", 1)
    assert status == "pass"
    assert payload.startswith("{") and '"depth": 2' in payload
