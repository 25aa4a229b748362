"""The package imports without its test-only dependencies."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import wenum


def test_no_module_imports_mpmath():
    names = [m.name for m in pkgutil.iter_modules(wenum.__path__, "wenum.")]
    assert "wenum.roots" in names
    src = str(Path(wenum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print('mpmath' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
