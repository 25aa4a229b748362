"""The package imports without its test-only dependencies, and its verbs
load no numpy module they do not need and call no np.unique."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import wenum
from wenum.catalog import get_entry
from wenum.codes import LinearCode, decompose_case_c, enumerate_weights
from wenum.fields import GF
from wenum.stabilizer import Verdict, certify_trivial, compute_stabilizer


def _run(code):
    """Standard output of `code` run in a fresh interpreter on this wenum."""
    src = str(Path(wenum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_no_module_imports_mpmath():
    names = [m.name for m in pkgutil.iter_modules(wenum.__path__, "wenum.")]
    assert "wenum.roots" in names
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert _run(code) == "False"


def test_verbs_do_not_import_numpy_ma():
    # numpy.ma comes in with the first np.unique call and costs about
    # 1.3 MB of resident memory
    code = (
        "import sys\n"
        "from wenum.catalog import get_entry\n"
        "from wenum.codes import LinearCode, decompose_case_c, enumerate_weights\n"
        "from wenum.fields import GF\n"
        "from wenum.stabilizer import certify_trivial, compute_stabilizer\n"
        "w = enumerate_weights(get_entry('rm4_2_2').code)\n"
        "decompose_case_c(LinearCode(GF(3), [[1, 1, 0, 0], [0, 0, 1, 2]]))\n"
        "compute_stabilizer(w, 4)\n"
        "certify_trivial(w, 4)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run(code) == "False"


def test_verbs_do_not_call_np_unique(monkeypatch):
    # np.unique's first call in a process raises the peak resident set by
    # about 1.2 MB; the screen dedupes its triples with a mask instead
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    w = enumerate_weights(get_entry("rm4_2_2").code)
    decompose_case_c(LinearCode(GF(3), [[1, 1, 0, 0], [0, 0, 1, 2]]))
    assert compute_stabilizer(w, 4).verdict is Verdict.FINITE_GROUP
    assert certify_trivial(w, 4).verdict is Verdict.TRIVIAL_CERTIFIED
    rm2_1_3 = enumerate_weights(get_entry("rm2_1_3").code)  # through the screen
    assert certify_trivial(rm2_1_3, 2).verdict is Verdict.INCONCLUSIVE


def test_verbs_do_not_import_the_thread_pool():
    # concurrent.futures costs about 7 ms per process, and only a
    # multi-worker enumeration uses it
    code = (
        "import sys\n"
        "from wenum.catalog import get_entry\n"
        "from wenum.codes import enumerate_weights\n"
        "from wenum.stabilizer import certify_trivial, compute_stabilizer\n"
        "w = enumerate_weights(get_entry('rm4_2_2').code, workers=1)\n"
        "compute_stabilizer(w, 4)\n"
        "certify_trivial(w, 4)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    assert _run(code) == "False"


def test_catalog_does_not_import_the_stabilizer():
    # the catalog's fixtures are codes and closed forms; building them
    # needs no stabilizer machinery
    code = "import sys\nimport wenum.catalog\nprint('wenum.stabilizer' in sys.modules)\n"
    assert _run(code) == "False"


def test_invariants_load_no_numpy():
    # the exact layer is float-free: wenum.invariants and what it imports,
    # loaded under a bare package (the package's own __init__ brings in
    # the codes, and numpy with them), load no numpy
    pkg = str(Path(wenum.__file__).resolve().parent)
    code = (
        "import sys, types\n"
        "package = types.ModuleType('wenum')\n"
        f"package.__path__ = [{pkg!r}]\n"
        "sys.modules['wenum'] = package\n"
        "import wenum.invariants\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _run(code) == "False"
