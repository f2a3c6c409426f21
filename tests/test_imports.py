"""Every fordc module imports on its own, before any other, so an import
cycle cannot hide behind the order in which the package imports them."""

import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "fordc"
MODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    # `-I` ignores PYTHONPATH, so the child builds an empty `fordc` package
    # itself; the real `__init__` would import every module first
    code = ("import sys, types\n"
            "pkg = types.ModuleType('fordc')\n"
            f"pkg.__path__ = [{str(PKG)!r}]\n"
            "sys.modules['fordc'] = pkg\n"
            f"import fordc.{name}\n")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fordc_imports_without_dataclasses():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
    # generating its classes dominated start-up; the library leaves `json`
    # to `--json` rendering and the CLI
    code = ("import sys\n"
            f"sys.path.insert(0, {str(PKG.parent)!r})\n"
            "import fordc\n"
            "assert fordc.__file__.startswith(sys.path[0]), fordc.__file__\n"
            "print('json' in sys.modules)\n"
            "import fordc.cli\n"
            "print('dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\n"
