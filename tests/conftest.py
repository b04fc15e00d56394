import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    """Compile the C tree kernel the way the README says, once per session,
    before any test module imports strsearch; a failed build ends the
    session with the compiler's output."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.exit(
            f"`python setup.py build_ext --inplace` failed (exit {proc.returncode}):\n"
            f"{proc.stdout}{proc.stderr}",
            returncode=1,
        )


@pytest.fixture(params=["py"])
def kernel(request):
    """The pure-Python kernel module, for the classical scans.

    Tests that exercise kernel code take this fixture, so their ids carry the
    kernel's name (``test_x[py]``) and stay comparable from run to run.
    """
    from strsearch import _pykernel

    return _pykernel


@pytest.fixture(params=["py", "c"])
def tree_kernel(request, monkeypatch):
    """Each suffix tree kernel module in turn: the Python reference (``py``)
    and the C kernel the public API runs on (``c``).

    ``build_suffix_tree`` builds its trees with the kernel under test for the
    rest of the test.
    """
    from strsearch import _pykernel, _tree, suffix_tree

    kmod = {_pykernel.NAME: _pykernel, _tree.NAME: _tree}[request.param]
    monkeypatch.setattr(suffix_tree, "TreeKernel", kmod.TreeKernel)
    return kmod
