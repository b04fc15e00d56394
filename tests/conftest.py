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
    """The module that holds the classical scans, ``strsearch.baselines``.

    Tests of the scans take this fixture, so their ids carry the name the
    scans have always run under (``test_x[py]``) and stay comparable from
    run to run.
    """
    from strsearch import baselines

    return baselines


@pytest.fixture(params=["py", "c"])
def tree_kernel(request, monkeypatch):
    """Each suffix tree kernel module in turn: the Python reference (``py``)
    and the C kernel the public API runs on (``c``).

    ``build_suffix_tree`` builds its trees with the kernel under test for the
    rest of the test.
    """
    import reference_tree
    from strsearch import _tree, suffix_tree

    kmod = {reference_tree.NAME: reference_tree, _tree.NAME: _tree}[request.param]
    monkeypatch.setattr(suffix_tree, "TreeKernel", kmod.TreeKernel)
    return kmod
