"""The suffix tree kernel behind the public API.

The public API builds its trees with the C kernel ``strsearch._tree``; the
classical scans stay in pure Python (``strsearch.baselines``). These two
functions name the tree kernel for tooling that records which kernel a run
used.
"""

from __future__ import annotations

from types import ModuleType

from . import _tree


def kernel() -> ModuleType:
    """The tree kernel module the public API runs on."""
    return _tree


def active_backend() -> str:
    """Short name of that kernel (``"c"``)."""
    return _tree.NAME
