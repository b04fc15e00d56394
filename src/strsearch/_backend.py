"""The search kernel behind the public API.

There is one kernel, ``strsearch._pykernel``; the public modules call it
directly. These two functions name it for tooling that records which kernel
a run used.
"""

from __future__ import annotations

from types import ModuleType

from . import _pykernel


def kernel() -> ModuleType:
    """The kernel module the public API runs on."""
    return _pykernel


def active_backend() -> str:
    """Short name of that kernel (``"py"``)."""
    return _pykernel.NAME
