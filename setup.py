"""Build script for the C suffix tree kernel.

``python setup.py build_ext --inplace`` compiles ``src/strsearch/_tree.c``
next to the package sources (it needs a C compiler and the Python headers);
the rest of the package is pure Python and configured in pyproject.toml.
The compile always runs: setuptools would otherwise skip it whenever an
earlier build is newer than ``_tree.c``, as after a copy or a checkout, and
install that stale kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension("strsearch._tree", ["src/strsearch/_tree.c"])],
    options={"build_ext": {"force": True}},
)
