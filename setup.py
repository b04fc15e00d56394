"""Build script for in-place builds (``python setup.py build_ext --inplace``).

The package is pure Python and configured in pyproject.toml, so an in-place
build has nothing to compile.
"""

from setuptools import setup

setup()
