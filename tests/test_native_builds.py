"""Checks that need their own build of the C tree kernel.

Each compiles ``src/strsearch/_tree.c`` into a temporary directory and runs
it in a child process, so the in-place extension the rest of the suite
imports is never rebuilt or replaced.
"""

import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "strsearch" / "_tree.c"


def in_place_extensions():
    return {p: p.read_bytes() for p in (ROOT / "src" / "strsearch").glob("_tree*.so")}


def run(args, cwd, env=None, timeout=600):
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, f"{args} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
    return proc


# the size guard, at a limit small enough to reach
GUARD_SCRIPT = """
import glob, importlib.util, sys, tracemalloc

path, = glob.glob(sys.argv[1] + "/strsearch/_tree*.so")
spec = importlib.util.spec_from_file_location("strsearch._tree", path)
tree = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tree)

k = tree.TreeKernel(b"ab" * 31 + b"c\\0")
k.build()
k.finalize()
assert (k.n_leaves, k.max_depth, k.count(b"ab")) == (64, 64, 31)

def allocated(data):
    # peak bytes allocated while constructing a kernel over data
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        tree.TreeKernel(data)
        error = None
    except ValueError as exc:
        error = str(exc)
    return tracemalloc.get_traced_memory()[1] - base, error

tracemalloc.start()
smallest, error = allocated(b"\\0")
assert error is None
refused, error = allocated(b"a" * 64 + b"\\0")
assert error == "text of 65 bytes is too long for a suffix tree (at most 64 bytes)", error
# the refusal allocates its exception, but not even the kernel object
assert refused < smallest, (refused, smallest)
print("guard ok", refused, smallest)
"""

BUILD_SCRIPT = """
import sys
from setuptools import Extension, setup

source, out = sys.argv[1:3]
setup(
    name="strsearch-guard",
    script_args=["build_ext", "-q", "--build-lib", out, "--build-temp", out + "/tmp"],
    ext_modules=[Extension("strsearch._tree", [source], define_macros=[("STRSEARCH_MAX_TEXT", "64")])],
)
"""


def test_text_size_guard(tmp_path):
    before = in_place_extensions()
    run([sys.executable, "-c", BUILD_SCRIPT, str(SOURCE), str(tmp_path)], cwd=tmp_path)
    proc = run([sys.executable, "-c", textwrap.dedent(GUARD_SCRIPT), str(tmp_path)], cwd=tmp_path)
    assert proc.stdout.startswith("guard ok")
    assert in_place_extensions() == before


SANITIZE = "-fsanitize=address,undefined -fno-sanitize-recover=all"


def test_kernel_suites_under_sanitizers(tmp_path):
    """The differential and suffix-tree tests, on an ASan/UBSan build of the
    kernel in a copy of the checkout; any report fails the run."""
    libasan = subprocess.run(
        ["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True,
    ).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("gcc has no libasan here")
    before = in_place_extensions()
    copy = tmp_path / "checkout"
    skip = shutil.ignore_patterns("*.so", "__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=skip)
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, copy / name)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        CFLAGS=SANITIZE,
        LDFLAGS=SANITIZE,
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
    )
    t0 = time.perf_counter()
    # the copy's conftest builds the sanitized extension in the copy; -s
    # lets a sanitizer report, written just before the abort, reach stderr
    proc = run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_kernel_differential.py", "tests/test_suffix_tree.py"],
        cwd=copy, env=env,
    )
    print(f"sanitized kernel suites: {time.perf_counter() - t0:.1f}s; {proc.stdout.strip().splitlines()[-1]}")
    built, = (copy / "src" / "strsearch").glob("_tree*.so")
    assert b"__asan_report" in built.read_bytes() and b"__ubsan_handle" in built.read_bytes()
    assert in_place_extensions() == before
