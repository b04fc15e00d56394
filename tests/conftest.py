import pytest

from strsearch import _pykernel


@pytest.fixture(params=[_pykernel], ids=[_pykernel.NAME])
def kernel(request):
    """The search kernel module under test.

    Tests that exercise kernel code take this fixture, so their ids carry the
    kernel's name (``test_x[py]``) and stay comparable from run to run.
    """
    return request.param
