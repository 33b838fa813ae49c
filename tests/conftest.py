import pytest

from weylcheb.rootsys import build_root_system


@pytest.fixture
def rs():
    # build_root_system shares one instance per spec within the process
    return build_root_system
