import pytest

from maoi_edge.system_model import DeviceProfile, DeviceTable, SystemConfig


@pytest.fixture
def profile():
    """Default-parameter device (reference media sizes, unit weights)."""
    return DeviceProfile(id=0)


@pytest.fixture
def config():
    return SystemConfig()


@pytest.fixture
def two_devices():
    """Two default-parameter devices."""
    return DeviceTable(2)
