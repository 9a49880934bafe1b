import pytest
from hypothesis import HealthCheck, settings

import hopfharmonic

settings.register_profile(
    "default",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _working_precision():
    old = hopfharmonic.mp.dps
    hopfharmonic.mp.dps = 40
    yield
    hopfharmonic.mp.dps = old
