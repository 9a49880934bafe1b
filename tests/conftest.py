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
    # every test starts at the shipped 30 digits; one whose bound sits below 30-digit rounding names its own mp.workdps
    old = hopfharmonic.mp.dps
    hopfharmonic.mp.dps = 30
    yield
    hopfharmonic.mp.dps = old
