import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# a wider, still derandomized search: HYPOTHESIS_PROFILE=ci
settings.register_profile(
    "ci", parent=settings.get_profile("default"), max_examples=500
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
