import os

from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    # no explain phase: it traces every shrink step with sys.settrace, which
    # can push a budgeted call past its budget while a real failure shrinks
    phases=[p for p in Phase if p is not Phase.explain],
)
# a wider, still derandomized search: HYPOTHESIS_PROFILE=ci
settings.register_profile(
    "ci", parent=settings.get_profile("default"), max_examples=500
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
