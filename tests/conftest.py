"""Every hypothesis test draws the same examples on every run: the one
profile, loaded here, seeds each test's draws from a hash of the test."""

try:
    from hypothesis import settings
except ImportError:   # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("fixed-examples", derandomize=True)
    settings.load_profile("fixed-examples")
