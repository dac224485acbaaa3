"""Test-wide hypothesis settings.

Property tests run without a per-example deadline, whose timing would vary
with the speed of the machine, and derandomized, so that every run draws
the same examples and gives the same result.
"""

from hypothesis import settings

settings.register_profile("gorlink", deadline=None, derandomize=True)
settings.load_profile("gorlink")
