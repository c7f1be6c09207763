"""Shared pytest configuration.

The `ci` hypothesis profile draws examples from a fixed seed and drops the
per-example deadline, so a failure on a CI runner reproduces locally with
`pytest --hypothesis-profile=ci`.  Local runs keep the default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
