"""One Hypothesis profile for every property test: every run draws the
same examples, with no deadline."""

from hypothesis import settings

settings.register_profile("dgmdist", deadline=None, derandomize=True, database=None)
settings.load_profile("dgmdist")
