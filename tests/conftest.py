"""Hypothesis profiles.  `HYPOTHESIS_PROFILE=ci` derandomizes the search and
prints the reproduction blob of a failure, so that a float-oracle failure
seen in CI replays locally under the same profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
