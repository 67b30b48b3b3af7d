"""Hypothesis profiles.

``ci`` raises the default example count to 1,000. The tree oracles in
``test_trees.py`` ask for ``max(their local count, the profile's)``, so
under ``ci`` they run 1,000 examples; properties that set their own count
keep it. Select the profile with ``HYPOTHESIS_PROFILE=ci``; without it the
default profile holds.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
