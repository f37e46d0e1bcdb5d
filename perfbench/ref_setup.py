"""Reference set-up for run.py: a fresh interpreter that imports numpy only.

It prints the monotonic time at which the import finished.  run.py spawns it
once per replay and scales the replay's gvh set-up times by it, so that
setup_s follows gvh's own import work rather than the host's current speed.
"""

import time

import numpy  # noqa: F401

print(time.monotonic())
