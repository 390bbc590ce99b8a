"""Set-up cost of a fresh process: import the CLI, then build every fixture.

Run by ``run.py`` in a child process with ``PYTHONPATH`` pointing at the
checkout's ``src``; prints one JSON line with both times in seconds.
"""

import json
import time

t0 = time.perf_counter()
import phasecraft.cli  # noqa: E402,F401

t1 = time.perf_counter()
from phasecraft.fixtures import fixture, fixture_names  # noqa: E402

for name in fixture_names():
    fixture(name)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "fixtures_s": t2 - t1}))
