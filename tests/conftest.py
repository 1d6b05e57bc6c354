"""A test run leaves no bytecode behind, in this process or in the
interpreters the tests start: a `src/mockq/__pycache__` would be loaded by
every later `bench/run.py` child of the checkout in place of the source."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
