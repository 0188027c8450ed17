"""Refuses every import of scipy in an interpreter that has this directory on
its path (``PYTHONPATH=tests/no_scipy``), to show that a command runs without
it.  Python imports ``sitecustomize`` at start-up."""

import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: import of {name!r}")
        return None


sys.meta_path.insert(0, _NoScipy())
