"""Shared test set-up: ``tools/regen_goldens.py`` as the ``regen_goldens`` module.

The regen tool is the single source of truth for how golden fixtures are
captured and canonicalised, so several suites compare against it.  It is
a script, not a package module: it is loaded once here, before any test
module is collected, so test modules simply ``import regen_goldens``.
"""

import importlib.util
import sys
from pathlib import Path

_TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "regen_goldens.py"

if "regen_goldens" not in sys.modules:
    _spec = importlib.util.spec_from_file_location("regen_goldens", _TOOL_PATH)
    sys.modules["regen_goldens"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["regen_goldens"])
