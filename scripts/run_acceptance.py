#!/usr/bin/env python3
"""Run the acceptance criteria outside pytest, one PASS/FAIL line each."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the repository root for ``tests``, and src/ for an uninstalled ``simploc``
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_acceptance import main

if __name__ == "__main__":
    raise SystemExit(main())
