"""The fresh-process rung shared by the off-contract ``scale_*.py`` scripts.

Each script re-runs itself as ``script --rung ARG ...`` with ``repro``
imported from ``src`` (so a parent checkout can be measured with the
same script) and reads the row the child prints as its last line of
JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


def run_rung_child(script: str, argv: list[str], src: Path) -> dict:
    """Run one rung in a fresh process; exit with its status if it fails."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, script, "--rung", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])
