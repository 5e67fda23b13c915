"""Host fingerprint recorded beside every benchmark result.

The fields are descriptive, not metrics: they let a later reader tell
host drift from a regression.  The calibration kernel's time, the
median of the host-speed samples taken during a repetition, comes
from ``speed.py``.
"""

from __future__ import annotations

import os
import platform
from typing import Any


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict[str, Any]:
    """nproc, CPU model, Python and numpy versions of this host."""
    import numpy as np

    return {
        "nproc": os.cpu_count() or 0,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
