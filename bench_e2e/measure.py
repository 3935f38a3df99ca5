"""Statistics and machine facts shared by the end-to-end benchmark.

Timings are summarised by a median and, for a tail, by a percentile
that has at least :data:`MIN_BEYOND` samples strictly beyond it.  A tail
read from fewer samples is mostly one sample and moves with noise, so
:func:`percentile` refuses it instead of returning a number.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from pathlib import Path
from typing import Dict, Sequence

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10

#: Environment pins every benchmark process runs under: BLAS/OpenMP pools
#: limited to one thread (the workloads are single-threaded, and a pool
#: spinning on the second core would steal from the measured one) and a
#: fixed string-hash seed.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q`` quantile."""
    return n - math.ceil(q * n)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``values``, nearest-rank.

    A median (``q <= 0.5``) is always available.  A tail (``q > 0.5``)
    is refused with :class:`ValueError` unless at least
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    if q == 0.5:
        return float(statistics.median(values))
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * n) - 1)])


def median(values: Sequence[float]) -> float:
    """The median of ``values``."""
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB.

    ``ru_maxrss`` is not used: after a fork-and-exec it keeps reporting
    the parent's high-water mark.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_descriptor() -> Dict[str, object]:
    """The facts a timing depends on besides the code under test."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {name: os.environ.get(name) for name in PINNED_ENV},
    }
