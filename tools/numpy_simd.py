"""The numpy build behind a listing or a timing: its version and the SIMD
targets it runs, the CPU baseline it was compiled for plus each target it
dispatches to that this CPU supports.  numpy's ``exp`` and ``log`` differ in
their last bits between these code paths, so outcomes and timings compare
only between runs on the same targets.
"""

from __future__ import annotations

import numpy as np
from numpy._core import _multiarray_umath as _umath


def simd_targets() -> list:
    """The baseline targets, then the dispatched targets this CPU supports."""
    supported = _umath.__cpu_features__
    return [*_umath.__cpu_baseline__,
            *(target for target in _umath.__cpu_dispatch__ if supported.get(target))]


def header() -> str:
    """One line naming the numpy version and ``simd_targets()``."""
    return f"numpy {np.__version__} simd {' '.join(simd_targets())}"
