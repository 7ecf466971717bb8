"""Per-thread scratch arrays, reused from one control step to the next.

``buffer(name, shape, dtype)`` returns an uninitialised array of ``shape``
and ``dtype``: a contiguous view of this thread's storage for ``name`` in
that dtype.  The storage is keyed by name and dtype, made on the first
call for the pair and grown when a later call asks for more, so steps of
one shape allocate it once, and a smaller step (the m=0 steps after an
abort) reuses the larger one's.  A name asked for in two dtypes keeps
two storages: the dynamics kernels serve the float64 plant and the
float32 rollouts of every step under the same names, and neither makes
the other's storage again.  It lives as long as the thread.  Each call
hands out the same memory again, so a caller writes a buffer before it
reads it, and no function returns a buffer or keeps one past its own
return.  Two arrays in use at the same time take two names.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_local = threading.local()


def buffer(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's scratch array ``name`` in ``dtype``, viewed as ``shape``."""
    size = math.prod(shape)
    store = vars(_local)
    key = (name, np.dtype(dtype))
    flat = store.get(key)
    if flat is None or flat.size < size:
        flat = store[key] = np.empty(size, dtype)
    return flat[:size].reshape(shape)
