"""Per-thread scratch arrays, reused from one control step to the next.

``buffer(name, shape)`` returns an uninitialised array of ``shape``: a
contiguous view of this thread's storage for ``name``.  The storage is
made on the first call for the name and grown when a later call asks for
more, so steps of one shape allocate it once, and a smaller step (the
m=0 steps after an abort) reuses the larger one's.  It lives as long as
the thread.  Each call hands out the same memory again, so a caller
writes a buffer before it reads it, and no function returns a buffer or
keeps one past its own return.  Two arrays in use at the same time take
two names.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_local = threading.local()


def buffer(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's scratch array ``name``, viewed as ``shape``."""
    size = math.prod(shape)
    store = vars(_local)
    flat = store.get(name)
    if flat is None or flat.size < size or flat.dtype != dtype:
        flat = store[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)
