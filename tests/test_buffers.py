import numpy as np

from mhmppi.buffers import buffer


def test_storage_is_kept_per_name_and_dtype():
    # the plant steps in float64 and the rollouts in float32 through the
    # same kernel scratch names: asked for in alternating dtypes, a name
    # hands back the same storage for each dtype, never a new one
    dtypes = (np.float64, np.float32)
    first = {dtype: buffer("test.alternating", (3, 5), dtype) for dtype in dtypes}
    assert first[np.float64].base is not first[np.float32].base
    for _ in range(3):
        for dtype, view in first.items():
            again = buffer("test.alternating", (2, 5), dtype)
            assert again.dtype == dtype
            assert again.base is view.base
