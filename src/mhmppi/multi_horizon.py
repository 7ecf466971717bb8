"""Triangular multi-horizon input structure.

A plan over horizon N toward one primary target, together with m backup
targets, stores only the independent control inputs:

* the primary horizon ``u_0 .. u_{N-1}`` (N inputs), and
* for every backup mission i in 1..m and every branch-off step
  p in 0..N-2, the tail ``u^i_{p,p+1} .. u^i_{p,N-1}`` (N-1-p inputs)
  that completes an N-step plan should the primary be abandoned right
  after ``u_p``.

That is ``N + m*N*(N-1)/2`` input vectors in total.  Simulated, they give
``N+1 + m*N*(N-1)/2`` independent states, because each branch shares the
first p+2 states with the primary trajectory.

Flat index convention (the contract shared with the noise sampler and the
sampling update): row d of :attr:`MultiHorizonInput.flat` is

* ``d in [0, N)``                      -- primary input ``u_d``;
* ``d >= N``                           -- tail inputs, numbered mission
  first, then branch step p, then time t.

:func:`branch_rows` is that layout as one ``(N, N-1, m)`` table: entry
``[t, p, i-1]`` is the row holding input t of branch (i, p).  Every other
view of the flat storage (branch plans, the shift) reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


def dims(horizon: int, n_alternatives: int) -> tuple[int, int]:
    """Independent (input, state) element counts of the structure.

    Counts are in whole vectors, not scalars.  Requires horizon >= 2: with
    a shorter horizon there is no step after which a branch could begin.
    """
    if horizon < 2:
        raise ConfigError(f"horizon must be >= 2, got {horizon}")
    if n_alternatives < 0:
        raise ConfigError(f"n_alternatives must be >= 0, got {n_alternatives}")
    tri = horizon * (horizon - 1) // 2
    n_inputs = horizon + n_alternatives * tri
    return n_inputs, n_inputs + 1


def _check_branch(horizon: int, n_alternatives: int, i: int, p: int) -> None:
    if not 1 <= i <= n_alternatives:
        raise ValueError(f"mission index {i} out of range 1..{n_alternatives}")
    if not 0 <= p <= horizon - 2:
        raise ValueError(f"branch step {p} out of range 0..{horizon - 2}")


@lru_cache(maxsize=None)
def branch_rows(horizon: int, n_alternatives: int) -> np.ndarray:
    """Flat row of every branch input: an (N, N-1, m) table.

    Entry ``[t, p, i-1]`` is the row holding ``branch_view(i, p)[t]``: the
    primary row t while t <= p, and tail (i, p)'s entry t-p-1 after it.
    """
    m = n_alternatives
    t = np.arange(horizon)
    is_tail = t > t[:-1, None]  # [p, t]
    tri = int(is_tail.sum())
    rows = np.empty((m, horizon - 1, horizon), dtype=np.intp)  # [i-1, p, t]
    rows[:] = t
    rows[:, is_tail] = np.arange(horizon, horizon + m * tri).reshape(m, tri)
    rows = np.ascontiguousarray(rows.transpose(2, 1, 0))
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _shift_source(horizon: int, n_alternatives: int) -> np.ndarray:
    """Row map realizing the receding-horizon shift on the flat storage.

    ``new_flat[d] = old_flat[src[d]]`` with ``src[d] == -1`` meaning a fresh
    zero row.  Entry t of every new view (i, p) is entry t+1 of the old
    view (i, p+1), and entry t of the new primary is old entry t+1; the
    last entry of each is a fresh zero.  So every length-N plan view of the
    result equals the corresponding old view with its first input removed
    and a zero input appended, and the p=0 tails (whose branch-off point
    has passed) are dropped.
    """
    n, _ = dims(horizon, n_alternatives)
    rows = branch_rows(horizon, n_alternatives)
    src = np.full(n, -1, dtype=np.intp)
    src[: horizon - 1] = np.arange(1, horizon)
    src[rows[:-1, :-1]] = rows[1:, 1:]
    src.flags.writeable = False
    return src


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class MultiHorizonInput:
    """Immutable triangular input plan; see module docstring for layout."""

    horizon: int
    n_alternatives: int
    flat: np.ndarray  # (n_inputs, n_u)

    def __post_init__(self):
        n, _ = dims(self.horizon, self.n_alternatives)
        flat = np.asarray(self.flat, dtype=float)
        if flat.ndim != 2 or flat.shape[0] != n:
            raise ValueError(f"flat storage must have shape ({n}, n_u), got {flat.shape}")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @classmethod
    def zeros(cls, horizon: int, n_alternatives: int, n_u: int) -> "MultiHorizonInput":
        n, _ = dims(horizon, n_alternatives)
        return cls(horizon, n_alternatives, np.zeros((n, n_u)))

    @property
    def n_u(self) -> int:
        return self.flat.shape[1]

    @property
    def primary(self) -> np.ndarray:
        return self.flat[: self.horizon]

    def branch_view(self, i: int, p: int) -> np.ndarray:
        """The full N-input plan for aborting to mission i after input p.

        Entries 0..p are the shared primary inputs (same values, not
        independent storage); the array is read-only to keep it that way.
        """
        _check_branch(self.horizon, self.n_alternatives, i, p)
        rows = branch_rows(self.horizon, self.n_alternatives)
        return _readonly(self.flat[rows[:, p, i - 1]])

    def shift(self) -> "MultiHorizonInput":
        """Receding-horizon shift: drop the executed input, pad with zeros."""
        src = _shift_source(self.horizon, self.n_alternatives)
        out = np.where((src >= 0)[:, None], self.flat[src], 0.0)
        return MultiHorizonInput(self.horizon, self.n_alternatives, out)

    def with_flat(self, flat: np.ndarray) -> "MultiHorizonInput":
        return MultiHorizonInput(self.horizon, self.n_alternatives, flat)
