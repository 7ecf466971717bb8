"""The exact quadratic of a plan cost, recovered from the batched evaluator.

With linear dynamics (the double integrator) and no obstacles, every
mission cost of a flat plan v, its n_inputs x n_u inputs read row by row,
is exactly quadratic in v, branch tails included, and so is the weighted
cost ``alpha @ J`` of the m+1 mission costs J for a fixed alpha.  That is
``c + g @ v + v @ H @ v / 2``.  :func:`fit_quadratic` recovers
``(c, g, H)`` from one ``controller.evaluate_plan_batch`` call on
1 + 2n + n(n-1)/2 plans: the zero plan, +e_i and -e_i, and e_i + e_j for
i < j.  The minimizer ``v* = -H^-1 g`` is then known exactly, and
:func:`gap`, the cost above it, ``(v - v*) @ H @ (v - v*) / 2``, judges
how close a plan the sampler found is to the optimum.
"""

from __future__ import annotations

import numpy as np

from mhmppi import controller as ctrl
from mhmppi.cost import Mission, ObstacleSet
from mhmppi.dynamics import DynamicsModel
from mhmppi.multi_horizon import dims


def plan_costs(
    model: DynamicsModel,
    x0: np.ndarray,
    horizon: int,
    mission: Mission,
    plans: np.ndarray,
    backups: tuple = (),
    alpha=None,
) -> np.ndarray:
    """The cost of each flat plan, a row of ``plans``, from x0: ``alpha @ J``
    with J the mission costs over ``mission`` and the m ``backups``, or the
    primary's cost alone when ``alpha`` is None."""
    n_inputs = dims(horizon, len(backups))[0]
    batch = plans.reshape(len(plans), n_inputs, model.n_u).transpose(2, 1, 0)
    missions = (mission, *backups)
    costs, _ = ctrl.evaluate_plan_batch(model, x0, batch, horizon, missions, ObstacleSet())
    return costs[:, 0] if alpha is None else costs @ np.asarray(alpha, dtype=float)


def fit_quadratic(
    model: DynamicsModel,
    x0: np.ndarray,
    horizon: int,
    mission: Mission,
    backups: tuple = (),
    alpha=None,
) -> tuple:
    """``(c, g, H)`` of the cost :func:`plan_costs` gives; see the module
    docstring.  Exact only where the cost is quadratic in the plan."""
    n = dims(horizon, len(backups))[0] * model.n_u
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    plans = np.concatenate([np.zeros((1, n)), eye, -eye, eye[i] + eye[j]])
    costs = plan_costs(model, x0, horizon, mission, plans, backups, alpha)
    c, up, down, pairs = costs[0], costs[1 : n + 1], costs[n + 1 : 2 * n + 1], costs[2 * n + 1 :]
    g = (up - down) / 2.0
    diagonal = up + down - 2.0 * c
    hessian = np.diag(diagonal)
    hessian[i, j] = hessian[j, i] = pairs - c - g[i] - g[j] - (diagonal[i] + diagonal[j]) / 2.0
    return c, g, hessian


def gap(v: np.ndarray, g: np.ndarray, hessian: np.ndarray) -> float:
    """Cost of flat plan ``v`` above the exact minimum."""
    d = v + np.linalg.solve(hessian, g)
    return float(d @ hessian @ d / 2.0)
