"""Mission weight scheduling.

The desired weight vector puts a fixed floor 1-gamma on the primary
mission and distributes the remaining gamma over all missions through a
Gibbs distribution of their distances to the current state: nearer
missions get more of it.

The weight actually applied each step is the Euclidean projection of the
desired vector onto the probability simplex intersected with a descent
halfspace: the new weights may not increase the running value estimate
c = (plan cost) - (last-stage cost) relative to the previous weights.
The previous weights always satisfy that constraint with equality, so the
feasible set is never empty.  The projection is solved exactly: simplex
projection first, and if the halfspace is violated, bisection on its
Lagrange multiplier (each trial re-projects onto the simplex).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import Mission, distance
from .errors import ConfigError, InfeasibleConstraintError, check_real

# Bisection on the halfspace multiplier: residual tolerance (relative to
# max|c|) and step cap.
_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class WeightLawParams:
    """gamma: total weight available to backup missions, in [0, 1).
    temperature: Gibbs temperature of the distance weighting, > 0."""

    gamma: float = 0.66
    temperature: float = 1.0

    def __post_init__(self):
        check_real("gamma", self.gamma)
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        check_real("temperature", self.temperature, above=0.0)


def desired_weights(
    x: np.ndarray, missions: tuple[Mission, ...], params: WeightLawParams
) -> np.ndarray:
    """Distance-driven target weights on the m+1 simplex.

    Entry 0 is 1 - gamma + w0*gamma, entry i is wi*gamma, where w is the
    softmax of -distance/temperature over all missions, the distance being
    on the position plane (max-shifted, so always finite).  When every distance overflows to inf, no mission is
    nearer than another and w is uniform.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # a huge state's distance is inf
        logits = np.array(
            [-distance(x, mission.target) / params.temperature for mission in missions]
        )
    if logits.max() == -np.inf:
        logits[:] = 0.0
    logits -= logits.max()
    w = np.exp(logits)
    w /= w.sum()
    alpha = w * params.gamma
    alpha[0] += 1.0 - params.gamma
    return alpha


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based, exact)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0.0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_simplex_halfspace(
    v: np.ndarray,
    c: np.ndarray,
    b: float,
) -> np.ndarray:
    """Projection of v onto {alpha on the simplex : c.alpha <= b}.

    The multiplier mu >= 0 of the halfspace constraint is found by
    bisection on the non-increasing continuous map
    mu -> c . project_simplex(v - mu*c/max|c|); iteration stops once the
    constraint residual is within ``_BISECT_TOL * max|c|`` or the bracket
    collapses.  So the iterates, and the result up to rounding, do not
    change when (c, b) is scaled.  The returned point always satisfies the
    halfspace constraint.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    x = project_simplex(v)
    if c @ x <= b:
        return x
    if np.min(c) > b:
        raise InfeasibleConstraintError(
            f"no simplex point satisfies c.alpha <= {b} (min attainable {np.min(c)})"
        )

    # c is nonzero here: c = 0 either satisfies c.x <= b or is infeasible
    c_max = np.max(np.abs(c))
    direction = c / c_max
    tol = _BISECT_TOL * c_max

    def value(mu: float) -> tuple[float, np.ndarray]:
        x_mu = project_simplex(v - mu * direction)
        return float(c @ x_mu), x_mu

    mu_lo = 0.0
    mu_hi = 1.0
    g_hi, x_hi = value(mu_hi)
    grow = 0
    while g_hi > b:
        mu_lo = mu_hi
        mu_hi *= 2.0
        g_hi, x_hi = value(mu_hi)
        grow += 1
        if grow > 200:  # cannot happen for a feasible instance
            raise InfeasibleConstraintError("halfspace multiplier bracket diverged")
    for _ in range(_BISECT_MAX_ITER):
        if abs(g_hi - b) <= tol or (mu_hi - mu_lo) <= 1e-16 * max(1.0, mu_hi):
            break
        mu_mid = 0.5 * (mu_lo + mu_hi)
        g_mid, x_mid = value(mu_mid)
        if g_mid > b:
            mu_lo = mu_mid
        else:
            mu_hi, g_hi, x_hi = mu_mid, g_mid, x_mid
    return x_hi


def update_weights(
    alpha_prev: np.ndarray,
    alpha_desired: np.ndarray,
    plan_costs: np.ndarray,
    tail_costs: np.ndarray,
) -> np.ndarray:
    """Quadratic-cost weight update with the descent constraint.

    Minimizes ||alpha - alpha_desired||^2 over the simplex subject to
    c.alpha <= c.alpha_prev with c = plan_costs - tail_costs.  alpha_prev
    is a simplex point, so this never fails; as its sum may round below 1,
    the bound is at least min(c), the least c.alpha on the simplex.
    """
    c = np.asarray(plan_costs, dtype=float) - np.asarray(tail_costs, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("plan/tail cost estimates must be finite")
    b = max(float(c @ np.asarray(alpha_prev, dtype=float)), float(c.min()))
    return project_simplex_halfspace(alpha_desired, c, b)
