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
projection first, and if the halfspace is violated, a walk along the
projection path in the halfspace's multiplier, whose pieces are linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import Mission, distance
from .errors import ConfigError, InfeasibleConstraintError, check_real


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
    on the position plane (max-shifted, so always finite).  When every
    distance overflows to inf, no mission is nearer than another and w is
    uniform.
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


def project_simplex_halfspace(v: np.ndarray, c: np.ndarray, b: float) -> np.ndarray:
    """Projection of v onto {alpha on the simplex : c.alpha <= b}.

    Where the halfspace binds, the projection is alpha(mu) =
    project_simplex(v - mu*c) at the least multiplier mu >= 0 with
    c.alpha(mu) <= b.  On a support S, alpha_S(mu) = a_S - mu*d_S, where
    a = v - (sum(v_S) - 1)/|S| and d is c less its mean on S, so c.alpha
    falls linearly in mu there and its root is exact.  The walk follows
    that path from mu = 0 one breakpoint at a time, where an entry of S
    reaches 0 (d > 0) or one off S reaches the threshold (d < 0), and
    takes the root on the first support whose next breakpoint lies
    strictly inside the halfspace, or which has none.  Each breakpoint
    lowers the mean of c on S, so an entry that leaves never returns (the
    walk holds to that in floats too): each pass moves one entry in for
    the first time or out for good, so there are at most 2n passes of
    O(n) work.  On each support, c and b are shifted by the least c there
    and divided by the spread of c there, so neither a 1e178 entry nor a
    1e-182 one overflows or underflows a solve, and the result does not
    change when (c, b) is scaled; an entry off S whose scaled c overflows
    is only compared.  A breakpoint is judged in the units of the support
    past it: in those of S, the c of the entries that stay can underflow.

    The returned point is project_simplex(v - mu*(c - min(c))), with the
    shifts capped at ptp(v) + 2, past which an entry is out of the
    projection in any case (uncapped, a shift may overflow).  Rounding can
    leave c @ alpha a few ulps above b, and a last loop removes it.  Where
    c is constant and nonzero on alpha's support, only the rounding of its
    sum is left: alpha is scaled by 1 -+ eps, then 1 -+ 4 eps, and so on,
    towards the halfspace.  Rounding is monotone, so c @ alpha does not
    rise on any pass and falls below b as the factor grows.  Elsewhere mu
    is raised in steps that grow fourfold, from an ulp of mu or a step
    that moves v - mu*c by an ulp.  Those end too: once mu*(c_i - min(c))
    >= ptp(v) + 2 for every c_i above the least, alpha lies where c is
    min(c), so c @ alpha is 0 <= b or the scaling takes over.
    """
    v, c = np.asarray(v, dtype=float), np.asarray(c, dtype=float)
    x = project_simplex(v)
    if c @ x <= b:
        return x
    if np.min(c) > b:
        raise InfeasibleConstraintError(
            f"no simplex point satisfies c.alpha <= {b} (min attainable {np.min(c)})"
        )

    def scaled(on):
        """c and b less the least c on the support `on`, over the spread of c
        there (1 where c is constant there), and that spread."""
        low = c[on].min()
        spread = c[on].max() - low or 1.0
        return (c - low) / spread, (b - low) / spread, spread

    on, gone, mu = x > 0.0, np.zeros(v.size, dtype=bool), 0.0
    with np.errstate(over="ignore"):
        while True:
            cs, bs, spread = scaled(on)
            d = cs - cs[on].mean()
            a = v - (v[on].sum() - 1.0) / on.sum()
            moves = on & (d > 0.0) | ~on & ~gone & (d < 0.0)
            when = np.divide(a, d, out=np.full(v.size, np.inf), where=moves)
            i, t = np.argmin(when), mu * spread  # t: mu in the units of cs
            if when[i] == np.inf:
                break
            nxt = on ^ (np.arange(v.size) == i)
            (cn, bn, _), k = scaled(nxt), on & nxt
            if cn[k] @ (a[k] - when[i] * d[k]) < bn:
                break
            mu = max(when[i], t) / spread
            gone[i], on = on[i], nxt
        dd = d[on] @ d[on] or np.inf  # c constant on S: mu stays
        mu = max(t + (cs[on] @ (a[on] - t * d[on]) - bs) / dd, t) / spread

        cap, rise = np.ptp(v) + 2.0, c - c.min()
        step = max(np.spacing(mu), np.spacing(cap) / (rise.max() or 1.0))
        x, shrink = project_simplex(v - np.minimum(mu * rise, cap)), np.spacing(1.0)
        while c @ x > b:
            # is c constant, and not 0, on the support of x?
            if np.ptp(c[x > 0.0]) == 0.0 != c @ x:
                x, shrink = x * (1.0 - np.sign(c @ x) * shrink), 4.0 * shrink
            else:
                mu, step = mu + step, 4.0 * step
                x = project_simplex(v - np.minimum(mu * rise, cap))
    return x


def update_weights(
    alpha_prev: np.ndarray,
    alpha_desired: np.ndarray,
    plan_costs: np.ndarray,
    tail_costs: np.ndarray,
) -> np.ndarray:
    """Quadratic-cost weight update with the descent constraint.

    Minimizes ||alpha - alpha_desired||^2 over the simplex subject to
    c.alpha <= c.alpha_prev with c = plan_costs - tail_costs.  alpha_prev
    is a simplex point, so this never fails, whatever the scale of c; as
    its sum may round below 1, the bound is at least min(c), the least
    c.alpha on the simplex.  The result satisfies the bound in floats.
    """
    c = np.asarray(plan_costs, dtype=float) - np.asarray(tail_costs, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("plan/tail cost estimates must be finite")
    b = max(float(c @ np.asarray(alpha_prev, dtype=float)), float(c.min()))
    return project_simplex_halfspace(alpha_desired, c, b)
