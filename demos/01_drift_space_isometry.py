"""The weighted L2 space of drift integrands and its image under the drift map.

The driver of every model here is a d-dimensional Gaussian martingale whose
covariation is pi = Sigma Sigma' per unit time.  Drift adjustments live in
the image of the map J(f)(t) = integral_0^t pi f dt, and J is an isometry:
the drift-space norm of J(f) equals the weighted L2 norm of f.  This script
walks through the discrete versions of these facts.

Run:  python demos/01_drift_space_isometry.py
"""

import numpy as np

from driftmc import (CovariationSpec, TimeGrid, cameron_martin_map, forward,
                     lambda2_inner)
from driftmc.network import ShallowNet

rng = np.random.default_rng(0)

# --- a 3-dimensional driver on a daily grid --------------------------------
grid = TimeGrid(1.0, 252)
sigma = np.array([[0.25, 0.00, 0.00],
                  [0.10, 0.20, 0.00],
                  [-0.05, 0.08, 0.30]])
spec = CovariationSpec(sigma, grid)
print("pi = sigma sigma':")
print(np.array_str(spec.pi, precision=4, suppress_small=True))

# --- the isometry, on a random integrand -----------------------------------
f = rng.standard_normal((grid.n_steps, 3))
drift = cameron_martin_map(f, spec)
print(f"\n<f,f>    = {lambda2_inner(f, f, spec):.12f}")
print(f"|J(f)|^2 = {drift.h_norm_sq:.12f}   (two float routes, same value)")

# --- a degenerate covariation annihilates a direction ----------------------
# pi = [[1,-1],[-1,1]] kills every integrand with equal components: its
# seminorm is zero, so such drifts are indistinguishable from no drift.
degenerate = CovariationSpec(np.array([[1.0, 0.0], [-1.0, 0.0]]), grid)
g = np.full((grid.n_steps, 2), 3.7)
print(f"\ndegenerate pi: <g,g> for g = (c, c) is {lambda2_inner(g, g, degenerate)}")

# --- closed-form drift of a tanh network ------------------------------------
# for a scalar driver with unit pi, integrating a tanh unit just swaps the
# activation for log-cosh; no quadrature needed
def log_cosh(x):
    """log(cosh(x)), overflow-safe for large |x|."""
    return np.logaddexp(x, -x) - np.log(2.0)


def tanh_net_drift(net, t):
    """integral_0^t forward(net, s) ds for a scalar-output tanh net whose
    hidden weights are all nonzero."""
    a, e = net.w_in, net.b_in
    units = (log_cosh(np.multiply.outer(t, a) + e) - log_cosh(e)) / a
    return units @ net.w_out[0] + net.b_out[0] * t


net = ShallowNet(w_in=[1.4], b_in=[-0.3], w_out=[[0.8]], b_out=[0.2],
                 activation="tanh")
unit = CovariationSpec(np.array([[1.0]]), grid)
discrete = cameron_martin_map(forward(net, grid.left_times), unit)
gap = np.max(np.abs(discrete.cumulative[:, 0] - tanh_net_drift(net, grid.times)))
print(f"\ntanh net: max |discrete drift - closed form| = {gap:.2e}"
      f"  (first order in dt = {grid.dt:.5f})")
# the left-endpoint rule errs by O(dt); a wrong closed form would not
assert gap < grid.dt, f"closed-form gap {gap:.2e} is not below dt"
