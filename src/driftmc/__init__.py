"""Monte Carlo pricing of path-dependent options with learned drift
importance sampling.

The sampling measure of a multivariate diffusion is tilted by a
deterministic drift adjustment generated by a shallow feedforward network,
paths are reweighted by the inverse stochastic exponential of the tilt, and
the network is trained to minimize the reweighted second moment of the
payoff, reducing the variance of the price estimator.  Import each name
from the module that defines it: the package re-exports nothing.
"""

__version__ = "0.1.0"
