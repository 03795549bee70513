"""Prediction of stationary heavy-tailed time series by excursion-metric minimization.

The package covers the full pipeline: marginal laws with stable and Student-t
tails (:mod:`tailcast.distributions`), excursion / Gini / Wasserstein
distances between dependent samples (:mod:`tailcast.metrics`), stationary
process simulators (:mod:`tailcast.processes`), the empirical prediction
functionals and their exact subgradients (:mod:`tailcast.objective`),
projected subgradient descent (:mod:`tailcast.optimize`), Gaussian
closed-form baselines (:mod:`tailcast.baselines`), and a reproducible
Monte Carlo experiment harness (:mod:`tailcast.harness`) with a CLI
(``tailcast``). Import public names from those submodules; the package
itself exports only ``__version__``.
"""

__version__ = "0.1.0"
