"""qmeter: generalized quantum measurements and optimal state estimation.

Model a POVM measurement on a single d-level system through its Kraus
operators, compute the optimal estimates of the pre- and post-measurement
states in closed form, check the information-disturbance tradeoff, and verify
everything against a Haar Monte Carlo oracle. ``import qmeter`` gives the modules
below; each name is reached through its module, e.g. ``qmeter.estimator.check_bound``.
"""

# ``cli`` is left out so that ``python -m qmeter.cli`` does not find it already imported;
# ``from qmeter import cli`` still loads it.
from . import catalog, errors, estimator, haar, matkernel, measurement
