"""Convex max-margin training of two-layer ReLU networks at desk scale.

Library layout:

- ``datasets``      data matrices, label encoding, separability predicates
- ``arrangements``  activation masks, sign patterns, Cover counting bound
- ``solver``        exact group-norm solver, LP feasibility, face bounds
- ``geometry``      rectified-ellipsoid extreme points and polar gauge
- ``convex``        group-norm primal, certified dual, network margins
- ``flow``          subgradient-descent simulator and dual recovery
- ``certify``       KKT extraction and feasibility/coverage certificates
- ``cli``           reproducible experiment front end
"""

__version__ = "0.1.0"
