"""Five independent routes to the domain-wall six-vertex partition function,
cross-validated: explicit enumeration, a transfer dynamic program, the
Hankel determinant, the finite W-matrix determinant, and Fredholm/Nystrom
determinants of the associated integrable kernels.

Import each name from the module that defines it, e.g.
``from icewall.wmatrix import full_partition``.
"""

__version__ = "0.2.10"  # part of every cache key
