"""floercas: exact computer algebra for the instanton cohomology rings of a
surface times a circle, their t-deformations, and the resulting
Donaldson-series calculators.

All arithmetic is exact: over Q for the rings, their matrices and
characteristic polynomials, and over Q(i) for the spectra and the series.
Every structural claim the package implements can be re-verified with
`floercas check` or the claim suite in floercas.checks.

The top level holds the names of the README's library example; everything
else is imported from its module, such as floercas.floer or floercas.donaldson.
"""

from .floer import default_candidates, invariant_ring
from .linalg import factor_over_candidates

__version__ = "0.1.0"
