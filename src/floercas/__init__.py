"""floercas: exact computer algebra for the instanton cohomology rings of a
surface times a circle, their t-deformations, and the resulting
Donaldson-series calculators.

All arithmetic is exact: over Q for the rings, their matrices and
characteristic polynomials, and over Q(i) for the spectra and the series.
Every structural claim the package implements can be re-verified with
`floercas check` or the claim suite in floercas.checks.

The top level holds the names of the README's library example; everything
else is imported from its module, such as floercas.floer or floercas.donaldson.
The three names are looked up in their modules on first access, so that
importing the package (and floercas.cli) does not load the ring code.
"""

__version__ = "0.1.0"

__all__ = ["invariant_ring", "factor_over_candidates", "default_candidates"]

_HOME = {"invariant_ring": "floer", "default_candidates": "floer", "factor_over_candidates": "linalg"}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_HOME[name]}", __name__), name)
