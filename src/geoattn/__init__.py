"""Hybrid graph-attention + latent-Gaussian geostatistics toolkit.

Importing the package loads none of its submodules; ``from geoattn import
geostat`` loads that module and what it imports. Only the fitting modules
(``numkit``'s factor routines, ``gatv2``, ``attnfield``, ``geostat`` and
``pipeline``) load scipy, so ``geoattn simulate``, ``geoattn evaluate`` and
``geoattn --help`` run on numpy alone (see ``geoattn.cli``).
"""

__version__ = "0.1.0"

__all__ = [
    "attnfield",
    "errors",
    "evalkit",
    "gatv2",
    "geostat",
    "numkit",
    "simgen",
    "__version__",
]
