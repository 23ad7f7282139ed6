"""Convolutional structured low-rank recovery of gridded Fourier data.

Subpackages:

* ``grids``     index boxes, complex grids, circular convolution, grid files
* ``lifting``   multi-level Toeplitz liftings and their circulant surrogates
* ``giraf``     iteratively reweighted annihilating-filter solver (GIRAF)
* ``baselines`` dense-lifting reference algorithms (IRLS, AP, SVT, SVT+UV)
* ``models``    synthetic signals, sampling masks, noise, error metrics
* ``cli``       gen / recover / bench / compare command line tools

``cli`` is not imported with the package; import ``cslr.cli`` to use it.
It loads jsonschema on its first config read.
"""

from . import baselines, giraf, grids, lifting, models

__version__ = "0.1.0"

__all__ = ["grids", "lifting", "giraf", "baselines", "models", "cli", "__version__"]
