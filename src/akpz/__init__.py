"""akpz: numerical laboratory for a driven interlaced particle system on the
2D torus, its Gaussian SDE limit, and the associated space-time covariances."""

__version__ = "0.1.0"
