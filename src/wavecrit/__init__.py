"""wavecrit: desk-scale numerical laboratory for the critical regularity of
semilinear wave equations with modulus-modulated nonlinearities."""

__version__ = "0.1.0"
