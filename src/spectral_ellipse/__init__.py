"""Inscribed spectral ellipses for complex matrices.

For any square complex matrix this package computes the ellipse, determined
by gamma = tr(A)/n and Q(A0) = tr(A0^2) of the traceless part, that is
guaranteed to lie inside the convex hull of the spectrum; certifies that
containment independently; and derives eigensolver-free spectral radius
lower bounds from tr A and tr A^2 alone.
"""

__version__ = "0.1.0"
