"""Exact verification engine for Groenewold–Van Hove obstruction results.

Symbolic certificates for the flat-phase-space and sphere no-go theorems and
the torus no-obstruction result, over exact rational-function scalars in
formal ħ and s, with small Hermite-basis numeric cross-checks.
"""

__version__ = "0.1.0"
