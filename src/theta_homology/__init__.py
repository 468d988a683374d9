"""Exact homology of the two-loop hairy graph complexes.

For each of the four parity cases of the degree parameters (m, N) this
package models the three-term complex of two-loop hairy graphs sliced by
Hodge degree, computes its homology ranks with exact integer arithmetic,
and cross-validates them against stored generating functions, piecewise
rank formulas, closed-form homology bases, and a first-principles engine
for the orientation signs of graph symmetries.

The submodules are the API; this package root re-exports nothing.
"""

__version__ = "0.1.0"
