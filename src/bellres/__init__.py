"""bellres: minimal state resources required for a given Bell violation.

Given any Hermitian Bell operator this package computes the minimal purity
(generalized robustness, Renyi 2-purity, relative entropy of purity) needed
to reach a prescribed Bell value, and for two-qubit Bell-diagonal operators
also the matching coherence / discord / entanglement robustness together
with the optimal witnessing states.
"""

__version__ = "0.1.0"
