"""chaingroup: exact-arithmetic toolkit for braid-group and surface algebra.

Subpackages cover braid words and the word-problem oracle, transvection
representations on integral surface homology, explicit braid-to-braid
homomorphisms, finite abelian quotients via Smith normal form, permutation
representations, edge-transitive cyclic graph actions, and Riemann-Hurwitz
feasibility arithmetic. Everything is exact: Python integers and rationals,
no floating point.
"""
