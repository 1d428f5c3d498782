"""Toolkit for Cantor minimal systems presented as ordered Bratteli diagrams.

Layers, bottom up: diagrams and their Vershik combinatorics (bratteli),
the dimension group with exact spectral data (dimgroup), computable
conjugacy invariants (invariants), witnesses and their replay, with the
unit-preserving morphisms a weak witness is made of and the topological
full group elements a conjugator witness is (check), conjugator synthesis
(fullgroup), the
equivalence deciders and the resolution pipeline (classify), and a command
line front end (cli).

The package root exports nothing: import each name from its module, as in
`from cantorconj.check import verify_certificate`.  Importing one module
loads only what that module needs, so the replay in check runs without
loading a decider or the conjugator synthesis.
"""

__version__ = "0.1.0"
