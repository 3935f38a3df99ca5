"""Developer tooling for the reproduction: static analysis and CI gates.

Nothing in this package is imported by the simulation or analysis code;
it exists to keep *them* honest.  :mod:`repro.devtools.lint` is the one
static-analysis front end (``repro lint`` / ``make lint``): per-module
determinism & vectorization rules plus whole-program RNG provenance,
process-boundary escape and purity passes, over a single parse.  The
``@pure`` decorator the purity pass checks lives in
:mod:`repro.contracts`, so hot modules never import this package.
"""

from __future__ import annotations
