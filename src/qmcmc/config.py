"""Numerical tolerances used across the package, in one table.

Every validation check in the package reads its tolerance from here, and
passes only when ``deviation <= tolerance``: each is written
``if not deviation <= TOL``, so a NaN deviation fails it.  The cutoffs are
floors under the same rule: a branch is kept only when
``norm >= BRANCH_NORM_CUTOFF`` or ``prob > POST_SELECT_CUTOFF``.  The values
follow one layered scheme:

- exact-construction checks at 1e-12: kernel row and distribution sums, the
  flip-proposal match, the post-selection probability cutoff and the
  zero-norm branch cutoff of a projection;
- algebraic identity checks at 1e-10: detailed balance, symmetry, unitarity
  and isometry, stationarity and the state norm;
- spectral comparisons at 1e-9;
- eigenphase correspondence at 1e-8.

The values are fixed; tests pin each check to its own.
"""

ROW_SUM_TOL = 1e-12
PROPOSAL_TOL = 1e-12
POST_SELECT_CUTOFF = 1e-12
BRANCH_NORM_CUTOFF = 1e-12

BALANCE_TOL = 1e-10
SYMMETRY_TOL = 1e-10
UNITARY_TOL = 1e-10
STATIONARY_TOL = 1e-10
NORM_TOL = 1e-10

SPECTRUM_TOL = 1e-9

PHASE_TOL = 1e-8
