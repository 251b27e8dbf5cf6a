"""Default tolerances and sizes.

Every numeric tolerance used by the library or asserted by its test suite lives
here, so tests never hard-code magic thresholds.
"""

VERSION = "0.1.0"              # keep in sync with pyproject

# Linear algebra / frames
UNIT_NORM_TOL = 1e-10          # orthonormality of supplied or constructed frames

# Domains
GAUGE_HOMOGENEITY_TOL = 1e-10  # balanced gauge g(cv) = |c| g(v)
AUTOMORPHISM_MAP_TOL = 1e-12   # model_automorphism(from) vs to
CONVEXITY_WITNESS_SAMPLES = 10_000

# Metrics
MODEL_BRACKET_TOL = 1e-9       # upper - lower on closed-form domains
HALF_SPACE_COUNT = 8           # sampled supporting half-spaces for lower bounds
SECTION_RAYS = 128             # planar rays for oracle-domain section distance
QUADRATURE_TOL = 1e-10         # distance upper-bound integration target
MIN_VOLUME_SAMPLES = 1000

# Scaling
GRID_EQUIVALENCE_TOL = 1e-8    # sup-grid |tau - A^{-1} o sigma|
TREND_GUARD_FACTOR = 10.0      # regression bound multiplier

# Convex box
SLOPE_BOUND_TOL = 1e-9
CONTAINMENT_SLACK = 1e-9

# Domination
DOMINATION_TOL = 1e-6          # gauge vs lambda bound, relative slack
SHARPNESS_TOL = 1e-9           # analytic Apollonius extremum vs lambda(r)
AFFINE_MATCH_TOL = 1e-6        # profile invariance under affine images

# Circularity
CERTIFICATE_SLACK = 1e-9       # re-verification sample violation allowance
BARTH_MODEL_TOL = 1e-9
INNER_BISECT_TOL = 1e-10
SAMPLED_PREDICATE_DEFLATION = 1e-4   # relative shrink for sampled inner radii
PIPELINE_PROXIMITY_RADIUS = 1.0

# Search
SPHERE_COARSE_BASE = 2048      # coarse directions for complex dimension <= 3
SPHERE_TIE_BAND = 1e-9         # relative band for lexicographic tie-breaking
