"""Positivity classes, region geometry, and non-Markovian dynamics of the
qudit dephasing/depolarizing map family.

The package is organized around five submodules:

* ``linalg``     dense complex primitives (eigh, partial transpose, vec);
* ``channels``   the (alpha, beta) map family, named maps, Choi matrices;
* ``generators`` the (kappa, nu) generator family and its three
                 positivity-class tests with numerical oracles;
* ``regions``    closed-form P/CP/EB geometry plus eigenvalue/PPT/sampling
                 oracles and the Schwarz falsifier;
* ``dynamics``   Markovian and non-Markovian schedules, crossing times,
                 asymptotic maps, the Weyl mixture, generator extraction.

``verify.run_suite`` exposes the invariants battery behind the CLI's
``verify`` subcommand.
"""

from .channels import (
    MapParams,
    QuantumState,
    SuperMap,
    apply,
    build_phi_family,
    compose,
    dephase,
    hs_adjoint,
    mix,
    named_map,
    validate_state,
)
from .dynamics import (
    ENM2,
    ConstantNu,
    CrossingReport,
    OptimalENM,
    PDivisible,
    Schedule,
    SchwarzDivisible,
    WeylMixture,
    alpha_beta_at,
    asymptotic_map,
    crossing_times,
    extract_time_local_generator,
    map_at,
    nu_enm,
    switch_times,
    tangency_slope,
    weyl_mixture_map,
    weyl_ops,
)
from .generators import (
    GenParams,
    RateReport,
    build_generator,
    dissipativity_matrix,
    is_ccp,
    is_conditionally_positive,
    is_dissipative,
    spectrum_rates,
)
from .linalg import (
    eig_hermitian,
    partial_transpose,
    unvec,
    vec,
)
from .regions import (
    RegionPolygon,
    RegionVerdict,
    classify_numeric,
    classify_point,
    region_area,
    region_polygon,
    schwarz_falsify,
)

__version__ = "0.1.0"
