"""Zhang sandpile toolkit.

Continuous-height sandpile simulations: the finite-chain addition/toppling
Markov process with uniform [a,b] additions, the explicit three-phase
coupling that makes two copies of the chain coalesce, and Poisson-clock
toppling dynamics on finite tori and dissipative boxes with exact mass
bookkeeping and stabilizability experiments.
"""

__version__ = "0.2.0"

from .chain import (
    AdditionEvent,
    ChainProcess,
    MarginalStats,
    empirical_tv_distance,
    is_heavy,
    run_stationary,
    scripted_run,
)
from .core import (
    DEFAULT_TOPPLE_CAP,
    InvariantViolation,
    SiteLabel,
    ToppleCapError,
    TopplingLog,
    TopplingPolicy,
    classify_site,
    in_class_E,
    in_E_b,
    is_stable,
    stabilize_chain,
    topple_chain,
)
from .coupling import (
    CoefficientTracker,
    Coupling,
    CouplingConstants,
    CouplingResult,
    coupled_amount,
    coupling_constants,
    coupling_sweep,
    correction_D,
    epsilon_abn,
    epsilon_schedule,
    k_epsilon,
    run_coupling,
    t_epsilon,
    verify_contraction,
)
from .lattice import (
    BOX,
    TORUS,
    DensitySpec,
    LatticeConfig,
    MarkovToppling,
    MassLedger,
    StabilizabilityVerdict,
    bond_bound_check,
    count_internal_bonds,
    generate,
    markov_run,
    mass_identity_check,
    min_m_slope,
    parallel_round,
    stabilizability_experiment,
    topple_lattice,
)
from .runio import ExperimentSpec, RunRecord, make_spec, parse_echo

import types as _types

__all__ = [name for name, obj in list(globals().items())
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
