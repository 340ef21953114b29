"""Zhang sandpile toolkit.

Continuous-height sandpile simulations: the finite-chain addition/toppling
Markov process with uniform [a,b] additions, the explicit three-phase
coupling that makes two copies of the chain coalesce, and Poisson-clock
toppling dynamics on finite tori and dissipative boxes with exact mass
bookkeeping and stabilizability experiments.

Each public name is imported from its submodule on first use, so that
``import zhangpile`` (and every CLI call) loads only the engines it needs.
"""

import importlib

__version__ = "0.4.0"

_EXPORTS = {
    "chain": ("AdditionEvent", "ChainProcess", "MarginalStats", "empirical_tv_distance",
              "run_stationary", "scripted_run"),
    "core": ("DEFAULT_TOPPLE_CAP", "InvariantViolation", "SiteLabel", "ToppleCapError",
             "TopplingLog", "TopplingPolicy", "classify_site", "in_class_E", "in_E_b",
             "is_stable", "stabilize_chain", "topple_chain"),
    "coupling": ("CoefficientTracker", "Coupling", "CouplingConstants", "CouplingResult",
                 "coupled_amount", "coupling_constants", "coupling_sweep", "correction_D",
                 "epsilon_abn", "epsilon_schedule", "k_epsilon", "t_epsilon",
                 "verify_contraction"),
    "lattice": ("BOX", "TORUS", "DensitySpec", "LatticeConfig", "MarkovToppling",
                "MassLedger", "StabilizabilityVerdict", "bond_bound_check",
                "count_internal_bonds", "generate", "markov_run", "mass_identity_check",
                "min_m_slope", "parallel_round", "stabilizability_sweep",
                "topple_lattice"),
    "runio": ("RunRecord", "make_spec", "parse_echo"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# an attribute that names a submodule imports it (zhangpile.lattice.BOX after import zhangpile)
_SUBMODULES = (*_EXPORTS, "seeding")

__all__ = list(_SOURCE)


def __getattr__(name):
    # PEP 562: called only for names not yet in this module's namespace
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
