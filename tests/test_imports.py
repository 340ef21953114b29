import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zhangpile
import zhangpile.core as core

_RUNS = [
    ["stabilize", "--chain", "1.5,0.2,2.7"],
    ["finite-run", "--n", "4", "--a", "0.3", "--b", "0.8", "--burn-in", "50",
     "--samples", "200"],
    ["couple", "--n", "3", "--a", "0.2", "--b", "0.9", "--max-steps", "20000"],
    ["infinite", "--d", "2", "--side", "6", "--gen", "constant", "--rho", "1.1",
     "--tmax", "5", "--replicas", "2"],
    ["infinite", "--d", "2", "--side", "6", "--boundary", "box", "--gen", "iid",
     "--rho", "0.9", "--tmax", "5"],
    ["sweep", "--d", "1", "--side", "16", "--gen", "iid,constant", "--rho", "0.6,1.1",
     "--tmax", "5"],
    ["sweep", "--d", "3", "--side", "3", "--boundary", "box", "--gen", "iid",
     "--rho", "0.9", "--tmax", "5", "--replicas", "2"],
]

_SRC = str(Path(zhangpile.__file__).resolve().parents[1])
_ENGINES = {f"zhangpile.{m}" for m in
            ("core", "chain", "coupling", "lattice", "seeding", "runio")}
_HELP_CALLS = [["--version"], ["--help"]] + [
    [sub, "--help"] for sub in ("stabilize", "finite-run", "couple", "infinite", "sweep")]

# the public names as they were when the package imported every engine eagerly
_PUBLIC = {
    "chain": ["AdditionEvent", "ChainProcess", "MarginalStats", "empirical_tv_distance",
              "is_heavy", "run_stationary", "scripted_run"],
    "core": ["DEFAULT_TOPPLE_CAP", "InvariantViolation", "SiteLabel", "ToppleCapError",
             "TopplingLog", "TopplingPolicy", "classify_site", "in_class_E", "in_E_b",
             "is_stable", "stabilize_chain", "topple_chain"],
    "coupling": ["CoefficientTracker", "Coupling", "CouplingConstants", "CouplingResult",
                 "coupled_amount", "coupling_constants", "coupling_sweep", "correction_D",
                 "epsilon_abn", "epsilon_schedule", "k_epsilon", "run_coupling",
                 "t_epsilon", "verify_contraction"],
    "lattice": ["BOX", "TORUS", "DensitySpec", "LatticeConfig", "MarkovToppling",
                "MassLedger", "StabilizabilityVerdict", "bond_bound_check",
                "count_internal_bonds", "generate", "markov_run", "mass_identity_check",
                "min_m_slope", "parallel_round", "stabilizability_experiment",
                "topple_lattice"],
    "runio": ["ExperimentSpec", "RunRecord", "make_spec", "parse_echo"],
}


def _fresh(code: str, cwd) -> str:
    """Stdout of ``code`` run in a new interpreter without ``site``, whose .pth
    files may import modules of their own at start-up; numpy's directory is
    put on the path in its place."""
    path = [_SRC, str(Path(np.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(argv, cwd) -> tuple[int, set]:
    """Exit code of ``main(argv)`` in a new interpreter, and the modules that
    importing the CLI and the call loaded."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from zhangpile.cli import main\n"
            f"rc = main({argv!r})\n"
            "new = sorted(set(sys.modules) - before)\n"
            "import json\n"
            "print()\n"
            "print(json.dumps([rc, new]))\n")
    rc, new = json.loads(_fresh(code, cwd).splitlines()[-1])
    return rc, set(new)


def test_no_subcommand_imports_scipy(tmp_path):
    # scipy.sparse costs about half of every CLI call's start-up, and no
    # runtime code needs it; the lattice runs check the mass identity, which
    # applies the toppling matrix without it
    runs = [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(_RUNS)]
    code = ("import sys, zhangpile, zhangpile.cli as cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(_RUNS)} []"
    assert proc.stderr.count("wall") == len(_RUNS)


@pytest.mark.parametrize("argv", _HELP_CALLS, ids=" ".join)
def test_help_and_version_load_no_engine(tmp_path, argv):
    rc, new = _loaded_by(argv, tmp_path)
    assert rc == 0
    assert not new & (_ENGINES | {"numpy", "multiprocessing"})


# each subcommand, and the modules it must not load
_NOT_LOADED = [
    (_RUNS[0], _ENGINES - {"zhangpile.core"}),
    (_RUNS[1], {"zhangpile.coupling", "zhangpile.lattice", "multiprocessing"}),
    (_RUNS[2], {"zhangpile.lattice", "zhangpile.chain"}),
    (_RUNS[3], {"zhangpile.chain", "zhangpile.coupling", "zhangpile.seeding"}),
    (_RUNS[5], {"zhangpile.chain", "zhangpile.coupling", "zhangpile.seeding"}),
]


@pytest.mark.parametrize("argv, absent", _NOT_LOADED, ids=[a[0] for a, _ in _NOT_LOADED])
def test_each_subcommand_loads_only_its_engine(tmp_path, argv, absent):
    # with the kernel built, no call needs the compiler's modules either
    if core.chain_kernel() is None:
        pytest.skip("the compiled kernel is unavailable: every call would build it")
    rc, new = _loaded_by(argv + ["--out", str(tmp_path / "out")], tmp_path)
    assert rc == 0
    assert not new & (absent | {"subprocess", "tempfile"})
    assert "zhangpile.core" in new


def test_public_names_are_pinned_and_served_on_first_use(tmp_path):
    names = [n for group in _PUBLIC.values() for n in group]
    assert zhangpile.__all__ == names and len(names) == 53
    for module, group in _PUBLIC.items():
        mod = importlib.import_module(f"zhangpile.{module}")
        for name in group:
            assert getattr(zhangpile, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        zhangpile.no_such_name
    assert not hasattr(zhangpile, "no_such_name")
    # in a new interpreter: the import loads no submodule, dir lists every
    # name, the benchmark's submodule import still works, and so does an
    # attribute that names a submodule
    code = ("import sys, zhangpile\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('zhangpile.'))\n"
            "listed = set(zhangpile.__all__) <= set(dir(zhangpile))\n"
            "seeding = zhangpile.seeding.__name__\n"
            "from zhangpile import chain, cli, coupling, lattice, runio\n"
            "print(loaded, listed, seeding, zhangpile.Coupling is coupling.Coupling)\n")
    assert _fresh(code, tmp_path).strip() == "[] True zhangpile.seeding True"
