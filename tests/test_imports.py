import os
import subprocess
import sys
from pathlib import Path

import zhangpile

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


def test_no_subcommand_imports_scipy(tmp_path):
    # scipy.sparse costs about half of every CLI call's start-up, and no
    # runtime code needs it; the lattice runs check the mass identity, which
    # applies the toppling matrix without it
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    runs = [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(_RUNS)]
    code = ("import sys, zhangpile, zhangpile.cli as cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(_RUNS)} []"
    assert proc.stderr.count("wall") == len(_RUNS)
