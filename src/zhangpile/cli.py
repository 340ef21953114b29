"""Command-line drivers for the simulation experiments.

Subcommands: stabilize, finite-run, couple, infinite, sweep; infinite is the
one-point grid of sweep, through one command and one library call (replica i
of grid point g has the spawn key (g, i)), and keeps its own columns and spec
echo.  Outputs start with a spec-echo line and are byte-identical for
identical spec + seed.
Exit codes: 0 success, 1 parameter error, 2 internal invariant violation
(e.g. a conservation residual above tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import ExitStack, nullcontext

from . import __version__

# Each subcommand imports its own engine (and with it numpy) when it runs, so
# that --help, --version and a run of one engine load nothing else.

CONSERVATION_TOL = 1e-9     # times max(total mass, 1)


class ConservationError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    # parameter problems exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_height(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _parse_values(option: str, parts, convert) -> list:
    """``convert`` of each of ``parts``; a value it cannot read names ``option``."""
    try:
        return [convert(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _parse_chain(text: str, option: str) -> list[float]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError(f"{option}: empty configuration")
    return _parse_values(option, parts, float)


def _parse_sides(d: int, side_text: str) -> tuple[int, ...]:
    vals = _parse_values("--side", str(side_text).replace(",", " ").split(), int)
    if len(vals) == 1:
        vals = vals * d
    if len(vals) != d:
        raise ValueError(f"--side needs 1 or {d} values, got {len(vals)}")
    return tuple(vals)


def _out_stream(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _check_out_paths(args) -> None:
    """Raise ValueError unless ``--out`` and ``--save-final`` (where given) can
    be opened for writing: a writable file, or a new one in a writable
    directory.  Checked before the run, and no file is created."""
    for flag in ("out", "save_final"):
        path = getattr(args, flag, None)
        if path is None or path == "-":
            continue
        name = "--" + flag.replace("_", "-")
        if os.path.isdir(path):
            raise ValueError(f"{name} {path}: is a directory")
        if os.path.exists(path):
            target = path
        else:
            target = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(target):
                raise ValueError(f"{name} {path}: no directory {target}")
        if not os.access(target, os.W_OK):
            raise ValueError(f"{name} {path}: {target} is not writable")


def _int_at_least(low: int):
    # an int option's argparse type: "argument --seed: must be >= 0, got -1"
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"      # a non-integer reads "invalid int value", as with int
    return parse


def _parse_init(text: str, option: str):
    if text in ("zeros", "random"):
        return text
    return _parse_chain(text, option)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_stabilize(args) -> int:
    from .core import parse_policy, stabilize_chain

    if args.chain is not None:
        heights = _parse_chain(args.chain, "--chain")
    elif args.infile is not None:
        with open(args.infile) as f:
            heights = _parse_chain(f.read(), "--infile")
    else:
        raise ValueError("provide --chain or --infile")
    policy = parse_policy(args.policy)
    final, log = stabilize_chain(heights, policy, seed=args.seed)
    line = (",".join(_fmt_height(v) for v in final) + " / "
            + ",".join(str(int(c)) for c in log.counts))
    with _out_stream(args.out) as f:
        f.write(line + "\n")
    return 0


def cmd_finite_run(args) -> int:
    from .chain import ChainProcess, run_stationary
    from .runio import RunRecord, make_spec, write_jsonl

    spec = make_spec("finite-run", n=args.n, a=args.a, b=args.b, seed=args.seed,
                     burn_in=args.burn_in, samples=args.samples, bins=args.bins)
    proc = ChainProcess(args.n, args.a, args.b, seed=args.seed)
    # --events-out streams the full event record (burn-in and sampling phases);
    # the file opens at the first event, after run_stationary has allocated its
    # statistics, so that a run too large to allocate leaves no file
    with ExitStack() as files:
        ef = None

        def events():
            nonlocal ef
            if ef is None:
                ef = files.enter_context(open(args.events_out, "w", newline=""))
                write_jsonl(ef, spec, __version__, [])     # echo line first
            return ef

        sink = None if not args.events_out else (
            lambda rec: events().write(json.dumps(rec, sort_keys=True) + "\n"))
        stats = run_stationary(proc, args.burn_in, args.samples, bins=args.bins,
                               event_sink=sink)
        if sink is not None:
            events()        # a run of no steps writes the echo line alone
    columns = ["site", "mean", "var"] + [f"hist_bin_{i}" for i in range(args.bins)]
    rows = []
    if stats.count:
        rows = [[i + 1, mean, var] + hist for i, (mean, var, hist) in
                enumerate(zip(stats.mean.tolist(), stats.var.tolist(),
                              stats.hist.tolist()))]
    rec = RunRecord(spec=spec, version=__version__, seed=args.seed,
                    columns=columns, rows=rows)
    with _out_stream(args.out) as f:
        rec.write(f, args.format)
    return 0


def cmd_couple(args) -> int:
    from .coupling import coupling_sweep
    from .runio import RunRecord, make_spec

    init_a = _parse_init(args.init_a, "--init-a")
    init_b = _parse_init(args.init_b, "--init-b")
    spec = make_spec("couple", n=args.n, a=args.a, b=args.b, seed0=args.seed0,
                     seeds=args.seeds, max_steps=args.max_steps,
                     init_a=init_a, init_b=init_b)
    seeds = range(args.seed0, args.seed0 + args.seeds)
    results = coupling_sweep(args.n, args.a, args.b, seeds, args.max_steps,
                             init_a=init_a, init_b=init_b, workers=args.workers)
    rec = RunRecord(
        spec=spec, version=__version__, seed=args.seed0,
        columns=["seed", "merged", "merge_time", "restarts",
                 "phase_independent", "phase_contraction", "phase_merging"],
        rows=[[r.seed, r.merged, r.merge_time, r.restarts, *r.phase_times]
              for r in results],
        records=[r.to_record() for r in results])
    with _out_stream(args.out) as f:
        rec.write(f, args.format)
    return 0


_LATTICE_COLUMNS = {
    "infinite": ["spec", "geometry", "seed", "replica", "outcome", "t_stab", "min_M",
                 "max_M", "dissipated", "min_m_slope", "mass_residual",
                 "evidence_strong"],
    "sweep": ["gen", "rho", "d", "sides", "boundary", "replica", "seed", "outcome",
              "t_stab", "min_M", "max_M", "dissipated", "min_m_slope", "mass_residual"],
}


def _check_conservation(rows, boundary) -> None:
    """The mass identity and the drift against the dissipated mass hold on every
    boundary (a box's drift counts what left through its edge)."""
    for r in rows:
        # float rounding grows with the mass; written as not (x <= tol) so that
        # a NaN residual, drift or mass trips the gate
        tol = CONSERVATION_TOL * max(abs(r["mass"]), 1.0)
        if not (r["mass_residual"] <= tol and r["mass_drift"] <= tol):
            raise ConservationError(
                f"{boundary} conservation violated: residual={r['mass_residual']:.3e}, "
                f"drift={r['mass_drift']:.3e} (replica {r['replica']})")


def stabilizability_experiment(*args, **kwargs):
    """``lattice.stabilizability_sweep``, which ``infinite`` and ``sweep`` call
    through this name, so that a caller can wrap it here."""
    from . import lattice

    return lattice.stabilizability_sweep(*args, **kwargs)


def cmd_lattice(args) -> int:
    """``infinite`` and ``sweep``: replicated runs at each point of a density grid (one
    for ``infinite``), whose library call checks the whole grid before any runs."""
    from .lattice import DensitySpec, parse_boundary
    from .runio import RunRecord, make_spec

    sides = _parse_sides(args.d, args.side)
    boundary = parse_boundary(args.boundary)
    infinite = args.subcommand == "infinite"
    if infinite:
        dspecs = [DensitySpec(args.gen, args.rho)]
        echo = {"gen": dspecs[0].describe(args.d), "min_m_threshold": args.min_m_threshold}
    else:
        gens = [g for g in args.gen.split(",") if g]
        rhos = _parse_values("--rho", [r for r in args.rho.split(",") if r], float)
        if not gens or not rhos:
            raise ValueError("sweep needs at least one generator and one rho")
        dspecs = [DensitySpec(kind, rho) for kind in gens for rho in rhos]
        echo = {"gens": gens, "rhos": rhos}
    spec = make_spec(args.subcommand, d=args.d, sides=list(sides), boundary=boundary,
                     tmax=args.tmax, seed=args.seed, replicas=args.replicas,
                     snap_every=args.snap_every, max_events=args.max_events, **echo)
    summaries = stabilizability_experiment(dspecs, sides, boundary, t_max=args.tmax,
                                           replicas=args.replicas, seed=args.seed,
                                           snapshot_every=args.snap_every,
                                           max_events=args.max_events, workers=args.workers)
    sides_str = "x".join(str(s) for s in sides)
    columns = _LATTICE_COLUMNS[args.subcommand]
    rows = []
    for dspec, summary in zip(dspecs, summaries):
        # grid order: the first failing replica of the first failing point
        _check_conservation(summary.rows, boundary)
        for r in summary.rows:
            cells = dict(r, spec=f"{dspec.kind}({dspec.rho:g})", gen=dspec.kind, d=args.d,
                         rho=dspec.rho, geometry=f"{boundary}:{sides_str}", seed=args.seed,
                         sides=sides_str, boundary=boundary, min_M=r["min_m"],
                         max_M=r["max_m"], t_stab="" if r["t_stab"] is None else r["t_stab"])
            if infinite:
                # an active run is strong evidence once every site toppled often enough
                cells["evidence_strong"] = (r["outcome"] != "stabilized"
                                            and r["min_m"] >= args.min_m_threshold)
            rows.append([cells[c] for c in columns])
    rec = RunRecord(spec=spec, version=__version__, seed=args.seed,
                    columns=columns, rows=rows)
    with _out_stream(args.out) as f:
        rec.write(f, args.format)
    if infinite:
        if args.save_final:
            _save_final(args.save_final, sides, boundary, args.seed, summaries[0].rows[0])
        print(f"stabilized fraction: {summaries[0].fraction_stabilized:.3f}",
              file=sys.stderr)
    return 0


def _save_final(path: str, sides, boundary, seed, row) -> None:
    from .runio import fmt_real

    # the final heights of replica 0, as its own run left them
    header = {"dim": len(sides), "sides": list(sides), "boundary": boundary,
              "t": row["t_end"], "seed": seed}
    with open(path, "w", newline="") as f:
        f.write("# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for v in row["heights"].tolist():
            f.write(fmt_real(v) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# bounded, since main passes whatever token names the subcommand; the five
# subcommands, "" and None fit
@functools.lru_cache(maxsize=8)
def build_parser(subcommand: str | None = None) -> _Parser:
    """Given ``subcommand``, only that subcommand's arguments are added (none if
    no subcommand has the name): each ``add_argument`` reads the terminal size.

    One parser is built per process and subcommand, and every ``main`` call
    reuses it, so callers must not change it: ``parse_args`` returns a fresh
    namespace each call, and help reads the terminal width when it is
    formatted, not when it is built.
    """
    p = _Parser(prog="zhangpile", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, help_text, **defaults):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(**defaults)
        return sp if subcommand in (None, name) else None

    def common(sp, seed=True, fmt="csv"):
        # --seed and --format only where read: couple seeds from --seed0
        if seed:
            sp.add_argument("--seed", type=_int_at_least(0), default=0)
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if fmt:
            sp.add_argument("--format", choices=["csv", "jsonl"], default=fmt)
        sp.add_argument("--config", default=None,
                        help="key=value defaults file; flags override")

    if sp := add_parser("stabilize", "relax one chain configuration", func=cmd_stabilize):
        sp.add_argument("--chain", default=None, help="comma-separated heights")
        sp.add_argument("--infile", default=None, help="file with heights")
        sp.add_argument("--policy", default="left",
                        help="left | right | parallel | random")
        common(sp, fmt=None)

    if sp := add_parser("finite-run", "stationary statistics of the chain process",
                        func=cmd_finite_run, engine="chain"):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--a", type=float, required=True)
        sp.add_argument("--b", type=float, required=True)
        sp.add_argument("--burn-in", type=_int_at_least(0), default=0)
        sp.add_argument("--samples", type=_int_at_least(0), default=0)
        sp.add_argument("--bins", type=_int_at_least(1), default=256)
        sp.add_argument("--events-out", default=None,
                        help="also write the burn-in event stream as JSON lines")
        common(sp)

    if sp := add_parser("couple", "three-phase coupling runs over a seed range",
                        func=cmd_couple, engine="coupling"):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--a", type=float, required=True)
        sp.add_argument("--b", type=float, required=True)
        sp.add_argument("--seeds", type=_int_at_least(1), default=1, help="number of seeds")
        sp.add_argument("--seed0", type=int, default=0, help="first seed")
        sp.add_argument("--max-steps", type=int, default=1_000_000)
        sp.add_argument("--init-a", default="random", help="zeros | random | literal")
        sp.add_argument("--init-b", default="random", help="zeros | random | literal")
        sp.add_argument("--workers", type=_int_at_least(1), default=1)
        common(sp, seed=False, fmt="jsonl")

    def lattice(sp):
        # the geometry, clock and pool flags of infinite and sweep
        sp.add_argument("--d", type=_int_at_least(1), required=True)
        sp.add_argument("--side", required=True, help="side length, or comma list per axis")
        sp.add_argument("--boundary", default="torus", help="torus | box")
        sp.add_argument("--tmax", type=float, default=100.0,
                        help="time cutoff per replica; inf needs --max-events")
        sp.add_argument("--replicas", type=int, default=1)
        sp.add_argument("--snap-every", type=float, default=1.0)
        sp.add_argument("--max-events", type=int, default=None,
                        help="cap on topplings per replica (the rejection-free clock "
                             "draws only topplings, never rings at stable sites)")
        sp.add_argument("--workers", type=_int_at_least(1), default=1)
        common(sp)

    if sp := add_parser("infinite", "Poisson-clock toppling on a finite lattice",
                        func=cmd_lattice, engine="lattice"):
        sp.add_argument("--gen", required=True,
                        help="iid | constant | checkerboard | near-full")
        sp.add_argument("--rho", type=float, required=True)
        sp.add_argument("--save-final", default=None,
                        help="write replica-0 final heights (JSON header + values)")
        sp.add_argument("--min-m-threshold", type=_int_at_least(0), default=10,
                        help="least min M that makes an active verdict strong evidence")
        lattice(sp)

    if sp := add_parser("sweep", "stabilizability sweep over a density grid",
                        func=cmd_lattice, engine="lattice"):
        sp.add_argument("--gen", required=True, help="comma list of generator kinds")
        sp.add_argument("--rho", required=True, help="comma list of densities")
        lattice(sp)
    return p


def _config_args(argv: list[str]) -> list[str]:
    """Turn a --config key=value file into leading CLI args (flags override)."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return []
    extra = []
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            key, value = line.split("=", 1)
            extra += [f"--{key.strip().replace('_', '-')}", value.strip()]
    return extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv:
        try:
            head, rest = argv[0], argv[1:]
            argv = [head] + _config_args(rest) + rest
        except (OSError, ValueError) as exc:
            # ValueError: a line without "=", or bytes that do not decode
            print(f"zhangpile: error: --config: {exc}", file=sys.stderr)
            return 1
    # the top-level options take no values: the first other token names the
    # subcommand, and without one (--help, --version) no arguments are needed
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from .core import InvariantViolation, ToppleCapError, chain_kernel

    t0 = time.perf_counter()
    try:
        _check_out_paths(args)
        rc = args.func(args)
    except (ConservationError, InvariantViolation, ToppleCapError) as exc:
        print(f"zhangpile: invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"zhangpile: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size too large to allocate (--n, --bins, --side) is a bad parameter
        detail = str(exc) or "cannot allocate the arrays of the run"
        print(f"zhangpile: error: out of memory: {detail}", file=sys.stderr)
        return 1
    summary = f"zhangpile {args.subcommand}: {time.perf_counter() - t0:.2f}s wall"
    if getattr(args, "engine", None):
        # names the backend that ran, so that a silent fallback shows
        backend = "python" if chain_kernel() is None else "compiled"
        summary += f", {args.engine} backend {backend}"
    print(summary, file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
