"""The benchmark's tracer hooks name functions and attributes of the program;
a hook whose target is gone raises, so renaming one breaks a traced run.
This test enters every hook, so that such a rename fails here as well."""

import importlib

import pytest

from zhangpile import cli, lattice


def _tracing(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    return importlib.import_module("tracing")


def test_benchmark_hooks_find_their_targets(monkeypatch, request):
    tracing = _tracing(monkeypatch, request)
    tracer = tracing.Tracer("t")
    with tracing.hooks(tracer):
        # through the module, whose names the hooks replace
        cfg = lattice.generate(lattice.DensitySpec("constant", 1.1), (16,), "torus", seed=1)
        lattice.markov_run(cfg, t_max=5.0, seed=2)
    # (sites, topplings, sum of M, end time, snapshot rows) of the one run
    assert tracer.results["lattice.markov_run"] == [(16, 50, 50, 5.0, 5)]


@pytest.mark.parametrize("argv", [
    "sweep --d 1 --side 16 --gen iid,constant --rho 0.5,1.1 --tmax 5 --replicas 2",
    "infinite --d 1 --side 16 --gen constant --rho 1.1 --tmax 5 --replicas 2",
])
def test_every_replica_span_has_a_sweep_parent(monkeypatch, request, tmp_path, argv):
    # the replicas of a sweep ran outside the call the tracer spans as
    # pool.sweep, so their spans had no parent
    tracing = _tracing(monkeypatch, request)
    tracer = tracing.Tracer("t")
    with tracing.hooks(tracer):
        assert cli.main(argv.split() + ["--out", str(tmp_path / "out")]) == 0
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = [names.get(parent) for _, name, _, _, parent, _ in tracer.spans
               if name == "pool.item"]
    assert parents == ["pool.sweep"] * (8 if argv.startswith("sweep") else 2)
