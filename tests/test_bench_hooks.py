"""The benchmark's tracer hooks name functions and attributes of the program;
a hook whose target is gone raises, so renaming one breaks a traced run.
This test enters every hook, so that such a rename fails here as well."""

import importlib

from zhangpile import lattice


def test_benchmark_hooks_find_their_targets(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer("t")
    with tracing.hooks(tracer):
        # through the module, whose names the hooks replace
        cfg = lattice.generate(lattice.DensitySpec("constant", 1.1), (16,), "torus", seed=1)
        lattice.markov_run(cfg, t_max=5.0, seed=2)
    # (sites, topplings, sum of M, end time, snapshot rows) of the one run
    assert tracer.results["lattice.markov_run"] == [(16, 50, 50, 5.0, 5)]
