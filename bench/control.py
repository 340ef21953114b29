"""Machine-speed controls: fixed workloads that no change to zhangpile can move.

The benchmark runs on shared cores, and their speed swings by up to 2x over
seconds and over minutes.  So it times a control next to what it measures
and reports times scaled to a machine on which the control takes a fixed
nominal time:

* solves: ``control_s`` (a pure-Python workload sharing no code with
  zhangpile) runs before and after every solve, in the same process, and
  ``scaled = median(solve time / mean of the two controls) * NOMINAL_S``;
* set-up: a fresh interpreter importing numpy and scipy.sparse
  (``SETUP_CONTROL``) runs before every set-up probe, and
  ``scaled = median(probe time / its control's time) * SETUP_NOMINAL_S``.

A slower or faster program moves a scaled time exactly as much as the raw
one.  Editing this file rescales every reported time; that is a change to
the benchmark, made on its own and never together with a change that
claims a gain.
"""

from __future__ import annotations

import json
import random
import re
import time

# control times on the 2-vCPU Xeon VM the bounds were set on, at its fast speed
NOMINAL_S = 0.033
SETUP_NOMINAL_S = 0.34
SETUP_CONTROL = ["-c", "import numpy, scipy.sparse"]

_RECORDS = [{"k": i, "v": [i * 0.5, str(i)], "s": "x" * (i % 17)} for i in range(400)]
_NUMBER = re.compile(r"(\d+)\.(\d)")


def _relaxation(steps: int = 250, n: int = 30) -> float:
    """A leftmost-toppling chain like the model's, on the stdlib RNG."""
    rnd = random.Random(12345)
    h = [0.0] * n
    for _ in range(steps):
        h[rnd.randrange(n)] += rnd.uniform(0.6, 0.8)
        while True:
            j = next((k for k in range(n) if h[k] >= 1.0), -1)
            if j < 0:
                break
            v, h[j] = h[j], 0.0
            if j > 0:
                h[j - 1] += v / 2
            if j < n - 1:
                h[j + 1] += v / 2
    return sum(h)


def _stdlib(rounds: int = 8) -> int:
    """JSON, regular expressions and sorting over small records."""
    found = 0
    for _ in range(rounds):
        text = json.dumps(_RECORDS)
        found += len(_NUMBER.findall(text))
        sorted(json.loads(text), key=lambda r: (r["s"], -r["k"]))
    return found


def control_s() -> float:
    """Seconds one run of the control takes now."""
    t0 = time.perf_counter()
    _relaxation()
    _stdlib()
    return time.perf_counter() - t0
