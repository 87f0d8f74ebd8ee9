"""Microbenchmarks of the lattice-sum kernels behind psi and L_multi,
outside tier-1's testpaths.

Run from the root of a checkout (pytest-benchmark 5.2.3):

    PYTHONPATH=src python -m pytest perf/test_lattice_layer.py --benchmark-columns=min,median,rounds

Compare the fast-mode minima of alternating runs per side, not single
medians: perf/ has no CPU-speed correction, and on a shared host the raw
times of one unchanged tree move by about 1.6x between runs as the CPU
switches between a fast and a slow mode.

Shapes:
- "q8" and "q9": the largest lattice sum of `verify --all` at `--p 2 --e 3`
  and `--p 3 --e 2`, the psi call of prop51-ev's third sample at the CLI
  defaults (degcap 12, seed 0) on the towers (2, 3, 2) and (3, 2, 2), m = 6
  and 4.  Its kept blocks j <= 4 stack 1 + q + ... + q^4 monic rows: 4,681
  at q = 8 and 7,381 at q = 9.  batch_mul, stack_inv and _contract run on
  the arguments of their calls on all of those rows in that psi call: the
  inversion of the orbit rows z^(q-1) - a^(q-1) (stack_inv), the numerator
  product with those inverses (batch_mul) and the contraction against the
  characters (_contract).  One untimed pass of this file peaks at about
  870 MB of RSS, at q = 9.
- test_psi_family_thm2_q3: one psi_family call of the lattice-q3 workload's
  thm2-hI-const (tower (3, 1, 1), prec 24, tcap 8, degcap 8, seed 0) at its
  first point, with the four subset tuples of two variables.  The
  completion's block caches are warm, as in the workload's repeated passes.
Arguments are captured by spying on the calls of one check run.
"""

import pytest

from carlitz import functions, verify


class _Captured(Exception):
    """Stops a check once the call under study has been recorded."""


# the argument that stacks the rows, per kernel
ROWS_ARG = {"batch_mul": 1, "stack_inv": 1, "_contract": 2}


def _spy(real, seen, stop=0):
    """real, recording the arguments of every call in seen; raises
    _Captured instead of making call number stop."""

    def spy(*args):
        seen.append(args)
        if len(seen) == stop:
            raise _Captured
        return real(*args)

    return spy


def _capture(module, name, cfg, which):
    """The arguments of call number `which` of module.name in one check run."""
    seen = []
    mp = pytest.MonkeyPatch()
    mp.setattr(module, name, _spy(getattr(module, name), seen, which))
    try:
        with pytest.raises(_Captured):
            verify.run_check(cfg)
    finally:
        mp.undo()
    return seen[-1]


# (p, e) of the CLI config and the rows of its largest lattice sum
PROP51 = {"q8": ((2, 3), 4681), "q9": ((3, 2), 7381)}


@pytest.fixture(scope="module", params=list(PROP51))
def prop51(request):
    """(rows, {kernel: arguments}) of the kernel calls on every stacked row
    in prop51-ev's third psi call."""
    (p, e), rows = PROP51[request.param]
    args = _capture(verify, "psi", verify.CheckConfig(check="prop51-ev", p=p, e=e), 3)
    calls = {name: [] for name in ROWS_ARG}
    mp = pytest.MonkeyPatch()
    for name, seen in calls.items():
        mp.setattr(functions, name, _spy(getattr(functions, name), seen))
    try:
        verify.psi(*args)
    finally:
        mp.undo()
    return rows, {name: max(seen, key=lambda a: a[ROWS_ARG[name]].shape[0])
                  for name, seen in calls.items()}


@pytest.mark.parametrize("kernel", list(ROWS_ARG))
def test_prop51(benchmark, prop51, kernel):
    rows, args = prop51[0], prop51[1][kernel]
    assert args[ROWS_ARG[kernel]].shape[0] == rows
    benchmark(getattr(functions, kernel), *args)


def test_psi_family_thm2_q3(benchmark):
    cfg = verify.CheckConfig(check="thm2-hI-const", p=3, prec=24, tcap=8, degcap=8, samples=2,
                             seed=0)
    args = _capture(verify, "psi_family", cfg, 1)
    functions.psi_family(*args)  # warm the completion's block caches
    benchmark(functions.psi_family, *args)
