"""CPU speed probe: how fast this core runs while a pass is timed.

On a shared host the speed of a core changes from one millisecond to the next
and over minutes, with the load of other tenants: the same pass can take 2.7 s
or 4.5 s, and a 40 s run is not long enough to average that out.  The probe
measures the speed during the pass itself.  A SIGALRM timer interrupts the
pass every ``PERIOD_S`` and runs ``probe_work``, a fixed piece of interpreter
work of about half a millisecond that mixes what the package's inner loops do:
small numpy convolutions with a reduction mod p, and Python method calls on
slotted objects.

``at_reference`` turns the wall and CPU time of a pass into seconds at the
reference speed: each time less the probes' own, times ``REFERENCE_S`` over
the mean CPU time of the probes taken during the pass.  Where the core ran at
half speed the probes took twice as long and the times are halved.  The
probes' CPU time is used, not their wall time, because a probe, started by a
timer signal, is likelier than the rest of the pass to be taken off the core:
in passes that spent a few percent of their time off the core, the probes'
wall time exceeded their CPU time by up to a fifth.  Time the pass itself spends
off the core stays in its wall time.

The probe is the same code in every commit, so a change to the package moves
the result and a change in the host's load does not.  Its residue: the
probe's first cache misses after the pass evicted its data.
"""

import signal
from time import perf_counter, process_time

import numpy as np

# seconds between probes; a probe takes about 1% of that at the reference speed
PERIOD_S = 0.05
# probe_work's time on the 2-core 2.0 GHz Xeon this benchmark was defined on,
# in the fast state of that shared host; it only scales the results
REFERENCE_S = 0.45e-3

_ROUNDS = 25
_ARRAYS = [np.random.default_rng(1).integers(0, 3, size=n) for n in (8, 24, 64)]


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Elem((self.v * other.v) % 251)


def probe_work():
    """The fixed work whose duration measures the core's speed."""
    acc = 0
    a = _ARRAYS
    for i in range(_ROUNDS):
        conv = np.convolve(a[i % 3], a[(i + 1) % 3])
        acc += int((conv % 3).astype(np.int8).sum())
        x = _Elem(i + 2)
        for k in range(20):
            x = x * _Elem(k + 3)
        acc += x.v
    return acc


class SpeedProbe:
    """Probes taken by a SIGALRM timer between ``start`` and ``stop``; main thread only."""

    def __init__(self):
        self.samples = []  # (wall seconds, CPU seconds) of each probe
        self._previous = None

    def _on_alarm(self, signum, frame):
        w0, c0 = perf_counter(), process_time()
        probe_work()
        self.samples.append((perf_counter() - w0, process_time() - c0))

    def start(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside = [sum(col) for col in zip(*self.samples)] or [0.0, 0.0]
        if not self.samples:
            # a pass shorter than PERIOD_S: one probe right after it
            self._on_alarm(None, None)
        self.mean = [sum(col) / len(self.samples) for col in zip(*self.samples)]

    def at_reference(self, wall, cpu):
        """Wall and CPU seconds measured between start and stop, at the reference speed."""
        scale = REFERENCE_S / self.mean[1]
        return (wall - self.inside[0]) * scale, (cpu - self.inside[1]) * scale
