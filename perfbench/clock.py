"""Step timing scaled to a reference machine speed.

Other tenants of a shared machine slow every instruction for seconds at a
time, so wall times of the same work spread by tens of percent between
runs. Each timed step is therefore preceded by a probe: a fixed piece of
pure-Python work (integer, float, dict, list and call operations, the
interpreter work that dominates l1lab). The step's seconds are scaled by
PROBE_REF_S / (probe seconds), which gives the time the step would have
taken on a machine where the probe takes PROBE_REF_S: a slowdown that hits
the probe and the step alike cancels. Raw seconds are kept beside the
scaled ones.

Standard library only, so the fresh interpreters that time `import l1lab`
can run the same probe before the import.
"""

from contextlib import contextmanager
from time import perf_counter

# The reference speed: a machine on which one probe takes 2 ms, close to its
# median on a 2-vCPU Xeon virtual machine with Python 3.11.
PROBE_REF_S = 0.002


def _probe_work():
    table = {}
    items = []
    acc = 0.0
    for i in range(6000):
        key = (i * 2654435761) % 1021
        table[key] = table.get(key, 0) + 1
        acc = abs(acc * 0.999 + key * 1e-3 - 0.5)
        items.append(key)
        if len(items) > 64:
            items.sort()
            del items[:32]
    return acc + len(table)


def probe_seconds():
    t0 = perf_counter()
    _probe_work()
    return perf_counter() - t0


def scaled(raw, probe):
    return raw * PROBE_REF_S / probe


class Steps:
    """Raw seconds and the probe before each timed step of one job."""

    def __init__(self):
        self.raw = {}
        self.probe = {}

    @contextmanager
    def step(self, label):
        probe = probe_seconds()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.raw[label] = perf_counter() - t0
            self.probe[label] = probe

    def scaled(self):
        return {label: scaled(raw, self.probe[label]) for label, raw in self.raw.items()}
