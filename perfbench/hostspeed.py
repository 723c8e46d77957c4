"""Host-speed reference: scale wall times to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python loop takes from 1x to 1.5x its fastest time, both within a
run and between runs a minute apart.  Raw wall times therefore spread more
between runs than any useful regression bound.

A probe is a fixed piece of pure-Python work of the kind the package does
(exact `Fraction` arithmetic, dicts keyed by frozensets) that does not call
the package, so a change to the package cannot change it.  The timed loop
runs one probe before each op, outside the op's timed region.  Each op's
wall time is then scaled by REF_PROBE_S over the median probe time of the
ops around it: an op that ran while the host was slow is scaled down by as
much as the probes around it were slowed.  The scaled time reads in seconds
of a host on which a probe takes REF_PROBE_S.  A program change that makes
an op k times slower makes its scaled time k times larger, as with raw
times; only the host's drift is divided out.
"""
from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# probe time of the reference host speed: about the median probe time on a
# 2.1 GHz Xeon vCPU, so scaled times read close to wall times there
REF_PROBE_S = 0.002
# probes on each side of an op that set its scale: wide enough to smooth the
# probe's own jitter, narrow enough (a few seconds) to follow the drift
WINDOW = 8


def probe() -> float:
    """Seconds one fixed piece of reference work takes now."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    table = {}
    for i in range(2000):
        table[frozenset((i, i + 1, i + 2))] = acc
    return perf_counter() - start


def scales(probes: list[float], window: int = WINDOW) -> list[float]:
    """Per position, REF_PROBE_S over the median probe within `window`."""
    return [REF_PROBE_S / statistics.median(probes[max(0, i - window):i + window + 1])
            for i in range(len(probes))]


def scaled(seconds: list[float], probes: list[float]) -> list[float]:
    """Each wall time scaled by the host speed the probes around it saw."""
    return [s * k for s, k in zip(seconds, scales(probes))]
