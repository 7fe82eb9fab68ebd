"""The machine's speed, sampled next to every timed call.

On a shared virtual machine the same CPU work costs up to 1.7x more CPU
seconds from one minute to the next, because the host runs other
machines on the same cores and caches.  A run therefore times a fixed
piece of Python work, `calibrate`, just before and just after each
request, in the process that runs the request, and scales the request's
CPU seconds to the speed at which that work takes `REFERENCE_S`.  The
work touches only built-in types (no import), so that it changes neither
what the package's import costs nor its caches.
"""
from __future__ import annotations

from time import process_time

REFERENCE_S = 0.01  # CPU seconds of `calibrate` at the reference speed


def calibrate() -> float:
    """CPU seconds of a fixed mix of dictionary updates and big-integer
    products, like the sparse polynomial arithmetic of the package."""
    start = process_time()
    terms: dict = {}
    coefficient = 1
    for i in range(16000):
        key = ((i * 7919) % 251, i % 7)
        coefficient = (coefficient * 1_000_003 + i) % (1 << 192)
        terms[key] = terms.get(key, 0) + coefficient * (i + 1)
    return process_time() - start


def scaled(cpu_s: float, before_s: float, after_s: float) -> float:
    """`cpu_s` at the reference speed, given the calibration times taken
    before and after it."""
    return cpu_s * 2 * REFERENCE_S / (before_s + after_s)
