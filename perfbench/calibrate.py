"""Fixed reference computation that measures the host's current speed.

    python3 perfbench/calibrate.py

Prints one JSON object {"seconds": t}: the wall time of a fixed mix of the
operations ringlab spends its time on (five-point stencil sweeps on a
200x320 array, type-1 sine transforms along z, table lookups by linear
interpolation, and an interpreted loop), without interpreter start-up and
imports.  It uses neither ringlab nor the checkout's sources, so a change to
the program does not move it; run.py times it between samples and divides
the samples' wall times by it, which cancels the speed drift of a shared
host.  Run it with BLAS/OpenMP pinned to one thread, as run.py does.
"""

import json
import time

import numpy as np
import scipy.fft

REPS = 80


def kernel(reps):
    rng = np.random.default_rng(0)
    a = rng.random((200, 320))
    b = a.copy()
    x = np.linspace(0.0, 1.0, 4001)
    y = np.sin(7.0 * x)
    s = rng.random(100_000)
    acc = 0.0
    for _ in range(reps):
        b[1:-1, 1:-1] = a[1:-1, 1:-1] + 0.1 * (
            a[2:, 1:-1] + a[:-2, 1:-1] + a[1:-1, 2:] + a[1:-1, :-2]
            - 4.0 * a[1:-1, 1:-1])
        a, b = b, a
        acc += float(scipy.fft.dst(a, type=1, axis=1)[0, 0])
        acc += float(np.interp(s, x, y).sum())
        for i in range(5000):
            acc += i * 1e-9
    return acc


def main():
    kernel(2)                       # warm-up: first calls, caches
    t0 = time.perf_counter()
    kernel(REPS)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds}))


if __name__ == "__main__":
    main()
