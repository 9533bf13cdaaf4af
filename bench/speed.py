"""Seconds at a fixed machine speed, so runs made minutes apart can be compared.

The speed of a shared VM drifts: one process runs the same lieshift code
up to 1.7x slower than another started a minute later, and the speed moves
within a single 2-second operation, while CPU time stays equal to wall
time. Raw seconds differ between runs by more than any useful bound.

So timed work runs under a ``Sampler``: every ``SAMPLE_PERIOD_S`` of CPU
time a profiling signal runs a short fixed loop in the main thread and
records how long it took. Reference seconds are the measured seconds, less
the time spent in the loop, divided by the loop's slowdown against its
time at this VM's fast speed. A slower program still reads slower; a
slower machine does not. CLI children sample themselves (see ``child.py``),
because each process draws its own speed.
"""

import signal
import time

# CPU seconds between samples, and the loop's iterations
SAMPLE_PERIOD_S = 0.01
SAMPLE_ITERS = 1500
# one sample loop on this VM at its fast speed (2-CPU x86-64 VM, Python 3.11)
SAMPLE_REF_S = 0.0005


def sample_loop():
    """Time one run of a fixed pure-Python loop.

    Dict updates and small-integer arithmetic, like the interpreter work
    lieshift does, but no GC-tracked allocations, so a larger lieshift heap
    does not slow it down.
    """
    t0 = time.perf_counter()
    d = {}
    acc = 0
    for i in range(SAMPLE_ITERS):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        acc += (i * i) % 97
    return time.perf_counter() - t0


class Sampler:
    """Runs ``sample_loop`` on a CPU-time timer while the block runs.

    ``loop_s`` is the time spent in the loop and ``samples`` how often it ran.
    Not reentrant; only one Sampler may be active in a process.
    """

    def __init__(self):
        self.loop_s = 0.0
        self.samples = 0
        self._previous = None

    def _tick(self, signum, frame):
        self.loop_s += sample_loop()
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def calibration(self):
        """(loop seconds, the same loops at the reference speed)."""
        return self.loop_s, self.samples * SAMPLE_REF_S


class Stopwatch:
    """Measured seconds, and the same seconds at the reference speed.

    ``add`` takes the seconds of one part, with the sampler's loop time
    already taken out, and the calibration (loop seconds, reference loop
    seconds) that covers it. Parts in one process share one speed estimate
    pooled over all their samples, because an operation shorter than the
    sampling period gets no sample of its own; a part a child process
    sampled itself is scaled by its own samples.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.child_ref_s = 0.0
        self.own_raw_s = 0.0
        self.own_loop_s = 0.0
        self.own_loop_ref_s = 0.0

    def add(self, seconds, calibration, child=False):
        loop_s, loop_ref_s = calibration
        self.raw_s += seconds
        if child:
            self.child_ref_s += seconds * loop_ref_s / loop_s if loop_s else seconds
        else:
            self.own_raw_s += seconds
            self.own_loop_s += loop_s
            self.own_loop_ref_s += loop_ref_s

    def merge(self, other):
        for k, v in vars(other).items():
            setattr(self, k, getattr(self, k) + v)

    def time(self, fn, *args):
        """Run fn(*args) under a Sampler and account its time."""
        with Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = time.perf_counter() - t0
                self.add(elapsed - sampler.loop_s, sampler.calibration)

    @property
    def ref_s(self):
        own = self.own_raw_s
        if self.own_loop_s:
            own *= self.own_loop_ref_s / self.own_loop_s
        return self.child_ref_s + own

    @property
    def slowdown(self):
        return self.raw_s / self.ref_s if self.ref_s else 1.0
