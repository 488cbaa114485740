"""A machine-speed reference, sampled between requests.

On a shared host the speed the benchmark gets drifts by 10-30% over
minutes, which would swamp the engine's own run-to-run spread.  So the
timed loop asks a helper process to time a fixed piece of pure-Python work
(exact ``Fraction`` arithmetic, tuples, a dict and a sort, like the
engine's inner loops) before the first request and after each one, while
the benchmark process waits.  A request's time is then scaled by
``REFERENCE_S`` over the mean of the two samples around it: the time it
would have taken on a machine where one sample takes ``REFERENCE_S``.

The piece runs in its own process, which imports nothing of the engine and
has a fixed hash seed, because the speed of so small a loop depends on the
state of the process it runs in (its hash seed alone moves it by up to
60%): in the benchmark process, a change to the engine could move it.  The
engine never runs this code, so a faster engine lowers the scaled times
exactly as it lowers the raw ones.

Run as ``python3 speed.py --serve``, it is that helper: it times one piece
for each line it reads and writes the seconds back, until end of input.
"""

import gc
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# One sample's time on a 2-core 2.1 GHz Xeon virtual machine.
REFERENCE_S = 0.0012
WARM_UP = 20             # samples the helper discards when it starts


def _work() -> int:
    seen: dict = {}
    x = Fraction(0)
    for i in range(1, 120):
        q = Fraction(i, 7) * Fraction(3, i + 2) + x
        key = (q.numerator % 17, q.denominator % 5)
        seen[key] = seen.get(key, 0) + 1
        x = q - (q.numerator // q.denominator)
    return len(sorted(seen.items()))


def _sample() -> float:
    """Seconds for one reference piece: the median of three timings, so
    that one preemption does not count, with the garbage collector off."""
    clock = time.perf_counter
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = clock()
            _work()
            times.append(clock() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def scale_of(samples) -> float:
    """The factor that turns a time measured while ``samples`` were taken
    into a time at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def scaled_times(times, samples) -> list:
    """Each of ``times`` at the reference speed, by the two samples around
    it: ``samples[i]`` was taken just before ``times[i]`` was measured and
    ``samples[i + 1]`` just after.  (Widening this to the samples of the
    seconds around a request made the scaled times no steadier.)"""
    return [t * scale_of(samples[i:i + 2]) for i, t in enumerate(times)]


class Speedometer:
    """The helper process, used as a context manager: ``sample()`` returns
    the seconds of one reference piece timed now.  Leaving the context ends
    the helper and waits for it."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        return self

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed helper exited with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the helper has already exited
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def serve() -> None:
    for _ in range(WARM_UP):
        _sample()
    for _ in sys.stdin:
        print(repr(_sample()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: python3 speed.py --serve")
    serve()
