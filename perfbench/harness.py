"""Process-level plumbing shared by every workload.

Environment scrubbing, the ``repro`` import check, the options profile,
resource readings, percentiles, and the closed-loop measurement of
in-process operations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import platform
import resource
import sys
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.oracle import Answer, digest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = REPO_ROOT / "src"

#: The one options profile every workload runs under unless it states
#: otherwise: the default strategy on whichever array backend resolves,
#: with the result cache off so every op is a cold execution.
DEFAULT_PROFILE = {"backend": "auto", "use_cache": False}


class BenchmarkError(Exception):
    """The benchmark cannot run here; the message says why."""


def prepare_process() -> None:
    """Make this process measure the checkout's engine and nothing else.

    Every ``REPRO_*`` variable is dropped (they switch modes, backends
    and tiers behind the options object), ``src`` goes first on the
    import path, and numpy must be importable: without it ``backend:
    auto`` silently degrades to the python kernel and every number here
    would describe a different program.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no engine to measure: {SOURCE_DIR}/repro is missing "
            f"(run from a checkout of the repository)"
        )
    sys.path.insert(0, str(SOURCE_DIR))
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise BenchmarkError(
            "numpy is not importable; the benchmark measures the numpy "
            "kernel and refuses to measure the python fallback in its place"
        ) from None
    import repro

    if Path(repro.__file__).resolve().parent.parent != SOURCE_DIR:
        raise BenchmarkError(
            f"imported repro from {repro.__file__}, not from {SOURCE_DIR}"
        )


def child_environment() -> dict[str, str]:
    """The environment for a ``python -m repro`` child (already scrubbed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE_DIR)
    return env


def fingerprint(seed: int) -> dict:
    """Where and on what these numbers were measured."""
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` directly (no subprocess)."""
    git_dir = REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = git_dir / head[5:]
        if ref.is_file():
            return ref.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + head[5:]):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def build_options(profile: dict):
    """``QueryOptions`` from a profile dict, plus what was resolved.

    Keys the current ``QueryOptions`` does not have are dropped rather
    than passed, so a later change that deletes a knob does not break
    the benchmark; the resolved dict records what actually ran.
    """
    from repro import QueryOptions

    known = {f.name for f in dataclasses.fields(QueryOptions)}
    kept = {key: value for key, value in profile.items() if key in known}
    options = QueryOptions(**kept)
    resolved = dataclasses.asdict(options)
    resolved["dropped"] = sorted(set(profile) - known)
    return options, resolved


# -- resource readings ---------------------------------------------------------

def children_cpu_seconds() -> float:
    """user+sys CPU of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Highest resident set of this process or any reaped child, in MB."""
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live process, from ``/proc`` (0.0 if unreadable)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- statistics ------------------------------------------------------------------

def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# -- machine-speed calibration ---------------------------------------------------

#: Every reported time is scaled to a machine on which one calibration
#: unit takes this long (about what it takes on the 2-core box the first
#: baseline was cut on, in its faster state).
REFERENCE_CALIBRATION_MS = 1.0


class Calibrator:
    """Tracks how fast this machine is *right now*.

    On a shared box the same pure-CPU loop runs 10-20% faster or slower
    from one minute to the next (measured: CPU time moves with wall
    time, so it is the core's speed, not scheduling).  Ten runs of one
    workload then spread by 10-18%, far above any useful regression
    bound.  So a fixed unit of work is timed between ops, outside every
    op's clock, and a run's times are scaled by
    ``REFERENCE_CALIBRATION_MS / median(unit times)``, which brings the
    same ten runs to within 3-6% of each other.

    The unit is interpreter work on Python objects -- tuples built,
    transposed and sorted, a dict updated in a loop -- because that is
    what moved with the engine's times when four candidate units were
    timed beside ``scan_heavy``: whole-array numpy units drift half as
    much as the interpreter does and explained the ops' drift worst.
    The unit is benchmark code: no change to the program can move it.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        total = 0
        seen = {}
        for i in range(4_000):
            total += i * i % 7
            seen[i & 255] = total
        rows = [(i, float(i), str(i & 15)) for i in range(2_000)]
        columns = list(zip(*rows))
        sorted(columns[2])
        self._last = time.perf_counter()
        self.samples_ms.append((self._last - started) * 1000.0)

    def sample_if_due(self, interval_s: float = 0.02) -> None:
        if time.perf_counter() - self._last >= interval_s:
            self.sample()

    @contextlib.contextmanager
    def in_background(self, pause_s: float = 0.03) -> Iterator[None]:
        """Sample from a thread of its own for as long as the block runs.

        For work that cannot stop for a unit: a set-up, or client threads
        waiting on sockets.  Units taken before and after a set-up were
        tried first and explain a fraction of what units taken *during*
        it do (set-up time over unit time moved by 18% against 4.5%).
        """
        stop = threading.Event()

        def sample_until_stopped() -> None:
            while not stop.is_set():
                self.sample()
                stop.wait(pause_s)

        thread = threading.Thread(target=sample_until_stopped)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def unit_ms(self) -> float:
        return median(self.samples_ms)

    def factor(self) -> float:
        """Multiply a measured time by this to get the reported time."""
        return REFERENCE_CALIBRATION_MS / self.unit_ms()


# -- closed-loop measurement ---------------------------------------------------

@dataclass
class Op:
    """One operation of a workload: run it, get rows, know the answer."""

    name: str
    run: Callable[[], list]
    expected: Answer


@dataclass
class Measurement:
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def answer_problem(op_name: str, rows: list, expected: Answer) -> str | None:
    """How ``rows`` differ from the oracle's answer, or None."""
    got = digest(rows)
    if got == expected:
        return None
    return (f"{op_name}: got {got[0]} rows / {got[1][:12]}, "
            f"expected {expected[0]} rows / {expected[1][:12]}")


def run_closed_loop(ops: Sequence[Op], seconds: float,
                    calibrator: Calibrator) -> Measurement:
    """One client, round-robin over ``ops``, whole rounds until time is up.

    Each op's clock stops before its rows are digested, so verification
    is never inside a latency; ``wall_s`` is the sum of the latencies
    (what the one client spent waiting) and ``cpu_s`` this process's
    user+sys CPU over the same intervals.  Calibration units run between
    ops, outside both.
    """
    result = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            calibrator.sample_if_due()
            result.attempted += 1
            problem = None
            cpu_before = time.process_time()
            started = time.perf_counter()
            try:
                rows = op.run()
            except Exception as error:  # noqa: BLE001 - a failed op is data
                problem = f"{op.name}: {type(error).__name__}: {error}"
            elapsed = time.perf_counter() - started
            result.cpu_s += time.process_time() - cpu_before
            result.wall_s += elapsed
            if problem is None:
                result.latencies_ms.append(elapsed * 1000.0)
                problem = answer_problem(op.name, rows, op.expected)
            if problem:
                result.fail(problem)
        if time.perf_counter() >= deadline:
            return result
