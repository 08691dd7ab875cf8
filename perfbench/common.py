"""Shared plumbing for the benchmark: paths, the cached artifact pack,
server processes, raw-sample statistics and the layer recorder.

Everything the benchmark measures is measured from outside the program:
it times calls into public functions, drives ``acic serve`` processes
over TCP, and reads the spans and metrics the program already exports.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"

class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program source)."""


def ensure_source() -> None:
    """Put the program's ``src/`` on the path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: program source importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# The artifact pack every serving workload warm-starts from.


def code_version(root: Path = SRC, pattern: str = "**/*.py") -> str:
    """Digest of the files under ``root`` matching ``pattern``; by default
    the program source, which is what cached build outputs belong to."""
    digest = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _build(*args: str) -> None:
    subprocess.run([sys.executable, str(BENCH_DIR / "build_pack.py"), *args],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=600)


def _cached(name: str, *build: str) -> Path:
    """``CACHE/<name>-<code version>``, built by ``build_pack.py`` on first use."""
    target = CACHE / f"{name}-{code_version()}"
    if not target.is_dir():
        CACHE.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=CACHE))
        try:
            _build(*build, str(staging))
            staging.rename(target)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return target


def campaign(top_m: int = 10) -> Path:
    """The cold training campaign's output for this code, built on first use.

    The campaign does not depend on the workload seed, so a checkout runs
    it once per code version and later runs reuse it.
    """
    return _cached(f"campaign-top{top_m}", "campaign", "--top-m", str(top_m))


def pack(top_m: int = 10) -> tuple[Path, dict]:
    """The artifact pack fitted on :func:`campaign`'s data, built on first
    use and shared like the campaign; returns (directory, side document)."""
    target = _cached(f"pack-top{top_m}", "pack", str(campaign(top_m)))
    return target, json.loads((target / "bench-pack.json").read_text())


# ----------------------------------------------------------------------
# Server processes.


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One ``acic serve --listen`` child, ready once its banner printed.

    ``launcher`` replaces ``-m repro.cli`` with the benchmark's traced
    launcher script for the traced run.
    """

    def __init__(self, serve_args: list[str], workdir: Path,
                 launcher: list[str] | None = None) -> None:
        prefix = launcher if launcher is not None else ["-m", "repro.cli"]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *prefix, "serve", "--listen", "127.0.0.1:0",
             *serve_args],
            cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self.output: list[str] = []
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError(
                    "server exited before listening:\n" + "".join(self.output)
                )
            self.output.append(line)
            if line.startswith("# listening on "):
                self.port = int(line.rsplit(":", 1)[1])
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, timeout_s: float = 15.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL past the timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=10)
        if hasattr(self, "_pump"):
            self._pump.join(timeout=5)
        return self.proc.returncode


# ----------------------------------------------------------------------
# Statistics over raw samples.


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of raw samples (no histogram bins)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def chunks(values: list, count: int) -> list[list]:
    """``values`` cut into ``count`` consecutive, near-equal windows."""
    size = -(-len(values) // count)
    return [values[i:i + size] for i in range(0, len(values), size)]


# ----------------------------------------------------------------------
# Aligned repetitions of one long, deterministic piece of work.


class Timeline:
    """Entry timestamps of marked program calls during a timed piece of work.

    A piece of work that runs for seconds (a training pass, a CART fit)
    spans several of the host's speed phases, so neither the fastest nor
    the median of a few repetitions holds still.  Marking the entries of
    calls the work makes thousands of times (each simulator run, each
    tree node grown) cuts every repetition into the same short segments;
    :func:`aligned_slowest` then takes each segment's slowest repetition.
    A mark costs one clock read, and nothing is marked outside
    :meth:`timed`.
    """

    def __init__(self) -> None:
        self._stamps: list[float] | None = None
        #: One list of timestamps per call of :meth:`timed`: its start,
        #: every mark and its end.
        self.runs: list[list[float]] = []

    def mark(self, fn):
        timeline = self

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            stamps = timeline._stamps
            if stamps is not None:
                stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return marked

    def patch(self, owner, attr: str) -> None:
        """Mark ``owner.attr``; a program without it is timed unmarked."""
        original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, self.mark(original))

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` with marking on; returns (result, seconds)."""
        stamps = self._stamps = [time.perf_counter()]
        try:
            result = fn(*args, **kwargs)
        finally:
            stamps.append(time.perf_counter())
            self._stamps = None
        self.runs.append(stamps)
        return result, stamps[-1] - stamps[0]


def aligned_slowest(runs: list[list[float]]) -> tuple[float, bool]:
    """Sum over segments of each segment's slowest duration across ``runs``.

    ``runs`` are :attr:`Timeline.runs` of repetitions of the same work.
    The host's fast phases come and go while its common speed prevails,
    so a segment's slowest repetition reads the common speed unless the
    host ran fast through every repetition.  When the repetitions made
    different numbers of marked calls (work memoized across repetitions,
    say) their segments do not line up; the slowest repetition's total
    is returned instead.  The flag says whether the segments were aligned.
    """
    if len({len(stamps) for stamps in runs}) != 1:
        return max(stamps[-1] - stamps[0] for stamps in runs), False
    durations = [[b - a for a, b in zip(stamps, stamps[1:])] for stamps in runs]
    return sum(max(segment) for segment in zip(*durations)), True


# ----------------------------------------------------------------------
# Layer recorder for the traced run.


class Recorder:
    """Thread-safe call timer with per-thread nesting.

    :meth:`wrap` times a function; a wrapped call nested inside another
    wrapped call on the same thread is subtracted from its parent, so
    ``self_s`` is each layer's exclusive time.  Calls are also totalled
    per ``"parent>name"`` pair of directly nested layers.  Only the
    benchmark's own files use this; the program is never edited.
    """

    def __init__(self, keep_events: tuple[str, ...] = ()) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals: dict[str, list[float]] = {}
        self.nested: dict[str, list[float]] = {}
        #: Layers whose individual calls are kept as (start, end, result).
        self.keep_events = set(keep_events)
        self.events: dict[str, list] = {}
        #: Self time summed per outermost layer of each call chain.
        self.root_self: dict[str, float] = {}

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, calls: int, inclusive_s: float, self_s: float,
            root: str | None = None, parent: str | None = None) -> None:
        with self._lock:
            keys = [(self.totals, name)]
            if parent is not None:
                keys.append((self.nested, f"{parent}>{name}"))
            for table, key in keys:
                entry = table.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive_s
                entry[2] += self_s
            if root is not None:
                self.root_self[root] = self.root_self.get(root, 0.0) + self_s

    def wrap(self, name: str, fn):
        recorder = self
        keep = name in self.keep_events

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            root = stack[0][1] if stack else name
            parent = stack[-1][2] if stack else None
            stack.append([0.0, root, name])
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                elapsed = end - start
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                recorder.add(name, 1, elapsed, elapsed - children, root, parent)
                if keep:
                    outcome = result if isinstance(result, (str, int, float)) else None
                    with recorder._lock:
                        recorder.events.setdefault(name, []).append(
                            (start, end, outcome)
                        )

        timed.__wrapped_by_recorder__ = True
        return timed

    def count(self, name: str, fn):
        """A wrapper that only counts calls (no clock reads)."""
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            recorder.add(name, 1, 0.0, 0.0)
            return fn(*args, **kwargs)

        counted.__wrapped_by_recorder__ = True
        return counted

    def patch(self, owner, attr: str, name: str, timed: bool = True) -> None:
        """Replace ``owner.attr`` (module, class or object) by its timed twin."""
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_recorder__", False):
            return
        make = self.wrap if timed else self.count
        if isinstance(owner, type) and isinstance(owner.__dict__.get(attr), classmethod):
            setattr(owner, attr, classmethod(make(name, original.__func__)))
            return
        setattr(owner, attr, make(name, original))

    def snapshot(self, nested: bool = False) -> dict:
        """Per-layer totals, or with ``nested`` per ``"parent>name"`` pair."""
        with self._lock:
            table = self.nested if nested else self.totals
            return {
                name: {"calls": int(c), "inclusive_s": i, "self_s": s}
                for name, (c, i, s) in table.items()
            }

    def dump(self, path) -> None:
        """Write totals and kept events as one JSON document."""
        with self._lock:
            events = {name: list(calls) for name, calls in self.events.items()}
            roots = dict(self.root_self)
        Path(path).write_text(json.dumps(
            {"layers": self.snapshot(), "nested": self.snapshot(nested=True),
             "events": events, "roots": roots}
        ))


def span_totals(events_path: Path) -> dict:
    """Per-name totals of the program's own exported spans.

    ``self_s`` subtracts child spans (any name) from each span; numeric
    span attributes (such as a batch's ``queries``) are summed by name.
    """
    records = []
    for line in Path(events_path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    child_time: dict[str, float] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + record["duration"]
    totals: dict[str, dict] = {}
    for record in records:
        entry = totals.setdefault(
            record["name"], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["inclusive_s"] += record["duration"]
        entry["self_s"] += record["duration"] - child_time.get(record["span_id"], 0.0)
        for key, value in (record.get("attrs") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
    return totals
