"""Shared machinery of the benchmark: latency samples, the served
database process, ``stats`` deltas, the acknowledgement ledger and the
final report.

Every workload module builds a :class:`Run`, fills it during set-up,
the timed phase and the restart, and hands it to :func:`emit`, which
prints the human report and, as the last line of standard output, the
one JSON object the benchmark contract asks for.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

#: The checkout the benchmark runs in (the command runs from its root).
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for logs and schema files, inside the checkout.
RUN_ROOT = os.path.join(ROOT, ".perfbench_run")

#: Served processes flush to the OS at each group-commit barrier (the
#: ``serve`` default, no ``--fsync``); ``embedded`` flushes the same way
#: after every accepted mutation.
FLUSH_POLICY = "flush to the OS at each commit barrier, no fsync"

#: Every end-to-end metric the benchmark defines, with its unit, as
#: the report prints them.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("restart_s", "s"),
    ("wal_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
)
#: The gated ones, BENCHMARK.json's ``end_to_end``, printed on the result
#: line.  The rest do not repeat within a tenth on the reference host,
#: or (``failed_ratio``) are 0 on a correct run; see NOTES.md.
GATED = ("setup_s", "wal_bytes_per_user_byte", "peak_rss_mb")

#: Per-layer metric names and units (``--trace 1``), as BENCHMARK.json
#: lists them.  The router's (``router.*``) are reached only by ``fleet``,
#: which BENCHMARK.json does not list; its report prints them.
LAYER_UNITS = (
    ("client.call_us", "us"),
    ("client.calls_per_op", "count"),
    ("protocol.codec_us_client", "us"),
    ("protocol.codec_us_server", "us"),
    ("protocol.bytes_per_op", "B"),
    ("server.self_us", "us"),
    ("service.handle_us", "us"),
    ("service.wait_us", "us"),
    ("service.records_per_sync", "count"),
    ("service.syncs_per_s", "1/s"),
    ("engine.busy_us_per_op", "us"),
    ("engine.insert_us", "us"),
    ("engine.get_us", "us"),
    ("engine.update_us", "us"),
    ("engine.delete_us", "us"),
    ("engine.bulk_us_per_row", "us"),
    ("engine.checks_per_op", "count"),
    ("engine.lookups_per_op", "count"),
    ("engine.index_hit_ratio", "ratio"),
    ("engine.rejected_ratio", "ratio"),
    ("query.join_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_row", "B"),
    ("wal.records_per_row", "count"),
    ("recovery.replay_s", "s"),
    ("recovery.verify_s", "s"),
    ("recovery.records_per_s", "1/s"),
    ("tracing.ops_ratio", "ratio"),
)

#: Engine counters read from ``stats`` before and after the timed phase.
COUNTERS = (
    "inserts",
    "updates",
    "deletes",
    "constraint_checks",
    "lookups",
    "index_hits",
    "index_misses",
    "bulk_rows",
    "wal_records",
    "wal_bytes",
    "wal_group_commits",
    "wal_batched_records",
)

#: How many times set-up runs per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def host_reference(seconds: float = 0.5) -> float:
    """Loops per second of a fixed pure-Python kernel: how fast this
    host runs the interpreter right now.  Reported beside the metrics
    (measured just before and after the timed phase) so a reader can
    tell a slow host from a slow program; it adjusts no metric."""
    deadline = time.perf_counter() + seconds
    loops = 0
    while time.perf_counter() < deadline:
        table = {}
        for i in range(200):
            table[i] = str(i)
        loops += 1
    return loops / seconds


def warmup_seconds(seconds: float) -> float:
    """The untimed closed-loop warm-up before the timed phase (lazy
    set-up, first connections, interpreter specialisation)."""
    return min(1.0, seconds / 4)


def require_source() -> None:
    """Exit non-zero, printing no result, unless the program's source
    tree is in the working directory."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: src/repro not found under the working directory; "
            "run the benchmark from the repository root"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50)


class Latencies:
    """Latency samples of one operation class, in a histogram of fixed
    size: buckets 0.5 % wide from 0.1 us to 100 s.  Memory does not grow
    with the number of operations timed (``embedded`` reports its own
    process's peak RSS), and a percentile is within 0.25 % of the exact
    nearest-rank one."""

    LOW = 1e-7
    STEP = math.log(1.005)
    SIZE = int(math.log(1e9) / STEP) + 1

    def __init__(self) -> None:
        self.counts = [0] * self.SIZE
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def add(self, seconds: float) -> None:
        i = int(math.log(seconds / self.LOW) / self.STEP) if seconds > self.LOW else 0
        self.counts[min(i, self.SIZE - 1)] += 1
        self.n += 1

    def extend(self, other: "Latencies") -> None:
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.n += other.n

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile ``q`` (0..100) in seconds, as its
        bucket's geometric midpoint; ``None`` without samples."""
        if not self.n:
            return None
        rank = max(1, math.ceil(q / 100.0 * self.n))
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.LOW * math.exp((i + 0.5) * self.STEP)
        raise AssertionError("unreachable")


def _scaled(value: float | None, scale: float) -> float | None:
    return None if value is None else value * scale


def json_bytes(row: Mapping[str, Any]) -> int:
    """Compact-JSON size of one row in the wire/log value encoding."""
    from repro.server.protocol import encode_row

    return len(json.dumps(encode_row(row), separators=(",", ":")))


# -- the report --------------------------------------------------------------


@dataclass
class Run:
    """Everything one run measured, checked and counted."""

    workload: str
    seed: int
    context: dict[str, Any] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    #: Latency samples per operation class.
    samples: dict[str, Latencies] = field(
        default_factory=lambda: {c: Latencies() for c in ("read", "write", "batch")}
    )
    ops: int = 0
    rows: int = 0
    elapsed_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Seconds from the crashed log to a ready database.
    restart_s: float = 0.0
    #: Log bytes the timed phase added on disk, and the compact-JSON
    #: bytes of the rows its accepted mutations wrote.
    wal_bytes: int = 0
    user_bytes: int = 0
    peak_rss_mb: float = 0.0
    stats_delta: dict[str, int] = field(default_factory=dict)
    per_layer: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    mutations: int = 0
    rejected: int = 0
    #: Rows the accepted mutations added (inserts) or removed (deletes).
    net_rows: int = 0

    def fail(self, problem: str) -> None:
        self.failures.append(problem)

    def record(self, cls: str, seconds: float) -> None:
        self.samples[cls].add(seconds)

    def absorb(self, other: "Run", measured: bool = True) -> None:
        """Add another tally (a thread's or a phase's) into this run.
        Only a ``measured`` one adds its samples and op counts; a
        warm-up or untraced phase adds just what the checks need."""
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.net_rows += other.net_rows
        if not measured:
            return
        self.user_bytes += other.user_bytes
        for cls, values in other.samples.items():
            self.samples[cls].extend(values)
        self.ops += other.ops
        self.rows += other.rows
        self.mutations += other.mutations
        self.rejected += other.rejected

    def end_to_end(self) -> dict[str, float | None]:
        """Every end-to-end metric; a latency whose class the workload's
        mix never issues is ``None``."""
        s = self.samples
        elapsed = self.elapsed_s or 1.0
        return {
            "setup_s": median(self.setup_s),
            "ops_per_s": self.ops / elapsed,
            "rows_per_s": self.rows / elapsed,
            "write_p50_us": _scaled(s["write"].percentile(50), 1e6),
            "write_p90_us": _scaled(s["write"].percentile(90), 1e6),
            "read_p50_us": _scaled(s["read"].percentile(50), 1e6),
            "read_p90_us": _scaled(s["read"].percentile(90), 1e6),
            "batch_p50_ms": _scaled(s["batch"].percentile(50), 1e3),
            "batch_p90_ms": _scaled(s["batch"].percentile(90), 1e3),
            "restart_s": self.restart_s,
            "wal_bytes_per_user_byte": (
                self.wal_bytes / self.user_bytes if self.user_bytes else 0.0
            ),
            "peak_rss_mb": self.peak_rss_mb,
            "failed_ratio": len(self.failures) / max(self.attempted, 1),
        }

    def info(self) -> dict[str, Any]:
        """The non-gated figures printed beside the metrics."""
        ops = max(self.ops, 1)
        delta = self.stats_delta
        lookups = delta.get("index_hits", 0) + delta.get("index_misses", 0)
        return {
            "failed": len(self.failures),
            "attempted": self.attempted,
            "failures": self.failures[:10],
            "setup_s_runs": self.setup_s,
            "elapsed_s": self.elapsed_s,
            "ops": self.ops,
            "rows": self.rows,
            "samples": {k: len(v) for k, v in self.samples.items()},
            "p99_us": {
                k: _scaled(v.percentile(99), 1e6) for k, v in self.samples.items()
            },
            "wal_bytes": self.wal_bytes,
            "user_bytes": self.user_bytes,
            "stats_delta": delta,
            "stats_per_op": {
                k: v / ops for k, v in delta.items() if k in COUNTERS
            },
            "index_hit_ratio": {
                "value": delta.get("index_hits", 0) / lookups if lookups else 0.0,
                "base": f"{lookups} indexed reference checks",
            },
            **self.notes,
        }


def emit(run: Run, trace: bool) -> None:
    """Print the report, then the contract's result object last."""
    end_to_end = run.end_to_end()
    print(
        json.dumps(
            {
                "workload": run.workload,
                "context": run.context,
                "end_to_end": {
                    name: {
                        "value": end_to_end[name],
                        "unit": unit,
                        "gated": name in GATED,
                        **(
                            {"unavailable": "the mix has no operation of this class"}
                            if end_to_end[name] is None
                            else {}
                        ),
                    }
                    for name, unit in END_TO_END
                },
                "info": run.info(),
                **({"per_layer": run.per_layer} if trace else {}),
            },
            indent=1,
            sort_keys=True,
            default=str,
        )
    )
    if trace:
        values, names = run.per_layer, LAYER_UNITS
    else:
        values = end_to_end
        names = [(n, u) for n, u in END_TO_END if n in GATED]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in names
    }
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": max(run.attempted, 1),
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )


def stats_delta(
    before: Iterable[Mapping[str, Any]], after: Iterable[Mapping[str, Any]]
) -> dict[str, int]:
    """Counter deltas summed over every server (one per fleet worker)."""
    out = dict.fromkeys(COUNTERS, 0)
    for b, a in zip(before, after):
        for k in COUNTERS:
            out[k] += int(a.get(k, 0)) - int(b.get(k, 0))
    return out


# -- correctness checks --------------------------------------------------------


def check_rejection(
    exc: BaseException | None, expected: Mapping[str, str]
) -> str | None:
    """``None`` when ``exc`` is the expected constraint rejection, else a
    description of how it differs.  ``expected`` names the ``kind``, the
    ``rule`` and, where given, the ``constraint`` the rejection must
    carry."""
    if exc is None:
        return f"accepted, expected a {expected['kind']} rejection"
    for label, want in expected.items():
        got = getattr(exc, label, None)
        if got != want:
            return f"expected {label} {want!r}, got {got!r} ({exc!r})"
    return None


def verify_ledger(
    ledger: Mapping[tuple[str, Any], Mapping[str, Any] | None],
    fetch: Callable[[str, Any], Mapping[str, Any] | None],
) -> list[str]:
    """Read every acknowledged key back; list each one whose row is
    missing, wrong, or (for an acknowledged delete) still present."""
    problems = []
    for (scheme, pk), expected in ledger.items():
        got = fetch(scheme, pk)
        if expected is None:
            if got is not None:
                problems.append(f"{scheme} {pk!r}: deleted row is back")
        elif got is None:
            problems.append(f"{scheme} {pk!r}: acknowledged row lost")
        elif dict(got) != dict(expected):
            problems.append(f"{scheme} {pk!r}: {dict(got)} != {dict(expected)}")
    return problems


# -- the served database -------------------------------------------------------


def serve_command(
    schema_path: str, wal_path: str, workers: int | None, traced: bool
) -> list[str]:
    entry = (
        [os.path.join(HERE, "serve_traced.py")] if traced else ["-m", "repro"]
    )
    cmd = [sys.executable, *entry, "serve", schema_path, "--wal", wal_path]
    if workers:
        cmd += ["--workers", str(workers)]
    return cmd


class RecoveryFailed(RuntimeError):
    """The server reported that it cannot recover its log."""


class ServedDatabase:
    """One ``repro serve`` process (or fleet) under test.

    Started in its own session so one ``killpg`` stops the supervisor
    and every worker at once; :meth:`kill` waits until all have ended.
    """

    def __init__(
        self,
        schema_path: str,
        wal_path: str,
        log_path: str,
        workers: int | None = None,
        traced: bool = False,
        spans_path: str | None = None,
        record_from_start: bool = False,
    ):
        self.cmd = serve_command(schema_path, wal_path, workers, traced)
        self.workers = workers
        self.log_path = log_path
        self.env = dict(os.environ, PYTHONPATH=SRC)
        if spans_path is not None:
            self.env["PERFBENCH_SPANS"] = spans_path
            if record_from_start:
                self.env["PERFBENCH_RECORD"] = "1"
        self.proc: subprocess.Popen | None = None
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.port = 0
        self.pids: list[int] = []
        self.recovered_tuples = 0

    def start(self, timeout: float = 120.0) -> float:
        """Spawn and wait for readiness; the seconds it took."""
        started = time.perf_counter()
        self._log = open(self.log_path, "a")
        self.proc = subprocess.Popen(
            self.cmd,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            start_new_session=True,
        )
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        ready = "fleet listening on " if self.workers else "listening on "
        deadline = started + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError(
                    f"server did not become ready; see {self.log_path}"
                )
            if "error: cannot recover" in line:
                self.kill()
                raise RecoveryFailed(line)
            if line.startswith("[w") and "recovered " in line:
                self.recovered_tuples += int(line.split("recovered ")[1].split()[0])
            elif line.startswith("recovered "):
                self.recovered_tuples += int(line.split()[1])
            elif self.workers and line.startswith("worker ") and " pid " in line:
                self.pids.append(int(line.split(" pid ")[1].split()[0]))
            if line.startswith(ready):
                address = line[len(ready):].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        if not self.workers:
            self.pids = [self.proc.pid]
        return time.perf_counter() - started

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._log.write(line)
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def peak_rss_mb(self) -> float:
        """VmHWM of the serving process(es), summed over fleet workers."""
        return sum(vmhwm_mb(pid) for pid in self.pids)

    def signal(self, sig: int) -> None:
        for pid in self.pids:
            os.kill(pid, sig)

    def kill(self) -> None:
        """SIGKILL the whole process group and wait for every member."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=60)
        for pid in self.pids:
            _wait_gone(pid)
        self._pump.join(timeout=30)
        self._log.close()
        self.proc = None


def vmhwm_mb(pid: int | str = "self") -> float:
    """A process's peak resident set size (VmHWM), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _wait_gone(pid: int, timeout: float = 30.0) -> None:
    """Wait until ``pid`` (a killed grandchild, reaped by init) is gone."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return
        if state == "Z":
            return
        time.sleep(0.01)
    raise RuntimeError(f"process {pid} did not exit")


def fetch_state(port: int) -> dict[str, Any]:
    """The server's whole durable state, from one ``repl_snapshot``.

    Read over a raw socket: the image of a grown database exceeds the
    client's frame limit, which guards requests, not this check.
    """
    import socket

    from repro.server.protocol import encode_frame, request_frame

    with socket.create_connection(("127.0.0.1", port), timeout=300) as sock:
        sock.sendall(encode_frame(request_frame(1, "repl_snapshot")))
        with sock.makefile("rb") as fh:
            frame = json.loads(fh.readline())
    if not frame.get("ok"):
        raise RuntimeError(f"repl_snapshot failed: {frame.get('error')}")
    return frame["result"]["state"]


def read_spans_file(path: str, timeout: float = 60.0) -> dict[str, Any]:
    """Wait for a traced server's span summary and load it."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"no span summary at {path}")
        time.sleep(0.02)
    with open(path) as fh:
        return json.load(fh)
