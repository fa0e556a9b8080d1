"""The ``service-http`` workload: two users on one ``qfe-serve`` process.

The server runs in its own process on the serial default with an fsync'd
checkpoint store. Two client threads, one keep-alive connection each, run a
closed loop with zero think time: create a session on the shared small Q3
pair, alternate ``GET round`` and ``POST choice`` until the session is done,
fetch the transcript, delete the session.

Every choice comes from the seed. A run is a fixed number of cycles of
``CYCLE`` sessions, numbered in the order they start. Session ``j`` walks the
options with a point ``x`` in ``[0, 1)``: on a round with ``k`` options it
picks ``floor(x * k)`` and keeps ``x * k - floor(x * k)`` for the next round.
The sessions of a cycle take the points of the grid ``(i + 0.5) / CYCLE`` in
an order the seed shuffles, so every cycle walks the same spread of paths
through the decision tree while the seed decides which user takes which path
when. Independent random choices made the rounds per session swing by a
quarter from seed to seed.
"""

from __future__ import annotations

import copy
import hashlib
import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.session import QFESession
from repro.relational.evaluator import JoinCache
from repro.service.checkpoint import transcript_json
from repro.service.manager import workload_session_inputs

from qfebench import inputs
from qfebench.checks import TranscriptBook, oracle_error, transcript_sha
from qfebench.inprocess import peak_rss_mb

HERE = Path(__file__).resolve().parent
USERS = 2
CYCLE = 4
CREATE_BODY = {
    "workload": inputs.SERVICE_WORKLOAD,
    "scale": inputs.SERVICE_SCALE,
    "config": {"delta_seconds": inputs.CONFIG.delta_seconds},
}


class ChoiceStream:
    """The seeded option picker of one session (see the module docstring)."""

    def __init__(self, seed: int, index: int) -> None:
        cycle, slot = divmod(index, CYCLE)
        order = list(range(CYCLE))
        random.Random(f"qfebench-choices:{seed}:{cycle}").shuffle(order)
        self._x = (order[slot] + 0.5) / CYCLE

    def pick(self, option_count: int) -> int:
        scaled = self._x * option_count
        choice = min(int(scaled), option_count - 1)
        self._x = scaled - choice
        return choice


@dataclass
class ServiceSession:
    """One session driven over HTTP: its timings, choices and outcome."""

    user: int
    index: int
    session_id: str | None = None
    choices: list[int] = field(default_factory=list)
    create_s: float | None = None
    first_round_s: float | None = None
    round_s: list[float] = field(default_factory=list)
    choice_s: list[float] = field(default_factory=list)
    converge_s: float | None = None
    transcript: str | None = None
    #: Client latency of every create, round and choice request.
    request_s: float = 0.0
    requests: int = 0
    error: str | None = None

    @property
    def key(self) -> str:
        return f"s{self.index}"

    @property
    def rounds(self) -> int:
        return len(self.round_s)


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: dict | None = None):
        """``(status, payload, seconds)`` of one request; reconnects after errors."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=120)
            raise
        return response.status, json.loads(raw) if raw else None, time.perf_counter() - start

    def close(self) -> None:
        self._conn.close()


class Server:
    """A ``qfe-serve`` child process started through ``qfebench/serve.py``."""

    def __init__(self, work_dir: Path, trace_to: Path | None = None) -> None:
        self.store_dir = work_dir / "store"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        command = [sys.executable, str(HERE / "serve.py")]
        if trace_to is not None:
            command += ["--trace-to", str(trace_to)]
        command += ["--port", "0", "--store-dir", str(self.store_dir)]
        self._log = open(work_dir / "server.log", "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, cwd=str(HERE.parent)
        )
        line = self.process.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"qfe-serve did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + 60
        probe = Connection(self.port)
        try:
            while probe.request("GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("qfe-serve /healthz never answered 200")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise
        finally:
            probe.close()

    def stop(self) -> None:
        """SIGINT (graceful shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def drive_session(conn: Connection, user: int, index: int, pick) -> ServiceSession:
    """Create, step and finish one session over HTTP; errors end it as failed.

    ``pick`` maps a round payload to the chosen option index.
    """
    run = ServiceSession(user, index)
    try:
        start = time.perf_counter()
        status, payload, run.create_s = conn.request("POST", "/sessions", CREATE_BODY)
        run.requests += 1
        run.request_s += run.create_s
        _expect(status, 201, "create", payload)
        session_id = run.session_id = payload["session_id"]
        while True:
            status, payload, seconds = conn.request("GET", f"/sessions/{session_id}/round")
            run.requests += 1
            run.request_s += seconds
            _expect(status, 200, "round", payload)
            if payload["round"] is None:
                break
            run.round_s.append(seconds)
            if run.first_round_s is None:
                run.first_round_s = time.perf_counter() - start
            choice = pick(payload["round"])
            run.choices.append(choice)
            status, payload, seconds = conn.request(
                "POST", f"/sessions/{session_id}/choice", {"choice": choice}
            )
            run.requests += 1
            run.request_s += seconds
            _expect(status, 200, "choice", payload)
            run.choice_s.append(seconds)
        run.converge_s = time.perf_counter() - start
        status, payload, _ = conn.request("GET", f"/sessions/{session_id}/transcript")
        run.requests += 1
        _expect(status, 200, "transcript", payload)
        run.transcript = transcript_json(payload)
    except Exception as exc:  # a failed session is counted, not fatal
        run.error = f"{type(exc).__name__}: {exc}"
    finally:
        if run.session_id is not None:
            try:
                status, payload, _ = conn.request("DELETE", f"/sessions/{run.session_id}")
                run.requests += 1
                if run.error is None:
                    _expect(status, 200, "delete", payload)
            except Exception as exc:
                run.error = run.error or f"{type(exc).__name__}: {exc}"
    return run


def _expect(status: int, wanted: int, what: str, payload) -> None:
    if status != wanted:
        raise RuntimeError(f"{what} answered HTTP {status}: {payload}")


def warm_up(port: int) -> None:
    """One untimed session on the pair, always choosing the smallest option."""

    def smallest(round_payload: dict) -> int:
        options = round_payload["options"]
        return min(range(len(options)), key=lambda i: options[i]["query_count"])

    conn = Connection(port)
    try:
        run = drive_session(conn, -1, -1, smallest)
    finally:
        conn.close()
    if run.error is not None:
        raise RuntimeError(f"warm-up session failed: {run.error}")


def timed_phase(port: int, seed: int, cycles: int) -> tuple[list[ServiceSession], float]:
    """Both users' closed loops over ``cycles`` whole cycles of sessions.

    Returns the sessions and the phase's wall time.
    """
    sessions: list[ServiceSession] = []
    lock = threading.Lock()
    started = 0
    start = time.perf_counter()

    def next_index() -> int | None:
        nonlocal started
        with lock:
            if started == cycles * CYCLE:
                return None
            started += 1
            return started - 1

    def user_loop(user: int) -> None:
        conn = Connection(port)
        try:
            while (index := next_index()) is not None:
                stream = ChoiceStream(seed, index)
                run = drive_session(
                    conn, user, index, lambda round_: stream.pick(round_["option_count"])
                )
                with lock:
                    sessions.append(run)
        finally:
            conn.close()

    threads = [threading.Thread(target=user_loop, args=(user,)) for user in range(USERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    sessions.sort(key=lambda run: run.index)
    return sessions, wall


def replay(wanted: set[tuple]) -> dict[tuple, tuple[str, str | None]]:
    """In-process reference transcripts for the given choice sequences.

    Each sequence drives a plain :class:`QFESession` over the same inputs the
    service builds. Sequences sharing a prefix share its rounds: the reference
    session is forked (a deep copy of its captured state) where they diverge.
    Returns ``{choices: (transcript JSON, oracle error or None)}``.
    """
    database, result, _, candidates = workload_session_inputs(
        inputs.SERVICE_WORKLOAD, inputs.SERVICE_SCALE
    )
    join_cache = JoinCache()
    out: dict[tuple, tuple[str, str | None]] = {}

    def walk(session: QFESession, prefix: tuple, sequences: set) -> None:
        pending = session.propose()
        if pending is None:
            text = transcript_sha(session, inputs.SERVICE_WORKLOAD)[1]
            error = oracle_error(database, result, session.outcome.identified_query)
            for sequence in sequences:
                out[sequence] = (text, error) if sequence == prefix else (
                    "", f"session ended after {len(prefix)} rounds"
                )
            return
        branches: dict[int, set] = {}
        for sequence in sequences:
            if len(sequence) == len(prefix):
                out[sequence] = ("", f"session went on past {len(prefix)} rounds")
            else:
                branches.setdefault(sequence[len(prefix)], set()).add(sequence)
        for position, (choice, group) in enumerate(sorted(branches.items())):
            child = session
            if position < len(branches) - 1:
                child = QFESession.from_state(
                    database,
                    result,
                    copy.deepcopy(session.capture_state()),
                    join_cache=join_cache,
                )
            child.submit(choice)
            walk(child, prefix + (choice,), group)

    if wanted:
        root = QFESession(
            database, result, candidates=candidates, config=inputs.CONFIG, join_cache=join_cache
        )
        walk(root, (), wanted)
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(sessions: list[ServiceSession], book: TranscriptBook) -> None:
    """Compare every session with its in-process reference; records failures.

    The service's pair and the cycles' choice sequences are the same in every
    run, so a reference that passed its oracle check is remembered in the
    book and replayed once per checkout, not once per run.
    """

    def remembered(choices: tuple) -> str:
        return f"service-http:reference:{','.join(map(str, choices))}"

    ok = [run for run in sessions if run.error is None]
    sequences = {tuple(run.choices) for run in ok}
    missing = {choices for choices in sequences if remembered(choices) not in book.seen}
    for choices, (text, error) in replay(missing).items():
        if error is not None:
            for run in ok:
                if tuple(run.choices) == choices:
                    run.error = error
        else:
            book.seen[remembered(choices)] = _sha(text)
    for run in ok:
        if run.error is not None:
            continue
        sha = _sha(run.transcript)
        if sha != book.seen[remembered(tuple(run.choices))]:
            run.error = "service transcript differs from the in-process session"
        else:
            run.error = book.check(run.key, sha)


def run_workload(seed: int, cycles: int, work_dir: Path, trace_to: Path | None = None) -> dict:
    """Set up the server, run ``cycles`` cycles, stop the server, check every session."""
    book = TranscriptBook("service-http", seed, inputs.DEFAULT_SEED)
    start = time.perf_counter()
    server = Server(work_dir, trace_to)
    try:
        warm_up(server.port)
        setup_s = time.perf_counter() - start
        if trace_to is not None:
            server.process.send_signal(signal.SIGUSR1)  # arm the recorder
            time.sleep(0.2)
        sessions, wall = timed_phase(server.port, seed, cycles)
        metrics = None
        if trace_to is not None:
            conn = Connection(server.port)
            try:
                status, metrics, _ = conn.request("GET", "/metrics")
            finally:
                conn.close()
        peak_rss = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    check(sessions, book)
    book.save()
    return {
        "runs": sessions,
        "setup": [setup_s],
        "timed_s": wall,
        "peak_rss_mb": peak_rss,
        "service_metrics": metrics,
        "book": book,
    }
