"""The in-process workloads: one simulated user in a closed loop, zero think time.

``interactive-paper`` generates candidates through QBO inside each session;
``large-result`` hands the session the scenario's padded candidate set. In
both, the user always picks the worst case (the option backed by the most
candidates), the paper's automated feedback.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from dataclasses import dataclass, field

from repro.core.feedback import WorstCaseSelector
from repro.core.session import QFESession
from repro.experiments import runner
from repro.relational.join import JOIN_STATS

from qfebench import inputs
from qfebench.checks import TranscriptBook, oracle_error, transcript_sha
from qfebench.layers import Recorder, install, restore


@dataclass
class SessionRun:
    """The timings of one driven session and its outcome."""

    key: str
    first_round_s: float | None = None
    round_s: list[float] = field(default_factory=list)
    converge_s: float | None = None
    error: str | None = None

    @property
    def rounds(self) -> int:
        return len(self.round_s)


def drive(item: inputs.SessionInput, *, config=inputs.CONFIG, recorder: Recorder | None = None):
    """Run one session from ``(D, R)`` to its end; returns ``(SessionRun, session)``.

    The clock starts before candidate generation when the input has no fixed
    candidates, so QBO counts toward the time to first round.
    """
    run = SessionRun(item.key)
    if recorder is not None:
        recorder.session, recorder.round = item.key, 0
    session = None
    full_joins = JOIN_STATS.full_joins
    start = time.perf_counter()
    try:
        candidates = item.candidates
        if candidates is None:
            candidates, _ = runner.prepare_candidates(
                item.database,
                item.result,
                item.target,
                candidate_count=inputs.PAPER_CANDIDATES,
            )
        session = QFESession(item.database, item.result, candidates=candidates, config=config)
        selector = WorstCaseSelector()
        while True:
            if recorder is not None:
                recorder.round = run.rounds + 1
            before = time.perf_counter()
            pending = session.propose()
            after = time.perf_counter()
            if pending is None:
                break
            run.round_s.append(after - before)
            if run.first_round_s is None:
                run.first_round_s = after - start
            session.submit(selector.select(pending.round, pending.partition))
        run.converge_s = time.perf_counter() - start
    except Exception as exc:  # a failed session is counted, not fatal
        run.error = f"{type(exc).__name__}: {exc}"
    finally:
        if recorder is not None:
            recorder.session = recorder.round = None
            recorder.add("join.build", "full_joins", JOIN_STATS.full_joins - full_joins)
    return run, session


def check(item: inputs.SessionInput, run: SessionRun, session, book: TranscriptBook) -> None:
    """Run the output checks on a finished session; records the first failure."""
    if run.error is not None:
        return
    sha, _ = transcript_sha(session, book.workload)
    run.error = book.check(item.key, sha) or oracle_error(
        item.database, item.result, session.outcome.identified_query
    )


def guard(run: SessionRun, recorder: Recorder) -> None:
    """Fail a session whose skyline stopped at its wall-clock deadline.

    Such a transcript depends on the clock, so a speed change would show as a
    different transcript instead of a different time.
    """
    if run.key in recorder.truncated_sessions and run.error is None:
        run.error = "skyline stopped at its wall-clock deadline"


def pair_builders(workload: str, seed: int, instance: int) -> list:
    """Zero-argument builders of the instance's session inputs, in session order."""
    if workload == "interactive-paper":
        return [
            functools.partial(inputs.paper_input, seed, instance, name)
            for name in inputs.PAPER_QUERIES
        ]
    return [
        functools.partial(inputs.scenario_input, seed, instance, preset)
        for preset in inputs.SCENARIO_PRESETS
    ]


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS (``VmHWM``) count for this process."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak RSS (``VmHWM``) in MB, since start or the last reset."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def run_workload(workload: str, seed: int, instances: int, recorder: Recorder | None = None) -> dict:
    """Drive ``instances`` whole instances of the workload.

    Each pair is set up right before its session and dropped after its
    checks, with a full garbage collection before the clock starts, so every
    session starts from the same heap: its own inputs and nothing else.

    With a ``recorder`` (the traced run) every session runs twice, untraced
    and traced in alternating order, so the difference is the tracing
    overhead; the wrappers are installed only around the traced copy.
    """
    book = TranscriptBook(workload, seed, inputs.DEFAULT_SEED)
    runs: list[SessionRun] = []
    setup: list[float] = []
    peaks: list[float] = []
    paired = {"traced_s": 0.0, "untraced_s": 0.0, "pairs": 0}
    for instance in range(instances):
        instance_setup = 0.0
        for position, build in enumerate(pair_builders(workload, seed, instance)):
            start = time.perf_counter()
            item = build()
            instance_setup += time.perf_counter() - start
            copies = [False]
            if recorder is not None:
                traced_first = (instance + position) % 2 == 1
                copies = [traced_first, not traced_first]
            timed = {}
            for traced in copies:
                gc.collect()
                reset_peak_rss()
                patches = install(recorder) if traced else []
                try:
                    run, session = drive(item, recorder=recorder if traced else None)
                finally:
                    restore(patches)
                peak = peak_rss_mb()
                check(item, run, session, book)
                if recorder is not None:
                    guard(run, recorder)
                del session
                timed[traced] = run
            run = timed[recorder is not None]
            runs.append(run)
            peaks.append(peak)
            if recorder is not None and all(r.converge_s is not None for r in timed.values()):
                paired["traced_s"] += timed[True].converge_s
                paired["untraced_s"] += timed[False].converge_s
                paired["pairs"] += 1
        setup.append(instance_setup)
    book.save()
    paired["overhead_s"] = paired["traced_s"] - paired["untraced_s"]
    return {
        "runs": runs,
        "setup": setup,
        "timed_s": sum(run.converge_s or 0.0 for run in runs),
        "peak_rss_mb": statistics.mean(peaks),
        "overhead": paired,
        "book": book,
    }
