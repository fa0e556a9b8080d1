"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest qfebench -q
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import QFEConfig

from qfebench import checks, inputs
from qfebench.inprocess import check, drive, guard
from qfebench.layers import HOOKS, Recorder, install, resolve, restore
from qfebench.service import ChoiceStream
from qfebench.stats import nearest_rank, summarize, tail_percentile


# ------------------------------------------------------------------ tail rule
@pytest.mark.parametrize(
    "count, percentile",
    [
        (1, None),
        (19, None),  # the median leaves only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, percentile):
    assert tail_percentile(count) == percentile


def test_tail_reads_nearest_rank_and_falls_back_to_median():
    samples = [float(value) for value in range(1, 101)]  # 1..100
    summary = summarize(samples)
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == nearest_rank(samples, 90.0) == 90.0
    assert sum(1 for value in samples if value > summary["tail"]) == 10

    few = [3.0, 1.0, 2.0, 10.0]
    summary = summarize(few)
    assert summary["tail_pct"] is None
    assert summary["tail"] == summary["p50"] == 2.5
    assert summary["n"] == 4


# ----------------------------------------------------------------- wrappers
def test_install_then_restore_leaves_every_patched_attribute_identical():
    before = {}
    for hook in HOOKS:
        owner, name = resolve(hook.target)
        before[(id(owner), name)] = (owner, name, vars(owner)[name])
    patches = install(Recorder())
    try:
        assert len(patches) == len(HOOKS)
        for owner, name, original in patches:
            assert vars(owner)[name] is not original
            assert vars(owner)[name].__wrapped__ is original
    finally:
        restore(patches)
    for owner, name, original in before.values():
        assert vars(owner)[name] is original


def test_truncation_guard_trips_under_tiny_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "SEEN_PATH", tmp_path / "seen.json")
    recorder = Recorder()
    item = inputs.paper_input(inputs.DEFAULT_SEED, 0, "Q5")
    patches = install(recorder)
    try:
        run, _ = drive(item, config=QFEConfig(delta_seconds=1e-9), recorder=recorder)
    finally:
        restore(patches)
    assert run.error is None
    assert recorder.layers["skyline"]["truncated_by_time"] >= 1
    guard(run, recorder)
    assert run.error == "skyline stopped at its wall-clock deadline"


def test_truncation_guard_passes_with_the_deadline_lifted(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "SEEN_PATH", tmp_path / "seen.json")
    recorder = Recorder()
    item = inputs.paper_input(inputs.DEFAULT_SEED, 0, "Q5")
    patches = install(recorder)
    try:
        run, _ = drive(item, recorder=recorder)
    finally:
        restore(patches)
    guard(run, recorder)
    assert run.error is None
    assert recorder.layers["skyline"]["truncated_by_time"] == 0


# -------------------------------------------------------------- seed plumbing
def input_digest(items: list[inputs.SessionInput]) -> str:
    """A sha256 over every input's rows and queries, for determinism checks."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(item.key.encode())
        for name in item.database.table_names:
            for row in item.database.relation(name):
                digest.update(repr(tuple(row)).encode())
        for row in item.result:
            digest.update(repr(tuple(row)).encode())
        for query in item.candidates or [item.target]:
            digest.update(repr(query.canonical_key()).encode())
    return digest.hexdigest()


def test_same_seed_same_inputs_and_second_seed_differs_but_passes(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "SEEN_PATH", tmp_path / "seen.json")
    first = [inputs.paper_input(7, 0, name) for name in inputs.PAPER_QUERIES]
    again = [inputs.paper_input(7, 0, name) for name in inputs.PAPER_QUERIES]
    assert input_digest(first) == input_digest(again)
    scenario = [inputs.scenario_input(7, 0, "star")]
    assert input_digest(scenario) == input_digest(
        [inputs.scenario_input(7, 0, "star")]
    )

    second = [inputs.paper_input(8, 0, name) for name in inputs.PAPER_QUERIES]
    assert input_digest(second) != input_digest(first)
    assert input_digest([inputs.scenario_input(8, 0, "star")]) != input_digest(
        scenario
    )

    # The second seed's D still passes every check, twice over.
    book = checks.TranscriptBook("interactive-paper", 8, inputs.DEFAULT_SEED)
    item = second[inputs.PAPER_QUERIES.index("Q5")]
    for _ in range(2):
        run, session = drive(item)
        check(item, run, session, book)
        assert run.error is None
    assert len(book.seen) == 1


def test_service_choice_streams_follow_the_seed():
    def picks(seed, index):
        stream = ChoiceStream(seed, index)
        return [stream.pick(count) for count in (2, 3, 2, 2, 4, 2)]

    assert picks(1, 0) == picks(1, 0)
    assert [picks(1, index) for index in range(6)] != [picks(2, index) for index in range(6)]
    # Consecutive sessions split the first round's options evenly.
    firsts = [ChoiceStream(1, index).pick(2) for index in range(20)]
    assert abs(firsts.count(0) - firsts.count(1)) <= 2


def test_transcript_book_flags_a_changed_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "SEEN_PATH", tmp_path / "seen.json")
    book = checks.TranscriptBook("w", 3, default_seed=1)
    assert book.check("0/Q1", "a" * 64) is None
    book.save()
    later = checks.TranscriptBook("w", 3, default_seed=1)
    assert later.check("0/Q1", "a" * 64) is None
    assert "differs" in later.check("0/Q1", "b" * 64)
