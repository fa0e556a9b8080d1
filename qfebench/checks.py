"""Output checks run on every session the benchmark drives."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.service.checkpoint import session_transcript, transcript_json
from repro.sql.sqlite_backend import SQLiteBackend

HERE = Path(__file__).resolve().parent
#: Canonical transcript hashes of the default seed, keyed ``workload:session``.
EXPECTED_PATH = HERE / "expected_transcripts.json"
#: Hashes seen by earlier runs in this checkout, keyed ``workload:seed:session``.
SEEN_PATH = HERE / "out" / "transcripts_seen.json"


def transcript_sha(session, workload: str) -> tuple[str, str]:
    """``(sha256, canonical JSON)`` of a session's canonical transcript."""
    text = transcript_json(session_transcript(session, workload=workload))
    return hashlib.sha256(text.encode()).hexdigest(), text


def oracle_error(database: Database, result: Relation, query: SPJQuery | None) -> str | None:
    """Why the identified query fails to reproduce ``R`` on SQLite, or ``None``."""
    if query is None:
        return "session identified no query"
    with SQLiteBackend(database) as backend:
        reproduced = backend.execute(query)
    if not reproduced.bag_equal(result):
        return f"identified query gives {len(reproduced)} rows on SQLite, R has {len(result)}"
    return None


class TranscriptBook:
    """Checks that every repeat of a (workload, seed, session) hashes alike.

    Repeats within a run and across runs in the same checkout are compared
    through a small JSON file; the default seed is also compared with the
    hashes recorded in the benchmark's files.
    """

    def __init__(self, workload: str, seed: int, default_seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seen = _load(SEEN_PATH)
        self.expected = _load(EXPECTED_PATH) if seed == default_seed else {}
        self.observed: dict[str, str] = {}

    def check(self, session_key: str, sha: str) -> str | None:
        """Record ``sha`` for ``session_key``; the mismatch found, or ``None``."""
        seen_key = f"{self.workload}:{self.seed}:{session_key}"
        expected_key = f"{self.workload}:{session_key}"
        self.observed[expected_key] = sha
        previous = self.seen.setdefault(seen_key, sha)
        if previous != sha:
            return f"transcript {sha[:12]} differs from an earlier repeat's {previous[:12]}"
        recorded = self.expected.get(expected_key)
        if recorded is not None and recorded != sha:
            return f"transcript {sha[:12]} differs from the recorded {recorded[:12]}"
        return None

    def save(self, *, record: bool = False) -> None:
        """Persist the seen hashes (and, with ``record``, the expected ones)."""
        _store(SEEN_PATH, self.seen)
        if record:
            expected = _load(EXPECTED_PATH)
            expected.update(self.observed)
            _store(EXPECTED_PATH, expected)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _store(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(temporary, path)
