"""Benchmark inputs, all derived from the one ``--seed``.

A run works through a fixed number of *instances* 0, 1, 2, ..., sized by
:func:`units` so that the run takes about ``--seconds``. Instance ``k`` of a
run with seed ``s`` builds its databases from the derived seed
:func:`instance_seed` ``(s, k)``, so one run averages over several distinct
databases and the same seed always yields the same inputs. The amount of work
is fixed rather than the time: a faster program runs the same sessions in less
time, so two commits are compared on identical inputs. The service users'
choices come from the same seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.config import QFEConfig
from repro.datasets import baseball, scientific
from repro.qbo.mutation import expand_candidate_set
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache, evaluate
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.scenarios.catalog import get_scenario
from repro.scenarios.generator import scenario_database, scenario_queries
from repro.workloads.paper_queries import WORKLOADS

#: The default QFEConfig with the skyline's wall-clock deadline lifted far
#: beyond any round, as the scenario sweep does: a deadline-bound skyline turns
#: a speed-up into a different transcript instead of a shorter time.
CONFIG = QFEConfig(delta_seconds=3600.0)

#: Seed whose transcript hashes are recorded in ``expected_transcripts.json``.
DEFAULT_SEED = 1

PAPER_QUERIES = ("Q1", "Q2", "Q3", "Q5")
PAPER_SCALE = 0.02
PAPER_CANDIDATES = 12

SCENARIO_PRESETS = ("chain", "star", "mixed")
SCENARIO_SCALE = 20.0
SCENARIO_CANDIDATES = 8
#: The scenario queries are the workload and stay fixed; the seed draws the
#: rows. Query stream 2 gives R between 400 and 3,000 rows on every preset at
#: scale 20 (chain about 2,800, star about 480, mixed about 1,500). Seeding the
#: queries too would swing R between 120 and 3,000 rows from seed to seed.
SCENARIO_QUERY_SEED = 2

#: Seconds one instance (or service cycle) counts for when sizing a run. The
#: paper workload runs three instances in 30 s: its datasets are tiny, so the
#: time to first round moves with the seed, and two instances left a spread of
#: a quarter between seeds.
UNIT_SECONDS = {"interactive-paper": 10.0, "large-result": 15.0, "service-http": 15.0}

SERVICE_WORKLOAD = "Q3"
SERVICE_SCALE = 0.02


@dataclass
class SessionInput:
    """One session's inputs: ``(D, R)``, the target and, if fixed, candidates.

    ``candidates`` is ``None`` when the session generates its own through
    QBO (the paper workload); that generation is then part of the session's
    time to first round.
    """

    key: str
    database: Database
    result: Relation
    target: SPJQuery
    candidates: list[SPJQuery] | None = None


def units(workload: str, seconds: float) -> int:
    """How many instances (or service cycles) a run of ``seconds`` drives."""
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def instance_seed(seed: int, instance: int) -> int:
    """The dataset seed of instance ``instance`` of a run seeded ``seed``."""
    digest = hashlib.sha256(f"qfebench:{seed}:{instance}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def paper_input(seed: int, instance: int, name: str) -> SessionInput:
    """One ``interactive-paper`` pair: a paper query on its dataset at scale 0.02."""
    workload = WORKLOADS[name]
    builder = {"scientific": scientific.build_database, "baseball": baseball.build_database}[
        workload.dataset
    ]
    database = builder(PAPER_SCALE, seed=instance_seed(seed, instance))
    result = evaluate(workload.target_query, database, name="R")
    return SessionInput(f"{instance}/{name}", database, result, workload.target_query)


def scenario_input(seed: int, instance: int, preset: str) -> SessionInput:
    """One ``large-result`` pair: a scenario preset at scale 20 and its candidates.

    The candidates are the scenario's queries padded by constant mutation to
    about eight, as the scenario sweep builds them; the first query is the
    target, as in :class:`~repro.scenarios.generator.GeneratedScenario`.
    """
    spec = get_scenario(preset)
    database = scenario_database(spec, SCENARIO_SCALE, instance_seed(seed, instance))
    queries = list(scenario_queries(spec, SCENARIO_QUERY_SEED))
    cache = JoinCache()
    result = cache.evaluate(queries[0], database, name="R")
    candidates = expand_candidate_set(
        database, result, queries, SCENARIO_CANDIDATES, join_cache=cache
    )
    return SessionInput(f"{instance}/{preset}", database, result, queries[0], candidates)
