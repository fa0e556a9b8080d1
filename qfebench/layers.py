"""Per-layer tracing from outside the program: timing wrappers and the ledger.

The benchmark never edits ``src/``. Instead :func:`install` replaces each
layer's public function with a timing wrapper at the name where callers look
it up (a module attribute such as ``repro.core.round_planner.
skyline_stc_dtc_pairs``, or a method on its class), and :func:`restore` puts
the original objects back. Every call becomes a span — name, start, end,
parent span, session and round — kept in memory by a :class:`Recorder` and
written out at the end of the run.

A layer's *self* time is its span's duration minus the part covered by its
child spans. The ledger attributes round wall-clock (the ``round`` spans, one
per ``QFESession.propose``) to layers by self time; what the root ``round``
span keeps for itself is the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


def _len_first(result, args, kwargs) -> dict:
    return {"candidates": len(result[0])}


def _skyline_counts(result, args, kwargs) -> dict:
    return {
        "enumerated_pairs": result.enumerated_pairs,
        "pairs": len(result.pairs),
        "truncated_by_time": int(result.truncated_by_time),
        "truncated_by_cap": int(result.truncated_by_cap),
    }


def _search_counts(result, args, kwargs) -> dict:
    return {
        "attempts": len(result),
        "wins": sum(1 for outcome in result if outcome.applied and outcome.distinguishes),
    }


def _present_counts(result, args, kwargs) -> dict:
    return {"result_rows": sum(len(option.result) for option in result.options)}


def _session_of(args, kwargs) -> str | None:
    # SessionManager.get_round / submit_choice(self, session_id, ...)
    return kwargs.get("session_id", args[1] if len(args) > 1 else None)


@dataclass(frozen=True)
class Hook:
    """One traced public function: where it is looked up and what it counts."""

    target: str  # "module:attr" or "module:Class.attr"
    layer: str
    counts: Callable[[Any, tuple, dict], dict] | None = None
    #: Called many thousands of times a round: aggregated, not kept per call.
    hot: bool = False
    session: Callable[[tuple, dict], str | None] | None = None


HOOKS: tuple[Hook, ...] = (
    Hook(
        "repro.core.session:QFESession.propose",
        "round",
        lambda result, args, kwargs: {"shown": int(result is not None)},
    ),
    Hook("repro.core.session:QFESession.submit", "submit"),
    Hook("repro.experiments.runner:prepare_candidates", "qbo", _len_first),
    Hook("repro.relational.evaluator:JoinCache.join_for", "join.build"),
    Hook("repro.relational.evaluator:JoinCache.derive", "join.derive"),
    Hook(
        "repro.core.tuple_class:TupleClassSpace.__init__",
        "tuple_class",
        lambda result, args, kwargs: {"classes": len(args[0].source_tuple_classes())},
    ),
    Hook("repro.core.round_planner:skyline_stc_dtc_pairs", "skyline", _skyline_counts),
    Hook("repro.core.modification:PairSetSimulator.effect", "modification.effect", hot=True),
    Hook(
        "repro.core.round_planner:pick_stc_dtc_subset",
        "subset",
        lambda result, args, kwargs: {"sets_evaluated": result.sets_evaluated},
    ),
    Hook("repro.core.round_planner:RoundPlanner.execute", "search", _search_counts),
    Hook(
        "repro.core.execution_backend:materialize_pairs",
        "materialize",
        lambda result, args, kwargs: {"modified_tuples": result.modified_tuple_count},
    ),
    Hook(
        "repro.core.round_planner:materialize_pairs",
        "materialize",
        lambda result, args, kwargs: {"modified_tuples": result.modified_tuple_count},
    ),
    Hook("repro.core.execution_backend:partition_signature", "partition"),
    Hook("repro.core.round_planner:partition_from_batch", "partition"),
    Hook("repro.core.round_planner:partition_queries", "partition"),
    Hook("repro.core.session:build_feedback_round", "present", _present_counts),
    Hook("repro.relational.delta:min_edit_script", "present.min_edit"),
    Hook(
        "repro.service.manager:capture_checkpoint",
        "checkpoint.capture",
        lambda result, args, kwargs: {"bytes": len(result)},
    ),
    Hook(
        "repro.service.store:FileSessionStore.put",
        "store.put",
        lambda result, args, kwargs: {"bytes_written": len(args[2])},
    ),
    # The service process fsyncs only in the checkpoint store.
    Hook("os:fsync", "store.fsync"),
    Hook("repro.service.manager:SessionManager.create_session", "manager.create"),
    Hook("repro.service.manager:SessionManager.get_round", "manager.round", session=_session_of),
    Hook(
        "repro.service.manager:SessionManager.submit_choice",
        "manager.choice",
        session=_session_of,
    ),
)


def resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute name)`` for a hook target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Recorder:
    """Thread-safe in-memory span store with per-layer aggregates."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: layer -> {"calls", "total_s", "self_s", counts...}
        self.layers: dict[str, dict[str, float]] = {}
        #: Sessions whose skyline stopped at the wall-clock deadline.
        self.truncated_sessions: set[str] = set()
        #: Off, calls pass straight through (the service arms it after warm-up).
        self.enabled = True
        #: Default span tags (session, round), set by an in-process driver.
        self.session: str | None = None
        self.round: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, hook: Hook, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` inside a span for ``hook.layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if hook.hot:
            return self._call_hot(hook, fn, args, kwargs, parent)
        session = hook.session(args, kwargs) if hook.session is not None else None
        if session is None:
            session = parent["session"] if parent is not None else self.session
        frame = {
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "session": session,
            "round": parent["round"] if parent is not None else self.round,
            "children_s": 0.0,
        }
        stack.append(frame)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent["children_s"] += duration
            counts = hook.counts(result, args, kwargs) if ok and hook.counts else {}
            self._finish(hook, frame, start, end, duration, counts, ok)

    def _call_hot(self, hook: Hook, fn: Callable, args: tuple, kwargs: dict, parent):
        # A leaf called ~10^5 times a round: timed into the aggregate and the
        # parent's child time only, with no span of its own.
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            if parent is not None:
                parent["children_s"] += duration
            with self._lock:
                layer = self.layers.get(hook.layer)
                if layer is None:
                    layer = self.layers[hook.layer] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                layer["calls"] += 1
                layer["total_s"] += duration
                layer["self_s"] += duration

    def _finish(self, hook, frame, start, end, duration, counts, ok) -> None:
        with self._lock:
            layer = self.layers.setdefault(
                hook.layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            layer["calls"] += 1
            layer["total_s"] += duration
            layer["self_s"] += duration - frame["children_s"]
            for key, value in counts.items():
                layer[key] = layer.get(key, 0) + value
            if counts.get("truncated_by_time"):
                self.truncated_sessions.add(str(frame["session"]))
            self.spans.append(
                {
                    "name": hook.layer,
                    "id": frame["id"],
                    "parent": frame["parent"],
                    "start": start,
                    "end": end,
                    "session": frame["session"],
                    "round": frame["round"],
                    "ok": ok,
                    **counts,
                }
            )

    def add(self, layer: str, key: str, value: float) -> None:
        """Add ``value`` to a per-layer count measured outside any span."""
        with self._lock:
            entry = self.layers.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry[key] = entry.get(key, 0) + value

    # ------------------------------------------------------------------ output
    def dump(self, path, **extra) -> None:
        """Write the spans, per-layer aggregates and ``extra`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "layers": self.layers,
                    "truncated_sessions": sorted(self.truncated_sessions),
                    **extra,
                },
                handle,
            )


def install(recorder: Recorder, hooks: tuple[Hook, ...] = HOOKS) -> list[tuple]:
    """Wrap every hook's target; returns the patch list :func:`restore` undoes.

    Targets whose module or attribute is missing are skipped, so the same hook
    table serves the in-process driver and the service process.
    """
    patches: list[tuple] = []
    for hook in hooks:
        try:
            owner, name = resolve(hook.target)
            original = vars(owner)[name]
        except (ImportError, AttributeError, KeyError):
            continue

        def wrapper(*args, __fn=original, __hook=hook, **kwargs):
            return recorder.call(__hook, __fn, args, kwargs)

        functools.update_wrapper(wrapper, original)
        setattr(owner, name, wrapper)
        patches.append((owner, name, original))
    return patches


def restore(patches: list[tuple]) -> None:
    """Put back every original object :func:`install` replaced."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


# ------------------------------------------------------------------- ledger
#: Layers in ledger order; service layers read zero in process.
LEDGER_LAYERS = (
    "qbo",
    "join.build",
    "join.derive",
    "tuple_class",
    "skyline",
    "modification.effect",
    "subset",
    "search",
    "materialize",
    "partition",
    "present",
    "present.min_edit",
    "submit",
    "manager.create",
    "manager.round",
    "manager.choice",
    "checkpoint.capture",
    "store.put",
    "store.fsync",
)


def ledger_rows(layers: dict[str, dict]) -> tuple[list[dict], dict]:
    """Per-layer rows plus the round totals they are shares of."""
    round_total = layers.get("round", {}).get("total_s", 0.0)
    round_self = layers.get("round", {}).get("self_s", 0.0)
    rows = []
    for name in LEDGER_LAYERS:
        layer = layers.get(name)
        if not layer:
            continue
        counts = {
            key: value
            for key, value in layer.items()
            if key not in ("calls", "total_s", "self_s")
        }
        rows.append(
            {
                "layer": name,
                "calls": layer["calls"],
                "total_s": layer["total_s"],
                "self_s": layer["self_s"],
                "share": layer["self_s"] / round_total if round_total else 0.0,
                "counts": counts,
            }
        )
    totals = {
        "round_s": round_total,
        "rounds": layers.get("round", {}).get("shown", 0),
        "unattributed_s": round_self,
        "attributed_share": 1.0 - round_self / round_total if round_total else 0.0,
    }
    return rows, totals


def format_ledger(workload: str, rows: list[dict], totals: dict, overhead: dict) -> str:
    """The human-readable ledger table."""
    lines = [
        f"# ledger {workload}: {totals['rounds']} rounds, "
        f"round wall-clock {totals['round_s']:.3f} s",
        f"# {'layer':<20} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}  counts",
    ]
    for row in rows:
        counts = " ".join(f"{key}={value:g}" for key, value in sorted(row["counts"].items()))
        lines.append(
            f"# {row['layer']:<20} {row['calls']:>9} {row['total_s']:>10.3f} "
            f"{row['self_s']:>10.3f} {row['share']:>6.1%}  {counts}"
        )
    lines.append(
        f"# {'unattributed':<20} {'':>9} {'':>10} {totals['unattributed_s']:>10.3f} "
        f"{1.0 - totals['attributed_share']:>6.1%}"
    )
    lines.append(
        f"# attributed {totals['attributed_share']:.1%} of round wall-clock; tracing overhead "
        f"{overhead['overhead_s']:+.3f} s over {overhead['pairs']} paired sessions "
        f"(traced {overhead['traced_s']:.3f} s, untraced {overhead['untraced_s']:.3f} s)"
    )
    return "\n".join(lines)
