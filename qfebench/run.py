"""QFE interaction benchmark: one command, three workloads, every metric by name.

Usage (from the repository root)::

    python3 qfebench/run.py --workload interactive-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` is the separate traced run: it installs the per-layer timing
wrappers, prints the per-layer ledger and reports the per-layer metrics. Human
readable lines start with ``#``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("interactive-paper", "large-result", "service-http")

#: Reported with --trace 0 and gated by BENCHMARK.json. Timings are gated on
#: their per-run mean: a run mixes sessions of different queries, and the
#: median of such a mix jumps between them from seed to seed while the mean
#: moves smoothly. Every timing's p50 and tail are printed on the ``#`` lines.
END_TO_END = (
    ("setup_s", "s"),
    ("first_round_s.mean", "s"),
    ("round_s.mean", "s"),
    ("converge_s.mean", "s"),
    ("sessions_per_s", "1/s"),
    ("rounds_per_session", "count"),
    ("peak_rss_mb", "MB"),
)

#: Reported with --trace 1: per-session means unless the name says otherwise.
PER_LAYER_UNITS = {
    "qbo.generate_s": "s",
    "qbo.candidates": "count",
    "join.build_s": "s",
    "join.full_joins": "count",
    "join.derive_s": "s",
    "join.derives": "count",
    "tuple_class.build_s": "s",
    "tuple_class.classes": "count",
    "skyline.s": "s",
    "skyline.enumerated_pairs": "count",
    "skyline.pairs": "count",
    "skyline.truncated_by_time": "count",
    "skyline.truncated_by_cap": "count",
    "modification.effect_calls": "count",
    "modification.effect_s": "s",
    "subset.s": "s",
    "subset.sets_evaluated": "count",
    "search.s": "s",
    "search.attempts": "count",
    "search.useful_ratio": "ratio",
    "materialize.s": "s",
    "materialize.modified_tuples": "count",
    "partition.s": "s",
    "present.s": "s",
    "present.min_edit_s": "s",
    "present.result_rows": "count",
    "checkpoint.capture_s": "s",
    "checkpoint.bytes": "bytes",
    "store.put_s": "s",
    "store.fsyncs": "count",
    "store.bytes_written": "bytes",
    "manager.create_s": "s",
    "manager.round_s": "s",
    "manager.lock_wait_s": "s",
    "http.overhead_s": "s",
    "round.s": "s",
    "ledger.attributed_share": "ratio",
    "ledger.unattributed_s": "s",
    "tracing.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's transcript hashes as the expected ones (default seed only)",
    )
    return parser.parse_args(argv)


def timing_lines(name: str, samples: list[float]) -> list[str]:
    from qfebench.stats import summarize

    summary = summarize(samples)
    if not summary["n"]:
        return [f"# {name:<16} no samples"]
    if summary["tail_pct"] is None:
        tail = f"tail n/a (fewer than {2 * 10} samples; repeats p50)"
    else:
        tail = f"{name}.tail = {summary['tail']:.4f} s at p{summary['tail_pct']:g}"
    return [
        f"# {name}.p50 = {summary['p50']:.4f} s   {tail}   "
        f"mean {statistics.fmean(samples):.4f} s   n={summary['n']}"
    ]


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """The gated metrics plus the ``#`` lines that print every timing."""
    ok = [run for run in result["runs"] if run.error is None]
    first = [run.first_round_s for run in ok if run.first_round_s is not None]
    rounds = [seconds for run in ok for seconds in run.round_s]
    converge = [run.converge_s for run in ok]
    lines = timing_lines("first_round_s", first) + timing_lines("round_s", rounds)
    if ok and hasattr(ok[0], "choice_s"):
        lines += timing_lines("choice_s", [s for run in ok for s in run.choice_s])
        lines += timing_lines("create_s", [run.create_s for run in ok])
    lines += timing_lines("converge_s", converge)
    values = {
        "setup_s": statistics.median(result["setup"]),
        "first_round_s.mean": statistics.fmean(first) if first else 0.0,
        "round_s.mean": statistics.fmean(rounds) if rounds else 0.0,
        "converge_s.mean": statistics.fmean(converge) if converge else 0.0,
        "sessions_per_s": len(ok) / result["timed_s"] if result["timed_s"] else 0.0,
        "rounds_per_session": len(rounds) / len(ok) if ok else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines.append(
        f"# setup_s = {values['setup_s']:.4f} s (median of {len(result['setup'])} set-ups)"
    )
    for name in ("sessions_per_s", "rounds_per_session", "peak_rss_mb"):
        lines.append(f"# {name} = {values[name]:.4f} {dict(END_TO_END)[name]}")
    return values, lines


def per_layer(layers: dict, sessions: int, overhead: dict, http_overhead_s: float) -> dict:
    """The per-layer metrics from the recorder's aggregates."""
    from qfebench.layers import ledger_rows

    def get(layer: str, key: str = "total_s") -> float:
        return layers.get(layer, {}).get(key, 0)

    n = max(sessions, 1)
    _, totals = ledger_rows(layers)
    attempts = get("search", "attempts")
    values = {
        "qbo.generate_s": get("qbo") / n,
        "qbo.candidates": get("qbo", "candidates") / n,
        "join.build_s": get("join.build") / n,
        "join.full_joins": get("join.build", "full_joins") / n,
        "join.derive_s": get("join.derive") / n,
        "join.derives": get("join.derive", "calls") / n,
        "tuple_class.build_s": get("tuple_class") / n,
        "tuple_class.classes": get("tuple_class", "classes") / n,
        "skyline.s": get("skyline") / n,
        "skyline.enumerated_pairs": get("skyline", "enumerated_pairs") / n,
        "skyline.pairs": get("skyline", "pairs") / n,
        # Totals, not means: any non-zero value is a finding.
        "skyline.truncated_by_time": get("skyline", "truncated_by_time"),
        "skyline.truncated_by_cap": get("skyline", "truncated_by_cap"),
        "modification.effect_calls": get("modification.effect", "calls") / n,
        "modification.effect_s": get("modification.effect") / n,
        "subset.s": get("subset") / n,
        "subset.sets_evaluated": get("subset", "sets_evaluated") / n,
        "search.s": get("search") / n,
        "search.attempts": attempts / n,
        "search.useful_ratio": get("search", "wins") / attempts if attempts else 0.0,
        "materialize.s": get("materialize") / n,
        "materialize.modified_tuples": get("materialize", "modified_tuples") / n,
        "partition.s": get("partition") / n,
        "present.s": get("present") / n,
        "present.min_edit_s": get("present.min_edit") / n,
        "present.result_rows": get("present", "result_rows") / n,
        "checkpoint.capture_s": get("checkpoint.capture") / n,
        "checkpoint.bytes": get("checkpoint.capture", "bytes") / n,
        "store.put_s": get("store.put") / n,
        "store.fsyncs": get("store.fsync", "calls") / n,
        "store.bytes_written": get("store.put", "bytes_written") / n,
        "manager.create_s": get("manager.create") / n,
        "manager.round_s": get("manager.round") / n,
        "manager.lock_wait_s": (
            get("manager.round", "self_s") + get("manager.choice", "self_s")
        ) / n,
        "http.overhead_s": http_overhead_s / n,
        "round.s": totals["round_s"] / n,
        "ledger.attributed_share": totals["attributed_share"],
        "ledger.unattributed_s": totals["unattributed_s"] / n,
        "tracing.overhead_s": overhead["overhead_s"] / max(overhead["pairs"], 1),
    }
    return values


def run_inprocess(args, out_dir: Path) -> tuple[dict, dict | None]:
    from qfebench import inputs
    from qfebench.inprocess import run_workload
    from qfebench.layers import Recorder

    instances = inputs.units(args.workload, args.seconds)
    if not args.trace:
        return run_workload(args.workload, args.seed, instances), None
    recorder = Recorder()
    result = run_workload(args.workload, args.seed, instances, recorder)
    recorder.dump(out_dir / f"spans-{args.workload}.json")
    return result, {"layers": recorder.layers, "http_overhead_s": 0.0, "counters": {}}


def run_service(args, out_dir: Path) -> tuple[dict, dict | None]:
    from qfebench import inputs, service

    work_dir = out_dir / "service"
    work_dir.mkdir(parents=True, exist_ok=True)
    cycles = inputs.units(args.workload, args.seconds)
    if not args.trace:
        return service.run_workload(args.seed, cycles, work_dir), None
    # Untraced and traced halves run the same session numbers, hence the
    # same choices, so their difference is the tracing overhead.
    half = max(1, cycles // 2)
    untraced = service.run_workload(args.seed, half, work_dir)
    trace_file = work_dir / "spans.json"
    traced = service.run_workload(args.seed, half, work_dir, trace_file)
    dump = json.loads(trace_file.read_text(encoding="utf-8"))
    layers = dump["layers"]
    layers.setdefault("join.build", {"calls": 0, "total_s": 0.0, "self_s": 0.0})[
        "full_joins"
    ] = dump["full_joins"]
    manager_s = sum(
        layers.get(name, {}).get("total_s", 0.0)
        for name in ("manager.create", "manager.round", "manager.choice")
    )
    ok = [run for run in traced["runs"] if run.error is None]
    baseline = {run.index: run for run in untraced["runs"] if run.error is None}
    pairs = [(run, baseline[run.index]) for run in ok if run.index in baseline]
    traced["overhead"] = {
        "pairs": len(pairs),
        "traced_s": sum(run.converge_s for run, _ in pairs),
        "untraced_s": sum(base.converge_s for _, base in pairs),
    }
    traced["overhead"]["overhead_s"] = (
        traced["overhead"]["traced_s"] - traced["overhead"]["untraced_s"]
    )
    traced["runs"] = untraced["runs"] + traced["runs"]
    traced["traced_sessions"] = len(ok)
    http_overhead = sum(run.request_s for run in ok) - manager_s
    truncated = set(dump["truncated_sessions"])
    for run in ok:
        if run.session_id in truncated:
            run.error = "skyline stopped at its wall-clock deadline"
    counters = {
        key: value
        for key, value in (traced["service_metrics"] or {}).items()
        if isinstance(value, (int, float))
    }
    return traced, {"layers": layers, "http_overhead_s": http_overhead, "counters": counters}


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds, so the service's server process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no QFE sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from qfebench import inputs
    from qfebench.layers import format_ledger, ledger_rows

    out_dir = ROOT / "qfebench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "service-http":
        result, trace = run_service(args, out_dir)
    else:
        result, trace = run_inprocess(args, out_dir)

    runs = result["runs"]
    failed = [run for run in runs if run.error is not None]
    print(
        f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(runs)} sessions, {len(failed)} failed"
    )
    for run in failed:
        print(f"# FAILED {run.key}: {run.error}")
    if trace is None:
        metrics, lines = end_to_end(result)
        units = dict(END_TO_END)
    else:
        sessions = result.get("traced_sessions", len(runs))
        metrics = per_layer(trace["layers"], sessions, result["overhead"], trace["http_overhead_s"])
        rows, totals = ledger_rows(trace["layers"])
        lines = format_ledger(args.workload, rows, totals, result["overhead"]).splitlines()
        if trace["counters"]:
            lines.append(
                "# service /metrics: "
                + " ".join(f"{key}={value:g}" for key, value in sorted(trace["counters"].items()))
            )
        units = PER_LAYER_UNITS
        (out_dir / f"ledger-{args.workload}.json").write_text(
            json.dumps({"rows": rows, "totals": totals, "overhead": result["overhead"]}, indent=1),
            encoding="utf-8",
        )
    print("\n".join(lines))
    if args.record and args.seed == inputs.DEFAULT_SEED:
        result["book"].save(record=True)
    print(
        json.dumps(
            {
                "correct": not failed and bool(runs),
                "attempted": max(len(runs), 1),
                "failed": len(failed) if runs else 1,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
