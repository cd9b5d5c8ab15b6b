#!/usr/bin/env python3
"""Benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload replay-elastic --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

One run sets up its inputs several times (the median is ``setup_s``),
then repeats *lean* passes (no telemetry, no profiler) until
``--seconds`` have passed, then makes one *probed* pass over all the
inputs with the cycle ledger attached (``--trace 1`` adds cProfile).
A workload's input is made of independent parts (load streams,
episodes, experiments, AES rounds); each lean pass times one part,
cycling through them (every part at least twice), and ``host_s`` is
the sum over parts of each part's median time, so it does not depend
on how many passes fit in the window.  Simulated
metrics come from the probed pass; every run of a part must produce the
same simulated digest, which shows that the probe does not perturb the
simulation.  The last line of standard output is one JSON
object: ``end_to_end`` metrics with ``--trace 0``, ``per_layer`` metrics
with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (  # noqa: E402
    digest,
    median,
    peak_rss_mb,
    percentile,
    purge_repro_modules,
    tail_percentile,
)
from probe import PACKAGES, Probe  # noqa: E402
from workloads import PAPER_EXPERIMENTS, WORKLOADS  # noqa: E402

#: Set-up runs at least this many times, and until this many seconds
#: have passed (the median is ``setup_s``).
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
MIN_PASSES_PER_PART = 2

#: name → unit, for the metrics a ``--trace 0`` run reports.
END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim_p50_kcycles": "kcycles",
    "sim_p99_kcycles": "kcycles",
    "sim_mcycles_per_req": "Mcycles/req",
}

#: name → unit, for the metrics a ``--trace 1`` run reports.  Host self
#: time is a share of the profiled pass: a layer a workload never runs
#: would otherwise read exactly 0 s on every run.
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_req": "count/req",
    "sim.timers_pushed": "count",
    "sim.timers_cancelled": "count",
    "sim.ns_per_event": "ns",
    "sim.self_share": "ratio",
    "zc.switchless_frac": "ratio",
    "cycles.worker_spin": "cycles/req",
    "core.self_share": "ratio",
    "core.calls": "count",
    "cycles.caller_spin": "cycles/req",
    "switchless.self_share": "ratio",
    "sgx.ocall_exits_per_req": "count/req",
    "cycles.transition": "cycles/req",
    "cycles.marshal": "cycles/req",
    "sgx.self_share": "ratio",
    "app.kv.p99_kcycles": "kcycles",
    "app.session.p99_kcycles": "kcycles",
    "app.crypto.p99_kcycles": "kcycles",
    "cycles.app": "cycles/req",
    "cycles.host_exec": "cycles/req",
    "apps.self_share": "ratio",
    "hostos.self_share": "ratio",
    "crypto.self_share": "ratio",
    "crypto.kib_per_host_s": "KiB/s",
    "serve.queue_kcycles.p50": "kcycles",
    "serve.queue_kcycles.p99": "kcycles",
    "serve.service_kcycles.p50": "kcycles",
    "serve.shed": "count",
    "serve.preempted": "count",
    "serve.budget_clipped": "count",
    "serve.self_share": "ratio",
    "scenarios.gen_share": "ratio",
    "scenarios.events": "count",
    "autoscale.spawns": "count",
    "autoscale.retires": "count",
    "autoscale.forecast_shed": "count",
    "autoscale.lifecycle_mcycles": "Mcycles",
    "autoscale.provisioned_mcycles_per_req": "Mcycles/req",
    "autoscale.self_share": "ratio",
    "obs.windows": "count",
    "obs.anomalies": "count",
    "obs.self_share": "ratio",
    "telemetry.self_share": "ratio",
    **{f"fig.{exp_id}.host_share": "ratio" for exp_id in PAPER_EXPERIMENTS},
    "paper.zc_vs_best_intel": "ratio",
    "paper.zc_cpu_vs_best_intel": "ratio",
    "paper.log_err": "ln",
    "paper.refs": "count",
    "trace.pass_s": "s",
    "trace.overhead": "ratio",
}

_CYCLE_METRICS = {
    "cycles.worker_spin": "worker-spin",
    "cycles.caller_spin": "caller-spin",
    "cycles.transition": "transition",
    "cycles.marshal": "marshal",
    "cycles.app": "app",
    "cycles.host_exec": "host-exec",
}


def _require_program() -> None:
    """Put the checkout's ``src`` on the path, or stop: nothing to measure."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program sources at {src}/repro; run from a full checkout\n"
        )
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float, out_dir: str
) -> dict[str, Any]:
    """Set up, measure and probe one workload; returns the run record."""
    workload = WORKLOADS[name](scale=scale, out_dir=out_dir)

    setup_times: list[float] = []
    setup_start = time.perf_counter()
    while (
        len(setup_times) < SETUP_MIN_REPEATS
        or time.perf_counter() - setup_start < SETUP_MIN_SECONDS
    ):
        purge_repro_modules()
        started = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)

    parts = workload.parts(inputs)
    n = len(parts)
    # lean[i] is a run of part i mod n.
    lean: list[tuple[float, Any]] = []
    window_start = time.perf_counter()
    while (
        len(lean) < MIN_PASSES_PER_PART * n
        or time.perf_counter() - window_start < seconds
    ):
        gc.collect()
        started = time.perf_counter()
        out = workload.run_pass(parts[len(lean) % n], None)
        lean.append((time.perf_counter() - started, out))
    rss_mb = peak_rss_mb()

    gc.collect()
    probe = Probe(profile=trace)
    started = time.perf_counter()
    with probe:
        probed = workload.run_pass(inputs, probe)
    probed_s = time.perf_counter() - started
    workload.observe(probed, probe)

    passes = [out for _, out in lean] + [probed]
    checks = [check for out in passes for check in out.checks]
    events = probe.events()
    # The probed pass ran every part in order.
    reproduced = len(probed.digests) == n and all(
        out.digests == [probed.digests[i % n]]
        and (not out.events or out.events == [probed.events[i % n]])
        for i, (_, out) in enumerate(lean)
    )
    determinism = [(
        "lean_passes_reproduce_probed_pass",
        reproduced,
        "every lean run of a part has the probed pass's simulated digest "
        "and kernel event count",
    )]
    all_checks = checks + determinism
    failed_checks = [c for c in all_checks if not c[1]]
    attempted = sum(out.attempted for out in passes) + len(all_checks)
    failed = sum(out.failed for out in passes) + len(failed_checks)

    part_times = [[t for t, _ in lean[i::n]] for i in range(n)]
    # The lean cost of the whole input: each part's own median, summed,
    # so parts of unequal cost weigh the same whatever the pass count.
    host_s = sum(median(times) for times in part_times)
    latencies = sorted(probed.latencies_kc)
    ops = probed.ops if probed.ops is not None else probed.served
    ledger = probe.ledger(workload.ledger_prefix)
    probed_checks_ok = sum(1 for c in probed.checks if c[1])
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "digest": digest(probed.digests),
        "lean_passes": len(lean),
        "part_times": part_times,
        "setup_times": setup_times,
        "checks": all_checks,
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
        "tables": probed.tables,
    }
    record["end_to_end"] = {
        "host_s": host_s,
        "setup_s": median(setup_times),
        "peak_rss_mb": rss_mb,
        "ok_frac": (probed.served + probed_checks_ok)
        / max(1, probed.attempted + len(probed.checks)),
        "sim_p50_kcycles": percentile(latencies, 50),
        "sim_p99_kcycles": percentile(latencies, 99),
        "sim_mcycles_per_req": ledger["busy_cycles"] / max(1, ops) / 1e6,
    }
    tail_q = tail_percentile(len(latencies))
    record["tail"] = {
        "q": tail_q,
        "value": percentile(latencies, tail_q),
        "basis": f"pooled n={len(latencies)}",
    }
    if not trace:
        return record

    counters = dict(probed.counters)
    rollup = probe.rollup()
    profiled_s = sum(entry["self_s"] for entry in rollup.values())
    layer: dict[str, float] = {metric: 0.0 for metric in PER_LAYER}
    layer.update({k: v for k, v in counters.items() if k in layer})
    layer["sim.events"] = events
    layer["sim.events_per_req"] = events / max(1, ops)
    layer["sim.timers_pushed"] = probe.function_calls("repro/sim/timerqueue.py", "push")
    layer["sim.timers_cancelled"] = probe.function_calls(
        "repro/sim/timerqueue.py", "_note_cancel"
    )
    layer["sim.ns_per_event"] = host_s / max(1, events) * 1e9
    for package in PACKAGES:
        self_s = rollup.get(package, {}).get("self_s", 0.0)
        layer[f"{package}.self_share"] = self_s / profiled_s if profiled_s else 0.0
    layer["core.calls"] = rollup.get("core", {}).get("calls", 0)
    switchless = counters.get("ocalls.switchless", 0)
    fallback = counters.get("ocalls.fallback", 0)
    regular = counters.get("ocalls.regular", 0)
    layer["zc.switchless_frac"] = switchless / max(1, switchless + fallback)
    layer["sgx.ocall_exits_per_req"] = (regular + fallback) / max(1, ops)
    for metric, category in _CYCLE_METRICS.items():
        layer[metric] = ledger["work_cycles"][category] / max(1, ops)
    layer["crypto.kib_per_host_s"] = median(
        out.crypto_bytes / 1024 / out.crypto_host_s
        for _, out in lean
        if out.crypto_host_s > 0
    )
    layer["scenarios.gen_share"] = median(workload.gen_s) / median(setup_times)
    layer["scenarios.events"] = workload.trace_events
    layer["autoscale.provisioned_mcycles_per_req"] = (
        counters.get("fleet.provisioned_cycles", 0.0) / max(1, ops) / 1e6
    )
    fig_host_s = {
        exp_id: median(out.fig_host_s[exp_id] for _, out in lean if exp_id in out.fig_host_s)
        for exp_id in PAPER_EXPERIMENTS
    }
    fig_total_s = sum(fig_host_s.values())
    for exp_id, exp_s in fig_host_s.items():
        layer[f"fig.{exp_id}.host_share"] = exp_s / fig_total_s if fig_total_s else 0.0
    layer["trace.pass_s"] = probed_s
    layer["trace.overhead"] = probed_s / host_s if host_s else 0.0
    record["per_layer"] = layer
    record["rollup"] = rollup
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: dict[str, Any], trace: bool) -> None:
    """The human-readable report of one run (everything but the JSON line)."""
    name = record["workload"]
    e2e = record["end_to_end"]
    print(
        f"== {name}  seed={record['seed']}  scale={record['scale']}  "
        f"lean passes={record['lean_passes']} over {len(record['part_times'])} "
        f"part(s) + 1 probed pass"
    )
    print(f"   simulated digest  {record['digest']}")
    checks = record["checks"]
    passed = sum(1 for c in checks if c[1])
    print(f"   output checks     {passed}/{len(checks)} passed")
    failures = {check: detail for check, ok, detail in checks if not ok}
    for check_name, detail in failures.items():
        print(f"     FAILED {check_name}: {detail}")
    ops = record["ops"]
    notes = {
        "host_s": "sum over parts of each part's median lean time [part medians: "
        + ", ".join(_fmt(median(times)) for times in record["part_times"]) + "]",
        "setup_s": f"median of {len(record['setup_times'])} set-ups "
        f"(imports + input generation)",
        "peak_rss_mb": "process high-water mark before the probed pass",
        "ok_frac": "served operations and passed checks over attempted",
        "sim_p50_kcycles": record["tail"]["basis"],
        "sim_p99_kcycles": f"{record['tail']['basis']}; highest reportable percentile "
        f"p{record['tail']['q']:g} = {_fmt(record['tail']['value'])} kcycles",
        "sim_mcycles_per_req": f"busy cycles (capacity - idle) over {ops} operations",
    }
    for metric, unit in END_TO_END.items():
        print(f"   {metric:<22}{_fmt(e2e[metric]):>14} {unit:<12} {notes[metric]}")
    refs = record["tables"].get("paper_refs")
    if refs:
        best = record["tables"]["zc_vs_best_intel"]
        print(
            f"   zc vs best static Intel (fig8 {best['best']['fig8']}, "
            f"fig10 {best['best']['fig10']}): latency {_fmt(best['latency'])}x, "
            f"CPU {_fmt(best['cpu'])}x"
        )
        print("   paper reference          sim        paper   |ln(sim/paper)|")
        for row in refs:
            print(
                f"     {row['id']:<24}{row['sim']:>8.3f}  {row['paper']:>8.3f}"
                f"   {row['log_err']:.3f}"
            )
        mean_err = sum(r["log_err"] for r in refs) / len(refs)
        print(f"     mean |ln(sim/paper)| = {mean_err:.4f} over {len(refs)} ratios")
    elif name in ("serve-kv", "replay-elastic"):
        print(
            "   no hardware reference: the serving model is unvalidated, "
            "so this workload gets no error figure"
        )
    if trace:
        rollup = record["rollup"]
        print("   host self time of the traced pass (cProfile), by package:")
        for package, entry in sorted(rollup.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {package:<14}{entry['self_s']:>10.3f} s {entry['calls']:>12} calls")
        for metric, unit in PER_LAYER.items():
            print(f"   {metric:<40}{_fmt(record['per_layer'][metric]):>14} {unit}")


def result_line(records: list[dict[str, Any]], trace: bool) -> dict[str, Any]:
    """The machine-readable result line (metrics prefixed when several workloads ran)."""
    units = PER_LAYER if trace else END_TO_END
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": record[key][metric], "unit": unit}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload (the smoke test uses ~0.05)",
    )
    parser.add_argument("--out-dir", default=os.path.join(ROOT, ".perfbench_out"))
    args = parser.parse_args(argv)
    _require_program()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.scale, args.out_dir
        )
        print_record(record, bool(args.trace))
        records.append(record)
    result = result_line(records, bool(args.trace))
    if len(records) > 1:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "report.json"), "w") as handle:
            json.dump(records, handle, indent=1, default=repr)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
