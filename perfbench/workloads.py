"""The benchmark's four workloads.

Each workload has a ``setup(seed)`` that imports what it needs from
:mod:`repro` and generates its inputs from the seed, and a
``run_pass(inputs, probe)`` that drives the program through its public
entry points once and checks the outputs.  ``parts(inputs)`` splits the
inputs into independently timed parts (the serve workloads' load
streams or episodes, each paper experiment, each AES round).  A pass is
deterministic in its inputs: every run of one part must produce the
same simulated digest, with or without a :class:`probe.Probe` attached.

``scale`` shrinks the seed-generated workloads proportionally (the smoke
test runs at a few percent of full size); ``paper-figures`` always runs
its fixed preset grid.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any

from common import digest, percentile
from paperref import reference_table, zc_vs_best_intel


@dataclass
class PassOutput:
    """What one pass produced, as read from the program's public outputs."""

    #: Simulated-output digest of each part the pass ran.
    digests: list[str] = field(default_factory=list)
    #: Simulated latency of every completed operation, in kilocycles.
    latencies_kc: list[float] = field(default_factory=list)
    attempted: int = 0
    served: int = 0
    #: Operations the per-request metrics divide by (default: ``served``).
    ops: int | None = None
    failed: int = 0
    #: (check name, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Kernel events of each part, when the program reports them
    #: without a probe.
    events: list[int] = field(default_factory=list)
    #: Per-layer values read from the program's artifacts.
    counters: dict[str, float] = field(default_factory=dict)
    fig_host_s: dict[str, float] = field(default_factory=dict)
    crypto_bytes: int = 0
    crypto_host_s: float = 0.0
    #: Human-readable tables printed beside the metrics.
    tables: dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    #: Telemetry cell-label prefix whose ledger counts as this workload's.
    ledger_prefix = ""

    def __init__(self, scale: float = 1.0, out_dir: str = ".perfbench_out") -> None:
        self.scale = scale
        self.out_dir = out_dir
        #: Host seconds each set-up spent generating scenario traces.
        self.gen_s: list[float] = []
        #: Events in the generated traces of the last set-up.
        self.trace_events = 0

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def parts(self, inputs: Any) -> list[Any]:
        return [inputs]

    def run_pass(self, inputs: Any, probe: Any) -> PassOutput:
        raise NotImplementedError

    def observe(self, out: PassOutput, probe: Any) -> None:
        """Fill what only a probe can see (after the probed pass)."""


# ----------------------------------------------------------------------
# Serving: serve-kv and replay-elastic
# ----------------------------------------------------------------------
def _spans_summary(
    spans: list[dict[str, Any]], freq_hz: float, warmup_s: float
) -> dict[str, Any]:
    """Latency, queue and service kilocycles of requests submitted after warm-up."""
    start = warmup_s * freq_hz
    ok = [s for s in spans if s["status"] == "ok" and s["t_submit"] >= start]
    latency = [(s["t_complete"] - s["t_submit"]) / 1e3 for s in ok]
    queue = sorted((s["t_dequeue"] - s["t_enqueue"]) / 1e3 for s in ok)
    service = sorted((s["t_result"] - s["t_dequeue"]) / 1e3 for s in ok)
    per_app: dict[str, list[float]] = {}
    for span, value in zip(ok, latency):
        per_app.setdefault(span["app"], []).append(value)
    return {"latency": latency, "queue": queue, "service": service, "per_app": per_app}


def _serve_pass(
    units: list[tuple[Any, Any]], probe: Any, warmup_s: float = 0.0
) -> PassOutput:
    """Run each (BenchSpec, trace-or-None) unit and pool the results.

    Latency statistics skip requests submitted in each unit's first
    ``warmup_s`` simulated seconds; counts and cycles cover the whole run.
    """
    from repro.api import Runtime
    from repro.sim import server_machine

    freq_hz = server_machine().freq_hz
    spans_all: list[dict[str, Any]] = []
    out = PassOutput()
    counters = {
        "serve.shed": 0, "serve.preempted": 0, "serve.budget_clipped": 0,
        "autoscale.spawns": 0, "autoscale.retires": 0, "autoscale.forecast_shed": 0,
        "autoscale.lifecycle_mcycles": 0.0, "fleet.provisioned_cycles": 0.0,
        "obs.windows": 0, "obs.anomalies": 0,
        "ocalls.switchless": 0, "ocalls.fallback": 0, "ocalls.regular": 0,
    }
    for index, (spec, trace) in enumerate(units):
        spans: list[dict[str, Any]] = []
        artifact = Runtime.serve(
            spec,
            telemetry=probe.session if probe is not None else False,
            trace=trace,
            span_sink=spans,
        )
        totals = artifact["totals"]
        issued, completed = totals["issued"], totals["completed"]
        shed, failed = totals["shed"], totals["failed"]
        out.attempted += issued
        out.served += completed
        out.failed += failed
        out.checks.append((
            f"unit{index}.conservation",
            issued == completed + shed + failed,
            f"issued {issued} vs completed {completed} + shed {shed} + failed {failed}",
        ))
        shard_sum = sum(shard["completed"] for shard in artifact["per_shard"])
        out.checks.append((
            f"unit{index}.shard_sum",
            shard_sum == completed,
            f"per-shard completions {shard_sum} vs total {completed}",
        ))
        if trace is not None:
            params = artifact["params"]
            out.checks.append((
                f"unit{index}.trace_digest",
                params["trace_digest"] == trace.digest
                and params["trace_events"] == issued == len(trace.events),
                f"replayed {params['trace_events']} events, issued {issued}",
            ))
        out.events.append(artifact["host"]["events_processed"])
        counters["serve.shed"] += shed
        counters["serve.preempted"] += totals["preempted"]
        if artifact["budget"] is not None:
            counters["serve.budget_clipped"] += artifact["budget"]["clipped"]
        autoscale = artifact.get("autoscale")
        if autoscale is not None:
            counters["autoscale.spawns"] += autoscale["spawns"]
            counters["autoscale.retires"] += autoscale["retires"]
            counters["autoscale.forecast_shed"] += autoscale["forecast_shed"]
        fleet = artifact["fleet"]
        counters["autoscale.lifecycle_mcycles"] += (
            fleet["creation_cycles"] + fleet["destruction_cycles"]
        ) / 1e6
        counters["fleet.provisioned_cycles"] += fleet["provisioned_cycles"]
        if "obs" in artifact:
            counters["obs.windows"] += artifact["obs"]["windows"]
            counters["obs.anomalies"] += len(artifact["obs"]["anomalies"])
        for shard in artifact["per_shard"]:
            counters["ocalls.switchless"] += shard["switchless_ocalls"]
            counters["ocalls.fallback"] += shard["fallback_ocalls"]
            counters["ocalls.regular"] += shard["regular_ocalls"]
        simulated = {k: v for k, v in artifact.items() if k not in ("host", "meta")}
        out.digests.append(digest({"artifact": simulated, "spans": spans}))
        spans_all.extend(spans)

    ok_spans = sum(1 for span in spans_all if span["status"] == "ok")
    out.checks.append((
        "spans_cover_completions",
        ok_spans == out.served,
        f"{ok_spans} ok spans vs {out.served} completions",
    ))
    summary = _spans_summary(spans_all, freq_hz, warmup_s)
    out.latencies_kc = summary["latency"]
    counters["serve.queue_kcycles.p50"] = percentile(summary["queue"], 50)
    counters["serve.queue_kcycles.p99"] = percentile(summary["queue"], 99)
    counters["serve.service_kcycles.p50"] = percentile(summary["service"], 50)
    for app in ("kv", "session", "crypto"):
        counters[f"app.{app}.p99_kcycles"] = percentile(
            sorted(summary["per_app"].get(app, [])), 99
        )
    out.counters = counters
    return out


class _ServeWorkload(Workload):
    """A serve workload: its inputs are (BenchSpec, trace) units, one per part."""

    ledger_prefix = "serve-"
    WARMUP_S = 0.0

    def parts(self, inputs: Any) -> list[Any]:
        return [[unit] for unit in inputs]

    def run_pass(self, inputs: Any, probe: Any) -> PassOutput:
        return _serve_pass(inputs, probe, self.WARMUP_S * self.scale)


class ServeKv(_ServeWorkload):
    """Open-loop Poisson KV load on four static zc shards."""

    name = "serve-kv"
    SHARDS = 4
    RATE_RPS = 2_000.0
    SECONDS = 0.225
    #: Independent load streams per pass (seed-derived), pooled.
    UNITS = 4
    #: The zc schedulers' first configuration phases (the first ~10
    #: quanta of 2 ms) give multi-millisecond outliers that depend on
    #: the seed; latency statistics start after them.
    WARMUP_S = 0.02

    def setup(self, seed: int) -> Any:
        import repro.serve.apps  # noqa: F401  (imported lazily by the first run)
        from repro.api import BenchSpec, ServeSpec

        serve = ServeSpec(shards=self.SHARDS)
        return [
            (
                BenchSpec(
                    serve=serve,
                    seconds=self.SECONDS * self.scale,
                    rate=self.RATE_RPS,
                    keydist="uniform",
                    seed=seed * 1_000 + unit,
                ),
                None,
            )
            for unit in range(self.UNITS)
        ]


class ReplayElastic(_ServeWorkload):
    """Seed-generated flash-crowd traces replayed on an autoscaled fleet.

    The traffic mix (apps, tenants, keys) is the committed
    ``multiapp-soak`` scenario's and the flash window (onset at half the
    run, a sixth of it wide) the committed ``flash-crowd`` scenario's.
    Rates are sized from one shard's measured capacity
    (``perfbench/capacity.py``): a tenth of it outside the flash, and
    ``PEAK_OVER_CAPACITY`` times it inside, so that the autoscaler spawns
    and retires shards and the router sheds.  The flash then carries
    three quarters of the requests, which puts the median latency inside
    it rather than on the edge between the two regimes.
    """

    name = "replay-elastic"
    #: Independent flash-crowd episodes per pass (seed-derived traces).
    UNITS = 5
    DURATION_S = 0.12
    #: Completion rate of one static zc shard at saturation under the
    #: multiapp-soak mix, as ``perfbench/capacity.py`` measures it.
    CAPACITY_RPS = 164_300.0
    BASE_OVER_CAPACITY = 0.1
    PEAK_OVER_CAPACITY = 1.5
    #: Observation windows of 1.25 simulated ms: sixteen fall inside the
    #: flash, so the controller sees it in time to spawn before it ends.
    WINDOWS = 96

    def setup(self, seed: int) -> Any:
        # Imported lazily by the first replay; set-up pays for them once.
        import repro.autoscale.controller  # noqa: F401
        import repro.obs  # noqa: F401
        import repro.scenarios.replay  # noqa: F401
        import repro.serve.apps  # noqa: F401
        from repro.api import AutoscaleSpec, BenchSpec, ServeSpec
        from repro.scenarios.catalog import get_scenario
        from repro.scenarios.generate import generate_trace
        from repro.scenarios.trace import load_trace, write_trace
        from repro.sim import server_machine

        duration = self.DURATION_S * self.scale
        spec = BenchSpec(
            serve=ServeSpec(
                shards=1, autoscale=AutoscaleSpec(min_shards=1, max_shards=4)
            ),
            obs=True,
            obs_interval=server_machine().freq_hz * duration / self.WINDOWS,
        )
        mix, flash = get_scenario("multiapp-soak"), get_scenario("flash-crowd")
        onset = flash.flash_at_s / flash.duration_s
        width = flash.flash_window_s / flash.duration_s
        os.makedirs(self.out_dir, exist_ok=True)
        units = []
        started = time.perf_counter()
        for unit in range(self.UNITS):
            scenario = replace(
                mix,
                name=f"bench-elastic-{unit}",
                seed=seed * 1_000 + unit,
                duration_s=duration,
                rate_rps=self.BASE_OVER_CAPACITY * self.CAPACITY_RPS,
                arrival="flash",
                flash_at_s=onset * duration,
                flash_width_s=width * duration,
                flash_factor=self.PEAK_OVER_CAPACITY / self.BASE_OVER_CAPACITY,
            )
            path = os.path.join(self.out_dir, f"{scenario.name}.trace.jsonl")
            write_trace(generate_trace(scenario), path)
            # load_trace refuses a trace whose event digest disagrees
            # with its header, so a loaded trace is a verified one.
            units.append((spec, load_trace(path)))
        self.gen_s.append(time.perf_counter() - started)
        self.trace_events = sum(len(trace.events) for _, trace in units)
        return units


# ----------------------------------------------------------------------
# paper-figures
# ----------------------------------------------------------------------
#: Experiments the workload runs (fig11/12 cost 10–20 s a cell).  Each
#: is one part, so lean passes time every experiment separately.
PAPER_EXPERIMENTS = ("fig2", "fig3", "sec3a", "fig7", "fig8", "fig10", "fig13")


class PaperFigures(Workload):
    """Quick-preset cells of seven paper experiments, run serially.

    The grid is fixed: each experiment's ``--quick`` preset is its own
    seed, and ``--seed`` and ``--scale`` change nothing.
    """

    name = "paper-figures"
    ledger_prefix = "zc"

    def setup(self, seed: int) -> Any:
        from repro.cli import QUICK_KWARGS
        from repro.experiments import EXPERIMENTS

        return [
            (exp_id, EXPERIMENTS[exp_id], dict(QUICK_KWARGS[exp_id]))
            for exp_id in PAPER_EXPERIMENTS
        ]

    def parts(self, inputs: Any) -> list[Any]:
        return [[entry] for entry in inputs]

    def run_pass(self, inputs: Any, probe: Any) -> PassOutput:
        out = PassOutput()
        results: dict[str, Any] = {}
        for exp_id, module, kwargs in inputs:
            started = time.perf_counter()
            cells = module.cells(**kwargs)
            rows = [module.run_cell(cell) for cell in cells]
            result = module.assemble(rows, **kwargs)
            out.fig_host_s[exp_id] = time.perf_counter() - started
            violations = module.check_shape(result)
            out.checks.append(
                (f"{exp_id}.check_shape", not violations, "; ".join(violations))
            )
            out.attempted += len(cells)
            out.served += len(cells)
            results[exp_id] = result
            out.digests.append(digest(repr(rows)))
        if len(results) < len(PAPER_EXPERIMENTS):
            return out  # a lean pass over one part: no cross-figure ratios
        refs = reference_table(results)
        best = zc_vs_best_intel(results)
        out.tables["paper_refs"] = refs
        out.tables["zc_vs_best_intel"] = best
        out.counters = {
            "paper.zc_vs_best_intel": best["latency"],
            "paper.zc_cpu_vs_best_intel": best["cpu"],
            "paper.log_err": sum(r["log_err"] for r in refs) / len(refs),
            "paper.refs": len(refs),
        }
        return out

    def observe(self, out: PassOutput, probe: Any) -> None:
        # The workload's operations are the zc cells' ocalls.
        out.latencies_kc = probe.call_latencies_kc(self.ledger_prefix)
        out.ops = len(out.latencies_kc)
        modes = probe.call_modes(self.ledger_prefix)
        out.counters["ocalls.switchless"] = modes.get("switchless", 0)
        out.counters["ocalls.fallback"] = modes.get("fallback", 0)
        out.counters["ocalls.regular"] = modes.get("regular", 0)


# ----------------------------------------------------------------------
# aes-pipeline
# ----------------------------------------------------------------------
# NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt), first block.
NIST_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)
NIST_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_PLAINTEXT = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
NIST_CIPHERTEXT = bytes.fromhex("f58c4c04d6e5f1ba779eabfb5f7bfbd6")


class _TimedEngine:
    """Delegates to the real cipher; records per-chunk simulated steps.

    Each call marks the end of one chunk step (read, cipher work, and the
    previous chunk's write), so the gap between calls on the simulated
    clock is that step's latency.  Host time inside the cipher is summed
    for ``crypto.kib_per_host_s``.
    """

    def __init__(self, engine: Any, kernel: Any, sink: "_EngineSink") -> None:
        self.engine = engine
        self.kernel = kernel
        self.sink = sink
        self.last = kernel.now

    def _timed(self, fn: Any, data: bytes) -> bytes:
        now = self.kernel.now
        self.sink.steps_cycles.append(now - self.last)
        self.last = now
        started = time.perf_counter()
        result = fn(data)
        self.sink.host_s += time.perf_counter() - started
        self.sink.bytes += len(data)
        return result

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._timed(self.engine.encrypt, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        return self._timed(self.engine.decrypt, ciphertext)


@dataclass
class _EngineSink:
    steps_cycles: list[float] = field(default_factory=list)
    host_s: float = 0.0
    bytes: int = 0


class AesPipeline(Workload):
    """Real AES-256-CBC file round trips through CryptoFileApp on zc.

    A pass is ``ROUNDS`` independent rounds; in each, ``THREADS`` enclave
    threads encrypt their own seed-generated file and decrypt it back on
    a fresh zc enclave.  Rounds are the parts the lean passes time.
    """

    name = "aes-pipeline"
    ledger_prefix = ""
    THREADS = 2
    ROUNDS = 4
    CHUNK_BYTES = 64
    #: Per-file size: 4 KiB plus a seed-drawn 0–48 bytes, in AES blocks.
    BASE_BLOCKS = 256
    EXTRA_BLOCKS = 4
    QUANTUM_S = 0.002

    def setup(self, seed: int) -> Any:
        from repro.api import Runtime  # noqa: F401  (timed import)
        from repro.apps import CryptoFileApp  # noqa: F401
        from repro.crypto import RealAesCbcEngine  # noqa: F401
        from repro.crypto.cbc import cbc_encrypt  # noqa: F401

        rng = random.Random(seed)
        key, iv = rng.randbytes(32), rng.randbytes(16)
        rounds = []
        for _ in range(self.ROUNDS):
            files = {}
            for thread in range(self.THREADS):
                blocks = self.BASE_BLOCKS + rng.randrange(self.EXTRA_BLOCKS)
                files[f"/in-{thread}"] = rng.randbytes(
                    max(16, round(16 * blocks * self.scale))
                )
            rounds.append(files)
        return {"key": key, "iv": iv, "rounds": rounds}

    def parts(self, inputs: Any) -> list[Any]:
        return [{**inputs, "rounds": [files]} for files in inputs["rounds"]]

    def run_pass(self, inputs: Any, probe: Any) -> PassOutput:
        from repro.crypto.cbc import cbc_encrypt

        out = PassOutput()
        for files in inputs["rounds"]:
            self._round(inputs["key"], inputs["iv"], files, probe, out)
        out.checks.append((
            "nist_sp800_38a_f25",
            cbc_encrypt(NIST_KEY, NIST_IV, NIST_PLAINTEXT, pad=False) == NIST_CIPHERTEXT,
            "AES-256-CBC first block",
        ))
        out.attempted = out.served = len(out.latencies_kc)
        return out

    def _round(
        self, key: bytes, iv: bytes, files: dict[str, bytes], probe: Any, out: PassOutput
    ) -> None:
        from repro.api import Runtime, ZcConfig
        from repro.apps import CryptoFileApp
        from repro.crypto import RealAesCbcEngine

        runtime = Runtime.create(
            "zc",
            ZcConfig(quantum_seconds=self.QUANTUM_S),
            files=files,
            telemetry=probe.session if probe is not None else False,
            label="aes-zc",
        )
        kernel = runtime.kernel
        sink = _EngineSink()
        app = CryptoFileApp(
            runtime.enclave,
            lambda: _TimedEngine(RealAesCbcEngine(key, iv), kernel, sink),
            chunk_bytes=self.CHUNK_BYTES,
        )

        def round_trip(thread: int) -> Any:
            yield from app.encrypt_file(f"/in-{thread}", f"/enc-{thread}", iv)
            yield from app.decrypt_file(f"/enc-{thread}", f"/out-{thread}")

        threads = [
            kernel.spawn(round_trip(t), name=f"aes-{t}", kind="app")
            for t in range(self.THREADS)
        ]
        kernel.join(*threads)
        stats = runtime.enclave.stats
        ocalls = {
            "switchless": stats.total_switchless,
            "fallback": stats.total_fallback,
            "regular": stats.total_regular,
        }
        end_cycles = kernel.now
        fs = runtime.fs
        ciphertexts = {path: fs.contents(path.replace("in", "enc")) for path in files}
        plaintexts = {path: fs.contents(path.replace("in", "out")) for path in files}
        runtime.close()

        for path, plaintext in files.items():
            out.checks.append((f"{path}.round_trip", plaintexts[path] == plaintext, "bit-exact"))
            out.checks.append((
                f"{path}.no_plaintext",
                plaintext[:64] not in ciphertexts[path],
                "first 64 plaintext bytes absent from the ciphertext",
            ))
        out.latencies_kc.extend(c / 1e3 for c in sink.steps_cycles)
        out.events.append(kernel.events_processed)
        out.crypto_bytes += sink.bytes
        out.crypto_host_s += sink.host_s
        for mode, count in ocalls.items():
            key_name = f"ocalls.{mode}"
            out.counters[key_name] = out.counters.get(key_name, 0) + count
        out.digests.append(digest({
            "ciphertexts": {p: c.hex() for p, c in ciphertexts.items()},
            "steps_cycles": sink.steps_cycles,
            "ocalls": ocalls,
            "end_cycles": end_cycles,
        }))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeKv, ReplayElastic, PaperFigures, AesPipeline)
}
