"""Deterministic scenario-trace generation.

Arrivals come from an *inhomogeneous* Poisson process sampled by seeded
thinning: candidate arrivals are drawn at the scenario's peak rate and
each is accepted with probability ``rate(t) / peak`` — the textbook
construction, and deterministic per seed because every draw comes from
one :class:`random.Random` stream in a fixed order.  Three rate shapes:

- ``steady`` — constant ``rate_rps``;
- ``diurnal`` — a sinusoidal day curve,
  ``rate * (1 + amplitude * sin(2π t / period))``, compressing a
  production day into simulated milliseconds;
- ``flash`` — a flash crowd: ``rate * flash_factor`` inside the window
  ``[flash_at_s, flash_at_s + flash_width_s)``, baseline elsewhere.

Key choice is uniform or Zipf (inverse-CDF over ``1/(rank+1)^s``, rank
0 hottest).  A **hot-key skew shift** rotates the rank→key mapping by
``hot_shift_offset`` at ``hot_shift_at_s``: the popularity *shape* is
unchanged but its mass lands on different keys — the mid-run shift the
anomaly detector and cache-style apps should notice.

Per accepted arrival the draw order is fixed — op selector, key,
tenant (only when a mix is set), app (only when more than one) — so
adding an optional dimension to a scenario never perturbs the streams
of scenarios that don't use it (the loadgen's guarded-draw rule).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Any

from repro.scenarios.trace import ScenarioTrace, TraceEvent

#: Arrival-curve shapes accepted by :class:`ScenarioSpec`.
ARRIVAL_CHOICES = ("steady", "diurnal", "flash")
#: Key-distribution names accepted by :class:`ScenarioSpec`.
KEYDIST_CHOICES = ("uniform", "zipf")

#: Offset mixed into the spec seed for the generator stream (distinct
#: from the loadgen's per-client offsets).
_GENERATOR_SALT = 424_243


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one trace deterministically.

    Attributes:
        name: Scenario identity (also the trace filename stem).
        seed: Base RNG seed; same spec + seed → byte-identical trace.
        duration_s: Simulated span of the arrival timeline.
        rate_rps: Baseline arrival rate.
        arrival: ``steady`` | ``diurnal`` | ``flash``.
        diurnal_period_s: Day length for ``diurnal`` (default: the whole
            duration is one day).
        diurnal_amplitude: Fractional swing of the day curve (0..1).
        flash_at_s: Flash-crowd onset for ``flash``.
        flash_width_s: Flash-crowd width (default: duration / 8).
        flash_factor: Rate multiplier inside the flash window.
        keyspace: Distinct keys.
        keydist: ``uniform`` | ``zipf``.
        zipf_s: Zipf exponent for ``zipf``.
        hot_shift_at_s: Instant the hot-key mapping rotates (zipf only).
        hot_shift_offset: Rank→key rotation applied after the shift
            (default: half the keyspace).
        apps: Weighted served-app mix as ``(name, weight)`` pairs.
        tenants: Weighted tenant mix as ``(name, weight)`` pairs, or
            None for anonymous traffic.
        set_fraction: Fraction of ops that are ``set``.
        delete_fraction: Fraction of ops that are ``delete`` (avoid for
            mixes that include ``crypto``, which has no delete; the
            generator coerces those to ``set``).
        value_bytes: Payload size of ``set`` values.
        description: One-line catalog blurb.
    """

    name: str
    seed: int = 0
    duration_s: float = 0.2
    rate_rps: float = 3_000.0
    arrival: str = "steady"
    diurnal_period_s: float | None = None
    diurnal_amplitude: float = 0.5
    flash_at_s: float | None = None
    flash_width_s: float | None = None
    flash_factor: float = 5.0
    keyspace: int = 256
    keydist: str = "uniform"
    zipf_s: float = 0.99
    hot_shift_at_s: float | None = None
    hot_shift_offset: int | None = None
    apps: tuple[tuple[str, float], ...] = (("kv", 1.0),)
    tenants: tuple[tuple[str, float], ...] | None = None
    set_fraction: float = 1.0 / 3.0
    delete_fraction: float = 0.0
    value_bytes: int = 8
    description: str = ""

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_CHOICES:
            raise ValueError(f"arrival must be one of {ARRIVAL_CHOICES}")
        if self.keydist not in KEYDIST_CHOICES:
            raise ValueError(f"keydist must be one of {KEYDIST_CHOICES}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.keyspace < 1:
            raise ValueError("keyspace must be >= 1")
        if not self.apps:
            raise ValueError("apps must name at least one served app")
        if not 0 <= self.set_fraction + self.delete_fraction <= 1:
            raise ValueError("set_fraction + delete_fraction must be in [0, 1]")
        if self.arrival == "flash":
            if self.flash_at_s is None:
                raise ValueError("flash arrivals need flash_at_s")
            if self.flash_factor <= 1:
                raise ValueError("flash_factor must be > 1")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.hot_shift_at_s is not None and self.keydist != "zipf":
            raise ValueError("hot-key shifts need keydist='zipf'")

    # -- resolved knobs -------------------------------------------------
    @property
    def period_s(self) -> float:
        """The diurnal day length, defaulted to the whole duration."""
        return (
            self.diurnal_period_s
            if self.diurnal_period_s is not None
            else self.duration_s
        )

    @property
    def flash_window_s(self) -> float:
        """The flash-crowd width, defaulted to duration / 8."""
        return (
            self.flash_width_s
            if self.flash_width_s is not None
            else self.duration_s / 8.0
        )

    @property
    def shift_offset(self) -> int:
        """The hot-key rotation, defaulted to half the keyspace."""
        return (
            self.hot_shift_offset
            if self.hot_shift_offset is not None
            else self.keyspace // 2
        )

    def app_names(self) -> tuple[str, ...]:
        """The served apps this scenario addresses, in mix order."""
        return tuple(name for name, _ in self.apps)

    # -- rate curve -----------------------------------------------------
    def rate_at(self, t: float) -> float:
        """The instantaneous arrival rate at ``t`` seconds."""
        if self.arrival == "diurnal":
            phase = math.sin(2 * math.pi * t / self.period_s)
            return self.rate_rps * (1 + self.diurnal_amplitude * phase)
        if self.arrival == "flash":
            assert self.flash_at_s is not None
            in_flash = self.flash_at_s <= t < self.flash_at_s + self.flash_window_s
            return self.rate_rps * (self.flash_factor if in_flash else 1.0)
        return self.rate_rps

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` (the thinning envelope)."""
        if self.arrival == "diurnal":
            return self.rate_rps * (1 + self.diurnal_amplitude)
        if self.arrival == "flash":
            return self.rate_rps * self.flash_factor
        return self.rate_rps

    def to_params(self) -> dict[str, Any]:
        """The spec as plain JSON-safe data (the trace header records it)."""
        params = asdict(self)
        params["apps"] = [list(pair) for pair in self.apps]
        params["tenants"] = (
            [list(pair) for pair in self.tenants] if self.tenants else None
        )
        return params


def _zipf_cdf(n: int, s: float) -> list[float]:
    """Inverse-CDF table of a Zipf rank law (rank 0 hottest).

    A rank is drawn as ``bisect_left(cdf, rng.random())``.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _cumulative(
    pairs: tuple[tuple[str, float], ...],
) -> tuple[list[str], list[float], float]:
    """Names, cumulative weights and total for one weighted mix.

    The same list and total :meth:`random.Random.choices` builds on every
    call, built once per trace.
    """
    names = [name for name, _ in pairs]
    cum = list(accumulate(weight for _, weight in pairs))
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    return names, cum, total


def generate_trace(spec: ScenarioSpec) -> ScenarioTrace:
    """Generate ``spec``'s trace; same spec → the same events, always.

    The loop draws through ``rng.random`` with the standard library's own
    expressions — ``-log(1 - random()) / peak`` is ``expovariate(peak)``
    and a bisection of ``random() * total`` into the cumulative weights
    is ``choices(..., weights=...)`` — so the draws, their order and the
    events are those of the method calls, without rebuilding the
    cumulative weights per event.
    """
    rng = random.Random(spec.seed * 1_000_003 + _GENERATOR_SALT)
    draw, log = rng.random, math.log
    zipf_cdf = (
        _zipf_cdf(spec.keyspace, spec.zipf_s) if spec.keydist == "zipf" else None
    )
    peak = spec.peak_rate()
    duration = spec.duration_s
    keyspace = spec.keyspace
    value_bytes = spec.value_bytes
    set_fraction = spec.set_fraction
    mutate_fraction = spec.set_fraction + spec.delete_fraction
    shift_at = spec.hot_shift_at_s
    shift_offset = spec.shift_offset
    # Thinning thresholds rate(t) / peak.  Steady and flash rates are
    # piecewise constant, so their two quotients are computed once; the
    # diurnal curve is evaluated per candidate.
    diurnal = spec.arrival == "diurnal"
    flash_lo = flash_hi = 0.0
    inside = outside = spec.rate_rps / peak
    if spec.arrival == "flash":
        assert spec.flash_at_s is not None
        flash_lo = spec.flash_at_s
        flash_hi = spec.flash_at_s + spec.flash_window_s
        inside = spec.rate_rps * spec.flash_factor / peak
        outside = spec.rate_rps * 1.0 / peak
    tenants = _cumulative(spec.tenants) if spec.tenants else None
    apps = _cumulative(spec.apps) if len(spec.apps) > 1 else None
    only_app = spec.apps[0][0]
    events: list[TraceEvent] = []
    t = 0.0
    counter = 0
    while True:
        t += -log(1.0 - draw()) / peak
        if t >= duration:
            break
        # Thinning: accept this candidate with probability rate(t)/peak.
        if diurnal:
            threshold = spec.rate_at(t) / peak
        else:
            threshold = inside if flash_lo <= t < flash_hi else outside
        if draw() >= threshold:
            continue
        selector = draw()
        if selector < set_fraction:
            op = "set"
        elif selector < mutate_fraction:
            op = "delete"
        else:
            op = "get"
        if zipf_cdf is not None:
            rank = bisect_left(zipf_cdf, draw())
            offset = shift_offset if shift_at is not None and t >= shift_at else 0
            key_index = (rank + offset) % keyspace
        else:
            key_index = rng.randrange(keyspace)
        tenant = ""
        if tenants is not None:
            names, cum, total = tenants
            tenant = names[bisect_right(cum, draw() * total, 0, len(cum) - 1)]
        if apps is not None:
            names, cum, total = apps
            app = names[bisect_right(cum, draw() * total, 0, len(cum) - 1)]
        else:
            app = only_app
        if app == "crypto" and op == "delete":
            # The crypto pipeline's vocabulary has no delete; re-encrypting
            # the slot is the closest mutation.
            op = "set"
        value = (
            (counter % 2**63).to_bytes(value_bytes, "big")
            if op == "set"
            else None
        )
        events.append(
            TraceEvent(t, app, op, key_index.to_bytes(8, "big"), tenant, value)
        )
        counter += 1
    return ScenarioTrace(
        name=spec.name,
        seed=spec.seed,
        duration_s=spec.duration_s,
        keyspace=spec.keyspace,
        apps=spec.app_names(),
        tenants=dict(spec.tenants) if spec.tenants else None,
        generator=spec.to_params(),
        events=tuple(events),
    )
