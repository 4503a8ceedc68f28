"""Process-wide metrics registry: counters, gauges, histograms, labels.

The C4 deployment is itself a distributed system — agents, collector,
C4D master, steering, C4P master, the simulator event loop — and this
module gives every one of those components a shared, zero-dependency
place to record what it is doing.  The design follows the Prometheus
client model without importing it:

* a :class:`MetricsRegistry` owns named *families*;
* a family without labels behaves as a single instrument; with labels it
  hands out one child instrument per label-value combination;
* :class:`Counter` only goes up, :class:`Gauge` goes anywhere (or reads
  a callback), :class:`Histogram` keeps count/sum/min/max, a bounded
  sample reservoir for quantiles, and cumulative bucket counts;
* :meth:`MetricsRegistry.snapshot` produces a JSON-safe dict and
  :meth:`MetricsRegistry.render_prometheus` the text exposition format.

Registration is idempotent: asking for an already-registered family of
the same kind returns it, so independent components can share series
(two C4P masters in one process both bump ``c4p_allocations_total``)
without coordination.  Hot-path cost is one dict hit at instrument
creation (call sites cache children) and one attribute update per
event.
"""

from __future__ import annotations

import bisect
import copy
import math
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence

#: Default histogram buckets: fault-handling latencies span milliseconds
#: (detector evaluation) to tens of minutes (MTTR), so the bounds are
#: roughly logarithmic across that range.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0, 1800.0, float("inf"),
)

#: Samples retained per histogram series for quantile estimation.
RESERVOIR = 2048


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Instantaneous value; settable or backed by a callback."""

    __slots__ = ("value", "_fn")

    def __init__(self) -> None:
        self.value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge from ``fn`` at snapshot time instead."""
        self._fn = fn

    def read(self) -> float:
        """Current value (invokes the callback when one is set)."""
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:  # callback owner torn down mid-snapshot
                return float("nan")
        return self.value


class Histogram:
    """Distribution sketch: moments, cumulative buckets, quantile reservoir."""

    __slots__ = ("count", "sum", "min", "max", "_bounds", "_bucket_counts", "_samples")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._samples: deque[float] = deque(maxlen=RESERVOIR)

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._bucket_counts[bisect.bisect_left(self._bounds, value)] += 1
        self._samples.append(value)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile from the reservoir (NaN when empty)."""
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (NaN when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def buckets(self) -> dict[str, int]:
        """Cumulative ``{le: count}`` map in Prometheus convention."""
        out: dict[str, int] = {}
        running = 0
        for bound, bucket in zip(self._bounds, self._bucket_counts, strict=True):
            running += bucket
            key = "+Inf" if math.isinf(bound) else format(bound, "g")
            out[key] = running
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric: a single instrument, or one child per label set."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        **instrument_kwargs,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._instrument_kwargs = instrument_kwargs
        self._children: dict[tuple[str, ...], object] = {}
        if not self.label_names:
            # Unlabeled: materialize the sole child eagerly so the family
            # itself can be used as the instrument.
            self._children[()] = _KINDS[kind](**instrument_kwargs)

    def labels(self, **labels: object):
        """The child instrument for one label-value combination.

        On an unlabeled family, ``labels()`` returns its sole instrument;
        a hot path holds that child instead of going through the family.
        """
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _KINDS[self.kind](**self._instrument_kwargs)
        return child

    def _default(self):
        if self.label_names:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self._children[()]

    # Unlabeled convenience pass-throughs ------------------------------
    def inc(self, amount: float = 1.0) -> None:
        """Unlabeled counter/gauge increment."""
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Unlabeled gauge decrement."""
        self._default().dec(amount)

    def set(self, value: float) -> None:
        """Unlabeled gauge set."""
        self._default().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Unlabeled gauge callback."""
        self._default().set_function(fn)

    def observe(self, value: float) -> None:
        """Unlabeled histogram observation."""
        self._default().observe(value)

    @property
    def value(self) -> float:
        """Unlabeled counter/gauge value."""
        child = self._default()
        return child.read() if isinstance(child, Gauge) else child.value

    def series(self) -> Iterable[tuple[dict[str, str], object]]:
        """Every (labels-dict, instrument) pair of this family."""
        for key, child in list(self._children.items()):
            yield dict(zip(self.label_names, key, strict=True)), child


class MetricsRegistry:
    """The process's (or one run's) metric namespace."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name: str, kind: str, help: str, labels: Sequence[str], **kwargs) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}"
                )
            return family
        family = MetricFamily(name, kind, help=help, label_names=labels, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family."""
        return self._register(name, "histogram", help, labels, buckets=buckets)

    def families(self) -> list[MetricFamily]:
        """Every registered family, name-sorted."""
        return [self._families[name] for name in sorted(self._families)]

    @contextmanager
    def held(self, prefixes: tuple[str, ...]) -> Iterator[None]:
        """Undo on exit what the block adds to some counters and histograms.

        Covers the counter and histogram families whose names start with
        one of ``prefixes``: each series gets its value back, in place,
        and a series the block created is removed.  Gauges report
        current state and are left as the block set them.  For work that
        re-derives state already counted once, such as a journal replay.
        """
        saved = [
            (
                family,
                {
                    key: [copy.copy(getattr(child, slot)) for slot in child.__slots__]
                    for key, child in family._children.items()
                },
            )
            for family in self.families()
            if family.kind != "gauge" and family.name.startswith(prefixes)
        ]
        try:
            yield
        finally:
            for family, before in saved:
                for key in list(family._children):
                    if key not in before:
                        del family._children[key]
                for key, values in before.items():
                    child = family._children[key]
                    for slot, value in zip(child.__slots__, values, strict=True):
                        setattr(child, slot, value)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe dump of every series in the registry."""
        out: dict[str, dict] = {}
        for family in self.families():
            series = []
            for labels, child in family.series():
                if isinstance(child, Counter):
                    series.append({"labels": labels, "value": child.value})
                elif isinstance(child, Gauge):
                    series.append({"labels": labels, "value": _jsonable(child.read())})
                else:
                    series.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "min": _jsonable(child.min if child.count else float("nan")),
                            "max": _jsonable(child.max if child.count else float("nan")),
                            "mean": _jsonable(child.mean),
                            "p50": _jsonable(child.quantile(0.5)),
                            "p90": _jsonable(child.quantile(0.9)),
                            "p99": _jsonable(child.quantile(0.99)),
                            "buckets": child.buckets(),
                        }
                    )
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (histograms as native histograms + summary quantiles)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            kind = family.kind
            lines.append(f"# TYPE {family.name} {'histogram' if kind == 'histogram' else kind}")
            for labels, child in family.series():
                if isinstance(child, (Counter, Gauge)):
                    value = child.read() if isinstance(child, Gauge) else child.value
                    lines.append(f"{family.name}{_labels(labels)} {_fmt(value)}")
                    continue
                for le, count in child.buckets().items():
                    lines.append(
                        f"{family.name}_bucket{_labels({**labels, 'le': le})} {count}"
                    )
                lines.append(f"{family.name}_sum{_labels(labels)} {_fmt(child.sum)}")
                lines.append(f"{family.name}_count{_labels(labels)} {child.count}")
        return "\n".join(lines) + "\n"


def _labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, "g")


def _jsonable(value: float):
    """NaN/inf → None so snapshots survive strict JSON encoders."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


#: The process-wide default registry.  Components instrumented with
#: ``metrics=None`` record here; chaos campaigns and experiments attach
#: their own isolated :class:`MetricsRegistry` instead.
DEFAULT_REGISTRY = MetricsRegistry()


def get_registry(metrics: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Resolve an optional per-component registry to a real one."""
    return metrics if metrics is not None else DEFAULT_REGISTRY
