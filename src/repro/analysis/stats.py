"""Small statistics helpers shared by benchmarks and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    stdev: float

    @property
    def spread(self) -> float:
        """Max minus min (the paper quotes e.g. an 11.27 Gbps gap)."""
        return self.maximum - self.minimum


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a non-empty series.

    Accepts any array-like (list, tuple, generator, numpy array).  The
    emptiness check runs on the converted array: ``not values`` would
    raise the ambiguous-truth-value error on numpy input and silently
    pass on a non-empty generator.
    """
    arr = np.asarray(list(values) if not hasattr(values, "__len__") else values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty series")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.median(arr)),
        stdev=float(arr.std(ddof=0)),
    )


