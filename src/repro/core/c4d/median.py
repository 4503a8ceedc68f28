"""``np.median`` of a short list, bit for bit, without numpy's set-up.

Each ``np.median`` call converts its list to an array, partitions it and
dispatches through several layers, whatever the list's size.  A C4D pass
takes a few medians per communicator, and most of a job's communicators
are small (a tensor-parallel group has 8 ranks): on such lists, sorting
in Python and taking the middle costs a fraction of that.  The sort
performs the IEEE operations ``np.median`` performs: the middle value of
an odd count, ``(a + b) / 2`` of the middle pair of an even one.  Above
:data:`MAX_PLAIN` values ``np.median`` itself runs: its partition
overtakes the sort before a thousand values.

Two inputs could make the results differ, and both go to ``np.median``
as well: a NaN (a Python sort does not order it, and numpy returns one
of the NaNs it holds), and a zero median when the values hold a
negative zero (the sort keeps ``-0.0`` and ``0.0`` in input order;
numpy's partition may pick either).
"""

from __future__ import annotations

from math import copysign, isnan

import numpy as np


#: Longest list sorted in Python.  Timed alternately against ``np.median``
#: on one host (2 shared vCPUs, up to three runs a size, best of 7
#: repeats each): the sort wins at 512 values (24-30 against 38-44 us)
#: and loses from about 900 on (94-114 against 84 us at 1,024, 160-210
#: against 99-115 at 1,536);
#: :func:`~repro.core.c4d.wait_chain.find_stragglers` wins at 512 ranks
#: and is even with ``analyze_wait_chain`` at 1,024.  ``BENCH_28.json``
#: (``median_sizes``) holds the table.
MAX_PLAIN = 512


def median(values: list[float]) -> float:
    """``float(np.median(values))`` of a non-empty list of floats."""
    if len(values) > MAX_PLAIN:
        return float(np.median(values))
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        middle = ordered[half]
    else:
        middle = (ordered[half - 1] + ordered[half]) / 2
    if isnan(sum(ordered)) or (
        middle == 0.0 and any(value == 0.0 and copysign(1.0, value) < 0 for value in ordered)
    ):
        return float(np.median(values))
    return middle
