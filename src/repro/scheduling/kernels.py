"""Shared vectorized scheduling kernels.

The scheduler batch engines follow the same discipline as
:mod:`repro.placement.kernels`: the kernels are NumPy-only and read
:func:`repro._compat.get_numpy` at call time, so the module imports
without NumPy.  Every policy checks that guard before entering a
kernel; without NumPy (or with ``REPRO_PURE_PYTHON=1``) it runs its
scalar :meth:`~repro.scheduling.base.ReadScheduler.choose` loop, which
is also the oracle the batch engines are pinned against.

Unlike placement, two of the policies (least-loaded and
power-of-two-choices) are *inherently sequential* — every choice feeds
the load state the next choice reads — so their batch engines cannot be
a single array expression.  What vectorizes is everything around the
feedback loop:

* **Draw columns** — :func:`draw_column` evaluates the seeded per-request
  hash draws (``u64_from_base(base, sequence)``) for a whole batch at
  once; the sequential policies then consume precomputed integers
  instead of re-hashing per request.
* **Occurrence counting** — :func:`cumcount` gives each request its
  0-based occurrence index among equal addresses (the round-robin
  rotation state), via a stable argsort instead of a dict walk.
* **Bulk accounting** — :func:`bincount_ranks` turns a chosen-rank
  column into per-device totals so load counters update once per batch
  rather than once per request.
"""

from __future__ import annotations

from typing import List, Sequence

from .._compat import get_numpy
from ..hashing.primitives import u64s_from_base


def draw_column(base: int, start: int, count: int):
    """Seeded draws for request sequence numbers ``[start, start+count)``.

    Element ``i`` equals ``u64_from_base(base, start + i)`` — the draw
    the scalar ``choose()`` path computes for the ``(start + i)``-th
    request, as a ``uint64`` array.
    """
    np = get_numpy()
    return u64s_from_base(base, np.arange(start, start + count, dtype=np.uint64))


def cumcount(addresses: Sequence[int]) -> "Sequence[int]":
    """Occurrence index of each element among its equals, in stream order.

    ``cumcount([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]`` — the per-address
    counter value round-robin would have seen at each request, assuming
    counters start at zero.  Stable and deterministic.
    """
    np = get_numpy()
    arr = np.asarray(addresses, dtype=np.int64)
    size = len(arr)
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    is_start = np.empty(size, dtype=bool)
    is_start[0] = True
    is_start[1:] = ordered[1:] != ordered[:-1]
    group_start = np.maximum.accumulate(
        np.where(is_start, np.arange(size, dtype=np.int64), 0)
    )
    occurrence = np.arange(size, dtype=np.int64) - group_start
    result = np.empty(size, dtype=np.int64)
    result[order] = occurrence
    return result


def mod_positions(draws, modulus: int):
    """``draws % modulus`` element-wise — the uniform pick over ``k``
    equally available copy positions, as an ``int64`` array."""
    np = get_numpy()
    return (draws % np.uint64(modulus)).astype(np.int64)


def gather_chosen(columns, positions):
    """Rank of the chosen copy per request: ``columns[positions[i]][i]``.

    ``columns`` is the ``k`` per-position rank columns (the columnar
    placement view); ``positions`` the chosen position per request.
    """
    np = get_numpy()
    stacked = np.stack(columns)
    return stacked[
        np.asarray(positions, dtype=np.int64),
        np.arange(stacked.shape[1], dtype=np.int64),
    ]


def bincount_ranks(ranks, size: int) -> List[int]:
    """Requests per device rank — bulk accounting for load counters."""
    np = get_numpy()
    return [int(value) for value in np.bincount(ranks, minlength=size)]
