"""Shared vectorized placement kernels.

Every batch engine in this library is assembled from the same handful of
idioms, first proven one strategy at a time (the Algorithm 2/4 hazard
scan in :mod:`repro.core.redundant_share`, the ``searchsorted`` gather in
:mod:`repro.core.fast_variant`, the masked rendezvous races in
:mod:`repro.placement.trivial`) and now extracted here so new strategies
port onto tested building blocks instead of re-deriving them:

* **Single-pass SplitMix64 premix** — :func:`premix` mixes the address
  vector once; every subsequent draw is then pure integer work
  (``u64_from_base(base, a) == sm64(sm64(base ^ sm64(a)))``), shared by
  all (copy, bin) draws of the batch.  :func:`u64_draws_from_premixed`
  returns those raw draws, mixed in place, and broadcasts, so the
  hazard scan evaluates one rank (a 1-D step) or a window of ranks (an
  addresses × ranks block) with the same expression and compares the
  raw values against integer thresholds, never converting to float.
  :func:`draws_from_premixed` maps them onto ``[0, 1)`` for engines
  that need the uniforms.
* **Blocked score matrices** — :func:`blocks` carves the batch into
  :data:`BLOCK`-sized slices so the (addresses × bins) float64 matrices
  stay L2-sized; results are independent per address, so blocking can
  never change them.
* **Draw matrices** — :func:`open_draw_matrix` evaluates
  ``unit_from_base_open(base_j, a_i)`` for a whole block at once,
  bit-for-bit identical to the scalar pipeline (the uint64 → float64
  rounding is the same in both).
* **Guarded selection** — :func:`argmax_with_guard` /
  :func:`topk_with_guard` implement masked (without-replacement) argmax
  races with the sub-ulp :data:`TIE_GUARD` contract below.
* **CDF gather** — :func:`cdf_gather` runs
  :meth:`repro.hashing.alias.CumulativeTable.select` as one
  ``searchsorted`` over *exactly* the scalar table's boundaries.

The ``TIE_GUARD`` contract
--------------------------

NumPy's SIMD ``log`` may differ from ``math.log`` by 1 ulp, so a
vectorized score race can disagree with its scalar reference when two
scores are within ~1e-15 relative of each other.  The kernels therefore
never decide close calls: any row whose winning margin is at most
``abs(best) * TIE_GUARD`` is reported back as *unsafe*, and the calling
strategy re-derives that address with its scalar ``place()`` — the
scalar loop is always the authority.  Margins above the guard are
provably identical under both logs, so the batch stays bit-exact without
giving up the vectorized bulk.  Strategy authors porting onto these
kernels must (a) compare like with like — the vector leg must compute
the *same float expression* as the scalar loop, e.g. ``(-w) / log(u)``,
not ``-w * (1 / log(u))`` — and (b) route every unsafe row through the
scalar path before publishing the batch.

NumPy only
----------

The kernels are NumPy-only.  Each reads :func:`repro._compat.get_numpy`
at call time, so the module still imports without NumPy, but callers
must check that guard first: without NumPy (or with
``REPRO_PURE_PYTHON=1``) every strategy's ``place_many`` runs its
scalar ``place()`` loop and never enters a kernel.  The scalar pipeline
is the oracle the kernel tests pin each kernel against.  The one
exception is :func:`bernoulli_indices`, whose pure leg serves the fleet
chaos engine's no-NumPy path.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from .. import obs
from .._compat import get_numpy
from ..hashing.primitives import (
    _INV_2_64,
    _MASK64,
    as_u64_array,
    splitmix64,
    splitmix64_array,
    splitmix64_inplace,
    unit_from_base,
    units_from_base,
)

#: Relative score margin below which a vectorized race defers to the
#: scalar loop (see "The TIE_GUARD contract" above).
TIE_GUARD = 1e-9

#: Addresses per vector block.  The engines materialise several
#: (addresses × bins) float64 matrices per draw; blocking keeps that
#: working set around L2-sized so throughput does not collapse to main
#: memory bandwidth on large batches.
BLOCK = 8192


def blocks(count: int, block: int = BLOCK) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` slices covering ``range(count)`` block-wise."""
    for start in range(0, count, block):
        yield start, min(start + block, count)


def premix(addresses: Sequence[int]):
    """SplitMix64-mix an address vector once, for reuse by every draw.

    Returns a ``uint64`` array whose element ``i`` equals
    ``splitmix64(addresses[i] & 2**64-1)`` — the inner mix of
    ``u64_from_base``, shared across all bases.
    """
    return splitmix64_array(as_u64_array(addresses))


def u64_draws_from_premixed(base: int, mixed):
    """Raw 64-bit draws for one salt base over premixed addresses.

    Element ``i`` equals ``u64_from_base(base, a_i)`` where ``mixed[i]``
    is ``premix([a_i, ...])[i]``.  ``base`` may also be a ``uint64``
    array that broadcasts against ``mixed`` (e.g. a row of bases against
    a column of addresses for a draw block).  Both mixing rounds run in
    place on the one array the ``xor`` allocates.
    """
    np = get_numpy()
    state = np.bitwise_xor(np.uint64(base), mixed, dtype=np.uint64)
    return splitmix64_inplace(splitmix64_inplace(state))


def draws_from_premixed(base: int, mixed):
    """Closed-interval ``[0, 1)`` draws for one salt base over premixed
    addresses.

    Element ``i`` equals ``unit_from_base(base, a_i)``: the
    :func:`u64_draws_from_premixed` value times ``2**-64``, for engines
    that consume plain (non-open) uniforms.  The hazard scan compares the
    raw values against integer thresholds instead.
    """
    np = get_numpy()
    return u64_draws_from_premixed(base, mixed).astype(np.float64) * _INV_2_64


def state_matrix(bases, mixed):
    """First ``u64_from_base`` fold: rows = addresses, cols = bases.

    Entry ``(i, j)`` equals ``sm64(bases[j] ^ sm64(a_i))`` — the hash
    state after folding the address, before any further per-draw values.
    Multi-value draws (CRUSH's ``(address, replica, attempt)``) fold the
    remaining values in with :func:`fold_salt` and finish with
    :func:`open_draws_from_state`; single-value draws can go straight to
    the finisher (that composition is :func:`open_draw_matrix`).
    """
    np = get_numpy()
    return splitmix64_array(
        np.asarray(bases, dtype=np.uint64)[None, :] ^ mixed[:, None]
    )


def fold_salt(states, salt: int):
    """Fold one scalar draw value into running ``u64_from_base`` states.

    Element-wise ``sm64(state ^ sm64(salt))`` over an array of states —
    one step of the ``u64_from_base`` chain with the same ``salt`` for
    the whole batch, e.g. CRUSH's replica index or retry attempt.
    """
    np = get_numpy()
    mixed_salt = splitmix64(salt & _MASK64)
    return splitmix64_array(states ^ np.uint64(mixed_salt))


def open_draws_from_state(states):
    """Finish ``u64_from_base`` states into open-interval ``(0, 1)`` draws.

    Element-wise ``(sm64(state) | 1) * 2**-64`` — the final mix plus the
    open-interval mapping of ``unit_from_base_open``, bit-for-bit.
    """
    np = get_numpy()
    state = splitmix64_array(states)
    return (state | np.uint64(1)).astype(np.float64) * _INV_2_64


def open_draw_matrix(bases, mixed):
    """Open-interval ``(0, 1)`` draw matrix: rows = addresses, cols = bases.

    Entry ``(i, j)`` equals ``unit_from_base_open(bases[j], a_i)`` — the
    draw the scalar rendezvous/straw races consume, as a float64 matrix.
    """
    return open_draws_from_state(state_matrix(bases, mixed))


def hrw_score_matrix(weights, uniforms):
    """Rendezvous (highest-random-weight) scores ``-w / ln(u)``.

    Computes exactly the scalar expression ``-weight / log(uniform)``
    (unary minus on the weight, then one division) so clear-margin rows
    agree with the scalar race bit-for-bit.
    """
    np = get_numpy()
    return (-np.asarray(weights, dtype=np.float64))[None, :] / np.log(uniforms)


def straw2_score_matrix(weights, uniforms):
    """CRUSH straw2 scores ``ln(u) / w`` (negative; closest to 0 wins)."""
    np = get_numpy()
    return np.log(uniforms) / np.asarray(weights, dtype=np.float64)[None, :]


def argmax_with_guard(scores, guard: float = TIE_GUARD):
    """Row-wise argmax plus the mask of rows the guard refuses to decide.

    Returns ``(winners, unsafe)``: for each row the index of its maximum
    entry (first index on exact ties, like the scalar ``>`` races), and
    True where the margin over the runner-up is at most
    ``abs(best) * guard`` — those rows must be settled by the caller's
    scalar path.  **Consumes the winning entries**: the per-row maxima
    are left at ``-inf`` so repeated calls implement a without-replacement
    race (this is what the proven trivial-replication engine does between
    draws); copy the matrix first if it must survive.
    """
    np = get_numpy()
    rows = np.arange(scores.shape[0])
    winners = np.argmax(scores, axis=1)
    best = scores[rows, winners]
    scores[rows, winners] = -np.inf
    runner = np.max(scores, axis=1) if scores.shape[1] else best
    unsafe = (best - runner) <= np.abs(best) * guard
    return winners, unsafe


def topk_with_guard(scores, count: int, guard: float = TIE_GUARD):
    """Top-``count`` without-replacement race over a score matrix.

    Returns ``(winners, unsafe)`` where ``winners[d]`` holds the d-th
    draw's per-row winner (descending score order, matching a scalar
    sort) and ``unsafe`` flags rows where *any* draw was decided within
    the guard.  Consumes ``scores`` (winners are masked to ``-inf``).
    """
    np = get_numpy()
    winners = []
    unsafe = np.zeros(scores.shape[0], dtype=bool)
    for _ in range(count):
        draw_winners, draw_unsafe = argmax_with_guard(scores, guard)
        winners.append(draw_winners)
        unsafe |= draw_unsafe
    return winners, unsafe


def cdf_gather(boundaries, draws):
    """Batch :meth:`~repro.hashing.alias.CumulativeTable.select`.

    ``boundaries`` must be the table's own :meth:`boundaries` — sharing
    the exact floats the scalar binary search compares against is what
    makes the ``searchsorted`` gather bit-identical to it.
    """
    np = get_numpy()
    return np.searchsorted(
        np.asarray(boundaries, dtype=np.float64), draws, side="right"
    )


def record_tie_recomputes(kernel: str, count: int) -> None:
    """Count scalar re-derivations forced by the tie guard.

    Only recorded when ``count > 0``: guard trips are astronomically rare
    (sub-ulp margins), and recording zero would create the counter only
    when NumPy runs, breaking the byte-wise trace equivalence the obs
    layer guarantees between the NumPy engines and the scalar loops.
    """
    if count and obs.sink().enabled:
        obs.metrics().counter(
            f"placement.kernel.{kernel}.tie_recomputes"
        ).add(count)


def bernoulli_indices(base: int, count: int, probability: float):
    """Indices in ``[0, count)`` whose derived uniform draw beats ``probability``.

    The draw for index ``i`` is ``unit_from_base(base, i)`` on both legs
    (the uint64 -> float64 rounding is identical, see
    :func:`repro.hashing.primitives.units_from_base`), so the selected
    index set is bit-for-bit the same with and without NumPy.  The fleet
    chaos engine uses one call per epoch — ``base`` derived from
    ``(seed, epoch)`` — to draw which devices fail that epoch.

    Returns ascending indices: an ``int64`` array with NumPy, a list of
    ints without.
    """
    np = get_numpy()
    if np is None:
        return [
            index
            for index in range(count)
            if unit_from_base(base, index) < probability
        ]
    draws = units_from_base(base, np.arange(count, dtype=np.int64))
    return np.flatnonzero(draws < probability).astype(np.int64)

