"""Redundant Share — the paper's core contribution (Section 3).

:class:`RedundantShare` implements k-fold replicated placement over
arbitrary heterogeneous bins with

* **perfect fairness** in expectation (bin ``i`` stores a
  ``b̂_i / sum(b̂)`` share of all copies, with capacities clipped per
  Lemma 2.2 so the share is achievable),
* **redundancy** (the k copies always land on k distinct bins),
* **O(n + k) lookups** (the Algorithm 2/4 scan); a batch of B addresses
  costs one draw per rank each address visits plus about ``k·n / W``
  NumPy steps, with the window width ``W = clamp(32n // B, 1, n)``
  (see :func:`_window_width`),
* **bounded adaptivity** (expected ``k^2``-competitive block movement under
  bin insertions/removals — Lemmas 3.2/3.5), and
* **position awareness** (the i-th copy is identified, so erasure codes can
  replace plain mirroring).

The scan walks the bins in descending capacity order; at (copy ``c``, bin
``i``) a pseudo-random draw keyed on *(namespace, copy, bin name, ball
address)* is compared against the precomputed hazard ``h_c(i)`` (see
:mod:`repro.core.preprocess`).  Keying draws on bin *names* — not ranks —
is what keeps decisions stable when unrelated bins enter or leave, the
essence of the adaptivity bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import obs
from .._compat import get_numpy
from ..capacity.clipping import clip_capacities, is_capacity_efficient
from ..exceptions import InfeasibleReplicationError
from ..hashing.primitives import (
    _INV_2_64,
    as_u64_array,
    derive_base,
    unit_from_base,
)
from ..placement import kernels
from ..placement.base import BatchPlacement, ReplicationStrategy, record_batch
from ..types import BinSpec, Placement, sort_bins_by_capacity
from .preprocess import HazardTable, compute_hazards

#: Bounded size of the per-instance walk cache backing :meth:`place_copy`
#: (FIFO eviction; sized for the read-path pattern of consulting a few
#: positions of the same hot addresses repeatedly).
_WALK_CACHE_SIZE = 1024


def _window_width(bin_count: int, batch_size: int) -> int:
    """Ranks per step of the batch hazard scan: ``clamp(32n // B, 1, n)``.

    A step costs a fixed NumPy overhead plus one draw per (active
    address, rank in the window); a wider window cuts the steps from
    about ``k·n`` to ``k·n / W`` but wastes up to ``W`` draws per address
    and copy on ranks before its start and past its hit.  Widening until
    a window covers about 32 addresses' worth of ranks balances the two
    and bounds a draw block at about ``32n`` entries, whatever ``B``.
    Batches of more than ``16n`` addresses (100k addresses on 1000 bins,
    193+ on 12 bins) keep the 1-D per-rank step; a 256-address lookup on
    1000 bins gets W = 125 (about 25 steps instead of 3,000), and a batch
    of at most 32 addresses scans each copy in one window.

    Median ms per call, k=3, capacities 100..300, 2-core x86-64 host,
    for the constant ``c`` in ``clamp(c·n // B, 1, n)``:

    ====  =======  =======  ========  ========  ========
      c   64×256   64×1024  1000×16   1000×256  1000×4096
    ====  =======  =======  ========  ========  ========
      8    5.07     9.67     1.10      9.45     174.5
     16    3.75    10.00     1.42      6.43     148.1
     32    1.52     6.32     1.22      5.35      87.9
     64    1.04     3.83     1.11      6.94      67.7
    128    0.96     2.65     0.99     12.73      63.2
    ====  =======  =======  ========  ========  ========

    32 is the best on the served 256-address lookup at n = 1000 and
    within 2.4x of the best elsewhere; larger constants win on mid-size
    batches but lose on that lookup and raise the block bound ``c·n``.
    """
    return max(1, min(bin_count, 32 * bin_count // max(batch_size, 1)))


def _u64_thresholds(np, hazards):
    """Smallest ``t`` with ``float64(t) * 2**-64 >= h``, per hazard ``h``.

    A bisection over ``[0, 2**64 - 1]`` with NumPy's own uint64 → float64
    conversion, so ``u < t`` holds exactly when the draw
    ``float64(u) * 2**-64`` is below ``h``.  Hazards must lie in
    ``[0, 1]``: ``float64(2**64 - 1) * 2**-64 == 1.0`` bounds the search.
    """
    low = np.zeros(hazards.shape, dtype=np.uint64)
    high = np.full(hazards.shape, (1 << 64) - 1, dtype=np.uint64)
    for _ in range(64):
        middle = low + (high - low) // np.uint64(2)
        above = middle.astype(np.float64) * _INV_2_64 >= hazards
        high = np.where(above, middle, high)
        low = np.where(above, low, middle + np.uint64(1))
    return high


class RedundantShare(ReplicationStrategy):
    """k-fold replicated placement with fairness and redundancy."""

    name = "redundant-share"
    kernel = "hazard-scan"

    def __init__(
        self,
        bins: Sequence[BinSpec],
        copies: int = 2,
        namespace: str = "",
        clip: bool = True,
    ) -> None:
        """Build the strategy for a configuration snapshot.

        Args:
            bins: The participating storage devices.
            copies: Replication degree ``k``.
            namespace: Hash salt prefix; strategies with equal namespaces
                and bin names produce correlated placements (intended — it
                is how adaptivity across configurations works).
            clip: Clip capacities per Lemma 2.2 / Algorithm 1 when the raw
                vector is not capacity-efficient (default).  With
                ``clip=False`` an infeasible vector raises
                :class:`~repro.exceptions.InfeasibleReplicationError`.
        """
        super().__init__(bins, copies, namespace)
        self._ordered = sort_bins_by_capacity(self._bins)
        raw = [float(spec.capacity) for spec in self._ordered]
        if clip:
            effective = clip_capacities(raw, copies)
        else:
            if not is_capacity_efficient(raw, copies):
                raise InfeasibleReplicationError(
                    f"k*b_0 = {copies * raw[0]} exceeds B = {sum(raw)} "
                    "(Lemma 2.1); enable clipping or fix the capacities"
                )
            effective = raw
        self._table = compute_hazards(effective, copies)
        self._rank_ids = [spec.bin_id for spec in self._ordered]
        # Per-(copy, rank) salt bases: lookups then mix integers only.
        self._draw_bases = [
            [
                derive_base(self._namespace, "copy", copy, bin_id)
                for bin_id in self._rank_ids
            ]
            for copy in range(copies)
        ]
        # Deadline rank for each copy: the scan must select at this rank at
        # the latest so that enough bins remain for the following copies.
        self._deadlines = [
            len(self._ordered) - copies + c for c in range(copies)
        ]
        # Lazily built batch-engine rows (see _scan_rows) and the bounded
        # walk memo shared by place_copy/primary/secondary.
        self._np_rows = None
        self._walk_cache: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def table(self) -> HazardTable:
        """The preprocessed hazard table (read-only use intended)."""
        return self._table

    @property
    def ordered_bins(self) -> List[BinSpec]:
        """Bins in scan order (descending capacity, ties by id)."""
        return list(self._ordered)

    def effective_capacities(self) -> Dict[str, float]:
        """Clipped capacity ``b̂_i`` per bin id."""
        return {
            spec.bin_id: capacity
            for spec, capacity in zip(self._ordered, self._table.capacities)
        }

    def expected_shares(self) -> Dict[str, float]:
        """Exact expected share of all stored copies per bin (sums to 1)."""
        return {
            spec.bin_id: target / self._copies
            for spec, target in zip(self._ordered, self._table.targets)
        }

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _draw(self, copy: int, rank: int, address: int) -> float:
        return unit_from_base(self._draw_bases[copy][rank], address)

    def place(self, address: int) -> Placement:
        """Return the ordered bin ids of all ``k`` copies of ``address``."""
        return tuple(self._walk(address, self._copies))

    def place_copy(self, address: int, position: int) -> str:
        """Bin of copy ``position`` (0-based) via the shared walk cache.

        The full k-copy scan is computed once per address and memoised
        (bounded FIFO), so ``primary()``/``secondary()``/``place_copy``
        sequences over the same address cost one scan instead of
        re-running Algorithm 2/4 from rank 0 for every position.
        """
        if not 0 <= position < self._copies:
            raise IndexError(f"copy position {position} out of range")
        return self._rank_ids[self._cached_ranks(address)[position]]

    def _cached_ranks(self, address: int) -> List[int]:
        """Full scan result for ``address``, memoised with FIFO eviction."""
        ranks = self._walk_cache.get(address)
        if ranks is None:
            ranks = self._walk_ranks(address, self._copies)
            if len(self._walk_cache) >= _WALK_CACHE_SIZE:
                self._walk_cache.pop(next(iter(self._walk_cache)))
            self._walk_cache[address] = ranks
            if obs.sink().enabled:
                obs.metrics().counter("placement.walk_cache.misses").add(1)
        elif obs.sink().enabled:
            obs.metrics().counter("placement.walk_cache.hits").add(1)
        return ranks

    def _walk(self, address: int, copies_wanted: int) -> List[str]:
        """The scalar Algorithm 2/4 scan, mapped to bin ids."""
        return [
            self._rank_ids[rank]
            for rank in self._walk_ranks(address, copies_wanted)
        ]

    def _walk_ranks(self, address: int, copies_wanted: int) -> List[int]:
        """The Algorithm 2/4 scan over rank indices — the scalar reference
        the vectorized engine is pinned to."""
        result: List[int] = []
        rank = 0
        for copy in range(copies_wanted):
            hazards = self._table.hazards[copy]
            deadline = self._deadlines[copy]
            while True:
                if (
                    rank >= deadline
                    or hazards[rank] >= 1.0
                    or self._draw(copy, rank, address) < hazards[rank]
                ):
                    result.append(rank)
                    rank += 1
                    break
                rank += 1
        return result

    # ------------------------------------------------------------------
    # Batch placement
    # ------------------------------------------------------------------

    def place_many(self, addresses: Sequence[int]) -> BatchPlacement:
        """Vectorized Algorithm 2/4 over a whole address batch.

        With NumPy installed the hazard scan runs as a rank-window scan
        instead of a Python while-loop per address: each copy walks the
        ranks ``W`` at a time, and the addresses whose scan is in the
        window evaluate all its draws as one (addresses × W) block and
        take their first hit.  ``W`` follows the batch shape (see
        :func:`_window_width`), so a call costs about ``k·n / W`` NumPy
        steps whatever the batch size.  Element-wise identical to
        :meth:`place` (the property tests pin this at every width).
        Without NumPy it falls back to the scalar scan per address.
        """
        np = get_numpy()
        if np is None:
            sink = obs.sink()
            depth_counts: Optional[Dict[int, int]] = (
                {} if sink.enabled else None
            )
            columns: List[List[int]] = [[] for _ in range(self._copies)]
            for address in addresses:
                ranks = self._walk_ranks(address, self._copies)
                for position, rank in enumerate(ranks):
                    columns[position].append(rank)
                if depth_counts is not None:
                    depth = ranks[-1] + 1
                    depth_counts[depth] = depth_counts.get(depth, 0) + 1
            if depth_counts is not None:
                self._record_scan(sink, len(columns[0]), depth_counts)
            return BatchPlacement(self._rank_ids, columns)
        return self._place_many_np(np, addresses)

    def _record_scan(
        self, sink, batch_size: int, depth_counts: Dict[int, int]
    ) -> None:
        """Record one batch hazard scan on an enabled sink.

        ``depth_counts`` maps scan depth (ranks visited until the last
        copy was placed) to the number of addresses with that depth; both
        engines reduce to this same aggregate, so traces and histograms
        are identical between the NumPy and pure-Python legs.
        """
        record_batch(
            sink, self.name, self._copies, batch_size, kernel=self.kernel
        )
        if not depth_counts:
            return
        histogram = obs.metrics().histogram("placement.scan_depth")
        depth_sum = 0
        for depth in sorted(depth_counts):
            count = depth_counts[depth]
            histogram.observe(depth, count)
            depth_sum += depth * count
        sink.emit(
            "placement.scan",
            strategy=self.name,
            addresses=batch_size,
            depth_sum=depth_sum,
            depth_max=max(depth_counts),
        )

    def _scan_rows(self, np):
        """Per-copy threshold, forced and salt-base rows for the batch engine.

        Row ``c`` of the thresholds holds, per rank, the smallest ``t``
        with ``float64(t) * 2**-64 >= h_c(rank)``.  The conversion is
        monotone and the scale exact, so a draw selects (``unit < h``)
        exactly when its raw value is below ``t`` (:func:`_u64_thresholds`
        finds each ``t`` by bisection with NumPy's own conversion).
        ``u < t`` cannot say "always", so the forced selections stay
        explicit in a boolean row: ranks at or past the copy's deadline
        and ranks whose hazard is ``>= 1``.  All rows are padded with
        forced ranks to ``2n``, so a window of up to ``n`` ranks that
        starts below ``n`` never runs off the end.  Built once per
        instance, on the first batch.
        """
        rows = self._np_rows
        if rows is None:
            bin_count = len(self._rank_ids)
            hazards = np.zeros((self._copies, 2 * bin_count))
            forced = np.ones((self._copies, 2 * bin_count), dtype=bool)
            bases = np.zeros((self._copies, 2 * bin_count), dtype=np.uint64)
            hazards[:, :bin_count] = self._table.hazards
            bases[:, :bin_count] = self._draw_bases
            for copy, deadline in enumerate(self._deadlines):
                forced[copy, :deadline] = hazards[copy, :deadline] >= 1.0
            hazards[forced] = 0.0
            thresholds = _u64_thresholds(np, hazards)
            rows = self._np_rows = (thresholds, forced, bases)
        return rows

    def _place_many_np(self, np, addresses: Sequence[int]) -> BatchPlacement:
        """The NumPy engine behind :meth:`place_many`: a rank-window scan.

        Each copy walks the ranks ``width`` at a time (see
        :func:`_window_width`); ``width == 1`` takes the per-rank step of
        :meth:`_scan_ranks`, wider windows the block step of
        :meth:`_scan_windows`.
        """
        addr = as_u64_array(addresses)
        count = addr.shape[0]
        # The per-address premix is shared by every draw of the batch:
        # u64_from_base(base, a) == sm64(sm64(base ^ sm64(a))).
        mixed = kernels.premix(addr)
        columns = np.empty((self._copies, count), dtype=np.int64)
        width = _window_width(len(self._rank_ids), count)
        if width == 1:
            self._scan_ranks(np, mixed, columns)
        else:
            self._scan_windows(np, mixed, width, columns)
        sink = obs.sink()
        if sink.enabled:
            # The scan depth (last selected rank + 1) of every address.
            depth_counts = {
                int(depth): int(tally)
                for depth, tally in enumerate(np.bincount(columns[-1] + 1))
                if tally
            }
            self._record_scan(sink, count, depth_counts)
        return BatchPlacement(self._rank_ids, list(columns))

    def _scan_ranks(self, np, mixed, columns) -> None:
        """The per-rank step: one 1-D draw over the addresses at a rank.

        Each copy keeps its active addresses, and their premixed values,
        compacted at the front of two batch-sized buffers, so a rank
        costs O(active) whatever the batch size.  The addresses copy
        ``c`` selects at rank ``r`` join copy ``c + 1`` at rank ``r + 1``
        (appended); a rank's hits leave by moving the last active
        entries into their slots.  Entry order never matters: every
        address's draws depend on that address alone.
        """
        thresholds, forced, base_rows = self._scan_rows(np)
        count = mixed.shape[0]
        active = np.empty(count, dtype=np.int64)
        active_mixed = np.empty(count, dtype=np.uint64)
        entrants = {0: np.arange(count)}
        for copy in range(self._copies):
            threshold_row = thresholds[copy]
            forced_row = forced[copy]
            base_row = base_rows[copy]
            selected = {}
            size = 0
            rank = min(entrants)
            # The deadline's forced rank empties the active set before n.
            while True:
                joining = entrants.pop(rank, None)
                if joining is not None:
                    end = size + joining.size
                    active[size:end] = joining
                    active_mixed[size:end] = mixed[joining]
                    size = end
                elif not size:
                    if not entrants:
                        break
                    rank = min(entrants)
                    continue
                if forced_row[rank]:
                    taken = active[:size].copy()
                    size = 0
                else:
                    hits = kernels.u64_draws_from_premixed(
                        base_row[rank], active_mixed[:size]
                    ) < threshold_row[rank]
                    holes = np.flatnonzero(hits)
                    taken = active[holes]
                    size -= holes.size
                    movers = size + np.flatnonzero(~hits[size:])
                    holes = holes[: movers.size]
                    active[holes] = active[movers]
                    active_mixed[holes] = active_mixed[movers]
                if taken.size:
                    columns[copy, taken] = rank
                    selected[rank + 1] = taken
                rank += 1
            entrants = selected

    def _scan_windows(self, np, mixed, width: int, columns) -> None:
        """The block step: ``width`` ranks at a time.

        Every undecided address whose scan has reached the current window
        evaluates the window's draws in one (addresses × width) block,
        masks the ranks before its own start, and takes its first hit.
        """
        thresholds, forced, base_rows = self._scan_rows(np)
        count = mixed.shape[0]
        offsets = np.arange(width)
        position = np.zeros(count, dtype=np.int64)
        for copy in range(self._copies):
            threshold_row = thresholds[copy]
            forced_row = forced[copy]
            base_row = base_rows[copy]
            undecided = np.ones(count, dtype=bool)
            remaining = count
            start = 0
            # Invariant: every undecided address has position >= start,
            # and the deadline's forced rank ends the scan before n.
            while remaining:
                stop = start + width
                active = np.flatnonzero(undecided & (position < stop))
                if active.size:
                    hits = kernels.u64_draws_from_premixed(
                        base_row[None, start:stop], mixed[active, None]
                    ) < threshold_row[start:stop]
                    hits |= forced_row[start:stop]
                    begin = position[active] - start
                    hits &= offsets >= begin[:, None]
                    first = hits.argmax(axis=1)
                    hit = hits[np.arange(active.size), first]
                    taken = active[hit]
                    columns[copy, taken] = start + first[hit]
                    position[active] = np.where(hit, start + first + 1, stop)
                    undecided[taken] = False
                    remaining -= taken.size
                start = stop

    def primary(self, address: int) -> str:
        """Convenience accessor for the primary copy's bin."""
        return self.place_copy(address, 0)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    #
    # Strategy instances are immutable configuration snapshots, so the
    # walk cache can never go stale *within* an instance; reconfiguration
    # safety relies on callers (``Cluster._rebalance``/``add_device``)
    # building a fresh instance, which starts with empty caches.  The
    # regression tests in ``tests/cluster/test_walk_cache_invalidation``
    # pin that contract; these helpers exist so operational tooling can
    # audit and (defensively) drop the memo.

    def cache_info(self) -> Dict[str, int]:
        """Size and bound of the ``place_copy`` walk memo."""
        return {
            "entries": len(self._walk_cache),
            "capacity": _WALK_CACHE_SIZE,
        }

    def clear_walk_cache(self) -> None:
        """Drop every memoised walk (placements are recomputed on demand)."""
        self._walk_cache.clear()


class LinMirror(RedundantShare):
    """Algorithm 2: the 2-fold mirroring special case of Redundant Share.

    Kept as its own class because the paper develops and evaluates it
    separately (Figures 2 and 3); behaviourally identical to
    ``RedundantShare(copies=2)``.
    """

    name = "lin-mirror"

    def __init__(
        self,
        bins: Sequence[BinSpec],
        namespace: str = "",
        clip: bool = True,
    ) -> None:
        super().__init__(bins, copies=2, namespace=namespace, clip=clip)

    def secondary(self, address: int) -> str:
        """Convenience accessor for the mirror copy's bin."""
        return self.place_copy(address, 1)
