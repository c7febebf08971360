"""Batch placement equivalence: ``place_many`` vs the scalar loop.

The vectorized pipeline (and, without NumPy, the scalar loop) must agree
element-wise with ``[place(a) for a in addresses]`` for every strategy,
across random capacity vectors, replication degrees and namespaces.
"""

import collections
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro.core import FastRedundantShare, LinMirror, RedundantShare
from repro.core.redundant_share import _window_width
from repro.exceptions import PlacementError
from repro.placement import (
    BatchPlacement,
    ConsistentHashingPlacer,
    CrushStrategy,
    RendezvousPlacer,
    TrivialReplication,
    registry,
)
from repro.types import bins_from_capacities

REPLICATED_FACTORIES = {
    "redundant-share": lambda bins, copies, ns: RedundantShare(
        bins, copies=copies, namespace=ns
    ),
    "lin-mirror": lambda bins, copies, ns: LinMirror(bins, namespace=ns),
    "fast-redundant-share": lambda bins, copies, ns: FastRedundantShare(
        bins, copies=copies, namespace=ns
    ),
    "trivial": lambda bins, copies, ns: TrivialReplication(
        bins, copies=copies, namespace=ns
    ),
    "crush": lambda bins, copies, ns: CrushStrategy(
        bins, copies=copies, namespace=ns
    ),
}

SINGLE_COPY_FACTORIES = {
    "rendezvous": lambda bins, ns: RendezvousPlacer(bins, namespace=ns),
    "consistent-hashing": lambda bins, ns: ConsistentHashingPlacer(
        bins, namespace=ns
    ),
}

capacities_vectors = st.lists(
    st.integers(min_value=1, max_value=2_000), min_size=5, max_size=12
)
replication_degrees = st.integers(min_value=2, max_value=4)
namespaces = st.sampled_from(["", "ns-a", "tenant/7"])
address_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    min_size=1,
    max_size=64,
)


def scalar_rows(strategy, addresses):
    return [tuple(strategy.place(address)) for address in addresses]


@pytest.mark.parametrize("name", sorted(REPLICATED_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(
    capacities=capacities_vectors,
    copies=replication_degrees,
    namespace=namespaces,
    addresses=address_lists,
)
def test_place_many_matches_scalar_loop(
    name, capacities, copies, namespace, addresses
):
    strategy = REPLICATED_FACTORIES[name](
        bins_from_capacities(capacities), copies, namespace
    )
    try:
        expected = scalar_rows(strategy, addresses)
    except PlacementError:
        # CRUSH's bounded retry can fail on pathological weight vectors;
        # that is a property of the strategy, not of the batch engine.
        assume(False)
    batch = strategy.place_many(addresses)
    assert len(batch) == len(addresses)
    assert [tuple(row) for row in batch.tuples()] == expected


#: Window-width regimes of the Redundant Share batch engine, each with
#: the batch sizes that reach it on ``n`` bins (width = 32n // B,
#: clamped to [1, n]).
WIDTH_REGIMES = {
    "full-scan": lambda n: st.integers(min_value=0, max_value=32),
    "partial": lambda n: st.integers(min_value=33, max_value=16 * n),
    "single-rank": lambda n: st.integers(
        min_value=16 * n + 1, max_value=16 * n + 64
    ),
}
EXTREME_ADDRESSES = [-(2**63), -1, 0, 2**63 - 1, 2**63, 2**64 - 1]
SAMPLED_ROWS = 48


@pytest.mark.skipif(
    not compat.HAVE_NUMPY, reason="the window scan is the NumPy engine"
)
@pytest.mark.parametrize("regime", sorted(WIDTH_REGIMES))
@pytest.mark.parametrize("name", ["lin-mirror", "redundant-share"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_window_scan_matches_scalar_at_every_width(name, regime, data):
    copies = 2 if name == "lin-mirror" else data.draw(
        st.integers(min_value=1, max_value=4), label="copies"
    )
    # 1 < W < n needs at least 3 bins.
    minimum = max(copies, 3) if regime == "partial" else copies
    bin_count = data.draw(
        st.integers(min_value=minimum, max_value=1200), label="bins"
    )
    size = data.draw(WIDTH_REGIMES[regime](bin_count), label="batch")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    capacities = [rng.randint(1, 2_000) for _ in range(bin_count)]
    if data.draw(st.booleans(), label="clipped"):
        # One bin holds at least 1/k of the capacity: clipping caps it,
        # so the scan meets hazards >= 1 as well as deadline ranks.
        capacities[rng.randrange(bin_count)] = sum(capacities)
    strategy = REPLICATED_FACTORIES[name](
        bins_from_capacities(capacities), copies, ""
    )
    width = _window_width(bin_count, size)
    assert {
        "full-scan": width == bin_count,
        "partial": 1 < width < bin_count,
        "single-rank": width == 1,
    }[regime]
    addresses = [rng.randint(-(2**63), 2**64 - 1) for _ in range(size)]
    addresses[: len(EXTREME_ADDRESSES)] = EXTREME_ADDRESSES[:size]
    rows = strategy.place_many(addresses).tuples()
    assert len(rows) == size
    sample = sorted(rng.sample(range(size), min(size, SAMPLED_ROWS)))
    if size:
        sample.append(size - 1)
    for index in sample:
        assert rows[index] == tuple(strategy.place(addresses[index]))


@pytest.mark.parametrize("name", sorted(SINGLE_COPY_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(
    capacities=capacities_vectors,
    namespace=namespaces,
    addresses=address_lists,
)
def test_single_copy_place_many_matches_scalar_loop(
    name, capacities, namespace, addresses
):
    placer = SINGLE_COPY_FACTORIES[name](
        bins_from_capacities(capacities), namespace
    )
    assert placer.place_many(addresses) == [
        placer.place(address) for address in addresses
    ]


@settings(max_examples=25, deadline=None)
@given(
    capacities=capacities_vectors,
    copies=replication_degrees,
    addresses=address_lists,
)
def test_batch_counts_match_scalar_histogram(capacities, copies, addresses):
    strategy = RedundantShare(bins_from_capacities(capacities), copies=copies)
    expected = collections.Counter(
        bin_id
        for address in addresses
        for bin_id in strategy.place(address)
    )
    assert strategy.place_many(addresses).counts() == dict(expected)


class TestPurePythonFallback:
    """The fallback path must agree exactly with the NumPy pipeline."""

    ADDRESSES = list(range(-7, 400)) + [2**63, 2**64 - 1]

    def fixed_strategies(self):
        # Every registered strategy: without NumPy each must take its
        # scalar loop and never enter a NumPy-only kernel.
        bins = bins_from_capacities([100, 250, 60, 400, 90, 130, 310, 55])
        return [
            registry.create(name, bins, copies=3)
            for name in registry.strategy_names()
        ]

    def test_fallback_matches_numpy_pipeline(self, monkeypatch):
        baseline = [
            [tuple(row) for row in s.place_many(self.ADDRESSES).tuples()]
            for s in self.fixed_strategies()
        ]
        monkeypatch.setattr(compat, "np", None)
        fallback = [
            [tuple(row) for row in s.place_many(self.ADDRESSES).tuples()]
            for s in self.fixed_strategies()
        ]
        assert fallback == baseline

    def test_fallback_matches_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(compat, "np", None)
        for strategy in self.fixed_strategies():
            batch = strategy.place_many(self.ADDRESSES)
            assert isinstance(batch, BatchPlacement)
            assert [tuple(row) for row in batch.tuples()] == scalar_rows(
                strategy, self.ADDRESSES
            )

    def test_fallback_counts(self, monkeypatch):
        monkeypatch.setattr(compat, "np", None)
        strategy = RedundantShare(
            bins_from_capacities([10, 20, 30, 40]), copies=2
        )
        batch = strategy.place_many(range(200))
        expected = collections.Counter(
            bin_id for row in batch.tuples() for bin_id in row
        )
        assert batch.counts() == dict(expected)


class TestBatchPlacementApi:
    def strategy(self):
        return RedundantShare(
            bins_from_capacities([120, 80, 200, 40, 160]), copies=3
        )

    def test_len_copies_and_iteration(self):
        batch = self.strategy().place_many(range(50))
        assert len(batch) == 50
        assert batch.copies == 3
        assert list(batch) == batch.tuples()

    def test_ids_at_position(self):
        strategy = self.strategy()
        batch = strategy.place_many(range(50))
        assert list(batch.ids_at(0)) == [
            strategy.place(address)[0] for address in range(50)
        ]
        assert list(batch.ids_at(2)) == [
            strategy.place(address)[2] for address in range(50)
        ]

    def test_empty_batch(self):
        batch = self.strategy().place_many([])
        assert len(batch) == 0
        assert batch.tuples() == []
        assert batch.counts() == {}
