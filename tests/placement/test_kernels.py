"""The shared vectorized kernel library, pinned against the scalar pipeline.

Every kernel in :mod:`repro.placement.kernels` promises element-wise
equality with a scalar reference (the ``u64_from_base`` hash chain, the
``-w / ln(u)`` and ``ln(u) / w`` score expressions, the strict-``>``
races, :meth:`CumulativeTable.select`).  These tests pin that promise
directly, plus the edge cases every porting strategy leans on: empty
batches, single-column matrices, full-width (k == n) top-k races, and
the guard's behaviour on exact and sub-ulp ties.  The hash pipeline is
bit-exact; the *score* matrices are pinned to a relative tolerance —
NumPy's SIMD ``log`` may differ from ``math.log`` by 1 ulp, which is
precisely what :data:`~repro.placement.kernels.TIE_GUARD` exists to
absorb.  The kernels are NumPy-only (without NumPy every strategy runs
its scalar ``place()`` loop instead), so their tests skip on the
no-NumPy leg; :class:`TestBlocks` covers plain Python and runs on both.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._compat as compat
from repro.hashing.alias import CumulativeTable
from repro.hashing.primitives import unit_from_base, unit_from_base_open
from repro.placement import kernels

addresses_lists = st.lists(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    min_size=0,
    max_size=40,
)
bases_lists = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8
)
salts = st.integers(min_value=0, max_value=2**32)


needs_numpy = pytest.mark.skipif(
    compat.get_numpy() is None,
    reason="the kernels are NumPy-only; without NumPy no strategy calls them",
)


def as_rows(matrix):
    """Normalise an (m × n) kernel result to nested Python lists."""
    return [list(row) for row in matrix.tolist()]


def float_matrix(rows):
    """Rows as a float64 score matrix."""
    np = compat.get_numpy()
    return np.asarray(rows, dtype=np.float64)


@needs_numpy
class TestHashPipeline:
    @given(addresses=addresses_lists, bases=bases_lists)
    @settings(max_examples=50, deadline=None)
    def test_open_draw_matrix_matches_scalar(self, addresses, bases):
        mixed = kernels.premix(addresses)
        matrix = kernels.open_draw_matrix(bases, mixed)
        assert as_rows(matrix) == [
            [unit_from_base_open(base, address) for base in bases]
            for address in addresses
        ]

    @given(addresses=addresses_lists, base=st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_closed_draws_match_scalar(self, addresses, base):
        mixed = kernels.premix(addresses)
        draws = kernels.draws_from_premixed(base, mixed)
        assert list(draws) == [
            unit_from_base(base, address) for address in addresses
        ]

    @given(
        addresses=addresses_lists,
        bases=bases_lists,
        replica=salts,
        attempt=salts,
    )
    @settings(max_examples=50, deadline=None)
    def test_fold_chain_matches_multivalue_u64(
        self, addresses, bases, replica, attempt
    ):
        # state_matrix → fold_salt ×2 → open_draws_from_state is exactly
        # unit_from_base_open(base, address, replica, attempt) — the
        # CRUSH straw pipeline.
        mixed = kernels.premix(addresses)
        states = kernels.fold_salt(
            kernels.fold_salt(kernels.state_matrix(bases, mixed), replica),
            attempt,
        )
        draws = kernels.open_draws_from_state(states)
        assert as_rows(draws) == [
            [
                unit_from_base_open(base, address, replica, attempt)
                for base in bases
            ]
            for address in addresses
        ]


@needs_numpy
class TestScoreMatrices:
    WEIGHTS = [3.0, 1.0, 0.25]
    UNIFORMS = [[0.5, 0.9, 0.1], [0.999, 0.001, 0.42]]

    def test_hrw_scores_match_scalar_expression(self):
        scores = kernels.hrw_score_matrix(
            self.WEIGHTS, float_matrix(self.UNIFORMS)
        )
        for row, uniforms in zip(as_rows(scores), self.UNIFORMS):
            assert row == pytest.approx(
                [
                    -weight / math.log(uniform)
                    for weight, uniform in zip(self.WEIGHTS, uniforms)
                ],
                rel=1e-12,
            )

    def test_straw2_scores_match_scalar_expression(self):
        scores = kernels.straw2_score_matrix(
            self.WEIGHTS, float_matrix(self.UNIFORMS)
        )
        for row, uniforms in zip(as_rows(scores), self.UNIFORMS):
            assert row == pytest.approx(
                [
                    math.log(uniform) / weight
                    for weight, uniform in zip(self.WEIGHTS, uniforms)
                ],
                rel=1e-12,
            )


@needs_numpy
class TestGuardedSelection:
    def test_argmax_first_index_and_consumption(self):
        scores = float_matrix([[1.0, 5.0, 3.0], [9.0, 2.0, 8.0]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [1, 0]
        assert list(unsafe) == [False, False]
        # Winning entries were consumed: the next race yields runners-up.
        winners2, _ = kernels.argmax_with_guard(scores)
        assert list(winners2) == [2, 2]

    def test_exact_tie_is_unsafe(self):
        scores = float_matrix([[2.0, 2.0, 1.0], [3.0, 1.0, 0.5]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [0, 0]  # first index on ties
        assert list(unsafe) == [True, False]

    def test_sub_guard_margin_is_unsafe(self):
        scores = float_matrix([[2.0, 2.0 * (1.0 - 1e-12)]])
        _, unsafe = kernels.argmax_with_guard(scores)
        assert list(unsafe) == [True]
        scores = float_matrix([[2.0, 2.0 * (1.0 - 1e-6)]])
        _, unsafe = kernels.argmax_with_guard(scores)
        assert list(unsafe) == [False]

    def test_negative_scores_use_absolute_margin(self):
        # straw2 scores are negative; the guard must still scale by |best|.
        scores = float_matrix([[-2.0, -2.0 * (1.0 + 1e-12)]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [0]
        assert list(unsafe) == [True]

    def test_single_column_race_is_safe(self):
        # A single device can never tie with a runner-up.
        scores = float_matrix([[0.5], [0.25]])
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == [0, 0]
        assert list(unsafe) == [False, False]

    def test_empty_batch(self):
        np = compat.get_numpy()
        scores = np.empty((0, 3), dtype=np.float64)
        winners, unsafe = kernels.argmax_with_guard(scores)
        assert list(winners) == []
        assert list(unsafe) == []

    def test_topk_full_width_orders_by_descending_score(self):
        # k == n: every column is drawn, in descending score order.
        scores = float_matrix([[1.0, 3.0, 2.0]])
        winners, unsafe = kernels.topk_with_guard(scores, 3)
        assert [list(draw) for draw in winners] == [[1], [2], [0]]
        assert list(unsafe) == [False]


@needs_numpy
class TestCdfGather:
    @given(
        masses=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=9
        ),
        draws=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            min_size=0,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_table_select(self, masses, draws):
        table = CumulativeTable(masses)
        gathered = kernels.cdf_gather(table.boundaries(), draws)
        assert [int(value) for value in gathered] == [
            table.select(draw) for draw in draws
        ]

    def test_empty_batch(self):
        table = CumulativeTable([1.0, 2.0])
        assert list(kernels.cdf_gather(table.boundaries(), [])) == []


class TestBlocks:
    def test_cover_range_without_overlap(self):
        spans = list(kernels.blocks(20_001, block=8192))
        assert spans == [(0, 8192), (8192, 16384), (16384, 20001)]

    def test_empty_count_yields_nothing(self):
        assert list(kernels.blocks(0)) == []
