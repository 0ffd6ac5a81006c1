"""Value semantics of the record types that algorithms and callers share:
construction checks, equality, hashing, ordering, printing, immutability and
what each record computes from its fields."""

import copy
import pickle

import pytest

from spancores import DecompositionStats, Interval, SpanCore


class TestInterval:
    @pytest.mark.parametrize("start, end", [(-1, 0), (2, 1), (-3, -1)])
    def test_rejects_invalid_bounds(self, start, end):
        with pytest.raises(ValueError, match="invalid interval"):
            Interval(start, end)

    def test_equality_and_hash(self):
        assert Interval(1, 3) == Interval(start=1, end=3)
        assert Interval(1, 3) != Interval(1, 4)
        assert Interval(1, 3) != (1, 3)
        assert hash(Interval(1, 3)) == hash(Interval(1, 3))
        assert len({Interval(1, 3), Interval(1, 3), Interval(0, 3)}) == 2

    def test_ordered_by_start_then_end(self):
        spans = [Interval(2, 2), Interval(0, 5), Interval(0, 1)]
        assert sorted(spans) == [Interval(0, 1), Interval(0, 5), Interval(2, 2)]
        assert Interval(0, 1) < Interval(0, 2) <= Interval(0, 2) < Interval(1, 1)
        assert Interval(1, 1) > Interval(0, 2) and Interval(1, 1) >= Interval(1, 1)
        assert not Interval(0, 2) < Interval(0, 2)
        with pytest.raises(TypeError):
            Interval(0, 1) < (0, 2)

    def test_repr_and_str(self):
        assert repr(Interval(0, 2)) == "Interval(start=0, end=2)"
        assert str(Interval(0, 2)) == "[0,2]"

    def test_immutable(self):
        span = Interval(0, 2)
        with pytest.raises(AttributeError):
            span.start = 1
        with pytest.raises(AttributeError):
            del span.end
        assert span == Interval(0, 2)

    def test_iterates_its_timestamps(self):
        span = Interval(2, 4)
        assert list(span) == [2, 3, 4]
        assert span.length == 3
        assert span.covers(2) and span.covers(4) and not span.covers(5)
        assert span.within(Interval(1, 4)) and span.within(span)
        assert not span.within(Interval(3, 4))

    def test_copies_and_pickles(self):
        span = Interval(1, 2)
        assert copy.copy(span) == span
        assert pickle.loads(pickle.dumps(span)) == span


class TestSpanCore:
    def core(self, order=2, start=0, end=1, members=(0, 1, 2)):
        return SpanCore(order=order, span=Interval(start, end), members=frozenset(members))

    def test_rejects_nonpositive_order_and_empty_members(self):
        with pytest.raises(ValueError, match="order must be positive"):
            self.core(order=0)
        with pytest.raises(ValueError, match="nonempty"):
            self.core(members=())

    def test_equality_and_hash(self):
        assert self.core() == SpanCore(2, Interval(0, 1), frozenset({0, 1, 2}))
        assert self.core() != self.core(members=(0, 1))
        assert self.core() != self.core(order=1)
        assert self.core() != (2, Interval(0, 1), frozenset({0, 1, 2}))
        assert len({self.core(), self.core(), self.core(end=2)}) == 2

    def test_not_ordered_and_not_a_sequence(self):
        with pytest.raises(TypeError):
            self.core() < self.core(order=3)
        with pytest.raises(TypeError):
            len(self.core())

    def test_repr(self):
        assert repr(self.core(order=1, members=(3,))) == (
            "SpanCore(order=1, span=Interval(start=0, end=1), members=frozenset({3}))")

    def test_immutable(self):
        core = self.core()
        with pytest.raises(AttributeError):
            core.order = 5
        with pytest.raises(AttributeError):
            del core.members
        assert core == self.core()

    def test_key_and_dominance(self):
        inner = self.core(order=2, start=1, end=2)
        outer = self.core(order=3, start=0, end=2)
        assert outer.key == (3, 0, 2)
        assert outer.dominates(inner) and not inner.dominates(outer)
        assert not outer.dominates(outer)
        assert not self.core(order=1, start=0, end=3).dominates(inner)

    def test_copies_and_pickles(self):
        assert copy.copy(self.core()) == self.core()
        assert pickle.loads(pickle.dumps(self.core())) == self.core()


class TestDecompositionStats:
    def test_starts_at_zero_and_records_peels(self):
        stats = DecompositionStats()
        assert (stats.intervals_processed, stats.peel_vertices,
                stats.candidate_ends, stats.dp_runs) == (0, 0, 0, 0)
        stats.record(3)
        stats.record(0)
        assert stats == DecompositionStats(intervals_processed=2, peel_vertices=3)
        assert stats != DecompositionStats(2, 3, 0, 1)

    def test_mutable_and_unhashable(self):
        stats = DecompositionStats()
        stats.dp_runs += 4
        stats.candidate_ends = 7
        assert stats == DecompositionStats(candidate_ends=7, dp_runs=4)
        with pytest.raises(TypeError):
            hash(stats)

    def test_repr(self):
        assert repr(DecompositionStats(1, 2, 3, 4)) == (
            "DecompositionStats(intervals_processed=1, peel_vertices=2, "
            "candidate_ends=3, dp_runs=4)")
