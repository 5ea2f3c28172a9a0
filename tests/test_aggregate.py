import statistics

import numpy as np
import pytest

from vidmem.aggregate import STRATEGIES, aggregate_rows, by_length
from vidmem.corpus import clamp_unit


def test_median_odd_count():
    table = aggregate_rows({"v1": [0.2, 0.8, 0.4]})
    assert table.scores["v1"] == 0.4


def test_median_even_count_is_mean_of_middle_two():
    table = aggregate_rows({"v1": [0.2, 0.4, 0.6, 0.8]})
    assert table.scores["v1"] == 0.5


def test_soundless_video_fallback():
    table = aggregate_rows({"v1": [0.3, 0.5]}, id_universe=["v1", "v2"])
    assert table.scores["v1"] == 0.4
    assert table.scores["v2"] == 0.4
    assert table.coverage == {"v1": "direct", "v2": "fallback"}


def test_fallback_is_mean_of_direct_scores():
    per_row = {"a": [0.1, 0.2], "b": [0.9], "c": [0.4, 0.6, 0.5]}
    table = aggregate_rows(per_row, id_universe=["a", "b", "c", "d"])
    direct = [table.scores[v] for v in ("a", "b", "c")]
    assert abs(table.scores["d"] - sum(direct) / 3) <= 1e-12


def test_permutation_invariance_exact():
    rng = np.random.default_rng(0)
    rows = list(rng.random(9))
    base = aggregate_rows({"v": rows}).scores["v"]
    for _ in range(100):
        rng.shuffle(rows)
        assert aggregate_rows({"v": rows}).scores["v"] == base


def test_singleton_all_strategies_agree():
    for strategy in ("median", "mean", "max", "min"):
        assert aggregate_rows({"v": [0.37]}, strategy=strategy).scores["v"] == 0.37


def test_monotonicity():
    rows = [0.2, 0.5, 0.8]
    for strategy in ("median", "mean", "max"):
        base = aggregate_rows({"v": rows}, strategy=strategy).scores["v"]
        bumped = aggregate_rows({"v": [0.2, 0.7, 0.8]}, strategy=strategy).scores["v"]
        assert bumped >= base


_REFERENCE = {"median": statistics.median, "mean": lambda xs: sum(xs) / len(xs),
              "max": max, "min": min}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_equals_per_video_reference(strategy):
    """Ragged row counts (even, odd, one and none), ties, rows given as lists
    or arrays, and videos with no entry at all."""
    rng = np.random.default_rng(STRATEGIES.index(strategy))
    for trial in range(40):
        per_row = {}
        for i, n_rows in enumerate(list(range(9)) + rng.integers(0, 12, 30).tolist()):
            rows = rng.normal(size=n_rows)
            if trial % 4 == 1:  # ties
                rows = np.round(rows, 1)
            elif trial % 4 == 3:  # ties between 0.0 and -0.0 too
                rows = rng.choice([-1.0, -0.0, 0.0, 1.0], size=n_rows)
            per_row[f"v{i:02d}"] = rows if i % 3 == 0 else list(rows)
        ids = list(rng.permutation(list(per_row) + ["w0", "w1"]))
        table = aggregate_rows(per_row, strategy=strategy, id_universe=ids)
        direct = {vid: float(_REFERENCE[strategy](list(per_row[vid]))) for vid in ids
                  if len(per_row.get(vid, ()))}
        fallback = sum(direct.values()) / len(direct)
        # repr tells 0.0 from -0.0
        assert [(vid, repr(x)) for vid, x in table.scores.items()] == [
            (vid, repr(direct.get(vid, fallback))) for vid in ids]
        assert list(table.coverage.items()) == [(vid, "direct" if vid in direct else "fallback")
                                                for vid in ids]


def test_empty_universe_rejected():
    with pytest.raises(ValueError):
        aggregate_rows({}, id_universe=[])


def test_all_rowless_rejected():
    with pytest.raises(ValueError):
        aggregate_rows({}, id_universe=["v1", "v2"])


def test_unknown_strategy():
    with pytest.raises(ValueError):
        aggregate_rows({"v": [0.5]}, strategy="mode")


def test_clamp_unit():
    assert clamp_unit(1.03) == 1.0
    assert clamp_unit(-0.02) == 0.0
    assert clamp_unit(0.667) == 0.667


class TestByLength:
    @staticmethod
    def layout(counts, starts=None):
        counts = np.array(counts, np.intp)
        return (np.cumsum(counts) - counts if starts is None else np.array(starts, np.intp)), counts

    def test_blocks_in_ascending_length_and_input_order(self):
        starts, counts = self.layout([3, 1, 3, 2, 1])
        buckets = list(by_length(starts, counts))
        assert [index.shape[1] for _, index in buckets] == [1, 2, 3]
        assert [positions.tolist() for positions, _ in buckets] == [[1, 4], [3], [0, 2]]
        assert [index.tolist() for _, index in buckets] == [[[3], [9]], [[7, 8]],
                                                            [[0, 1, 2], [4, 5, 6]]]

    def test_two_dimensional_groups(self):
        values = np.arange(15.0).reshape(5, 3)
        starts, counts = self.layout([2, 1, 2])
        (short, short_index), (long, long_index) = by_length(starts, counts)
        assert (short.tolist(), values[short_index].shape) == ([1], (1, 1, 3))
        block = values[long_index]
        assert (long.tolist(), block.shape, block.flags.c_contiguous) == ([0, 2], (2, 2, 3), True)
        assert np.array_equal(block, np.stack([values[0:2], values[3:5]]))

    def test_out_of_order_noncontiguous_starts(self):
        # a split's videos: their rows lie anywhere in the feature set, in any order
        starts, counts = self.layout([2, 1, 2, 3], starts=[9, 0, 2, 5])
        buckets = [(positions.tolist(), index.tolist())
                   for positions, index in by_length(starts, counts)]
        assert buckets == [([1], [[0]]), ([0, 2], [[9, 10], [2, 3]]), ([3], [[5, 6, 7]])]

    def test_no_groups(self):
        assert list(by_length(*self.layout([]))) == []
