"""The nearest-rank percentile and the ten-samples-beyond rule."""

import pytest

from bench.stats import beyond, highest_percentile, percentile, rank


def test_nearest_rank_is_a_sample():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == 5.0
    assert percentile(xs, 100) == 5.0
    assert percentile([7.0], 90) == 7.0


def test_rank_uses_exact_integer_arithmetic():
    # 0.9 * 100 must give rank 90, not 91
    assert rank(100, 90) == 90
    assert rank(101, 90) == 91
    assert rank(10, 50) == 5
    assert rank(1, 1) == 1


@pytest.mark.parametrize("n,pct", [(0, 50), (10, 0), (10, 101)])
def test_rank_rejects_bad_input(n, pct):
    with pytest.raises(ValueError):
        rank(n, pct)


def test_ten_beyond_rule():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert highest_percentile(100) == 90
    assert highest_percentile(99) == 75
    assert highest_percentile(200) == 95
    assert highest_percentile(1000) == 99
    assert highest_percentile(20) == 50
    assert highest_percentile(19) is None
    assert highest_percentile(0) is None


def test_percentile_lands_mid_block_for_odd_multiples_of_five():
    # k passes of J jobs with J an odd multiple of 5: the rank of the 50th and
    # 90th percentiles sits in the middle of one job's k samples for every k
    for J in (15, 45, 75):
        for k in range(1, 12):
            for pct in (50, 90):
                r = rank(k * J, pct)
                job, offset = divmod(r - 1, k)
                assert job == (pct * J) // 100
                assert abs(offset - (k - 1) / 2) <= 0.5

