import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdiff2d import build_cross, cardinality
from chebdiff2d.hypercross import MAX_LEVEL


def brute_force(n, gamma, r):
    """Direct enumeration of the defining inequalities on the enclosing box
    of each column: k * j <= k * j**gamma <= n bounds j by n // k."""
    out = set()
    for k in range(r, n + 1):
        out.add((k, 0))
        for j in range(1, n // k + 1):
            if k * float(j) ** gamma <= n * (1 + 1e-12):
                out.add((k, j))
    return out


def test_example_gamma_one():
    cross = build_cross(4, 1.0, 1)
    expected = {(k, 0) for k in range(1, 5)} | {(k, 1) for k in range(1, 5)}
    expected |= {(1, 2), (2, 2), (1, 3), (1, 4)}
    assert set(cross) == expected
    assert len(cross) == 12


def test_example_level_equals_order():
    cross = build_cross(2, 1.0, 2)
    assert set(cross) == {(2, 0), (2, 1)}
    assert cardinality(3, 2.5, 3) == 2  # only (r, 0) and (r, 1) fit


def test_example_gamma_two():
    cross = build_cross(4, 2.0, 1)
    expected = ({(k, 0) for k in range(1, 5)} | {(k, 1) for k in range(1, 5)}
                | {(1, 2)})
    assert set(cross) == expected
    assert cardinality(4, 2.0, 1) == 9


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_cross(1, 1.0, 2)  # n < r
    with pytest.raises(ValueError):
        build_cross(4, 0.9, 1)
    with pytest.raises(ValueError):
        build_cross(4, 1.0, 0)


def test_enumeration_order_is_lexicographic():
    cross = build_cross(9, 1.3, 2)
    indices = list(cross)
    assert indices == sorted(indices)


def scalar_j_max(n, gamma, k):
    """Largest j admitted in column k by the scalar rule, by bisection."""
    lo, hi = 0, n  # j = 0 is always admitted; j = n + 1 never is
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if k * float(mid) ** gamma <= n * (1 + 1e-12):
            lo = mid
        else:
            hi = mid - 1
    return lo


gammas = st.one_of(st.sampled_from([1.0, 2.0, 1.5]),
                   st.floats(1.0, 4.0, allow_nan=False))


@settings(deadline=None, database=None)
@given(data=st.data(), r=st.integers(1, 3), gamma=gammas)
def test_membership_matches_enumeration_fuzz(data, r, gamma):
    n = data.draw(st.integers(r, 300), label="n")
    cross = build_cross(n, gamma, r)
    expected = brute_force(n, gamma, r)
    assert list(cross) == sorted(expected)
    assert len(cross) == len(expected)
    tops = {}
    for k, j in expected:
        tops[k] = max(tops.get(k, 0), j)
    columns = range(r, n + 1)
    assert [cross.j_max(k) for k in columns] == [tops[k] for k in columns]
    assert cross.j_bound == max(tops.values())
    # spot membership probes, including out-of-range indices
    probes = data.draw(st.lists(st.tuples(st.integers(0, n + 3),
                                          st.integers(0, n + 3)), max_size=30),
                       label="probes")
    for index in probes:
        assert (index in cross) == (index in expected)
    # column bounds of a large cross at sampled columns
    big = build_cross(2**17, gamma, r)
    ks = data.draw(st.lists(st.integers(r, 2**17), min_size=1, max_size=10),
                   label="ks")
    for k in ks:
        assert big.j_max(k) == scalar_j_max(2**17, gamma, k)


def test_monotone_in_level_and_shape(rng):
    for _ in range(50):
        r = int(rng.integers(1, 3))
        n = int(rng.integers(r, 40))
        gamma = float(rng.uniform(1.0, 2.5))
        base = set(build_cross(n, gamma, r))
        assert base <= set(build_cross(n + 1, gamma, r))
        assert set(build_cross(n, gamma + 0.7, r)) <= base


def test_cardinality_avoids_materialization():
    # big level: counting must stay cheap and agree with the j-column sums
    n = 200_000
    count = cardinality(n, 1.0, 1)
    assert count == sum(n // k + 1 for k in range(1, n + 1))


def test_level_limit():
    assert build_cross(MAX_LEVEL, 1.0, 1).n == MAX_LEVEL  # one bound per column
    with pytest.raises(ValueError, match=f"exceeds the limit MAX_LEVEL = {MAX_LEVEL}"):
        build_cross(MAX_LEVEL + 1, 1.0, 1)


@pytest.mark.parametrize("gamma,normalizer", [
    (2.0, lambda n: n),
    (1.0, lambda n: n * math.log(n)),
])
def test_cardinality_growth_bracket(gamma, normalizer):
    ratios = [cardinality(2**e, gamma, 1) / normalizer(2**e)
              for e in range(10, 18)]
    assert max(ratios) / min(ratios) < 4.0


def test_j_bound_attained_at_first_column():
    cross = build_cross(50, 1.5, 2)
    assert cross.j_bound == cross.j_max(2)
    assert all(j <= cross.j_bound for _, j in cross)
