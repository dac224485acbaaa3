from gorlink.rng import SplitStream


def test_streams_are_deterministic():
    a = [SplitStream(42).u64() for _ in range(5)]
    b = [SplitStream(42).u64() for _ in range(5)]
    assert a == b
    assert SplitStream(42).u64() != SplitStream(43).u64()


def test_children_are_independent_of_parent_draws():
    parent = SplitStream(7)
    child_before = parent.child("x").u64()
    parent.u64()
    parent.u64()
    assert parent.child("x").u64() == child_before


def test_distinct_paths_distinct_values():
    s = SplitStream(1)
    vals = {s.child(label).u64() for label in ("a", "b", "c", "a/b", ("a", "b"))}
    assert len(vals) >= 4  # "a/b" vs child("a","b") may collide by design


def test_below_range_and_coverage():
    s = SplitStream(5).child("below")
    seen = set()
    for _ in range(400):
        v = s.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
