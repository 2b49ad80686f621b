from itertools import combinations, count, product

import pytest

from fingerbound.cli import main
from fingerbound.core import AccessSequence, Point, PointSet
from fingerbound.errors import TooLargeError
from fingerbound.geometry import RowSweep, is_arborally_satisfied, unsatisfied_pairs
from fingerbound.greedy import greedy_execute
from fingerbound.opt import opt_satisfied_superset
from fingerbound.workloads import Splitmix64


def test_already_satisfied_input():
    res = opt_satisfied_superset(AccessSequence(3, (2, 2)))
    assert res.size == 2


def test_sequential_needs_two_extra_points():
    # one added point cannot witness both disjoint rectangles (1,1)-(2,2)
    # and (2,2)-(3,3); adding (2,1) and (3,2) reaches 5
    res = opt_satisfied_superset(AccessSequence(3, (1, 2, 3)))
    assert res.size == 5


def test_single_rectangle_needs_one_witness():
    res = opt_satisfied_superset(AccessSequence(2, (1, 2)))
    assert res.size == 3


def test_guard():
    with pytest.raises(TooLargeError):
        opt_satisfied_superset(AccessSequence(6, (1,) * 3))
    with pytest.raises(TooLargeError):
        opt_satisfied_superset(AccessSequence(2, (1,) * 6))


def test_witness_is_satisfied_superset():
    seq = AccessSequence(4, (1, 4, 2, 3))
    res = opt_satisfied_superset(seq)
    assert is_arborally_satisfied(res.witness)
    assert len(res.witness) == res.size
    for t, k in enumerate(seq, start=1):
        assert Point(k, t) in res.witness
    assert res.size >= seq.m


def test_greedy_dominates_opt_exhaustive_small():
    # slice of the exhaustive dominance check (full range in acceptance)
    for accesses in product(range(1, 4), repeat=3):
        seq = AccessSequence(3, accesses)
        points, _ = greedy_execute(seq)
        res = opt_satisfied_superset(seq)
        assert res.size <= len(points)


def count_pointsets(monkeypatch):
    """A list that gains one entry per `PointSet` built from now on."""
    built = []
    init = PointSet.__init__

    def counting_init(self, points):
        built.append(1)
        init(self, points)

    monkeypatch.setattr(PointSet, "__init__", counting_init)
    return built


def test_opt_builds_only_its_witness(monkeypatch):
    built = count_pointsets(monkeypatch)
    res = opt_satisfied_superset(AccessSequence(4, (1, 4, 2, 3)))
    assert len(built) == 1
    assert len(res.witness) == res.size


def test_opt_command_builds_one_point_set(monkeypatch, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("4 4\n1\n4\n2\n3\n")
    built = count_pointsets(monkeypatch)
    assert main(["opt", "--trace", str(trace)]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out.startswith("opt_size,greedy_size,ratio\n")


def test_search_answers_build_no_point_sets(monkeypatch):
    built = count_pointsets(monkeypatch)
    sweep = RowSweep(4)
    for t, x in enumerate((1, 4, 2, 3), start=1):
        rows = [row for extra in range(4) for row in sweep.completions(x, extra)]
        assert rows and all(type(row) is list and x in row for row in rows)
        sweep.commit(rows[0], t)
    assert built == []


def definition_opt(seq):
    """The fewest points of any superset of the accesses that has no
    unsatisfied pair, by trying every superset of the grid by size."""
    base = [Point(k, t) for t, k in enumerate(seq, start=1)]
    free = [Point(k, t) for t in range(1, seq.m + 1) for k in range(1, seq.n + 1)
            if Point(k, t) not in base]
    for size in count():
        if any(not unsatisfied_pairs(PointSet(base + list(added)))
               for added in combinations(free, size)):
            return seq.m + size


def test_opt_matches_the_definition():
    # every sequence with n, m <= 3
    for n in range(1, 4):
        for m in range(1, 4):
            for accesses in product(range(1, n + 1), repeat=m):
                seq = AccessSequence(n, accesses)
                assert opt_satisfied_superset(seq).size == definition_opt(seq), accesses


def test_opt_sizes_of_seeded_traces():
    # pinned from the earlier search over subsets of the free grid points
    rng = Splitmix64(2028)
    shapes = ((5, 4), (4, 5), (5, 5))
    sizes = []
    for i in range(20):
        n, m = shapes[i % 3]
        seq = AccessSequence(n, tuple(rng.below(n) + 1 for _ in range(m)))
        sizes.append(opt_satisfied_superset(seq).size)
    assert sizes == [8, 8, 7, 7, 9, 9, 7, 7, 8, 6, 10, 10, 6, 8, 8, 7, 7, 8, 7, 7]
