from itertools import product

import pytest

from fingerbound.cli import main
from fingerbound.core import AccessSequence, Point, PointSet
from fingerbound.errors import TooLargeError
from fingerbound.geometry import RowSweep, is_arborally_satisfied, minimum_supersets
from fingerbound.greedy import greedy_execute
from fingerbound.opt import opt_satisfied_superset


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
    base = [Point(k, t) for t, k in enumerate((1, 4, 2, 3), start=1)]
    free = [Point(k, t) for t in range(1, 5) for k in range(1, 5) if Point(k, t) not in base]
    answers = list(minimum_supersets(base, free, RowSweep(4)))
    assert answers and built == []
    assert all(set(added) <= set(free) for added in answers)
