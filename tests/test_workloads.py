import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound.core import MAX_BUILT_N, AccessSequence
from fingerbound.errors import BadSpecError, TraceParseError
from fingerbound.verify import check_locality
from fingerbound.workloads import (
    Splitmix64,
    WorkloadSpec,
    generate,
    read_trace,
    read_weights,
    write_trace,
    write_weights,
)
from fingerbound.core import WeightAssignment


class TestSplitmix:
    def test_reference_vector_seed_zero(self):
        # canonical published output stream for this mixer
        rng = Splitmix64(0)
        assert [rng.next_u64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_unit_interval(self):
        rng = Splitmix64(99)
        for _ in range(1000):
            u = rng.unit()
            assert 0.0 <= u < 1.0

    def test_below_bound(self):
        rng = Splitmix64(4)
        assert all(0 <= rng.below(7) < 7 for _ in range(500))

    def test_below_up_to_2_to_64_is_one_output_modulo_the_bound(self):
        # pinned: these draws are part of every trace
        rng = Splitmix64(5)
        assert [rng.below(b) for b in (1, 7, 1000, 2**40, 2**64)] == [
            0, 5, 63, 836881463621, 3467252261107883461]

    @pytest.mark.parametrize("bound, words", [(2**64 + 1, 3), (10**20, 3), (10**400, 22)],
                             ids=["2^64+1", "10^20", "10^400"])
    def test_below_past_2_to_64_reduces_one_word_more_than_the_bound_has(self, bound, words):
        rng, twin = Splitmix64(8), Splitmix64(8)
        for _ in range(50):
            wide = 0
            for _ in range(words):
                wide = wide << 64 | twin.next_u64()
            assert rng.below(bound) == wide % bound
        assert rng.state == twin.state

    def test_draws_past_2_to_64_reach_the_whole_range(self):
        rng = Splitmix64(2)
        assert sum(rng.below(10**400) > 10**399 for _ in range(100)) > 50
        keys = generate(WorkloadSpec("uniform", 10**20, 100, seed=2)).accesses
        assert sum(k > 2**64 for k in keys) > 50  # 82% of 1..10^20 lies past 2^64

    @pytest.mark.parametrize("bound", [2.5, math.nan, True, "3", 0])
    def test_below_needs_a_positive_int(self, bound):
        with pytest.raises(ValueError, match="^bound must be a positive integer, got "):
            Splitmix64(1).below(bound)

    @pytest.mark.parametrize("n, m", [(1, 0), (1, 6), (7, 0), (7, 500), (2**40, 50),
                                      (10**20, 50)])
    def test_keys_are_the_below_loop(self, n, m):
        rng, loop = Splitmix64(12), Splitmix64(12)
        assert rng.keys(n, m) == tuple(loop.below(n) + 1 for _ in range(m))
        assert rng.state == loop.state

    @pytest.mark.parametrize("bound", [0, 2.5, True])
    def test_keys_need_a_positive_int_bound(self, bound):
        rng = Splitmix64(1)
        with pytest.raises(ValueError, match="^bound must be a positive integer, got "):
            rng.keys(bound, 3)
        assert rng.state == Splitmix64(1).state

    @pytest.mark.parametrize("m", [-1, True, 2.0, None])
    def test_keys_need_a_non_negative_int_count(self, m):
        rng = Splitmix64(1)
        with pytest.raises(ValueError, match=rf"^m must be a non-negative integer, got {m!r}$"):
            rng.keys(3, m)
        assert rng.state == Splitmix64(1).state

    @pytest.mark.parametrize("seed", [1.0, None, "1", True, False])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            Splitmix64(seed)

    def test_seed_is_taken_modulo_2_to_64(self):
        assert Splitmix64(-1).state == Splitmix64(2**64 - 1).state == 2**64 - 1


@pytest.fixture(scope="module")
def locality():
    """check_locality at seed 6, run once for both locality tests."""
    return check_locality(6)


class TestGenerate:
    def test_sequential(self):
        assert generate(WorkloadSpec("sequential", 4, 6)).accesses == (1, 2, 3, 4, 1, 2)

    def test_bit_reversal(self):
        assert generate(WorkloadSpec("bit_reversal", 8, 8)).accesses == (1, 5, 3, 7, 2, 6, 4, 8)

    def test_bit_reversal_trivial(self):
        assert generate(WorkloadSpec("bit_reversal", 1, 1)).accesses == (1,)

    def test_walk_step_bound_forces_unit_steps(self):
        seq = generate(WorkloadSpec("walk", 100, 50, seed=5, d=1))
        assert all(abs(a - b) == 1 for a, b in zip(seq.accesses, seq.accesses[1:]))

    def test_walk_starts_at_midpoint(self):
        assert generate(WorkloadSpec("walk", 101, 1, seed=0, d=3)).accesses == (51,)

    def test_keys_in_range(self):
        for spec in (
            WorkloadSpec("uniform", 17, 300, seed=2),
            WorkloadSpec("walk", 9, 300, seed=2, d=30),
            WorkloadSpec("zipf_finger", 33, 300, seed=2, theta=1.5),
        ):
            seq = generate(spec)
            assert all(1 <= k <= spec.n for k in seq)

    def test_frozen_golden_sequences(self):
        # regression pins: any change to the generators breaks reproducibility
        assert generate(WorkloadSpec("uniform", 64, 10, seed=7)).accesses == (
            24, 29, 3, 12, 27, 18, 55, 63, 34, 42)
        assert generate(WorkloadSpec("walk", 100, 10, seed=3, d=4)).accesses == (
            50, 52, 49, 46, 50, 53, 57, 53, 56, 54)
        assert generate(WorkloadSpec("zipf_finger", 128, 10, seed=9, theta=2.0)).accesses == (
            64, 66, 67, 68, 66, 65, 64, 96, 94, 95)

    @pytest.mark.parametrize("spec, keys", [
        (WorkloadSpec("walk", 7, 12, seed=5, d=2**63), (4, 1, 7, 1, 1, 1, 1, 7, 7, 1, 7, 1)),
        (WorkloadSpec("walk", 7, 12, seed=5, d=2**64), (4, 1, 7, 7, 7, 7, 7, 1, 1, 7, 7, 7)),
        (WorkloadSpec("zipf_finger", 1, 4, seed=5, theta=2.0), (1, 1, 1, 1)),
        (WorkloadSpec("zipf_finger", 2, 12, seed=5, theta=0.5),
         (1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1)),
    ], ids=["walk d=2^63", "walk d=2^64", "zipf_finger n=1", "zipf_finger n=2"])
    def test_frozen_edge_sequences(self, spec, keys):
        # regression pins past the golden ones: walks whose step draws (over
        # 1..2d) reach 2^64 and pass it, and zipf_finger's one-step tables
        assert generate(spec).accesses == keys

    @pytest.mark.parametrize("d", [1, 8, 2**63])
    def test_walk_draws_its_steps_in_one_keys_call(self, monkeypatch, d):
        calls = []
        keys = Splitmix64.keys

        def counted(self, n, m):
            calls.append((n, m))
            return keys(self, n, m)

        def refuse(self, bound):
            raise AssertionError(f"below({bound}) called")

        monkeypatch.setattr(Splitmix64, "keys", counted)
        monkeypatch.setattr(Splitmix64, "below", refuse)
        generate(WorkloadSpec("walk", 100, 50, seed=5, d=d))
        assert calls == [(2 * d, 49)]

    def test_walk_locality(self, locality):
        assert 0 < locality[1] <= 8

    def test_zipf_locality_finite_mean(self, locality):
        assert 0 < locality[2] < 10.0

    def test_bad_specs(self):
        with pytest.raises(BadSpecError):
            WorkloadSpec("walk", 10, 10, seed=1)  # missing d
        with pytest.raises(BadSpecError):
            WorkloadSpec("zipf_finger", 10, 10, seed=1, theta=0.0)
        with pytest.raises(BadSpecError):
            WorkloadSpec("bit_reversal", 12, 12)
        with pytest.raises(BadSpecError):
            WorkloadSpec("bit_reversal", 16, 8)
        with pytest.raises(BadSpecError):
            WorkloadSpec("mystery", 4, 4)
        with pytest.raises(BadSpecError):
            WorkloadSpec("uniform", 0, 4)
        with pytest.raises(BadSpecError):
            WorkloadSpec("trace", 4, 4)  # traces are read with read_trace

    @pytest.mark.parametrize("fields", [
        dict(kind="sequential", n=5, m=3.5),
        dict(kind="uniform", n=5, m=3, seed=1.5),
        dict(kind="walk", n=5, m=3, d=2.5),
        dict(kind="uniform", n=5.0, m=3),
        dict(kind="uniform", n=5, m="3"),
    ])
    def test_non_integer_specs(self, fields):
        with pytest.raises(BadSpecError, match="must be an integer"):
            WorkloadSpec(**fields)

    @pytest.mark.parametrize("theta", ["2", True])
    def test_non_numeric_theta(self, theta):
        with pytest.raises(BadSpecError, match=f"theta must be a number, got {theta!r}"):
            WorkloadSpec("zipf_finger", 5, 3, theta=theta)

    @pytest.mark.parametrize("n", [MAX_BUILT_N + 1, 10**20])
    def test_zipf_finger_step_table_is_guarded(self, n):
        # generate builds an n-entry table whatever m is; the spec refuses it
        with pytest.raises(BadSpecError,
                           match=f"zipf_finger is guarded to n <= {MAX_BUILT_N}, got n={n}$"):
            WorkloadSpec("zipf_finger", n, 10, theta=1.5)
        WorkloadSpec("zipf_finger", MAX_BUILT_N, 10, theta=1.5)
        generate(WorkloadSpec("uniform", n, 10, seed=1))  # no table: not guarded

    @pytest.mark.parametrize("kind, n, m", [("sequential", 1, MAX_BUILT_N + 1),
                                            ("bit_reversal", 2**27, 2**27)],
                             ids=["sequential", "bit_reversal"])
    def test_generated_trace_length_is_guarded(self, kind, n, m):
        # generate would build all m keys; only the spec is built here
        with pytest.raises(BadSpecError,
                           match=f"{kind} is guarded to m <= {MAX_BUILT_N}, got m={m}$"):
            WorkloadSpec(kind, n, m)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("path", [True, 1, 0])
@pytest.mark.parametrize("writer, value", [
    ("write_trace", "AccessSequence(2, (1, 2))"),
    ("write_weights", "WeightAssignment([1.0, 2.0])"),
], ids=["write_trace", "write_weights"])
def test_writers_refuse_an_int_path(writer, value, path):
    # `open` would take an int path for a file descriptor, write there and
    # close it; a child process keeps this runner's own stdout out of reach
    code = "\n".join([
        "from fingerbound import AccessSequence, WeightAssignment, write_trace, write_weights",
        "try:",
        f"    {writer}({value}, {path!r})",
        "except TypeError as exc:",
        "    print(exc)",
        "print('printed after')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (f"path must be a str or os.PathLike, got {type(path).__name__}\n"
                           "printed after\n")


class TestTraceIO:
    def test_read(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("2 3\n1\n2\n1\n")
        seq = read_trace(p)
        assert seq == AccessSequence(2, (1, 2, 1))

    def test_write_trace_prints_the_file_bytes(self, tmp_path, capsys):
        seq = AccessSequence(10**20, (1, 10**20, 7))
        p = tmp_path / "t.txt"
        write_trace(seq, p)
        write_trace(seq, None)
        assert p.read_bytes() == capsys.readouterr().out.encode("ascii")
        assert p.read_text() == "100000000000000000000 3\n1\n100000000000000000000\n7\n"

    def test_key_out_of_range_reports_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("2 1\n3\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace(p)
        assert exc.value.line == 2
        assert "out of range" in str(exc.value)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("5\n1\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace(p)
        assert exc.value.line == 1

    def test_wrong_line_count(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("3 2\n1\n")
        with pytest.raises(TraceParseError):
            read_trace(p)

    def test_garbage_key_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("3 2\n1\nx\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace(p)
        assert exc.value.line == 3

    def test_non_ascii_byte_reports_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"3 2\n1\n\xc3\xa9\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace(p)
        assert exc.value.line == 3
        assert f"non-ASCII byte 0xc3 in {p}" in str(exc.value)

    @pytest.mark.parametrize("early, message", [
        ("0", "key 0 out of range [1, 3]"),
        ("4", "key 4 out of range [1, 3]"),
        ("2.0", "expected one integer key, got '2.0'"),
    ])
    def test_earliest_bad_line_is_named(self, tmp_path, early, message):
        p = tmp_path / "t.txt"
        p.write_text(f"3 5\n1\n{early}\n2\nx\n9\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace(p)
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: {message} in {p}"

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_trace("/nonexistent/trace.txt")


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = WeightAssignment((0.5, 2.0, 0.25))
        p = tmp_path / "w.txt"
        write_weights(w, p)
        assert read_weights(p).weights == w.weights

    def test_non_ascii_byte_reports_line(self, tmp_path):
        # CRLF line ends, the bad byte in the middle of line 2
        p = tmp_path / "w.txt"
        p.write_bytes(b"1.0\r\n2.\xb05\r\n3.0\r\n")
        with pytest.raises(TraceParseError) as exc:
            read_weights(p)
        assert exc.value.line == 2
        assert f"non-ASCII byte 0xb0 in {p}" in str(exc.value)

    @pytest.mark.parametrize("early, message", [
        ("inf", "weight must be finite and positive, got 'inf'"),
        ("nan", "weight must be finite and positive, got 'nan'"),
        ("0.0", "weight must be finite and positive, got '0.0'"),
        ("1e999", "weight must be finite and positive, got '1e999'"),
        ("one", "expected one decimal weight, got 'one'"),
    ])
    def test_earliest_bad_line_is_named(self, tmp_path, early, message):
        p = tmp_path / "w.txt"
        p.write_text(f"1.0\n{early}\n2.0\nx\n-1\n")
        with pytest.raises(TraceParseError) as exc:
            read_weights(p)
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: {message} in {p}"

    def test_write_weights_bytes(self, tmp_path, capsys):
        p = tmp_path / "w.txt"
        write_weights(WeightAssignment((5e-324, 0.1, 1e16)), p)
        assert p.read_text() == "5e-324\n0.1\n1e+16\n"
        write_weights(WeightAssignment((5e-324, 0.1, 1e16)), None)  # None: stdout
        assert capsys.readouterr().out.encode("ascii") == p.read_bytes()

    def test_rejects_nonpositive(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1.0\n-2\n")
        with pytest.raises(TraceParseError) as exc:
            read_weights(p)
        assert exc.value.line == 2


class TestWeightsPrefixFaults:
    @pytest.mark.parametrize("text, fault", [
        ("1e300\n1e-300\n", "weight '1e-300' vanishes in the running sum"),
        ("1e308\n1e308\n", "weight '1e308' takes the running sum past the float range"),
        ("1e300\n1e-300\nx\n", "weight '1e-300' vanishes in the running sum"),
    ])
    def test_line_and_path_are_named(self, tmp_path, text, fault):
        p = tmp_path / "w.txt"
        p.write_text(text)
        with pytest.raises(TraceParseError) as exc:
            read_weights(p)
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: {fault}; rescale the weights in {p}"


@pytest.mark.parametrize("model, reader, text, line, message", [
    (AccessSequence, read_trace, "100 100000\n" + "7\n" * 99_999 + "101\n", 100_001,
     "key 101 out of range [1, 100]"),
    (WeightAssignment, read_weights, "1.0\n" * (2 ** 16 - 1) + "0\n", 2 ** 16,
     "weight must be finite and positive, got '0'"),
], ids=["trace", "weights"])
def test_a_failing_read_builds_the_model_at_most_once(tmp_path, monkeypatch, model, reader,
                                                      text, line, message):
    p = tmp_path / "in.txt"
    p.write_text(text)
    post_init, built = model.__post_init__, []
    monkeypatch.setattr(model, "__post_init__", lambda self: built.append(1) or post_init(self))
    with pytest.raises(TraceParseError) as exc:
        reader(p)
    assert str(exc.value) == f"line {line}: {message} in {p}"
    assert len(built) <= 1


# Lines without line breaks: printable ASCII, with numbers that are likely
# to be bad in each way the readers know.
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)
WEIGHT_LINES = st.lists(st.one_of(
    st.floats().map(repr), st.integers(-3, 3).map(str), TEXT,
    st.sampled_from(["1e300", "1e-300", "1e308", "5e-324", "inf", "nan", " 2 ", ""])),
    min_size=1, max_size=8)
FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def first_bad_weight_line(lines):
    """The reference: the 1-based line of the first weight that is no
    number, not finite and positive, or lost in or past the running sum."""
    total = 0.0
    for line, raw in enumerate(lines, start=1):
        try:
            w = float(raw)
        except ValueError:
            return line
        if not 0.0 < w < math.inf or not total < total + w < math.inf:
            return line
        total += w
    return None


def first_bad_key_line(lines, n):
    for line, raw in enumerate(lines, start=2):
        try:
            k = int(raw)
        except ValueError:
            return line
        if not 1 <= k <= n:
            return line
    return None


class TestReaderFuzz:
    @FUZZ
    @given(lines=WEIGHT_LINES)
    def test_weights_parse_or_name_the_first_bad_line(self, tmp_path_factory, lines):
        p = tmp_path_factory.getbasetemp() / "fuzz_w.txt"
        p.write_text("".join(f"{raw}\n" for raw in lines))
        expect = first_bad_weight_line(lines)
        if expect is None:
            assert read_weights(p).weights == tuple(map(float, lines))
        else:
            with pytest.raises(TraceParseError) as exc:
                read_weights(p)
            assert exc.value.line == expect
            assert str(exc.value).startswith(f"line {expect}: ")

    @FUZZ
    @given(n=st.integers(1, 6), lines=st.lists(
        st.one_of(st.integers(-2, 8).map(str), TEXT), min_size=1, max_size=8))
    def test_trace_parses_or_names_the_first_bad_line(self, tmp_path_factory, n, lines):
        p = tmp_path_factory.getbasetemp() / "fuzz_t.txt"
        p.write_text(f"{n} {len(lines)}\n" + "".join(f"{raw}\n" for raw in lines))
        expect = first_bad_key_line(lines, n)
        if expect is None:
            assert read_trace(p) == AccessSequence(n, tuple(map(int, lines)))
        else:
            with pytest.raises(TraceParseError) as exc:
                read_trace(p)
            assert exc.value.line == expect

    @FUZZ
    @given(data=st.binary(max_size=40))
    def test_any_bytes_parse_or_raise_a_parse_error(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz_b.txt"
        p.write_bytes(data)
        for reader in (read_trace, read_weights):
            try:
                reader(p)
            except TraceParseError as exc:
                assert 1 <= exc.line <= len(data.decode("latin-1").splitlines()) + 1
                assert str(exc).startswith(f"line {exc.line}: ") and str(exc).endswith(f" in {p}")
