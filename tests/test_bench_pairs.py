"""The statistics of scripts/bench_pairs.py, loaded by path."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_compare_counts_ties_for_neither_side():
    for better in ("lower", "higher"):
        row = bench_pairs.compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], better)
        assert (row["change_won"], row["pairs"]) == (0, 3)


def test_compare_counts_wins_by_the_metric_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 3.0, 5.0]
    assert bench_pairs.compare(parent, change, "lower")["change_won"] == 1
    row = bench_pairs.compare(parent, change, "higher")
    assert row["change_won"] == 2
    assert row["better"] == "higher"
    assert row["parent"]["median"] == 2.5
    assert row["change"]["runs"] == change


def test_summary_of_a_single_run():
    assert bench_pairs.summary([0.25]) == {
        "median": 0.25, "q1": 0.25, "q3": 0.25, "runs": [0.25]}


def test_summary_quartiles():
    row = bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (row["q1"], row["median"], row["q3"]) == (2.0, 3.0, 4.0)


def test_pair_order_alternates_sides():
    orders = [bench_pairs.pair_order(i) for i in range(4)]
    assert orders == [("parent", "change"), ("change", "parent")] * 2


def test_parse_spec_reads_fixture_psi_and_degree():
    assert bench_pairs.parse_spec("freec.alg@5") == ("freec.alg", None, 5)
    assert bench_pairs.parse_spec("car.alg+xxs.psi@4") == (
        "car.alg", "xxs.psi", 4)


@pytest.mark.parametrize("spec", ["freec.alg", "freec.alg@", "@4",
                                  "car.alg+@4", "car.alg@-1", "car.alg@x"])
def test_parse_spec_refuses_a_malformed_row(spec):
    with pytest.raises(ValueError):
        bench_pairs.parse_spec(spec)


@pytest.mark.parametrize("command, spec", [("verify", "car.alg@1"),
                                           ("schoenberg", "car.alg+xxs.psi@1")])
def test_a_cli_row_records_wall_and_child_cpu_time(command, spec):
    # both sides are this checkout: one pair, so one run each
    row = bench_pairs.bench_cli({"parent": ROOT, "change": ROOT}, command,
                                spec, 1)
    assert row["identical_output"] and row["pairs"] == 1
    for side in ("parent", "change"):
        wall, = row[side]["runs"]
        cpu, = row["cpu"][side]["runs"]
        assert 0 < cpu and 0 < wall
    assert row["cpu"]["better"] == "lower" and row["cpu"]["pairs"] == 1
    assert row["statuses"]["parent"] == row["statuses"]["change"]
    assert "counts" not in row


def test_a_counts_row_records_the_kernel_calls_of_each_side():
    row = bench_pairs.bench_cli({"parent": ROOT, "change": ROOT},
                                "schoenberg", "car.alg+xxs.psi@1", 1,
                                counts=True)
    parent, change = row["counts"]["parent"], row["counts"]["change"]
    # one checkout under a fixed hash seed: the counts repeat exactly
    assert parent == change
    assert parent["total"] > parent["scalars.poly_mul"] > 0
    assert parent["Tensor.add_term"] > 0 and parent["scalars.from_abd"] > 0
    # every report passes, so no polynomial is printed and no TPoly built
    assert parent["scalars.from_abds"] == 0
    assert all(k in ("total", "Tensor.add_term", "scalars.from_abd",
                     "scalars.from_abds")
               or k.startswith("scalars.poly_") for k in parent)


def test_the_older_name_of_from_abd_counts_under_the_same_key():
    # a parent checkout may build its Scalars through _scalar
    for name in ("from_abd", "_scalar"):
        assert bench_pairs.count_key("src/braidhopf/scalars.py",
                                     name) == "scalars.from_abd"
    assert bench_pairs.count_key("src/braidhopf/scalars.py",
                                 "poly_mul") == "scalars.poly_mul"
    assert bench_pairs.count_key("src/braidhopf/scalars.py",
                                 "from_abds") == "scalars.from_abds"
    assert bench_pairs.count_key("src/braidhopf/algebra.py",
                                 "add_term") == "Tensor.add_term"
    assert bench_pairs.count_key("src/braidhopf/scalars.py", "abd_mul") is None
    assert bench_pairs.count_key("src/other/scalars.py", "poly_mul") is None
