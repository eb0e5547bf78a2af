"""The statistics of ``tools/paired.py``, on recorded numbers only (no
benchmark runs here)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "paired.py")
_SPEC = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)

# ops-mixed plan_s ratios of a near A/A pair (change over base), run
# concurrently and run one after the other on the same box.
CONCURRENT = [1.019, 0.991, 1.006]
SEQUENTIAL = [1.030, 1.027, 1.202]


def test_quartiles():
    assert paired.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert paired.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_concurrent_near_aa_pairs_stay_inside_the_bound():
    row = paired.compare_metric([1.0] * 3, CONCURRENT, "lower", 0.1)
    assert row["within_bound"]
    assert row["ratio"] == pytest.approx(1.006)
    assert row["wins"] == 1 and row["pairs"] == 3
    assert not row["gain"]


def test_one_sequential_pair_alone_breaks_the_bound():
    assert paired.compare_metric([1.0] * 3, SEQUENTIAL, "lower", 0.1)["within_bound"]
    assert not paired.compare_metric([1.0], SEQUENTIAL[2:], "lower", 0.1)["within_bound"]


def test_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_base_iqr():
    base = [4.26, 4.30, 4.24, 4.34, 4.25, 4.27, 4.29, 4.31, 4.26, 4.28]
    change = [2.90, 2.95, 2.80, 2.89, 2.92, 2.85, 2.88, 2.93, 2.91, 2.86]
    row = paired.compare_metric(base, change, "lower", 0.2)
    assert row["gain"] and row["wins"] == 10
    assert row["ratio"] == pytest.approx(2.895 / 4.275)
    # Two lost pairs: below nine in ten.
    lost = change[:8] + [4.40, 4.50]
    assert not paired.compare_metric(base, lost, "lower", 0.2)["gain"]
    # Every pair won, but by less than the base's spread.
    close = [b - 0.001 for b in base]
    row = paired.compare_metric(base, close, "lower", 0.2)
    assert row["wins"] == 10 and not row["gain"]


def test_gain_needs_at_least_ten_pairs():
    base = [4.26, 4.30, 4.24, 4.34, 4.25]
    change = [2.90, 2.95, 2.80, 2.89, 2.92]
    row = paired.compare_metric(base, change, "lower", 0.2)
    assert row["wins"] == 5 and row["within_bound"] and not row["gain"]
    nine = paired.compare_metric(base + base[:4], change + change[:4], "lower", 0.2)
    assert nine["wins"] == 9 and not nine["gain"]


def test_higher_is_better_flips_the_direction():
    base = [100.0, 102.0, 98.0] * 4
    assert paired.compare_metric(base, [85.0, 86.0, 84.0] * 4, "higher", 0.1)["within_bound"] is False
    row = paired.compare_metric(base, [130.0, 131.0, 129.0] * 4, "higher", 0.1)
    assert row["within_bound"] and row["wins"] == 12 and row["gain"]


def test_interval_of_recorded_ratios():
    """The concurrent near A/A pairs' interval straddles 1.0 inside the
    10 % bound; the sequential pairs' median ratio is inside the bound,
    but their interval reaches the 1.202 outlier."""
    assert paired.bootstrap_interval([1.0] * 3, CONCURRENT) == pytest.approx((0.991, 1.019))
    low, high = paired.bootstrap_interval([1.0] * 3, SEQUENTIAL)
    assert paired.median_ratio([1.0] * 3, SEQUENTIAL) == pytest.approx(1.030)
    assert low == pytest.approx(1.027) and high == pytest.approx(1.202) and high > 1.1
    row = paired.compare_metric([1.0] * 3, CONCURRENT, "lower", 0.1)
    assert row["interval"] == paired.bootstrap_interval([1.0] * 3, CONCURRENT)


def test_interval_is_seeded_and_brackets_a_clear_gain():
    base = [4.26, 4.30, 4.24, 4.34, 4.25, 4.27, 4.29, 4.31, 4.26, 4.28]
    change = [2.90, 2.95, 2.80, 2.89, 2.92, 2.85, 2.88, 2.93, 2.91, 2.86]
    low, high = paired.bootstrap_interval(base, change)
    assert (low, high) == paired.bootstrap_interval(base, change)
    assert low < paired.median_ratio(base, change) < high < 1.0
    # Every resampled ratio lies between the extreme medians' ratios.
    assert min(change) / max(base) <= low and high <= max(change) / min(base)
    assert paired.bootstrap_interval([7.0], [3.5]) == (0.5, 0.5)


def test_claims_must_name_a_run_workload_and_a_declared_metric():
    metrics = ["setup_s", "plan_s"]
    assert paired.parse_claims(["paper-maintain:setup_s"], ["paper-maintain"], metrics) == {
        ("paper-maintain", "setup_s")
    }
    assert paired.parse_claims([], ["ops-mixed"], metrics) == set()
    for claim in ("paper-maintain:setup", "ops-mixed:setup_s", "paper-maintain", ":setup_s"):
        with pytest.raises(ValueError):
            paired.parse_claims([claim], ["paper-maintain"], metrics)


def test_claims_with_digests_or_bad_names_stop_before_any_run(capsys):
    for argv in (
        ["--digests", "--workload", "paper-maintain", "--claim", "paper-maintain:setup_s"],
        ["--workload", "ops-mixed", "--claim", "paper-maintain:setup_s"],
        ["--workload", "paper-maintain", "--claim", "paper-maintain:setup"],
    ):
        with pytest.raises(SystemExit) as exc:
            paired.main(argv)
        assert exc.value.code == 2
    assert "needs timed pairs" in capsys.readouterr().err


def test_bad_input_is_refused():
    with pytest.raises(ValueError):
        paired.compare_metric([1.0], [1.0, 2.0], "lower", 0.1)
    with pytest.raises(ValueError):
        paired.compare_metric([], [], "lower", 0.1)
    with pytest.raises(ValueError):
        paired.compare_metric([1.0], [1.0], "sideways", 0.1)


def test_identity_problems_name_the_differing_fields():
    run = {"digests": {"log": "ae89"}, "net": {"sent": 3}, "failures": []}
    assert paired.identity_problems(run, dict(run)) == []
    other = {**run, "net": {"sent": 4}, "failures": ["boom"]}
    assert paired.identity_problems(run, other) == ["net", "failures"]


def test_a_pair_that_raised_or_differs_is_named():
    run = {"digests": ["ae89"], "net": {"sent": 3}, "failures": []}
    assert paired.pair_problems("w", (run, dict(run))) == []
    assert paired.pair_problems("w", ({"raised": "timeout"}, run)) == ["w: timeout"]
    assert paired.pair_problems("w", (run, {**run, "digests": ["9d9b"]})) == ["w: digests differ"]


def test_render_marks_bounds_and_claims():
    row = paired.compare_metric([4.3, 4.2, 4.4] * 4, [3.0, 3.1, 2.9] * 4, "lower", 0.2)
    worse = paired.compare_metric([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.2)
    table = paired.render("paper-maintain seed 0", {
        "setup_s": {**row, "unit": "s", "claimed": True},
        "plan_s": {**worse, "unit": "s", "claimed": False},
    })
    assert "gain holds" in table and "WORSE THAN BOUND" in table
    assert "95% interval" in table.splitlines()[1] and "[1.300, 1.300]" in table
    assert table.splitlines()[0] == "paper-maintain seed 0:"
