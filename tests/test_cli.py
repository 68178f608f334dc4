"""Command-line surface: parsing, exit codes, and output formats."""

import contextlib
import csv
import gc
import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
import pytest
from fresh_process import run_python
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recruitcast import (
    ModelFit,
    TrialData,
    cli,
    fit_mle,
    pool_centres,
    predictive_count_law,
    simulate,
)
from recruitcast.asymptotics import count_limit_law
from recruitcast.cli import main, parse_centre_csv
from recruitcast.datasets import (
    DEMO_EVENTS_CENSUS,
    DEMO_SUMMARY_CENSUS,
    demo_events_path,
    demo_summary_path,
)
from recruitcast.reproduce import MAX_GRID_SIZE, TABLE_IDS, reproduction_table

GOLDEN_FIT = "tests/data/fit_demo_summary.json"
DATA = Path(__file__).parent / "data"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_summary(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["centre_id", "open_time", "count"])
        writer.writerows(rows)


def write_events(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["centre_id", "open_time", "event_time"])
        writer.writerows(rows)


def csv_body(text):
    lines = text.splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    return manifest, lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "recruitcast" in capsys.readouterr().out


def test_fit_demo_summary_matches_golden(capsys):
    code, out, _ = run(capsys, "fit", "--input", str(demo_summary_path()),
                       "--census", str(DEMO_SUMMARY_CENSUS))
    assert code == 0
    payload = json.loads(out)
    manifest = payload.pop("manifest")
    assert set(manifest) == {"command", "config", "seed", "version", "created_utc"}
    with open(GOLDEN_FIT) as fh:
        assert payload == json.load(fh)


def test_fit_demo_events(capsys):
    code, out, _ = run(capsys, "fit", "--input", str(demo_events_path()),
                       "--format", "events",
                       "--census", str(DEMO_EVENTS_CENSUS))
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert payload["data"]["centres"] == 41
    assert payload["data"]["total_count"] > 700


def test_fit_round_trip_is_bit_exact(tmp_path, capsys):
    # quarter-unit opening times below a power-of-two census survive the
    # write/parse cycle without rounding, so the fits must agree exactly
    rng = np.random.default_rng(74)
    census = 64.0
    openings = rng.integers(0, 256, 25) * 0.25
    exposures = census - openings
    counts = rng.poisson(rng.gamma(2.0, 0.5, 25) * exposures)
    data = TrialData.from_arrays(census, exposures, counts)
    direct = fit_mle(data)

    path = tmp_path / "trial.csv"
    write_summary(path, [(f"Z{i:02d}", repr(float(census - e)), int(n))
                         for i, (e, n) in enumerate(zip(exposures, counts))])
    out_path = tmp_path / "fit.json"
    code, out, _ = run(capsys, "fit", "--input", str(path),
                       "--census", repr(census), "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["alpha_hat"] == direct.alpha_hat
    assert payload["beta_hat"] == direct.beta_hat
    assert payload["log_lik"] == direct.log_lik


def test_fit_reports_equal_exposure_ratio(tmp_path, capsys):
    path = tmp_path / "equal.csv"
    write_summary(path, [("A", 0, 3), ("B", 0, 9), ("C", 0, 5), ("D", 0, 1)])
    code, out, _ = run(capsys, "fit", "--input", str(path), "--census", "2")
    assert code == 0
    check = json.loads(out)["ratio_check"]
    assert check["equal_exposures"]
    assert check["pooled_event_rate"] == 18 / 8
    assert abs(check["alpha_over_beta"] - 18 / 8) < 1e-6 * 18 / 8


def test_fit_does_not_depend_on_the_unit_of_time(tmp_path, capsys):
    # one summary, its opening times in units of the census; beta carries
    # the unit, alpha does not
    def fit(census):
        path = tmp_path / "scaled.csv"
        write_summary(path, [("A", 0.0, 0), ("B", repr(0.5 * census), 5),
                             ("C", repr(0.75 * census), 2)])
        return run(capsys, "fit", "--input", str(path), "--census", repr(census))

    code, out, _ = fit(1.0)
    assert code == 0
    alpha = json.loads(out)["alpha_hat"]
    code, out, _ = fit(1e-120)
    assert code == 0
    assert abs(json.loads(out)["alpha_hat"] - alpha) <= 1e-8 * alpha
    # past the float range of the squared exposures the fit may stop short
    # of the optimum, but then it reports so instead of crashing
    code, out, err = fit(1e-200)
    assert code == 0
    assert "Traceback" not in err
    payload = json.loads(out)
    assert not payload["converged"] or abs(payload["alpha_hat"] - alpha) <= 1e-8 * alpha


def test_events_truncated_at_interim_matches_summary(tmp_path):
    # the shipped summary is the events log censused at 0.125, so parsing
    # both must give identical centre records and identical fits
    interim = DEMO_SUMMARY_CENSUS
    kept = {}
    with open(demo_events_path(), newline="") as fh:
        for row in csv.DictReader(fh):
            cid = row["centre_id"]
            kept.setdefault(cid, (row["open_time"], []))
            if row["event_time"] and float(row["event_time"]) <= interim:
                kept[cid][1].append(row["event_time"])
    rows = []
    for cid, (opened, events) in kept.items():
        if events:
            rows.extend((cid, opened, time) for time in events)
        else:
            rows.append((cid, opened, ""))
    path = tmp_path / "interim_events.csv"
    write_events(path, rows)

    from_events = parse_centre_csv(str(path), "events", interim)
    from_summary = parse_centre_csv(str(demo_summary_path()), "summary", interim)
    assert from_events.ids == from_summary.ids
    assert from_events.exposures.tolist() == from_summary.exposures.tolist()
    assert from_events.counts.tolist() == from_summary.counts.tolist()
    assert fit_mle(from_events).alpha_hat == fit_mle(from_summary).alpha_hat


def test_predict_count_demo(capsys):
    code, out, _ = run(capsys, "predict", "--input", str(demo_summary_path()),
                       "--census", str(DEMO_SUMMARY_CENSUS),
                       "--objective", "count", "--horizon", "0.5",
                       "--level", "0.9", "--adjusted")
    assert code == 0
    payload = json.loads(out)
    law = payload["law"]
    assert law["family"] == "negative_binomial"

    data = parse_centre_csv(str(demo_summary_path()), "summary", DEMO_SUMMARY_CENSUS)
    fit = fit_mle(data)
    pool = pool_centres(data, fit)
    direct = predictive_count_law(pool, 0.5)
    assert law["size"] == direct.size
    assert law["prob"] == direct.prob
    assert payload["pooled"]["n_star"] == pool.n_star

    plain, widened = payload["unadjusted"], payload["adjusted"]
    assert abs(plain["probs_used"][0] - 0.05) < 1e-12
    assert abs(plain["probs_used"][1] - 0.95) < 1e-12
    assert sum(plain["probs_used"]) == 1.0
    assert plain["lower"] <= plain["upper"]
    assert widened["lower"] <= plain["lower"]
    assert widened["upper"] >= plain["upper"]


def test_predict_adjusted_strictly_wider_at_scale(tmp_path, capsys):
    rng = np.random.default_rng(75)
    counts = rng.poisson(rng.gamma(2.0, 1.0 / 150.0, 150) * 200.0)
    path = tmp_path / "big.csv"
    write_summary(path, [(f"B{i:03d}", 0, int(n)) for i, n in enumerate(counts)])
    code, out, _ = run(capsys, "predict", "--input", str(path),
                       "--census", "200", "--objective", "count",
                       "--horizon", "200", "--adjusted")
    assert code == 0
    payload = json.loads(out)
    assert payload["adjusted"]["lower"] < payload["unadjusted"]["lower"]
    assert payload["adjusted"]["upper"] > payload["unadjusted"]["upper"]


def test_predict_time_demo(capsys):
    code, out, _ = run(capsys, "predict", "--input", str(demo_summary_path()),
                       "--census", str(DEMO_SUMMARY_CENSUS),
                       "--objective", "time", "--horizon", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["law"]["family"] == "pearson6"
    assert payload["adjusted"] is None
    assert 0 < payload["unadjusted"]["lower"] < payload["unadjusted"]["upper"]


def test_predict_time_writes_a_null_mean_where_the_law_has_none(tmp_path, capsys):
    # one recruit in four centres: the Pearson VI law of the time to five
    # more has shape_den below 1, so no mean, yet an interval
    path = tmp_path / "four.csv"
    write_summary(path, [("A", 0.999, 0), ("B", 0.202, 0), ("C", 0.5083, 0),
                         ("D", 0.9706, 1)])
    code, out, err = run(capsys, "predict", "--input", str(path), "--census", "1.0",
                         "--objective", "time", "--horizon", "5")
    assert (code, err) == (0, "")
    payload = _strict_json(out)
    assert payload["law"]["family"] == "pearson6" and payload["law"]["shape_den"] < 1
    assert payload["mean"] is None
    assert 0 < payload["unadjusted"]["lower"] < payload["unadjusted"]["upper"] < float("inf")


def test_predict_time_past_the_float_resolution_of_z(tmp_path, capsys):
    # an over-dispersed 5-centre trial; at a target of 1e19 recruits the
    # quantile's z = x / (x + scale) rounds to 1, at 1e300 the quantile
    # itself leaves the float range
    path = tmp_path / "five.csv"
    write_summary(path, [("A", 0, 1), ("B", 0, 40), ("C", 0.5, 2), ("D", 0.2, 30),
                         ("E", 0.1, 0)])
    args = ("predict", "--input", str(path), "--census", "1.0", "--objective", "time")
    code, out, _ = run(capsys, *args, "--horizon", "1e19", "--adjusted")
    assert code == 0
    payload = json.loads(out)
    for kind in ("unadjusted", "adjusted"):
        assert 0 < payload[kind]["lower"] < payload[kind]["upper"] < float("inf")
    code, out, err = run(capsys, *args, "--horizon", "1e300")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and "horizon" in err


def test_predict_time_scales_with_a_huge_target(tmp_path, capsys):
    # past a target of about 1e15 recruits the waiting time is the target
    # over a gamma-distributed pooled rate, so both ends of each interval
    # grow in proportion to the target, also where z = x / (x + scale) is
    # within a few ulps of 1
    path = tmp_path / "five.csv"
    write_summary(path, [("A", 0, 1), ("B", 0, 40), ("C", 0.5, 2), ("D", 0.2, 30),
                         ("E", 0.1, 0)])
    per_recruit = []
    for horizon in ("1e15", "1e16", "1e17", "1e18", "1e19"):
        code, out, _ = run(capsys, "predict", "--input", str(path), "--census", "1.0",
                           "--objective", "time", "--horizon", horizon, "--adjusted")
        assert code == 0
        payload = json.loads(out)
        per_recruit.append([payload[kind][end] / float(horizon)
                            for kind in ("unadjusted", "adjusted") for end in ("lower", "upper")])
    for row in per_recruit[1:]:
        assert np.allclose(row, per_recruit[0], rtol=1e-9, atol=0)


@pytest.mark.parametrize("objective", ["count", "time"])
@pytest.mark.parametrize("horizon", ["inf", "1e400"])
def test_predict_refuses_an_infinite_horizon(capsys, objective, horizon):
    code, out, err = run(capsys, "predict", "--input", str(demo_summary_path()),
                         "--census", str(DEMO_SUMMARY_CENSUS), "--objective", objective,
                         "--horizon", horizon)
    assert code == 4 and out == ""
    assert err == "config error: horizon must be positive and finite, got inf\n"


def test_predict_names_a_count_horizon_past_the_float_resolution(capsys):
    # the demo's pooled rate is about 0.15, so horizon / (rate + horizon)
    # rounds to 1 and the predicted count's law has no float probability
    code, out, err = run(capsys, "predict", "--input", str(demo_summary_path()),
                         "--census", str(DEMO_SUMMARY_CENSUS), "--objective", "count",
                         "--horizon", "1e300")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: horizon 1e+300 is too long")


def test_predict_names_an_adjusted_level_past_the_float_resolution(tmp_path, monkeypatch,
                                                                  capsys):
    # at estimates (1, 8) and one centre open for the one time unit, the
    # adjusted upper level of a time interval to 30 recruits rounds to 1
    monkeypatch.setattr(cli, "fit_mle", lambda data: ModelFit(
        alpha_hat=1.0, beta_hat=8.0, log_lik=0.0, kind="ok", iterations=1))
    summary = tmp_path / "summary.csv"
    write_summary(summary, [("a", 0.0, 0), ("b", 1.0, 0)])
    args = ("predict", "--input", str(summary), "--census", "1", "--objective", "time",
            "--horizon", "30", "--level", "0.95")
    assert run(capsys, *args)[0] == 0
    code, out, err = run(capsys, *args, "--adjusted")
    assert code == 4 and out == ""
    assert err == ("config error: adjusted time interval at level 0.95 to target count 30: "
                   "the adjusted tail is past float resolution (its quantile level rounds "
                   "to 0 or 1)\n")


def test_exit_codes_for_data_problems(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"),
                       "--census", "1")
    assert code == 2 and "data error" in err

    empty = tmp_path / "empty.csv"
    write_summary(empty, [])
    code, _, err = run(capsys, "fit", "--input", str(empty), "--census", "1")
    assert code == 2 and "no centres" in err

    # each fit that fit and predict refuse, by its exit code and its line:
    # no recruit, no open centre, and a monotone likelihood at equal and
    # at unequal exposures, whose limit ratio is n / sum(t) = 6 / 2.3
    def boundary(ratio):
        return (f"degenerate fit: likelihood keeps increasing along alpha/beta = {ratio}; "
                "counts show no over-dispersion\n")

    refusals = {
        "silent": ([("A", 0, 0), ("B", 0, 0)], 2, "data error: total recruit count is zero\n"),
        "closed": ([("A", 1, 0), ("B", 1, 0)], 2,
                   "data error: no centre has positive exposure\n"),
        "flat": ([("A", 0, 3), ("B", 0, 3), ("C", 0, 3)], 3, boundary("3")),
        "staggered": ([("A", 0, 3), ("B", 0.5, 1), ("C", 0.2, 2)], 3, boundary("2.6087")),
    }
    for name, (rows, want_code, want_err) in refusals.items():
        summary = tmp_path / f"{name}.csv"
        write_summary(summary, rows)
        for command in (("fit",), ("predict", "--objective", "count", "--horizon", "0.5")):
            got = run(capsys, *command, "--input", str(summary), "--census", "1")
            assert got == (want_code, "", want_err), (name, command)

    # six centres recruiting at the same two times: equal counts
    events = tmp_path / "flat-events.csv"
    write_events(events, [(centre, 0, time) for centre in "ABCDEF" for time in (0.1, 0.6)])
    assert run(capsys, "diagnose", "qq", "--input", str(events), "--census", "1",
               "--window", "0.5") == (3, "", boundary("2"))


def test_predict_refuses_a_fit_that_did_not_converge(monkeypatch, capsys):
    stalled = ModelFit(alpha_hat=2.0, beta_hat=0.1, log_lik=0.0,
                       kind="nonconverged", iterations=120)
    monkeypatch.setattr(cli, "fit_mle", lambda data: stalled)
    data = ("--input", str(demo_summary_path()), "--census", str(DEMO_SUMMARY_CENSUS))
    code, out, err = run(capsys, "predict", *data, "--objective", "count", "--horizon", "0.5")
    assert (code, out, err) == (3, "", "fit did not converge after 120 steps\n")
    # fit writes the same fit, flagged, and exits 0
    code, out, err = run(capsys, "fit", *data)
    assert (code, err) == (0, "")
    assert json.loads(out)["converged"] is False


def test_diagnose_qq_refuses_a_fit_that_did_not_converge(monkeypatch, capsys):
    stalled = ModelFit(alpha_hat=2.0, beta_hat=0.1, log_lik=0.0,
                       kind="nonconverged", iterations=120)
    monkeypatch.setattr(cli, "fit_mle", lambda data: stalled)
    code, out, err = run(capsys, "diagnose", "qq", "--input", str(demo_events_path()),
                         "--census", str(DEMO_EVENTS_CENSUS), "--window", "0.5")
    assert (code, out, err) == (3, "", "fit did not converge after 120 steps\n")


def test_summary_validation_points_at_lines(tmp_path, capsys):
    cases = [
        ([("A", 0, 2), ("A", 0, 3)], "line 3", "duplicate"),
        ([("A", 0, 2), ("B", 0, -1)], "line 3", "negative count"),
        ([("A", "x", 2)], "line 2", "open_time"),
        ([("A", 0.5, 2), ("B", 2.0, 1)], "line 3", "after census"),
        ([("A", 1.0, 4)], "line 2", "zero exposure"),
        ([("", 0, 1)], "line 2", "blank centre_id"),
        ([("A", 0, 3), ("B", 0, 10**20)], "line 3", "int64 maximum"),
        # each count fits int64, their sum does not
        ([("A", 0, 3), ("B", 0, 2**63 - 1)], "line 3", "int64 maximum"),
        ([("A", 0, 1), ("B",)], "line 3", "missing open_time"),
        ([("A", 0, 1), ("B", 0)], "line 3", "cannot parse count ''"),
    ]
    for rows, where, what in cases:
        path = tmp_path / "bad.csv"
        write_summary(path, rows)
        code, _, err = run(capsys, "fit", "--input", str(path), "--census", "1")
        assert code == 2
        assert where in err and what in err


def test_events_validation(tmp_path, capsys):
    path = tmp_path / "events.csv"
    write_events(path, [("A", 0.5, 0.2)])
    code, _, err = run(capsys, "fit", "--input", str(path), "--format", "events",
                       "--census", "1")
    assert code == 2 and "precedes" in err and "line 2" in err

    write_events(path, [("A", 0.0, 1.5)])
    code, _, err = run(capsys, "fit", "--input", str(path), "--format", "events",
                       "--census", "1")
    assert code == 2 and "after census" in err

    write_events(path, [("A", 0.0, 0.4), ("A", 0.1, 0.5)])
    code, _, err = run(capsys, "fit", "--input", str(path), "--format", "events",
                       "--census", "1")
    assert code == 2 and "open_time changed" in err

    write_events(path, [("C01", 0, 0.1), ("C02",)])
    code, _, err = run(capsys, "fit", "--input", str(path), "--format", "events",
                       "--census", "1")
    assert (code, err) == (2, "data error: line 3: missing open_time\n")

    # a centre that opens at the census has no exposure to recruit in
    write_events(path, [("A", 0, 0.5), ("B", 0, 0.7), ("C", 1, 1)])
    code, _, err = run(capsys, "fit", "--input", str(path), "--format", "events",
                       "--census", "1")
    assert (code, err) == (2, "data error: line 4: centre 'C' recruited at the "
                           "census with zero exposure\n")


def test_events_blank_rows_register_quiet_centres(tmp_path):
    path = tmp_path / "events.csv"
    write_events(path, [("A", 0.0, 0.25), ("A", 0.0, 0.75),
                        ("B", 0.25, ""), ("C", 0.0, 0.5)])
    data = parse_centre_csv(str(path), "events", 1.0)
    assert data.ids == ("A", "B", "C")
    assert data.exposures.tolist() == [1.0, 0.75, 1.0]
    assert data.counts.tolist() == [2, 0, 1]

    # a row that ends before its event_time column is a quiet centre too
    write_events(path, [("A", 0.0, 0.25), ("B", 0.25)])
    data = parse_centre_csv(str(path), "events", 1.0)
    assert data.ids == ("A", "B")
    assert data.counts.tolist() == [1, 0]


def test_rows_after_blank_lines_report_their_own_line(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_text("centre_id,open_time,count\nA,0,1\n\n\nB,x,1\n")
    code, _, err = run(capsys, "fit", "--input", str(path), "--census", "1")
    assert (code, err) == (2, "data error: line 5: cannot parse open_time 'x'\n")


@pytest.mark.parametrize("fmt", ["summary", "events"])
def test_unreadable_csvs_are_data_errors(tmp_path, capsys, fmt):
    last = "count" if fmt == "summary" else "event_time"
    huge = tmp_path / "huge.csv"
    huge.write_text(f"centre_id,open_time,{last}\nA,0,1\nB,0,{'1' * 131073}\n")
    code, out, err = run(capsys, "fit", "--input", str(huge), "--format", fmt,
                         "--census", "2")
    assert (code, out) == (2, "")
    assert err == (f"data error: {huge}: line 3: field larger than field limit "
                   "(131072)\n")

    latin = tmp_path / "latin.csv"
    latin.write_bytes(f"centre_id,open_time,{last}\nA,0,1\nZ\xfcrich,0,1\n"
                      .encode("latin-1"))
    code, out, err = run(capsys, "fit", "--input", str(latin), "--format", fmt,
                         "--census", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"data error: {latin}: 'utf-8' codec can't decode byte 0xfc")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["summary", "events"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, fmt):
    # spreadsheets save "CSV UTF-8" with the bytes EF BB BF in front
    source, census = ((demo_summary_path(), DEMO_SUMMARY_CENSUS) if fmt == "summary"
                      else (demo_events_path(), DEMO_EVENTS_CENSUS))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    plain = parse_centre_csv(str(source), fmt, census)
    trial = parse_centre_csv(str(marked), fmt, census)
    assert trial.ids == plain.ids
    assert trial.exposures.tobytes() == plain.exposures.tobytes()
    assert trial.counts.tolist() == plain.counts.tolist()
    _assert_reads_like_the_reference(str(marked), fmt)
    code, out, _ = run(capsys, "fit", "--input", str(marked), "--format", fmt,
                       "--census", str(census))
    assert code == 0 and json.loads(out)["data"]["total_count"] == plain.total_count

    # Latin-1 bytes are still refused, after a mark as without one
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"\xef\xbb\xbf" + "centre_id,open_time,count,event_time\n"
                      "Z\xfcrich,0,1,0.5\n".encode("latin-1"))
    code, out, err = run(capsys, "fit", "--input", str(latin), "--format", fmt,
                         "--census", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"data error: {latin}: 'utf-8' codec can't decode byte 0xfc")


@pytest.mark.parametrize("enabled", [True, False])
def test_a_read_leaves_the_garbage_collector_as_it_was(tmp_path, enabled):
    # the reader pauses collection while it holds every row of the file
    bad, empty = tmp_path / "bad.csv", tmp_path / "empty.csv"
    write_events(bad, [("A", 0, 0.5), ("B", "x", 0.5)])
    write_events(empty, [])
    try:
        (gc.enable if enabled else gc.disable)()
        parse_centre_csv(str(demo_events_path()), "events", DEMO_EVENTS_CENSUS)
        assert gc.isenabled() == enabled
        for path in (bad, empty):
            with pytest.raises(cli.DataError):
                parse_centre_csv(str(path), "events", 1.0)
            assert gc.isenabled() == enabled
    finally:
        gc.enable()


_SUMMARY_HEAD = "centre_id,open_time,count\n"
_EVENTS_HEAD = "centre_id,open_time,event_time\n"
_CSV_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
_CENSUS = 1.0
_HEADERS = {"summary": ("centre_id", "open_time", "count"),
            "events": ("centre_id", "open_time", "event_time")}
_EVENT_CENTRES = {"A": "0", "B": "0.25", " C ": "0.5", "Zü": "1e-1"}  # id: opening
_VALID = {"open_time": ["0", "0.25", "0.5", " 0.25", "1e-1"],
          "count": ["0", "1", "2", "17", " 4 "],
          "event_time": ["0.5", "0.75", "1", " 0.6 ", "", " "]}
_HOSTILE = {"centre_id": ["", "S0"],  # S0 repeats a summary's first centre
            "open_time": ["-0.5", "1", "1.5", "nan", "inf", "x", "", "0.3"],
            "count": ["-1", "1.5", " x ", "", str(2**63 - 1)],
            "event_time": ["0.05", "1.25", "nan", "-inf", " y "],
            "site": ["x", "", "two,\nlines"]}


@st.composite
def _centre_csv(draw, fmt):
    """CSV text for ``fmt``, valid or hostile: shuffled, duplicated,
    missing and extra header columns, short and long rows, blank lines
    and quoted fields, and values just past each check."""
    # hypothesis draws the ends of a range far more often than its middle
    def one_in(n):
        return draw(st.integers(0, n - 1)) == n // 2

    def pick(pool):
        return pool[draw(st.integers(0, 5 * len(pool) - 1)) % len(pool)]

    columns = list(_HEADERS[fmt])
    last = columns[-1]
    header = draw(st.permutations(
        columns + draw(st.lists(st.sampled_from(columns + ["site"]), max_size=2))))
    if one_in(10):
        header.remove(draw(st.sampled_from(columns)))
    rarity = draw(st.sampled_from([0, 8, 3]))  # 1 in rarity rows is hostile
    lines = [header]
    for k in range(draw(st.integers(1, 7))):
        if one_in(8):
            lines.append([])
            continue
        hostile = pick(header) if rarity and one_in(rarity) else None
        centre = pick(list(_EVENT_CENTRES)) if fmt == "events" else f"S{k}"
        valid = {"centre_id": centre,
                 "open_time": (_EVENT_CENTRES[centre] if fmt == "events"
                               else pick(_VALID["open_time"])),
                 last: pick(_VALID[last])}
        row = [pick(_HOSTILE[name]) if name in (hostile, "site")
               else valid[name] for name in header]
        if one_in(20):
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif one_in(20):
            row.append("extra")
        lines.append(row)
    buffer = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(buffer, quoting=quoting, lineterminator="\n").writerows(lines)
    return buffer.getvalue()


def _outcome(read, *args):
    """What ``read`` returns, or the name and message of what it raises."""
    try:
        return "value", read(*args)
    except Exception as exc:  # the comparison itself is the test
        return type(exc).__name__, str(exc)


def _expected_trial(path, fmt):
    if fmt == "summary":
        ids, exposures, counts = oracles.read_summary_csv(path, _CENSUS)
        return TrialData(_CENSUS, exposures, counts, tuple(ids))
    centres = oracles.read_events_csv(path, _CENSUS)
    return TrialData(_CENSUS, [_CENSUS - opened for opened, _ in centres.values()],
                     [len(offsets) for _, offsets in centres.values()], tuple(centres))


def _assert_same_outcome(new, old):
    if old[0] in ("TypeError", "Error"):  # float(None); csv.Error
        assert new[0] in ("MalformedRow", "DataError"), (new, old)
    else:
        assert new[0] == old[0] and (new[0] == "value" or new[1] == old[1]), (new, old)


def _assert_reads_like_the_reference(path, fmt):
    new = _outcome(parse_centre_csv, path, fmt, _CENSUS)
    old = _outcome(_expected_trial, path, fmt)
    _assert_same_outcome(new, old)
    if new[0] == "value":
        trial, expected = new[1], old[1]
        assert trial.ids == expected.ids
        assert trial.exposures.tobytes() == expected.exposures.tobytes()
        assert trial.counts.tolist() == expected.counts.tolist()
    if fmt == "events":
        new = _outcome(cli._read_events, path, _CENSUS)
        old = _outcome(oracles.read_events_csv, path, _CENSUS)
        _assert_same_outcome(new, old)
        if new[0] == "value":
            ids, openings, centre, offsets = new[1]
            assert list(ids) == list(old[1])
            assert openings.tolist() == [opened for opened, _ in old[1].values()]
            for i, (_, expected) in enumerate(old[1].values()):
                grouped = np.sort(offsets[centre == i])
                assert grouped.tobytes() == np.array(expected, dtype=float).tobytes()
    return new


@_CSV_PROPERTY
@given(data=st.data())
def test_csv_reader_matches_the_dictreader_reference(tmp_path_factory, data):
    fmt = data.draw(st.sampled_from(["summary", "events"]))
    path = tmp_path_factory.mktemp("csv") / "centres.csv"
    path.write_text(data.draw(_centre_csv(fmt)), encoding="utf-8")
    _assert_reads_like_the_reference(str(path), fmt)


def _oracle_total(path, fmt):
    if fmt == "summary":
        return sum(oracles.read_summary_csv(path, _CENSUS)[2])
    return sum(len(offsets) for _, offsets in oracles.read_events_csv(path, _CENSUS).values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fit_on_any_centre_csv_exits_with_one_line(tmp_path_factory, data):
    # the whole command in this process: whatever the file holds, fit exits
    # with a known code, and a refusal is one line without a traceback
    fmt = data.draw(st.sampled_from(["summary", "events"]))
    path = tmp_path_factory.mktemp("csv") / "centres.csv"
    path.write_text(data.draw(_centre_csv(fmt)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fit", "--format", fmt, "--input", str(path), "--census", str(_CENSUS)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["data"]["total_count"] == _oracle_total(str(path), fmt)
    else:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")


# what the fuzz test below draws for an argument, beside its valid values
_HOSTILE_ARGUMENTS = ["nan", "-NaN", "inf", "-inf", "0", "-0.0", "-1", "-1e308", "1e308",
                      "1e400", "5e-324", "1e-300", "ten", "", "0x10", "1_0"]
_VALID_ARGUMENTS = {"format": ["summary", "events"], "objective": ["count", "time"],
                    "horizon": ["0.875", "300", "3"], "level": ["0.9", "0.5", "0.99"]}


class _Drawn:
    """Stands in for hypothesis's ``data()`` in an explicit example: each
    draw gives the value named by its label."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


def _strict_json(text: str):
    """``text`` parsed as JSON, refusing the bare NaN and Infinity that
    Python's encoder writes and JSON does not allow."""
    def refuse(constant):
        raise ValueError(f"bare {constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
# 41 exposures at 1e307 sum past the float range: fit once wrote NaN estimates
@example(data=_Drawn(command="fit", hostile={"census"}, format="summary", census="1e307"))
@example(data=_Drawn(command="fit", hostile={"census"}, format="events", census="1e307"))
@example(data=_Drawn(command="predict", hostile={"census"}, format="summary", census="1e307",
                     objective="count", horizon="300", level="0.9"))
@example(data=_Drawn(command="predict", hostile={"census"}, format="events", census="1e307",
                     objective="time", horizon="3", level="0.9"))
def test_fit_and_predict_on_any_arguments_exit_with_one_line(data):
    # the whole command in this process, on the demo files: whatever the
    # arguments hold, it exits with a known code, and a refusal is one
    # line without a traceback
    command = data.draw(st.sampled_from(["fit", "predict"]), label="command")
    names = ["format", "census"] + (["objective", "horizon", "level"]
                                    if command == "predict" else [])
    hostile = data.draw(st.sets(st.sampled_from(names), max_size=2), label="hostile")
    values = {}
    for name in names:
        # the demo file read is the one the format names, at its census
        valid = (_VALID_ARGUMENTS[name] if name != "census"
                 else [str(DEMO_EVENTS_CENSUS if values["format"] == "events"
                           else DEMO_SUMMARY_CENSUS)])
        values[name] = data.draw(
            st.one_of(st.sampled_from(_HOSTILE_ARGUMENTS), st.floats().map(repr))
            if name in hostile else st.sampled_from(valid), label=name)
    source = demo_events_path() if values["format"] == "events" else demo_summary_path()
    # "--name=value", so that a value such as "-inf" is not read as an option
    argv = [command, "--input", str(source), *(f"--{n}={v}" for n, v in values.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert _strict_json(out.getvalue())["manifest"]["command"] == command
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")


@pytest.mark.parametrize("fmt, text, outcome", [
    ("summary", _SUMMARY_HEAD + "A,0,2\n\n\"B\",\"0.5\",\"1\"\n", "value"),
    ("summary", "count,centre_id,open_time,count,site\nx,A,0,3\n", "value"),
    ("summary", "centre_id,open_time,count,open_time\nA,0.5,2,0\n", "value"),
    ("summary", "centre_id,open_time,count,open_time\nA,0.5,2\n", "MalformedRow"),
    ("summary", "open_time,count\n0,1\n", "DataError"),
    ("summary", "", "DataError"),
    ("summary", _SUMMARY_HEAD, "DataError"),
    ("summary", _SUMMARY_HEAD + " ,0,1\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,x,1\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,nan,1\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,-inf,1\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,-0.5,1\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,1.5,1\n", "OpeningAfterCensus"),
    ("summary", _SUMMARY_HEAD + "A,0, x \n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,0,-1\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + f"A,0,{2**63}\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,1,2\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,0,1\nA,0,2\n", "MalformedRow"),
    ("summary", _SUMMARY_HEAD + "A,0,1\nB\n", "TypeError"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nA,0,0.25\n\n\"B\",\"0.5\",\"\"\n", "value"),
    ("events", "event_time,open_time,centre_id,site\n0.5,0,A\n,0.5,B,x,y\n", "value"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nB,0.5\n", "value"),
    ("events", _EVENTS_HEAD + "A,0, 0.5 \nB,0.5, \n", "value"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nB\n", "TypeError"),
    ("events", _EVENTS_HEAD + ",0,0.5\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,inf,0.5\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,1.5,\n", "OpeningAfterCensus"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nA,0.25,0.5\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0.5,0.25\n", "EventBeforeOpening"),
    ("events", _EVENTS_HEAD + "A,0,1.25\n", "EventAfterCensus"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nC,1,1\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nC,1,\n", "value"),
    ("events", _EVENTS_HEAD + "A,0,nan\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0, y \n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "\n\n", "DataError"),
    # the fault search over an events log: centres interleaved, a quiet
    # centre's blank row after its events, line numbers past a two-line
    # field and blank lines, the earlier of two faults of different kinds
    ("events", _EVENTS_HEAD + "A,0,0.5\nB,0.25,0.5\nA,0,0.75\n", "value"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nB,0.25,0.5\nA,0.5,0.75\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nB,0.25,\nA,0,0.75\nB,0.25,\n", "value"),
    ("events", "centre_id,open_time,event_time,site\nA,0,0.5,\"two\nlines\"\n\n\n"
               "B,0,1.25,x\n", "EventAfterCensus"),
    ("events", _EVENTS_HEAD + "A,0,0.5\n\nA,0,0.75\n\nB,0.25,0.1\n", "EventBeforeOpening"),
    ("events", _EVENTS_HEAD + "A,0.25,1.25\nA,0.25,0.1\n", "EventAfterCensus"),
    ("events", _EVENTS_HEAD + "A,0.25,0.1\nA,0.25,1.25\n", "EventBeforeOpening"),
    ("events", _EVENTS_HEAD + "A,0,1.25\nB,x,0.5\n", "EventAfterCensus"),
    ("events", _EVENTS_HEAD + "B,x,0.5\nA,0,1.25\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nA,0,y\nA,0,1.25\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nA,0,1.25\nA,0,y\n", "EventAfterCensus"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nC,1,1\nA,0.25,0.5\n", "MalformedRow"),
    ("events", _EVENTS_HEAD + "A,0,0.5\nA,0.25,\nC,1,1\n", "MalformedRow"),
    pytest.param("events", _EVENTS_HEAD + f"A,0,1.25\nB,0,0.5\nC,0,{'1' * 131073}\n",
                 "EventAfterCensus", id="events-fault-before-a-field-past-the-limit"),
    pytest.param("summary", _SUMMARY_HEAD + f"A,0,-1\nB,0,1\nC,0,{'1' * 131073}\n",
                 "MalformedRow", id="summary-fault-before-a-field-past-the-limit"),
])
def test_csv_reader_matches_the_dictreader_reference_at_each_check(
        tmp_path, fmt, text, outcome):
    path = tmp_path / "centres.csv"
    path.write_text(text, encoding="utf-8")
    new = _assert_reads_like_the_reference(str(path), fmt)
    expected = "MalformedRow" if outcome == "TypeError" else outcome
    assert new[0] == expected


def test_simulate_table_layout(tmp_path, capsys):
    out = tmp_path / "table2.csv"
    code, stdout, _ = run(capsys, "simulate", "--table", "2", "--reps", "3",
                          "--seed", "5", "--out", str(out))
    assert code == 0 and stdout == ""
    manifest, header, rows = csv_body(out.read_text())
    assert header == ["t", "t_plus", "coverage_unadjusted", "width_unadjusted",
                      "coverage_adjusted", "width_adjusted"]
    assert len(rows) == 7
    census = [float(r[0]) for r in rows]
    assert census == [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0]
    assert all(float(r[0]) + float(r[1]) == 400.0 for r in rows)
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    sidecar = json.loads((tmp_path / "table2.csv.manifest.json").read_text())
    assert "created_utc" in sidecar


def test_simulate_staggered_table_has_diagnostics(capsys):
    code, out, _ = run(capsys, "simulate", "--table", "4", "--reps", "2",
                       "--seed", "9")
    assert code == 0
    _, header, rows = csv_body(out)
    assert header[:5] == ["t", "t_plus", "t_star", "t_star_ratio", "n_star_ratio"]
    assert len(rows) == 7
    for row in rows:
        assert 0.0 < float(row[2]) < float(row[0])
        assert 0.2 < float(row[3]) < 1.3
        assert 0.1 < float(row[4]) < 1.5
    # pooling discounts the split-half design more as the census grows
    assert float(rows[-1][3]) < float(rows[0][3])


def test_simulate_custom_config(tmp_path, capsys):
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({
        "prior": {"alpha": 2.0, "beta": 150.0},
        "centres": 40,
        "census_time": 100.0,
        "schedule": "simultaneous",
        "objective": "count",
        "horizon": 300.0,
        "replications": 10,
        "seed": 3,
    }))
    code, out, _ = run(capsys, "simulate", "--config", str(config))
    assert code == 0
    manifest, header, rows = csv_body(out)
    assert len(rows) == 1
    cells = dict(zip(header, rows[0]))
    assert float(cells["t"]) == 100.0
    assert float(cells["t_plus"]) == 300.0
    assert float(cells["replications"]) + float(cells["degenerate_fits"]) == 10
    assert 0.0 <= float(cells["coverage_adjusted"]) <= 100.0
    assert manifest["config"]["config"]["prior"]["kind"] == "gamma"

    # mixture prior and explicit schedule both parse
    config.write_text(json.dumps({
        "prior": {"alpha": 2.0, "beta1": 1.0, "beta2": 3.0},
        "centres": 6,
        "census_time": 50.0,
        "schedule": {"opening_times": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]},
        "objective": "count",
        "horizon": 50.0,
        "replications": 4,
        "seed": 11,
    }))
    code, out, _ = run(capsys, "simulate", "--config", str(config), "--reps", "6")
    assert code == 0
    manifest, header, rows = csv_body(out)
    assert manifest["config"]["config"]["replications"] == 6
    assert manifest["config"]["config"]["schedule"]["kind"] == "explicit"


def test_simulate_config_errors(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--table", "99")
    assert code == 4 and err == ("config error: unknown table '99'; expected one of "
                                 "2, 3, 4, D1, D2, D3, D4, D5, F1, F2\n")

    code, _, err = run(capsys, "simulate")
    assert code == 4 and "exactly one" in err

    config = tmp_path / "bad.json"
    config.write_text("{not json")
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4 and "not valid JSON" in err

    config.write_text(json.dumps({"prior": {"alpha": 2.0, "beta": 150.0}}))
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4 and "bad simulation config" in err

    config.write_text(json.dumps({
        "prior": {"alpha": 2.0, "beta": 150.0}, "centres": 5,
        "census_time": 10.0, "schedule": "staircase",
        "objective": "count", "horizon": 10.0, "replications": 2, "seed": 1}))
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4 and "unknown schedule" in err


def test_simulate_threads_do_not_change_bytes(tmp_path, capsys):
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({
        "prior": {"alpha": 2.0, "beta": 150.0},
        "centres": 20,
        "census_time": 50.0,
        "schedule": "uniform",
        "objective": "count",
        "horizon": 50.0,
        "replications": 12,
        "seed": 21,
    }))
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    assert run(capsys, "simulate", "--config", str(config),
               "--out", str(serial))[0] == 0
    assert run(capsys, "simulate", "--config", str(config), "--threads", "2",
               "--out", str(threaded))[0] == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_simulate_table_bytes_ignore_where_chunks_and_blocks_end(capsys):
    # one process draws each row in blocks 0-64, 64-128, 128-150; two
    # split it at 75 and draw 0-64, 64-75 and 75-139, 139-150
    args = ("simulate", "--table", "4", "--reps", "150", "--seed", "3")
    code, serial, _ = run(capsys, *args, "--threads", "1")
    assert code == 0
    assert run(capsys, *args, "--threads", "2") == (0, serial, "")


@pytest.mark.parametrize("table_id", ["2", "3", "4", "D4"])
def test_simulate_table_matches_golden_bytes(capsys, table_id):
    # 1-D and 2-D fit paths, closed centres (table 4), a time objective
    # (D4) and boundary intervals (a degenerate fit in each first row)
    golden = Path(__file__).parent / "data" / f"simulate_table_{table_id}_reps20_seed5.csv"
    code, out, _ = run(capsys, "simulate", "--table", table_id,
                       "--reps", "20", "--seed", "5")
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("golden, figure", [
    ("curves_fig2_centres20_reps300_seed5_grid21.csv", ("fig2", "--centres", "20")),
    ("curves_figD1_reps300_seed5_grid21.csv", ("figD1",)),
], ids=["fig2", "figD1"])
def test_curves_match_golden_bytes(capsys, golden, figure):
    # the count and the time quantile-content studies
    code, out, _ = run(capsys, "curves", "--figure", *figure,
                       "--reps", "300", "--seed", "5", "--grid", "21")
    assert code == 0
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("objective, horizon", [("count", "0.875"), ("time", "300")])
def test_predict_demo_matches_golden_bytes(monkeypatch, capsys, objective, horizon):
    # run beside the demo file so the manifest records a path that is the
    # same on every machine; the timestamp is the one varying field
    monkeypatch.chdir(demo_summary_path().parent)
    code, out, _ = run(capsys, "predict", "--input", demo_summary_path().name,
                       "--census", str(DEMO_SUMMARY_CENSUS), "--objective", objective,
                       "--horizon", horizon, "--adjusted")
    assert code == 0
    stable = "".join(line for line in out.splitlines(keepends=True)
                     if '"created_utc": ' not in line)
    assert stable == (DATA / f"predict_demo_{objective}_{horizon}_adjusted.json").read_text()


@pytest.mark.parametrize("golden, command", [
    ("fit_demo_events.json", ("fit", "--format", "events")),
    ("predict_demo_events_count_0.5.json", ("predict", "--format", "events",
                                            "--objective", "count", "--horizon", "0.5")),
    ("diagnose_qq_demo_events_window_0.25.csv", ("diagnose", "qq", "--window", "0.25")),
    ("diagnose_qq_demo_events_window_0.5.csv", ("diagnose", "qq", "--window", "0.5")),
], ids=["fit", "predict", "qq-0.25", "qq-0.5"])
def test_demo_events_match_golden_bytes(monkeypatch, capsys, golden, command):
    # the events log's reader feeds each of these; run beside the demo file
    # as the summary goldens do, and drop the timestamp line
    monkeypatch.chdir(demo_events_path().parent)
    code, out, _ = run(capsys, *command, "--input", demo_events_path().name,
                       "--census", str(DEMO_EVENTS_CENSUS))
    assert code == 0
    stable = "".join(line for line in out.splitlines(keepends=True)
                     if '"created_utc": ' not in line)
    assert stable == (DATA / golden).read_text()


# Runs each argv of the JSON list in sys.argv[1] through cli.main in this
# one fresh process, and prints, for each, the exit code, stdout and which
# of the lazily loaded modules are loaded after it.
_COLD_START = """
import contextlib, io, json, sys
import recruitcast, recruitcast.cli
report = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = recruitcast.cli.main(argv)
        except SystemExit as stop:  # --version and --help exit through argparse
            code = stop.code
    loaded = [m for m in ("scipy.special", "concurrent.futures.process") if m in sys.modules]
    report.append({"code": code, "out": out.getvalue(), "loaded": loaded})
print(json.dumps(report))
"""


def test_fit_and_refusals_load_neither_scipy_nor_a_process_pool():
    # a cold `fit`, `--version`, `--help` or refusal pays for neither
    # import; the first law a `predict` evaluates loads SciPy, and its
    # bytes hold
    summary, events = demo_summary_path().name, demo_events_path().name
    calls = [["fit", "--input", summary, "--census", str(DEMO_SUMMARY_CENSUS)],
             ["fit", "--format", "events", "--input", events,
              "--census", str(DEMO_EVENTS_CENSUS)],
             ["--version"],
             ["--help"],
             ["fit", "--input", events, "--census", str(DEMO_SUMMARY_CENSUS)],
             ["predict", "--input", summary, "--census", str(DEMO_SUMMARY_CENSUS),
              "--objective", "count", "--horizon", "0.875", "--adjusted"]]
    report = json.loads(run_python(_COLD_START, json.dumps(calls),
                                   cwd=demo_summary_path().parent))
    assert [r["code"] for r in report] == [0, 0, 0, 0, 2, 0]
    assert [r["loaded"] for r in report] == [[]] * 5 + [["scipy.special"]]
    stable = "".join(line for line in report[-1]["out"].splitlines(keepends=True)
                     if '"created_utc": ' not in line)
    assert stable == (DATA / "predict_demo_count_0.875_adjusted.json").read_text()


# Two threads released together each make this process's first law call,
# switching often so that the import of SciPy is likely to interleave.
_FIRST_CALLS = """
import json, sys, threading
from recruitcast import (fit_mle, nb_quantile, pearson6_quantile, pool_centres,
                         predictive_count_law, predictive_time_law)
from recruitcast.datasets import DEMO_SUMMARY_CENSUS, demo_summary_path
from recruitcast.cli import parse_centre_csv
data = parse_centre_csv(str(demo_summary_path()), "summary", DEMO_SUMMARY_CENSUS)
pool = pool_centres(data, fit_mle(data))
calls = {"count": lambda: nb_quantile(0.9, predictive_count_law(pool, 0.875)),
         "time": lambda: pearson6_quantile(0.9, predictive_time_law(pool, 300))}
assert "scipy.special" not in sys.modules
sys.setswitchinterval(1e-6)
start = threading.Barrier(2)
answers, faults = {}, []
def first(name):
    start.wait(timeout=60)
    try:
        answers[name] = calls[name]()
    except Exception as exc:
        faults.append(repr(exc))
threads = [threading.Thread(target=first, args=(name,)) for name in calls]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
print(json.dumps({"alive": [t.is_alive() for t in threads], "faults": faults,
                  "first": answers, "again": {name: call() for name, call in calls.items()}}))
"""


def test_two_threads_making_the_first_law_call_at_once_both_get_scipy():
    # a smoke test only: a racy loader can pass it by chance
    report = json.loads(run_python(_FIRST_CALLS))
    assert report["alive"] == [False, False]
    assert report["faults"] == []
    assert report["first"] == report["again"]


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_simulate_rejects_a_thread_count_below_one(capsys, threads):
    code, out, err = run(capsys, "simulate", "--table", "2", "--reps", "2",
                         "--threads", threads)
    assert code == 4
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize("command", ["table", "config", "curves"])
def test_zero_replications_are_rejected(tmp_path, monkeypatch, capsys, command):
    # --reps 0 is a count, not an absent option: it must meet the "at least
    # one replication" rule instead of falling back to the default
    def no_study(*args, **kwargs):
        raise AssertionError("a study ran")

    monkeypatch.setattr(cli, "coverage_study", no_study)
    monkeypatch.setattr(cli, "quantile_probability_study", no_study)
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({
        "prior": {"alpha": 2.0, "beta": 1.0}, "centres": 5, "census_time": 1.0,
        "objective": "count", "horizon": 0.5, "replications": 3}))
    args = {"table": ("simulate", "--table", "2"),
            "config": ("simulate", "--config", str(config)),
            "curves": ("curves", "--figure", "fig2", "--grid", "5")}[command]
    code, out, err = run(capsys, *args, "--reps", "0", "--threads", "1")
    assert code == 4
    assert out == ""
    assert "at least one replication" in err


@pytest.mark.parametrize("field, value", [
    ("centres", 2.7), ("centres", True), ("centres", "5"), ("centres", None),
    ("replications", 2.5), ("replications", False), ("seed", 1.5), ("seed", True),
])
def test_config_integer_fields_must_be_integers(tmp_path, monkeypatch, capsys,
                                                field, value):
    def no_study(*args, **kwargs):
        raise AssertionError("a study ran")

    monkeypatch.setattr(cli, "coverage_study", no_study)
    raw = {"prior": {"alpha": 2.0, "beta": 1.0}, "centres": 5, "census_time": 1.0,
           "objective": "count", "horizon": 0.5, "replications": 3, "seed": 4}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({**raw, field: value}))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert repr(field) in err and "integer" in err


@pytest.mark.parametrize("opening", [float("nan"), float("inf"), -float("inf"), 1.5, -0.5])
def test_config_opening_times_fail_before_any_trial_is_drawn(tmp_path, monkeypatch,
                                                             capsys, opening):
    # a NaN opening once passed both range checks and surfaced mid-run as
    # numpy's "lam value too large"
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(simulate, "generate_trial", no_trial)
    raw = {"prior": {"alpha": 2.0, "beta": 1.0}, "centres": 3, "census_time": 1.0,
           "schedule": {"opening_times": [0.0, 0.5, opening]},
           "objective": "count", "horizon": 0.5, "replications": 3, "seed": 4}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(raw))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "opening times" in err


@pytest.mark.parametrize("census", [float("inf"), float("nan")])
def test_config_census_time_must_be_finite_before_any_trial_is_drawn(tmp_path, monkeypatch,
                                                                     capsys, census):
    # an infinite census once drew trials and then failed inside numpy
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(simulate, "generate_trial", no_trial)
    raw = {"prior": {"alpha": 2.0, "beta": 1.0}, "centres": 3, "census_time": census,
           "objective": "count", "horizon": 0.5, "replications": 3, "seed": 4}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(raw))
    assert ("Infinity" if census > 0 else "NaN") in config.read_text()
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "census_time" in err


@pytest.mark.parametrize("prior, field, value", [
    ({"alpha": "BAD", "beta": 1.0}, "alpha", "1e400"),
    ({"alpha": 2.0, "beta": "BAD"}, "beta", "1e400"),
    ({"alpha": 2.0, "beta1": 1.0, "beta2": "BAD"}, "beta2", "1e400"),
    ({"alpha": 2.0, "beta": "BAD"}, "beta", "NaN"),
    ({"alpha": "BAD", "beta1": 1.0, "beta2": 3.0}, "alpha", "-Infinity"),
])
def test_config_priors_must_be_finite_before_any_trial_is_drawn(tmp_path, monkeypatch,
                                                                capsys, prior, field, value):
    # an infinite prior once failed after fitting with numpy's "lam value
    # too large", exited 3 as degenerate, or ran with half the rates 0
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(simulate, "generate_trial", no_trial)
    raw = {"prior": prior, "centres": 5, "census_time": 1.0,
           "objective": "count", "horizon": 0.5, "replications": 3, "seed": 4}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(raw).replace('"BAD"', value))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{field} must be positive and finite" in err


@pytest.mark.parametrize("prior", [
    {"alpha": 2.0, "beta": 1e-300},
    {"alpha": 1e300, "beta": 1.0},
    {"alpha": 2.0, "beta1": 1.0, "beta2": 1e-300},
], ids=["tiny beta", "huge alpha", "mixture"])
def test_a_prior_past_the_poisson_range_fails_before_any_trial_is_drawn(tmp_path, monkeypatch,
                                                                        capsys, prior):
    # such a prior once exited 4 with numpy's bare "lam value too large",
    # after drawing had begun
    trials = []
    monkeypatch.setattr(simulate, "generate_trial", lambda *args: trials.append(args))
    raw = {"prior": prior, "centres": 5, "census_time": 1.0,
           "objective": "count", "horizon": 0.5, "replications": 3, "seed": 4}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(raw))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4 and out == "" and trials == []
    assert err.count("\n") == 1 and "prior" in err and "Traceback" not in err


def test_a_heavy_tailed_prior_that_draws_past_the_poisson_range_is_named(tmp_path, capsys):
    # the prior's mean count per centre, 1e18, is inside numpy's Poisson
    # range, but one of 50 centres draws a rate past it: this once exited
    # 4 with numpy's bare "lam value too large"
    raw = {"prior": {"alpha": 0.01, "beta": 1e-20}, "centres": 50, "census_time": 1.0,
           "objective": "count", "horizon": 0.5, "replications": 3, "seed": 4}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(raw))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "prior" in err and "Traceback" not in err


_CELL ={"prior": {"alpha": 2.0, "beta": 150.0}, "centres": 20, "census_time": 100.0,
         "objective": "count", "horizon": 100.0, "replications": 3, "seed": 4}


@pytest.mark.parametrize("change, message", [
    ({"prior": {"alpha": True, "beta": 150.0}},
     "field 'prior.alpha' must be a number, got True"),
    ({"census_time": "100"}, "field 'census_time' must be a number, got '100'"),
    ({"levle": 0.95}, "unknown field 'levle'"),
    ({"prior": {"kind": "gamma_mixture", "alpha": 2, "beta": 1}},
     "unknown field 'prior.beta'"),
    ({"schedule": {"kind": "uniform", "opening_times": [0.0] * 20}},
     "unknown field 'schedule.opening_times'"),
    ({"schedule": {"opening_times": "0123"}},
     "field 'schedule.opening_times' must be a list of numbers, got '0123'"),
], ids=["boolean number", "string number", "unknown field", "mixture kind",
        "uniform kind", "string openings"])
def test_config_fields_follow_one_rule(tmp_path, monkeypatch, capsys, change, message):
    # the first five once ran: as alpha = 1, census 100, level 0.9, a single
    # gamma and explicit openings; the string was read as four openings
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(simulate, "generate_trial", no_trial)
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({**_CELL, **change}))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 4 and out == ""
    assert err == f"config error: bad simulation config: {message}\n"


# a JSON value of each kind; the fuzz below draws one whose type the
# field does not take
_JSON_VALUES = {
    "boolean": st.booleans(),
    # at most four characters, so never a kind name or an objective
    # other than "time", which the string fields are spared
    "string": st.text(max_size=4),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.sampled_from(["a", "alpha"]), st.integers(0, 3), max_size=1),
    "null": st.none(),
}
# where each field of a mixture prior on explicit openings lives, and the
# JSON types it takes (a prior or schedule may be a bare kind name)
_FUZZED_FIELDS = {
    ("prior",): ("object", "string"), ("centres",): (), ("census_time",): (),
    ("schedule",): ("object", "string"), ("objective",): ("string",), ("horizon",): (),
    ("level",): (), ("replications",): (), ("seed",): (),
    ("prior", "kind"): ("string",), ("prior", "alpha"): (), ("prior", "beta1"): (),
    ("prior", "beta2"): (), ("schedule", "kind"): ("string",),
    ("schedule", "opening_times"): ("list",),
}


@st.composite
def _mistyped_configs(draw):
    raw = {**_CELL, "prior": {"kind": "gamma_mixture", "alpha": 2.0, "beta1": 150.0,
                              "beta2": 450.0},
           "schedule": {"kind": "explicit", "opening_times": [0.0] * 20}, "level": 0.9}
    if draw(st.booleans()):
        path, taken = draw(st.sampled_from(sorted(_FUZZED_FIELDS.items())))
        wrong = draw(st.sampled_from([kind for kind in _JSON_VALUES if kind not in taken]))
        value = draw(_JSON_VALUES[wrong])
    else:
        parent = draw(st.sampled_from([(), ("prior",), ("schedule",)]))
        key = draw(st.text("abxyz_", min_size=1, max_size=5))
        path, value = parent + (key,), 1.0
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=_mistyped_configs())
def test_a_mistyped_config_fails_before_any_trial(tmp_path_factory, raw):
    trials = []
    config = tmp_path_factory.mktemp("config") / "cell.json"
    config.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "generate_trial", lambda *args: trials.append(args))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(config), "--reps", "2",
                             "--threads", "1"])
    assert code == 4 and out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("config error: bad simulation config: ")
    assert trials == []


# a number no law may take: not a number, past the float range or at its
# ends, negative or zero, or an integer past int64
_HOSTILE_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, 1e300, 1e17, 5e-324, 1e-300,
                     -1.0, -1e300, 0.0, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2**70, 2**70))


@st.composite
def _hostile_configs(draw):
    """A small cell with one to three of its numbers made hostile: at
    most 12 centres and, run at two replications, no large array."""
    centres = draw(st.integers(1, 12))
    raw = {"prior": draw(st.sampled_from([
               {"kind": "gamma", "alpha": 2.0, "beta": 150.0},
               {"kind": "gamma_mixture", "alpha": 2.0, "beta1": 150.0, "beta2": 450.0}])),
           "centres": centres, "census_time": 100.0,
           "schedule": draw(st.sampled_from(["simultaneous", "uniform", "split_half",
                                             "explicit"])),
           "objective": draw(st.sampled_from(["count", "time"])),
           "horizon": 100.0, "level": 0.9, "replications": 2, "seed": 4}
    numbers = [("census_time",), ("horizon",), ("level",), ("replications",), ("seed",)]
    numbers += [("prior", key) for key in raw["prior"] if key != "kind"]
    if raw["schedule"] == "explicit":
        raw["schedule"] = {"kind": "explicit", "opening_times": [5.0 * i for i in range(centres)]}
        numbers += [("schedule", "opening_times", i) for i in range(centres)]
    for path in draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=3, unique=True)):
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = draw(_HOSTILE_NUMBERS)
    return raw


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raw=_hostile_configs())
def test_hostile_config_values_exit_cleanly(tmp_path_factory, raw):
    # a refusal may still come after a block is drawn, so only the exit
    # and its one line are checked; NumPy's floating-point warnings go to
    # pytest's own capture, not to err
    config = tmp_path_factory.mktemp("config") / "cell.json"
    config.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--config", str(config), "--reps", "2", "--threads", "1"])
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("cell, line", [
    ({"objective": "time"},
     "config error: adjusted time interval at level 0.9 to target count 1.7e+308: "
     "its horizon in time units is past the float range (its quantile level is NaN)\n"),
    ({"objective": "count"},
     "config error: horizon 1.7e+308 is too long for the pooled posterior: "
     "horizon / (rate + horizon) rounds to 1\n"),
    ({"prior": {"kind": "gamma", "alpha": 2.0, "beta": 1e-300}, "centres": 12,
      "census_time": 1e-300, "horizon": 11},
     "config error: the posterior rate moments of an interior fit at census 1e-300 left "
     "the float range\n"),
    ({"prior": {"kind": "gamma", "alpha": 2.0, "beta": 3e238}, "centres": 12,
      "census_time": 3e238, "horizon": 11},
     "config error: the posterior rate moments of an interior fit at census 3e+238 left "
     "the float range\n"),
], ids=["time", "count", "moments-1e-300", "moments-3e238"])
def test_a_horizon_past_the_float_range_is_refused_by_name_without_a_warning(
        tmp_path, capsys, cell, line):
    # a time horizon of 1.7e308 sends x = m beta / alpha past the float
    # range, and the adjusted level to NaN, which is refused by that
    # reason, naming the target count, with no NumPy warning; so are
    # posterior moments past it, where beta and the census both sit at
    # 1e-300 or 3e238 and (b + t_c)^2 reads 0 or inf, before any law is
    # pooled from them
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({
        "prior": {"kind": "gamma", "alpha": 2.0, "beta": 150.0}, "centres": 3,
        "census_time": 100.0, "schedule": "simultaneous", "objective": "count",
        "horizon": 1.7e308, "replications": 2, "seed": 1, **cell}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", "--config", str(config), "--reps", "2",
                             "--threads", "1")
    assert (code, out, err) == (4, "", line)


@pytest.mark.parametrize("census, horizon", [("1e300", "1e300"), ("3e238", "11")])
def test_a_prediction_whose_posterior_moments_leave_the_float_range_is_refused_by_name(
        capsys, census, horizon):
    # the demo summary's fit at such a census is interior, but b + t_c or
    # its square reads 0 or inf; predict refuses the moments with the
    # line that simulate prints for them, with no NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "predict", "--input", str(demo_summary_path()),
                             "--census", census, "--objective", "count",
                             "--horizon", horizon)
    assert (code, out, err) == (4, "", f"config error: the posterior rate moments of an "
                                       f"interior fit at census {float(census):g} left "
                                       f"the float range\n")


def _run_config(tmp_path, capsys, config, reps):
    """Write ``config`` in the manifest's schema, check that the file
    loads back to ``config`` itself, and return the cells that
    ``simulate --config`` prints for it at ``reps`` replications."""
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(cli._config_payload(config)))
    args = cli.build_parser().parse_args(["simulate", "--config", str(path)])
    assert cli._load_sim_config(str(path), args) == config
    code, out, _ = run(capsys, "simulate", "--config", str(path), "--reps", str(reps),
                       "--threads", "1")
    assert code == 0
    _, header, (row,) = csv_body(out)
    return dict(zip(header, row))


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_every_table_row_runs_back_through_config(tmp_path, capsys, table_id):
    # the README promises that --config reads the schema the manifest prints
    code, out, _ = run(capsys, "simulate", "--table", table_id, "--reps", "5",
                       "--threads", "1")
    assert code == 0
    manifest, header, rows = csv_body(out)
    layout = reproduction_table(table_id)
    assert len(rows) == len(layout.rows) == len(manifest["config"]["rows"])
    for row, (_, config) in zip(rows, layout.rows):
        cells = _run_config(tmp_path, capsys, config, reps=5)
        assert {column: cells[column] for column in header} == dict(zip(header, row))


def test_a_mixture_with_explicit_openings_runs_back_through_config(tmp_path, capsys):
    config = simulate.SimConfig(
        prior=simulate.GammaMixture(alpha=2.0, beta1=1.0, beta2=3.0), centres=6,
        census_time=50.0, schedule=simulate.Explicit((0.0, 5.0, 10.0, 15.0, 20.0, 25.0)),
        objective="count", horizon=50.0, level=0.9, replications=2000, seed=11)
    cells = _run_config(tmp_path, capsys, config, reps=5)
    report = simulate.coverage_study(replace(config, replications=5))
    assert {name: cells[name] for name in vars(report)} == {
        name: cli._fmt(value) for name, value in vars(report).items()}


def test_config_integer_fields_take_integral_floats(tmp_path, capsys):
    raw = {"prior": {"alpha": 2.0, "beta": 1.0}, "centres": 5.0, "census_time": 1.0,
           "objective": "count", "horizon": 0.5, "replications": 3.0, "seed": 4.0}
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "simulate", "--config", str(config))
    assert code == 0
    cells = csv_body(out)[0]["config"]["config"]
    assert (cells["centres"], cells["replications"], cells["seed"]) == (5, 3, 4)


@pytest.mark.parametrize("grid", ["1000000000", str(MAX_GRID_SIZE + 1), "-5", "x"])
def test_curves_grid_is_bounded_before_anything_runs(monkeypatch, capsys, grid):
    # a grid of 1e9 points once ran out of memory; no size reaches the work
    def nothing(*args, **kwargs):
        raise AssertionError("the curve or its study ran")

    monkeypatch.setattr(cli, "figure_curve", nothing)
    monkeypatch.setattr(cli, "quantile_probability_study", nothing)
    monkeypatch.setattr(cli, "kernel_density", nothing)
    code, out, err = run(capsys, "curves", "--figure", "fig2", "--grid", grid)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "--grid" in err


def test_repeat_runs_byte_identical_on_stdout(capsys):
    args = ("simulate", "--table", "D2", "--reps", "2", "--seed", "8")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_curves_flat_case_is_uniform(capsys):
    code, out, _ = run(capsys, "curves", "--figure", "fig1", "--grid", "21")
    assert code == 0
    manifest, header, rows = csv_body(out)
    assert header == ["w", "theoretical_density", "empirical_density"]
    assert len(rows) == 21
    # t = t+ = 200 collapses the limit law to the uniform density
    assert all(float(r[1]) == 1.0 for r in rows)
    assert all(r[2] == "" for r in rows)
    assert manifest["config"]["law"]["c"] == 1.0


def test_curves_early_census_is_bimodal(capsys):
    code, out, _ = run(capsys, "curves", "--figure", "fig1", "--t", "50",
                       "--grid", "41")
    assert code == 0
    manifest, _, rows = csv_body(out)
    density = [float(r[1]) for r in rows]
    assert density[0] > density[20] and density[-1] > density[20]
    law = count_limit_law(0.5, 150.0, 50.0, 350.0)
    assert manifest["config"]["law"]["c"] == law.c
    assert manifest["config"]["law"]["d"] == law.d


def test_curves_empirical_column(capsys):
    code, out, _ = run(capsys, "curves", "--figure", "fig2", "--centres", "20",
                       "--reps", "150", "--seed", "6", "--grid", "15")
    assert code == 0
    manifest, _, rows = csv_body(out)
    assert manifest["config"]["config"]["prior"]["beta"] == 20.0
    empirical = [float(r[2]) for r in rows]
    assert all(v >= 0.0 for v in empirical)
    assert max(empirical) > 0.2


def test_curves_config_errors(capsys):
    code, _, err = run(capsys, "curves", "--figure", "fig9")
    assert code == 4 and err == ("config error: unknown figure 'fig9'; expected one of "
                                 "fig1, fig2, fig3, fig4, figD1, figD2, figD3\n")
    code, _, err = run(capsys, "curves", "--figure", "fig1", "--centres", "30")
    assert code == 4 and "does not sweep" in err
    code, _, err = run(capsys, "curves", "--figure", "fig2", "--t", "50",
                       "--centres", "30")
    assert code == 4 and "not both" in err
    code, _, err = run(capsys, "curves", "--figure", "fig1", "--t", "400")
    assert code == 4 and "horizon" in err
    code, _, err = run(capsys, "curves", "--figure", "fig1", "--grid", "1")
    assert code == 4


@pytest.mark.parametrize("figure, flag, value, message", [
    # once a ZeroDivisionError traceback, exit 1
    ("fig4", "--centres", "0", "centres must be a positive integer, got 0"),
    # these were refused in the limit-law kernels, naming beta or exposure
    ("fig2", "--centres", "-3", "centres must be a positive integer, got -3"),
    ("fig1", "--t", "-5", "t must be positive and finite, got -5.0"),
    ("figD1", "--t", "0", "t must be positive and finite, got 0.0"),
    ("fig3", "--t", "nan", "t must be positive and finite, got nan"),
    ("fig2", "--t", "450", "t must lie below 400 in a count figure, whose horizon "
                           "is 400 - t, got 450.0"),
])
def test_curves_refuse_a_bad_sweep_value_naming_it(monkeypatch, capsys, figure, flag,
                                                    value, message):
    def nothing(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "quantile_probability_study", nothing)
    code, out, err = run(capsys, "curves", "--figure", figure, flag, value)
    assert (code, out, err) == (4, "", f"config error: {message}\n")


def test_diagnose_qq_calibrated_against_its_own_model(tmp_path, capsys):
    rng = np.random.default_rng(74)
    census, window, centres = 30.0, 5.0, 60
    rates = rng.gamma(2.0, 1.0 / 5.0, centres)
    rows = []
    for i, lam in enumerate(rates):
        cid = f"S{i:02d}"
        events = np.sort(rng.uniform(0.0, census, rng.poisson(lam * census)))
        if events.size == 0:
            rows.append((cid, "0", ""))
        rows.extend((cid, "0", f"{time:.6f}") for time in events)
    path = tmp_path / "events.csv"
    write_events(path, rows)
    code, out, _ = run(capsys, "diagnose", "qq", "--input", str(path),
                       "--census", str(census), "--window", str(window))
    assert code == 0
    manifest, header, body = csv_body(out)
    assert header == ["theoretical_quantile", "empirical_quantile"]
    assert manifest["config"]["centres_used"] == centres
    theoretical = np.array([float(r[0]) for r in body])
    empirical = np.array([float(r[1]) for r in body])
    assert np.all(np.diff(theoretical) >= 0)
    assert np.all(np.diff(empirical) >= 0)
    assert np.corrcoef(theoretical, empirical)[0, 1] > 0.95
    slope = np.polyfit(theoretical, empirical, 1)[0]
    assert 0.7 < slope < 1.3


def test_diagnose_qq_demo_interim_window(tmp_path, capsys):
    # rebuild the interim event log and check the half-census window runs
    interim = DEMO_SUMMARY_CENSUS
    kept = {}
    with open(demo_events_path(), newline="") as fh:
        for row in csv.DictReader(fh):
            kept.setdefault(row["centre_id"], (row["open_time"], []))
            if row["event_time"] and float(row["event_time"]) <= interim:
                kept[row["centre_id"]][1].append(row["event_time"])
    rows = []
    for cid, (opened, events) in kept.items():
        rows.extend((cid, opened, time) for time in events)
        if not events:
            rows.append((cid, opened, ""))
    path = tmp_path / "interim.csv"
    write_events(path, rows)
    window = interim / 2.0
    code, out, _ = run(capsys, "diagnose", "qq", "--input", str(path),
                       "--census", str(interim), "--window", str(window))
    assert code == 0
    _, _, body = csv_body(out)
    eligible = sum(1 for opened, _ in kept.values()
                   if interim - float(opened) >= window)
    assert len(body) == eligible
    assert len(body) >= 18


def test_diagnose_qq_rejects_bad_windows(tmp_path, capsys):
    path = tmp_path / "events.csv"
    write_events(path, [("A", 0.0, 0.5), ("B", 0.0, 0.4),
                        ("C", 0.0, ""), ("D", 0.0, 0.1), ("E", 0.0, 0.2)])
    code, _, err = run(capsys, "diagnose", "qq", "--input", str(path),
                       "--census", "1", "--window", "0")
    assert code == 4 and "positive" in err
    code, _, err = run(capsys, "diagnose", "qq", "--input", str(path),
                       "--census", "1", "--window", "2")
    assert code == 4 and "exceed" in err
    code, _, err = run(capsys, "diagnose", "qq", "--input", str(path),
                       "--census", "1", "--window", "0.5", "--format", "summary")
    assert code == 4 and "per-event" in err


def test_diagnose_qq_needs_enough_exposed_centres(tmp_path, capsys):
    path = tmp_path / "events.csv"
    write_events(path, [("A", 0.0, 0.5), ("B", 0.8, 0.9), ("C", 0.9, ""),
                        ("D", 0.85, ""), ("E", 0.7, 0.8), ("F", 0.0, 0.2)])
    code, _, err = run(capsys, "diagnose", "qq", "--input", str(path),
                       "--census", "1", "--window", "0.6")
    assert code == 2 and "need 5" in err


def test_config_exit_codes_for_bad_arguments(capsys):
    code, _, err = run(capsys, "fit", "--input", "x.csv", "--census", "1",
                       "--format", "parquet")
    assert code == 4
    code, _, err = run(capsys, "predict", "--input", "x.csv", "--census", "1",
                       "--objective", "count")
    assert code == 4  # missing --horizon
    code, _, err = run(capsys, "predict", "--input", str(demo_summary_path()),
                       "--census", str(DEMO_SUMMARY_CENSUS),
                       "--objective", "time", "--horizon", "2.5")
    assert code == 4 and "integer" in err



@pytest.mark.parametrize("census", ["inf", "1e400", "nan", "0", "-1"])
@pytest.mark.parametrize("command", [("fit",), ("diagnose", "qq", "--window", "0.5")])
def test_census_must_be_positive_and_finite_before_any_file_is_read(
        tmp_path, capsys, command, census):
    # the input does not exist, so reading it would be a data error (exit 2)
    code, out, err = run(capsys, *command, "--input", str(tmp_path / "absent.csv"),
                         "--census", census)
    assert (code, out) == (4, "")
    assert err == (f"config error: argument --census: must be positive and finite, "
                   f"got {census!r}\n")


def test_census_must_be_positive_and_finite_in_the_library(tmp_path):
    path = tmp_path / "one.csv"
    write_summary(path, [("A", 0, 1)])
    with pytest.raises(cli.ConfigError, match="positive and finite, got inf"):
        parse_centre_csv(str(path), "summary", float("inf"))
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        TrialData(float("inf"), [1.0], [1])


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


_DEMO_SUMMARY = ("--input", str(demo_summary_path()), "--census", str(DEMO_SUMMARY_CENSUS))
_DEMO_EVENTS = ("--input", str(demo_events_path()), "--census", str(DEMO_EVENTS_CENSUS))
_SHARED_PARSER_CALLS = [
    # a parse error in a subcommand after --level was read
    ("predict", *_DEMO_SUMMARY, "--level", "0.5", "--objective", "count"),
    ("--version",),
    ("--help",),
    ("predict", *_DEMO_SUMMARY, "--objective", "count", "--horizon", "0.875",
     "--level", "0.8"),
    ("diagnose", "qq", *_DEMO_EVENTS, "--window", "0.5"),  # format defaults to events
    ("predict", *_DEMO_SUMMARY, "--objective", "count", "--horizon", "0.875"),
    ("fit", *_DEMO_SUMMARY),
]


def _stable_call(capsys, argv):
    """(exit code, stdout without the manifest timestamp, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = captured.out
    if out.startswith("{"):
        payload = json.loads(out)
        del payload["manifest"]["created_utc"]
        out = json.dumps(payload, sort_keys=True)
    return code, out, captured.err


def test_one_parser_answers_each_call_as_a_fresh_one(capsys):
    first = []
    for argv in _SHARED_PARSER_CALLS:
        cli.build_parser.cache_clear()
        first.append(_stable_call(capsys, argv))
    cli.build_parser.cache_clear()
    shared = [_stable_call(capsys, argv) for argv in _SHARED_PARSER_CALLS]
    assert shared == first
    assert [code for code, _, _ in shared] == [4, 0, 0, 0, 0, 0, 0]
    assert shared[0][2].startswith("config error: the following arguments are required: "
                                   "--horizon")
    assert json.loads(shared[3][1])["level"] == 0.8
    assert json.loads(shared[5][1])["level"] == 0.9
    assert json.loads(shared[6][1])["manifest"]["config"]["format"] == "summary"


def test_help_text_of_every_command_is_unchanged(monkeypatch, capsys):
    # tests/data/cli_help.txt holds each command's help at 80 columns, as
    # the parser printed it when it was rebuilt for every call
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for command in [(), ("fit",), ("predict",), ("simulate",), ("curves",),
                    ("diagnose",), ("diagnose", "qq")]:
        code, out, err = _stable_call(capsys, (*command, "--help"))
        assert (code, err) == (0, "")
        texts.append(out)
    assert "".join(texts) == (DATA / "cli_help.txt").read_text()
