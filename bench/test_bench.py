"""Tests for the benchmark's own code: self-time arithmetic, the span
wrappers, and the output checks."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_cli()
REFERENCE = checks.load_reference()


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _demo_argv(kind):
    return next(argv for k, argv in run.demo_calls(0) if k == kind)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    starts = [0.0, 1.0, 2.0, 9.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.75]
    parents = [-1, 0, 0, 0, 2]
    own = tracing.self_times(starts, ends, parents)
    # children of 0 cover [1, 5] and [9, 10]
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 0.25)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.25)


def test_layer_totals_sum_calls_total_and_self():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    for name, start, end, parent in ((outer, 0.0, 1.0, -1), (inner, 0.2, 0.5, 0),
                                     (inner, 0.6, 0.7, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
    totals = tracing.layer_totals(tracer)
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["self_ms"] == pytest.approx(600.0)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["total_ms"] == pytest.approx(400.0)


def _package_bindings():
    bindings = {}
    for module in tracing.package_modules():
        for attr, value in vars(module).items():
            if callable(value):
                bindings[(module.__name__, attr)] = value
    bindings["TrialData.from_arrays"] = vars(cli.TrialData)["from_arrays"]
    return bindings


def test_wrappers_install_and_remove_cleanly():
    before = _package_bindings()
    argv = _demo_argv("predict-count-summary")
    plain = _call(argv)
    table_argv = ["simulate", "--table", "2", "--reps", "3", "--seed", "5"]
    plain_table = _call(table_argv)

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.main is not before[("recruitcast.cli", "main")]
        traced = _call(argv)
        traced_table = _call(table_argv)
    after = _package_bindings()

    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert json.loads(traced)["adjusted"] == json.loads(plain)["adjusted"]
    assert traced_table == plain_table

    names = {tracer.names[n] for n in tracer.name}
    assert {"cli.main", "cli.build_parser", "cli.parse_centre_csv.summary",
            "model.fit_mle.2d", "predict.prediction_interval",
            "distributions.nb_quantile", "simulate.coverage_study",
            "simulate.generate_trial", "model.TrialData.from_arrays",
            "model.fit_mle.1d", "simulate.exact_coverage"} <= names
    fit = next(i for i, n in enumerate(tracer.name)
               if tracer.names[n] == "model.fit_mle.2d")
    assert tracer.names[tracer.name[tracer.parent[fit]]] == "cli.main"
    path, outcome, iterations = tracer.fits[0]
    assert (path, outcome) == ("2d", "ok") and iterations > 0
    assert tracer.counts["replications"] == 7 * 3
    assert tracer.counts["nb_cdf"] > 0


def _table_csv(table_id, cells_by_row):
    columns = ["t", "t_plus"] + list(next(iter(cells_by_row.values())))
    lines = ["# manifest: {}", ",".join(columns)]
    for census, cells in cells_by_row.items():
        lines.append(",".join([census, str(400 - int(census))]
                              + [str(v) for v in cells.values()]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("table_id", ["2", "3"])
def test_table_check_rejects_a_corrupted_row(table_id):
    published = {census: {column: value for column, (value, _) in cells.items()}
                 for census, cells in REFERENCE["tables"][table_id].items()}
    good = _table_csv(table_id, published)
    verdicts = checks.check_table(good, table_id, 200, REFERENCE)
    assert verdicts.keys() == published.keys()
    assert not any(verdicts.values())
    assert checks.coverage_gap(good, table_id, REFERENCE) == 0.0

    published["150"]["coverage_adjusted"] += 20.0
    verdicts = checks.check_table(_table_csv(table_id, published), table_id,
                                  200, REFERENCE)
    assert [census for census, found in verdicts.items() if found] == ["150"]
    assert "coverage_adjusted" in verdicts["150"][0]

    del published["350"]
    verdicts = checks.check_table(_table_csv(table_id, published), table_id,
                                  200, REFERENCE)
    assert verdicts["350"] == ["row missing"]


def test_table_tolerance_narrows_with_replications():
    wide = checks.cell_tolerance(REFERENCE, "coverage_adjusted", 89.1, 22.4, 200)
    narrow = checks.cell_tolerance(REFERENCE, "coverage_adjusted", 89.1, 22.4, 20000)
    assert 1.5 < narrow < wide
    assert checks.cell_tolerance(REFERENCE, "width_adjusted", 200.0, 0.0, 200) \
        == pytest.approx(8.0)


@pytest.mark.parametrize("kind", list(run.DEMO_CALLS))
def test_forecast_check_accepts_the_package_output(kind):
    payload = json.loads(_call(_demo_argv(kind)))
    assert checks.check_forecast(kind, payload, REFERENCE) == []


def test_forecast_check_rejects_corrupted_outputs():
    kind = "predict-count-summary"
    payload = json.loads(_call(_demo_argv(kind)))
    drifted = json.loads(json.dumps(payload))
    drifted["fit"]["alpha_hat"] *= 1.001
    assert any("alpha_hat" in p for p in checks.check_forecast(kind, drifted, REFERENCE))
    reversed_ = json.loads(json.dumps(payload))
    plain = reversed_["unadjusted"]
    plain["lower"], plain["upper"] = plain["upper"], plain["lower"]
    assert any("reversed" in p for p in checks.check_forecast(kind, reversed_, REFERENCE))
    narrowed = json.loads(json.dumps(payload))
    narrowed["adjusted"]["upper"] = payload["unadjusted"]["upper"] - 1
    assert checks.check_forecast(kind, narrowed, REFERENCE)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    for workload in run.WORKLOADS.values():
        n = workload.min_samples
        samples = list(range(1, n + 1))
        value = run.percentile(samples, workload.tail)
        assert sum(1 for s in samples if s > value) >= 10
    assert run.WORKLOADS["demo-forecast"].min_samples == 200


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
