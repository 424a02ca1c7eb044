"""Tests of the benchmark harness: seeded items, output checks, tracing."""

import dataclasses
import json
from pathlib import Path

import gauge
import run
import tracer
import workloads
from chevcalc import cli, exactring, lgp
from chevcalc.gword import word_to_text

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _texts(name, seed, pass_index):
    out = []
    for item in workloads.WORKLOADS[name].items(seed, pass_index):
        data = item.data
        if name == "cli_instances":
            out.append((item.key, data.argv))
        elif name == "patch_ladder":
            out.append((item.key, word_to_text(data.global_word)))
        else:
            out.append((item.key, word_to_text(data.word)))
    return out


def test_a_seed_gives_the_same_items():
    for name in workloads.WORKLOADS:
        assert _texts(name, 7, 2) == _texts(name, 7, 2)
        assert _texts(name, 7, 2) != _texts(name, 8, 2)
        assert _texts(name, 7, 2) != _texts(name, 7, 3)


def _cli_items(*keys):
    wl = workloads.WORKLOADS["cli_instances"]
    return wl, [item for item in wl.items(0, 0) if item.key in keys]


def test_wrong_expected_exit_code_fails():
    wl, items = _cli_items("lgp_cover24.json", "lgp_cover23_global.json")
    _, rows = run.run_pass(wl, items)
    assert all(o.ok for o in run.check_rows(wl, rows))
    wrong = [
        dataclasses.replace(item, data=dataclasses.replace(item.data, expect=0))
        if item.key == "lgp_cover24.json" else item
        for item in items
    ]
    _, rows = run.run_pass(wl, wrong)
    outcomes = run.check_rows(wl, rows)
    assert [o.ok for o in outcomes] == [True, False]
    assert "exit 17" in outcomes[1].note


def test_corrupted_oracle_output_fails():
    wl = workloads.WORKLOADS["oracle_eval"]
    item = next(i for i in wl.items(0, 0) if i.key == "C3/defining/Z[1/2][t]")
    m, congruent = wl.run(item)
    assert wl.check(item, (m, congruent)).ok
    pos, entry = next(iter(m.entries.items()))
    bad = dict(m.entries)
    bad[pos] = entry + 1
    assert not wl.check(item, (type(m)(m.ring, m.dim, bad), congruent)).ok


def test_exceptions_count_as_failures():
    wl, items = _cli_items("splitting_a2.json")
    rows = [(items[0], ValueError("boom"), 0.0)]
    assert not run.check_rows(wl, rows)[0].ok


def test_self_times_are_never_negative_and_tracing_is_undone():
    wl, items = _cli_items("lgp_cover23.json", "moving_t_a2.json", "verify/relcomm")
    originals = (lgp.patch, cli.patch, exactring.RingElement.__mul__,
                 exactring.RingElement.__rmul__)
    tr = tracer.Tracer()
    with tr.active():
        assert cli.patch is not originals[1]
        _, rows = run.run_pass(wl, items, tr, "p0:")
    assert (lgp.patch, cli.patch, exactring.RingElement.__mul__,
            exactring.RingElement.__rmul__) == originals
    assert all(o.ok for o in run.check_rows(wl, rows))
    assert {"cli.main", "lgp.patch", "chevrep.evaluate", "exactring.mul.loc"} <= set(tr.stats)
    for name, (calls, total, self_ns) in tr.stats.items():
        assert calls > 0 and 0 <= self_ns <= total, name
    ids = {span[0] for span in tr.spans}
    for span_id, name, start, end, parent, item in tr.spans:
        assert start <= end and item.startswith("p0:")
        assert parent is None or parent in ids
    values = tr.layer_values({}, 1, sum(s for *_, s in rows), 0.0, 0)
    assert [m["name"] for m in tracer.layer_metric_specs()] == list(values)
    assert 0 < values["chevrep.evaluate.share"] <= 1


def test_gauge_scales_by_the_mean_reading():
    n = gauge.NOMINAL_S
    assert gauge.factor([n]) == 1.0
    assert gauge.factor([n, 3 * n]) == 0.5
    g = gauge.Gauge(every_s=3600)
    wl, items = _cli_items("tables/A2", "tables/C2")
    _, rows = run.run_pass(wl, items, gauge=g)
    # one reading before the first item, none between, one at the end
    assert len(rows) == 2 and g.marks == [0, 0, 1]
    assert all(r > 0 for r in g.readings)
    g.readings = [n, 3 * n]
    # 1 s between readings n and n, then 3 s between n and 3n: the
    # time-weighted reading is (1 * n + 3 * 2n) / 4 = 7n / 4
    assert abs(g.pass_factor([1.0, 3.0]) - 4 / 7) < 1e-12


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.enough_tail(1007, 0.99) and not run.enough_tail(999, 0.99)
    assert run.enough_tail(40, 0.75) and not run.enough_tail(39, 0.75)


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["per_layer"] == tracer.layer_metric_specs()
    assert len(spec["per_layer"]) <= 128
