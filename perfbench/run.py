"""chevcalc benchmark: one workload per run, checked, with a JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports
chevcalc from the checkout's `src/`.  Workloads (see workloads.py):

- cli_instances: every shipped instance, `tables` and `verify` through
  `cli.main`; many small A2 and C2 items.
- patch_ladder: `lgp.patch` with verification on a ladder of A2, A3, C2
  and G2 level words.
- oracle_eval: `Representation.evaluate_word` plus `congruence_check` in
  A3, F4, E8 (adjoint) and A3, C3 (defining) over Z[t], Z[1/2][t], Z/9[t].

Each run draws fresh items per pass, one client, closed loop: an item
starts when the previous one returns.  Passes repeat until `--seconds`
have gone by and the tail percentile has at least ten samples beyond it.
Outputs are checked after the timed passes; a wrong exit code, an
unexpected exception or an output the checks reject counts as failed.

--trace 0 reports the end-to-end metrics.  Times are in reference
seconds: each pass is scaled by the host's speed during it, read from a
fixed pure-Python reference (gauge.py); the summary lines give the raw
medians beside them.
  setup_s      median over cold set-ups, each in a fresh process: import
               chevcalc and build the workload's root systems,
               structure-constant tables and representations
  wall_s       median time of one pass over the items (sum of its item
               times), caches warm
  item_p50_s   median time of one item
  item_tail_s  the workload's tail percentile of item time (printed)
  out_gens     generators in the words a pass yields (output words; for
               oracle_eval the evaluated words), median over passes
  peak_rss_mb  peak resident memory of this process before the checks;
               outputs wait for the checks pickled
--trace 1 runs each pass untraced and then traced, and reports the
per-layer metrics of tracer.py, per traced pass; set-up layers come
from a traced cold set-up.  Spans go to .perfbench/ in the checkout.

The last line of standard output is the JSON result; the lines before
it are a readable summary.
"""

import argparse
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# seconds of reference work before the timed passes start
WARM_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_rank(n, q):
    """0-based nearest rank of quantile q among n sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def enough_tail(n, q):
    return n - 1 - tail_rank(n, q) >= 10


def run_pass(wl, items, tracer=None, prefix="", gauge=None):
    """Run items one after another; returns (wall_s, [(item, result, s)]).

    A gauge, if given, reads the host's speed between items (gauge.py);
    item times stay raw.
    """
    rows = []
    if gauge is not None:
        gauge.start_pass()
    start = time.perf_counter()
    for item in items:
        if gauge is not None:
            gauge.before_call()
        if tracer is not None:
            tracer.item = prefix + item.key
        t0 = time.perf_counter()
        try:
            result = wl.run(item)
        except Exception as e:  # the check stage reports it as a failure
            result = e
        rows.append((item, result, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    if gauge is not None:
        gauge.end_pass()
    return wall, rows


def check_rows(wl, rows):
    """Outcomes of one pass; exceptions and rejected outputs fail."""
    from workloads import Outcome

    out = []
    for item, result, _ in rows:
        if isinstance(result, Exception):
            out.append(Outcome(False, note="%s: %s" % (type(result).__name__, result)))
            continue
        try:
            out.append(wl.check(item, result))
        except Exception as e:
            out.append(Outcome(False, note="check raised %s: %s" % (type(e).__name__, e)))
    return out


def shelve_results(rows):
    """Rows with their results pickled, so that the outputs kept for the
    checks after the timed passes take little memory and peak_rss_mb
    does not grow with the number of passes."""
    try:
        return [(item, pickle.dumps(result), s) for item, result, s in rows]
    except (pickle.PicklingError, TypeError, AttributeError):
        # a result that does not pickle is kept as it is
        return [(item, result, s) for item, result, s in rows]


def unshelve_results(rows):
    return [(item, pickle.loads(result) if isinstance(result, bytes) else result, s)
            for item, result, s in rows]


def setup_seconds(name):
    """Median cold set-up time over fresh processes, in reference
    seconds (gauge.py), with the median raw seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * gauge.factor([probe["before_s"], probe["after_s"]]))
    return statistics.median(scaled), statistics.median(raw)


def untraced(wl, seed, seconds):
    """End-to-end metrics: cold set-ups, then timed passes, then checks.

    Times are in reference seconds, each pass scaled by the host's speed
    read during it, so that the host's drift in speed does not show as a
    change of the program; the raw medians go to the summary.
    """
    setup_s, raw_setup_s = setup_seconds(wl.name)
    wl.setup()
    g = gauge.Gauge()
    g.warm(WARM_S)
    raw_walls, walls, raw_times, times, passes = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < seconds
           or not enough_tail(len(times), wl.tail)):
        _, rows = run_pass(wl, wl.items(seed, k), gauge=g)
        raw = [s for *_, s in rows]
        f = g.pass_factor(raw)
        raw_walls.append(sum(raw))
        walls.append(sum(raw) * f)
        raw_times += raw
        times += [s * f for s in raw]
        passes.append(shelve_results(rows))
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [check_rows(wl, unshelve_results(rows)) for rows in passes]
    raw_times.sort()
    times.sort()
    tail = tail_rank(len(times), wl.tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (times[tail], "s"),
        "out_gens": (statistics.median(sum(o.gens for o in p) for p in outcomes), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "passes": len(passes),
        "samples": len(times),
        "tail": "p%g" % (100 * wl.tail),
        "attested": statistics.median(sum(o.attested for o in p) for p in outcomes),
        "speed readings": "%d, mean %.4g s" % (len(g.readings), statistics.fmean(g.readings)),
        "raw setup_s": "%.6g" % raw_setup_s,
        "raw wall_s": "%.6g" % statistics.median(raw_walls),
        "raw item_p50_s": "%.6g" % statistics.median(raw_times),
        "raw item_tail_s": "%.6g" % raw_times[tail],
    }
    return metrics, outcomes, notes


def traced(wl, seed, seconds):
    """Per-layer metrics: a traced cold set-up, then each pass's items run
    untraced and traced, for the overhead, with checks after each."""
    from tracer import Tracer, layer_metric_specs

    tr = Tracer()
    tr.item = "setup"
    with tr.active():
        wl.setup()
    setup_stats = dict(tr.stats)
    tr.reset()
    plain, timed, outcomes = [], [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        items = wl.items(seed, k)
        wall, rows = run_pass(wl, items)
        plain.append(wall)
        outcomes.append(check_rows(wl, rows))
        tr.new_pass()
        with tr.active():
            wall, rows = run_pass(wl, items, tr, "p%d:" % k)
        timed.append(wall)
        outcomes.append(check_rows(wl, rows))
        k += 1
    attested = statistics.median(sum(o.attested for o in p) for p in outcomes)
    values = tr.layer_values(
        setup_stats, len(timed), sum(timed),
        statistics.median(timed) - statistics.median(plain), attested,
    )
    units = {m["name"]: m["unit"] for m in layer_metric_specs()}
    metrics = {name: (values[name], units[name]) for name in units}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / ("trace-%s-seed%d.jsonl" % (wl.name, seed))
    with open(span_file, "w") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    notes = {
        "passes": k,
        "untraced_wall_s": statistics.median(plain),
        "traced_wall_s": statistics.median(timed),
        "spans": "%d in %s" % (len(tr.spans), span_file.relative_to(ROOT)),
    }
    return metrics, outcomes, notes


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "chevcalc" / "__init__.py").is_file() or not (ROOT / "instances").is_dir():
        sys.stderr.write("no chevcalc sources under %s; run inside a checkout\n" % ROOT)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write("unknown workload %r (have: %s)\n"
                         % (args.workload, ", ".join(sorted(WORKLOADS))))
        return 2
    run = traced if args.trace else untraced
    metrics, outcomes, notes = run(wl, args.seed, args.seconds)
    flat = [o for p in outcomes for o in p]
    failed = [o for o in flat if not o.ok]
    print("workload %s  seed %d  trace %d" % (wl.name, args.seed, args.trace))
    for key, val in notes.items():
        print("  %-28s %s" % (key, val))
    print("  %-28s %.4g  (%d of %d items)" % (
        "failed_frac", len(failed) / len(flat), len(failed), len(flat)))
    for o in failed[:10]:
        print("  failed: %s" % o.note)
    for name, (value, unit) in metrics.items():
        print("  %-44s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
