#!/usr/bin/env python3
"""The repository benchmark: one workload of the `dg` stack per process.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (the `dg` library from src/ plus perfbench_driver) as a
Release build under $CARGO_TARGET_DIR, default .bench_build/; later runs
reuse it.  The driver (perfbench/driver.cpp) repeats the workload for T
seconds after one warm-up iteration and writes its raw observations; this
script checks the outputs, reduces the timings to medians and prints

  * a provenance stamp (nproc, git SHA, compiler, build type),
  * every metric by name with its unit, and with --trace 1 the per-layer
    report: span self time, share of wall, each ratio with its base,
  * as the last line, {"correct", "attempted", "failed", "metrics"}:
    end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Workloads (see BENCHMARK.json for why each was chosen):
  dglab_grid_poisson     dglab run --topology=grid:128x128
                         --traffic=poisson:0.5 --round-threads=1 --phases=8
  grid_saturate          traffic_latency body, grid:128x128, saturate:16384,
                         4 phases, no validation
  paper_campaigns        parse -> run_campaign -> write_reports over the
                         e3/e6/e13/e14/e15/e16/smoke campaigns; each
                         iteration shifts the campaign seeds (one input)
All three run single-threaded (see driver.cpp for why).

Output checks (failed / attempted is the failure fraction): logical
outputs equal across every iteration of the run (the run always holds a
traced and an untraced execution), acked <= admitted <= offered, the LB
spec's deterministic conditions, and at seeds with stored references
(perfbench/refs/<workload>/seed<N>-<scale>/) the references themselves;
the smoke campaign is also byte-compared with campaigns/golden/ at seed 1.
--record-refs DIR writes the current run's outputs as references.

Per-layer metric targets (which end-to-end metric and workload each one
should move) live in perfbench/layers.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dglab_grid_poisson", "grid_saturate", "paper_campaigns")
CAMPAIGN_SPANS = ("scn.campaign.e3", "scn.campaign.e6", "scn.campaign.e13",
                  "scn.campaign.e14", "scn.campaign.e15", "scn.campaign.e16",
                  "scn.campaign.smoke")
# The engine's prepare_round stage reads 0 ns on every workload, so it has
# no metric.
STAGES = ("fault", "transmit", "frontier", "compute", "receive", "output_flush")
DRIVER_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def child_env():
    """Environment for the build and the driver: temporary files stay in
    the build tree, and the engine's thread/sparse defaults are not
    inherited from the caller."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DG_ROUND_THREADS", "DG_SPARSE_ROUNDS")}
    env["TMPDIR"] = str(build_dir() / "tmp")
    (build_dir() / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/: run from a full source checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                              env=child_env()).returncode:
                fh.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (full log: %s)" % log)
    return out / "perfbench_driver"


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_driver(driver, args):
    runs = build_dir() / "runs"
    runs.mkdir(exist_ok=True)
    out = runs / ("%s-%s-%d-%s.json" % (args.workload, args.seed, args.trace, args.scale))
    artifacts = build_dir() / "artifacts" / args.workload
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--campaigns", str(ROOT / "campaigns"),
           "--artifacts", str(artifacts), "--out", str(out)]
    try:
        res = subprocess.run(cmd, env=child_env(), timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if res.returncode != 0:
        fail("driver exited with code %d" % res.returncode)
    with open(out) as fh:
        return json.load(fh)


# ---- output checks ----

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def ref_dir(refs, workload, seed, scale):
    return Path(refs) / workload / ("seed%s-%s" % (seed, scale))


def load_ref(doc, path, checks):
    """The reference text at `path`, or None.  Seed 1 always has references,
    so a missing one there is a failed check, not a skipped one."""
    if path.is_file():
        return path.read_text()
    if doc["seed"] == 1:
        checks.expect(False, "missing reference %s" % path)
    return None


def admissions(traffic):
    """First admissions: a crash re-queue admits the same message again."""
    return traffic["admitted"] - traffic.get("readmitted", 0)


def grid_checks(doc, refs, checks):
    its = doc["iterations"]
    base = its[0]["logical"]
    traced_logical = [it["profile"]["registries"][0]["logical"]
                      for it in its if it["traced"]]
    for i, it in enumerate(its):
        out = it["logical"]
        t = out["traffic"]
        checks.expect(t["acked"] <= admissions(t) <= t["offered"],
                      "iteration %d: acked <= admitted <= offered" % i)
        s = out["spec"]
        checks.expect(s["timely_ack_ok"] and s["validity_ok"] and s["violations"] == 0,
                      "iteration %d: LB spec deterministic conditions" % i)
        if out["validated"] is not None:
            checks.expect(out["validated"], "iteration %d: r-geographic" % i)
        if i:
            checks.expect(out == base, "iteration %d: logical outputs differ "
                          "from iteration 0 (traced vs untraced or nondeterminism)" % i)
        if it["traced"]:
            reg = it["profile"]["registries"][0]["logical"]["counters"]
            checks.expect(all(reg["traffic." + k] == t[k]
                              for k in ("offered", "admitted", "acked", "dropped")),
                          "iteration %d: registry traffic.* != TrafficStats" % i)
            checks.expect(reg["engine.rounds"] == out["rounds"],
                          "iteration %d: engine.rounds != rounds run" % i)
    for i, reg in enumerate(traced_logical[1:], 1):
        checks.expect(reg == traced_logical[0],
                      "traced iteration %d: logical registry differs" % i)
    ref = ref_dir(refs, doc["workload"], doc["seed"], doc["scale"]) / "logical.json"
    text = load_ref(doc, ref, checks)
    if text is not None:
        want = json.loads(text)
        checks.expect(base["traffic"] == want["outputs"]["traffic"],
                      "TrafficStats ledger differs from %s" % ref)
        checks.expect(base["spec"] == want["outputs"]["spec"],
                      "LbSpecReport tallies differ from %s" % ref)
        checks.expect(traced_logical and traced_logical[0] == want["registry"],
                      "logical registry domain differs from %s" % ref)


def campaign_checks(doc, refs, checks):
    its = doc["iterations"]
    firsts = {}
    for i, it in enumerate(its):
        first = firsts.setdefault(it["input"], it)["logical"]["counters"]
        for name, text in it["logical"]["counters"].items():
            if it is not firsts[it["input"]]:
                checks.expect(text == first[name], "iteration %d: COUNTERS_%s differs "
                              "from the other execution of input %d (traced vs untraced)"
                              % (i, name, it["input"]))
            ok = True
            for v in json.loads(text)["variants"]:
                m = v["metrics"]
                if {"offered", "admitted", "acked"} <= set(m):
                    for row in v["per_trial"]:
                        r = dict(zip(m, row))
                        ok = ok and r["acked"] <= admissions(r) <= r["offered"]
            checks.expect(ok, "iteration %d: %s acked <= admitted <= offered" % (i, name))
    base = firsts[0]["logical"]["counters"]
    d = ref_dir(refs, doc["workload"], doc["seed"], doc["scale"])
    for name, text in base.items():
        ref = d / ("COUNTERS_%s.json" % name)
        want = load_ref(doc, ref, checks)
        if want is not None:
            checks.expect(text == want, "COUNTERS_%s differs from %s" % (name, ref))
    golden = ROOT / "campaigns" / "golden" / "smoke_counters.json"
    if doc["seed"] == 1 and "smoke" in base:
        checks.expect(golden.is_file() and base["smoke"] == golden.read_text(),
                      "smoke counters differ from %s" % golden)


def record_refs(doc, refs):
    d = ref_dir(refs, doc["workload"], doc["seed"], doc["scale"])
    d.mkdir(parents=True, exist_ok=True)
    first = doc["iterations"][0]
    if doc["workload"] == "paper_campaigns":
        for name, text in first["logical"]["counters"].items():
            (d / ("COUNTERS_%s.json" % name)).write_text(text)
    else:
        traced = next(it for it in doc["iterations"] if it["traced"])
        want = {"outputs": {"traffic": first["logical"]["traffic"],
                            "spec": first["logical"]["spec"]},
                "registry": traced["profile"]["registries"][0]["logical"]}
        (d / "logical.json").write_text(json.dumps(want, indent=1, sort_keys=True) + "\n")
    print("recorded references in %s" % d)


# ---- metrics ----

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(doc):
    its = doc["iterations"]  # iteration 0 is the warm-up
    timed = [it for it in its[1:] if not it["traced"]]
    return {
        "setup_s": (median([it["setup_s"] for it in timed]), "s"),
        "wall_s": (median([it["wall_s"] for it in timed]), "s"),
        # A rate over the whole run: campaign inputs differ in work mix, so
        # a median of per-iteration rates would weight them unevenly.
        "vertex_rounds_per_s": (sum(it["vertex_rounds"] for it in timed) /
                                sum(it["run_s"] for it in timed), "1/s"),
        "trials_per_s": (median([it["trials"] / it["wall_s"] for it in timed]), "1/s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }, len(timed)


def span_table(spans):
    """Per-name totals for one iteration: [total, self, count, durations]."""
    child = [0.0] * len(spans)
    for name, parent, b, e in spans:
        if parent >= 0:
            child[parent] += e - b
    table = {}
    for i, (name, parent, b, e) in enumerate(spans):
        row = table.setdefault(name, [0.0, 0.0, 0, []])
        row[0] += e - b
        row[1] += e - b - child[i]
        row[2] += 1
        row[3].append(e - b)
    return table


def percentile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def registry_sum(regs, domain, kind, name):
    return sum(r[domain][kind].get(name, 0) for r in regs)


def layer_values(doc, it):
    """Every per-layer metric of one traced iteration, plus the ratio bases."""
    spans = span_table(it["spans"])
    regs = it["profile"]["registries"]
    tot = lambda name: spans.get(name, [0.0])[0]
    timing = lambda name: registry_sum(regs, "timing", "counters", name)
    logical = lambda name: registry_sum(regs, "logical", "counters", name)
    pre = spans.get("seed.preamble", [0, 0, 0, []])
    body = spans.get("lb.body", [0, 0, 0, []])
    rounds_blocks = sum(r["logical"]["counters"].get("engine.rounds", 0) *
                        -(-int(r["logical"]["gauges"].get("engine.vertices", 0)) // 64)
                        for r in regs)
    if doc["workload"] == "paper_campaigns":
        offered, acked = logical("traffic.offered"), logical("traffic.acked")
    else:
        offered = it["logical"]["traffic"]["offered"]
        acked = it["logical"]["traffic"]["acked"]
    v = {
        "graph.build_s": tot("graph.build"),
        "graph.validate_s": tot("graph.validate"),
        "lb.construct_s": tot("lb.construct"),
        "seed.preamble_s": pre[0],
        "seed.preamble_rounds": pre[2],
        "lb.body_s": body[0],
        "lb.body_rounds": body[2],
        "lb.wrapper_self_s": (pre[0] + body[0] - timing("engine.round.ns") / 1e9
                              if pre[2] + body[2] else 0.0),
        "sim.active_block_frac": (timing("engine.active_blocks") / rounds_blocks
                                  if rounds_blocks else 0.0),
        "sim.delivered_per_tx": (logical("engine.rx.delivered") / logical("engine.tx")
                                 if logical("engine.tx") else 0.0),
        "traffic.acked_per_offered": acked / offered if offered else 0.0,
        "obs.export_s": tot("obs.export"),
        "scn.parse_s": tot("scn.parse"),
        "scn.report_s": tot("scn.report"),
        "trace.span_coverage_frac": (
            sum(e - b for _, parent, b, e in it["spans"] if parent == 0) / it["wall_s"]),
    }
    for stage in STAGES:
        v["sim.stage.%s_s" % stage] = timing("engine.phase.%s.ns" % stage) / 1e9
    for span in CAMPAIGN_SPANS:
        v[span + "_s"] = tot(span)
    bases = {
        "sim.active_block_frac": (timing("engine.active_blocks"), "active blocks",
                                  rounds_blocks, "rounds x blocks"),
        "sim.delivered_per_tx": (logical("engine.rx.delivered"), "engine.rx.delivered",
                                 logical("engine.tx"), "engine.tx"),
        "traffic.acked_per_offered": (acked, "acked", offered, "offered"),
        "lb.wrapper_self_s": (pre[0] + body[0], "run_round s",
                              timing("engine.round.ns") / 1e9, "engine.round s"),
    }
    return v, bases, spans


def pooled_rounds(rows, name):
    """Every traced iteration's run_round durations of one kind, in ms."""
    return [1e3 * d for r in rows for d in r[2].get(name, [0, 0, 0, []])[3]]


def per_layer(doc, layers):
    its = doc["iterations"]  # iteration 0 is the warm-up
    traced = [it for it in its[1:] if it["traced"]]
    untraced = [it for it in its[1:] if not it["traced"]]
    rows = [layer_values(doc, it) for it in traced]
    tw, uw = median([it["wall_s"] for it in traced]), median([it["wall_s"] for it in untraced])
    whole_run = {
        # Only the first construction in a process grows the peak RSS.
        "lb.construct_rss_mb": max(it["construct_rss_mb"] for it in its),
        "trace.overhead_frac": tw / uw - 1.0 if uw else 0.0,
    }
    # Round-time percentiles pool the rounds of all traced iterations.
    for kind in ("seed.preamble", "lb.body"):
        durations = pooled_rounds(rows, kind)
        whole_run[kind + "_round_ms_p50"] = percentile(durations, 0.50)
        whole_run[kind + "_round_ms_p99"] = percentile(durations, 0.99)
    metrics = {name: (whole_run[name] if name in whole_run
                      else median([r[0][name] for r in rows]), spec["unit"])
               for name, spec in layers.items()}
    return metrics, rows, (tw, uw)


def print_layer_report(layers, metrics, rows, walls):
    print("\nper-layer report (%d traced iterations; medians; self = span minus "
          "child spans; share = of traced unit wall)" % len(rows))
    wall = median([r[2]["unit"][0] for r in rows if "unit" in r[2]])
    names = sorted({n for r in rows for n in r[2]}, key=lambda n: -median(
        [r[2][n][0] for r in rows if n in r[2]]))
    print("  %-22s %10s %10s %7s %7s" % ("span", "total_s", "self_s", "share", "count"))
    for n in names:
        tot = median([r[2][n][0] for r in rows if n in r[2]])
        slf = median([r[2][n][1] for r in rows if n in r[2]])
        cnt = median([r[2][n][2] for r in rows if n in r[2]])
        print("  %-22s %10.4f %10.4f %6.1f%% %7d" % (n, tot, slf, 100 * tot / wall if wall else 0, cnt))
    print("  run_round percentiles pooled over %d preamble and %d body rounds"
          % (len(pooled_rounds(rows, "seed.preamble")), len(pooled_rounds(rows, "lb.body"))))
    print("  engine profiler (sim.stage.*), share of traced unit wall:")
    for stage in STAGES:
        val = metrics["sim.stage.%s_s" % stage][0]
        print("    %-20s %10.4f s %6.1f%%" % (stage, val, 100 * val / wall if wall else 0))
    print("  ratios with their bases (first traced iteration):")
    for name, (num, nlabel, den, dlabel) in rows[0][1].items():
        print("    %-26s %.6g = %.6g %s / %.6g %s" % (name, metrics[name][0], num, nlabel, den, dlabel))
    print("    %-26s %.6g = traced wall %.4f s / untraced wall %.4f s - 1"
          % ("trace.overhead_frac", metrics["trace.overhead_frac"][0], walls[0], walls[1]))
    print("  per-layer metrics -> the end-to-end metric and workload each should move:")
    for name, spec in layers.items():
        val, unit = metrics[name]
        targets = "; ".join("%s on %s" % (m, ", ".join(ws)) for m, ws in spec["moves"].items())
        print("    %-30s %14.6g %-6s -> %s" % (name, val, unit, targets))


# ---- self-test ----

def self_test():
    """Tiny-size checks of the benchmark itself (grid:16x16, smoke only)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    problems = []
    if [m["name"] for m in bench["per_layer"]] != list(layers):
        problems.append("BENCHMARK.json per_layer differs from layers.json")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    tmp = build_dir() / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    base = [sys.executable, str(Path(__file__).resolve()), "--scale", "tiny",
            "--seconds", "0.5", "--refs", str(tmp / "refs")]

    def run(workload, seed, trace, extra=()):
        res = subprocess.run(base + ["--workload", workload, "--seed", str(seed),
                                     "--trace", str(trace)] + list(extra),
                             capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            problems.append("%s seed %s trace %s exited %d: %s"
                            % (workload, seed, trace, res.returncode, res.stderr[-500:]))
            return None, res.stdout
        return json.loads(res.stdout.strip().splitlines()[-1]), res.stdout

    for w in WORKLOADS:
        # 1. every named metric is emitted with its unit
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(w, 1, trace, ["--record-refs"] if trace == 0 else [])
            if result is None:
                continue
            want = {m["name"] for m in bench[group]}
            got = result["metrics"]
            if set(got) != want:
                problems.append("%s trace %d: metrics %s" % (w, trace, sorted(set(got) ^ want)))
            for name, m in got.items():
                if m.get("unit") != units.get(name) or not isinstance(m.get("value"), (int, float)):
                    problems.append("%s: metric %s lacks its unit or value" % (w, name))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: failed checks on its own references" % (w, trace))
        # 2. a corrupted reference makes the failure fraction non-zero
        d = ref_dir(tmp / "refs", w, 1, "tiny")
        target = sorted(d.iterdir())[0]
        target.write_text(target.read_text().replace("1", "2", 1))
        result, _ = run(w, 1, 0)
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append("%s: corrupted reference %s went unnoticed" % (w, target.name))
        # 3. changing the seed changes the generated inputs
        digests = []
        for seed in (1, 2):
            _, out = run(w, seed, 0)
            digests.append([l for l in out.splitlines() if l.startswith("inputs:")])
        if not digests[0] or digests[0] == digests[1]:
            problems.append("%s: seeds 1 and 2 generate the same inputs" % w)
    for p in problems:
        print("SELF-TEST FAIL: " + p)
    print("self-test: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--refs", default=str(HERE / "refs"))
    ap.add_argument("--record-refs", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    driver = build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    info = json.loads(subprocess.run([str(driver), "--build-info"], capture_output=True,
                                     text=True, check=True).stdout)
    if (not info["optimized"] or info["sanitized"]
            or info["build_type"].lower() not in ("release", "relwithdebinfo")):
        fail("refusing to report timings from this build: %s" % json.dumps(info), 3)
    stamp = {"nproc": os.cpu_count(), "git_sha": git_sha(), "compiler": info["compiler"],
             "build_type": info["build_type"], "workload": args.workload,
             "seed": args.seed, "trace": args.trace, "scale": args.scale}

    start = time.monotonic()
    doc = run_driver(driver, args)
    if args.record_refs:
        record_refs(doc, args.refs)
    checks = Checks()
    if args.workload == "paper_campaigns":
        campaign_checks(doc, args.refs, checks)
    else:
        grid_checks(doc, args.refs, checks)

    layers = json.loads((HERE / "layers.json").read_text())
    print("stamp: " + json.dumps(stamp))
    print("inputs: %s" % doc["inputs_digest"])
    if args.trace:
        metrics, rows, walls = per_layer(doc, layers)
        print_layer_report(layers, metrics, rows, walls)
    else:
        metrics, samples = end_to_end(doc)
        print("end-to-end metrics (%d timed iterations; times are medians, rates "
              "run-wide; process CPU / wall %.3f, low when the host steals CPU):"
              % (samples, median([it["cpu_s"] / it["wall_s"] for it in doc["iterations"][1:]
                                  if not it["traced"]])))
        for name, (val, unit) in metrics.items():
            print("  %-22s %14.6g %s" % (name, val, unit))
    for f in checks.failures:
        print("CHECK FAILED: " + f)
    print("checks: %d attempted, %d failed, failed_frac %.6g (%.1f s)"
          % (checks.attempted, len(checks.failures),
             len(checks.failures) / max(1, checks.attempted), time.monotonic() - start))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
