"""mitmscan benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload demo|revisit|analyze --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The seed makes the workload's inputs;
the program sees only those inputs. Passes repeat on one CPU while the next
fits in the given seconds, each in a fresh process that also times the
program's set-up, and every output is checked. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import one_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 4
PASS_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def pin_to_one_cpu() -> None:
    """Run this process and every pass it starts on one CPU.

    A scan's client and engine threads hand each flow back and forth. On
    two virtual CPUs each hand-over may wake the other CPU, and how long
    that takes follows the load on the shared host: a `demo` pass spent
    0.1-0.3 s waiting beyond its processor time and fixed listener sleeps
    when the host was quiet and 1.0-1.5 s when it was busy. On one CPU the
    hand-over is a switch between threads, and wall time follows processor
    time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_passes(args, inputs: Path, work: Path, errors: checks.Errors) -> list[dict]:
    """Passes, one process each, while the next one fits in ``--seconds``, and at least MIN_PASSES.

    A pass is expected to take as long as the slowest so far. Every pass
    must write files byte-identical to the first pass's, which are kept for
    the full checks; the others are removed once compared.
    """
    done = []
    started = time.perf_counter()
    longest = 0.0
    while len(done) < MIN_PASSES or time.perf_counter() - started + longest < args.seconds:
        pass_started = time.perf_counter()
        pass_dir = work / f"pass{len(done)}"
        cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace), "--src", str(SRC),
               "--inputs", str(inputs), "--out", str(pass_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"pass {len(done)} failed:\n{(proc.stdout + proc.stderr)[-3000:]}")
        timing = json.loads((work / f"{pass_dir.name}.json").read_text())
        timing["dir"] = pass_dir
        done.append(timing)
        longest = max(longest, time.perf_counter() - pass_started)
        if len(done) > 1:
            checks.identical_outputs(done[0]["dir"], pass_dir, errors)
            shutil.rmtree(pass_dir)
    return done


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]
    return None


def layer_metrics(traces: list[dict]) -> tuple[dict, str]:
    """Per-layer metrics: the median over passes of each pass's figure."""
    def total(t, key):
        return t["calls"].get(key, [0, 0.0])[1]

    def count(t, key):
        return t["calls"].get(key, [0, 0.0])[0]

    def med(fn):
        return statistics.median(fn(t) for t in traces)

    def per(num, den):
        return num / den if den else 0.0

    flows = [ms for t in traces for ms in t["flow_ms"]]
    tail = tail_percentile(flows)
    metrics = {
        "cli.scan_s": (med(lambda t: total(t, "cli.cmd_scan")), "s"),
        "cli.locate_s": (med(lambda t: total(t, "cli.cmd_locate")), "s"),
        "cli.report_s": (med(lambda t: total(t, "cli.cmd_report")), "s"),
        "cli.classify_s": (med(lambda t: total(t, "cli.cmd_classify")), "s"),
        "engine.stop_s": (med(lambda t: total(t, "engine.MitmEngine.stop")), "s"),
        "appsim.flows": (med(lambda t: count(t, "appsim.perform_flow")), "count"),
        "appsim.flow_p50_ms": (statistics.median(flows) if flows else 0.0, "ms"),
        "appsim.flow_tail_ms": (tail[1] if tail else 0.0, "ms"),
        "appsim.session_s": (med(lambda t: total(t, "appsim.execute_session")), "s"),
        "certforge.leaves_issued": (med(lambda t: count(t, "certforge.issue_leaf")), "count"),
        "certforge.leaves_per_flow": (med(lambda t: per(count(t, "certforge.issue_leaf"),
                                                        count(t, "appsim.perform_flow"))), "leaves/flow"),
        "certforge.distinct_leaf_share": (med(lambda t: per(t["distinct_leaves"],
                                                            count(t, "certforge.issue_leaf"))), "share"),
        "certforge.issue_leaf_s": (med(lambda t: total(t, "certforge.issue_leaf")), "s"),
        "profiles.client_accepts_calls": (med(lambda t: count(t, "profiles.client_accepts")), "count"),
        "profiles.client_accepts_s": (med(lambda t: total(t, "profiles.client_accepts")), "s"),
        "flowledger.decide_calls": (med(lambda t: count(t, "flowledger.FlowLedger.decide_retest")), "count"),
        "flowledger.skip_share": (med(lambda t: per(t["skips"],
                                                    count(t, "flowledger.FlowLedger.decide_retest"))), "share"),
        "flowledger.record_s": (med(lambda t: total(t, "flowledger.FlowLedger.record_flow")), "s"),
        "flowledger.load_s": (med(lambda t: total(t, "flowledger.FlowLedger.__init__")), "s"),
        "locator.correlate_s": (med(lambda t: total(t, "locator.correlate")), "s"),
        "locator.coverage_s": (med(lambda t: total(t, "locator.coverage")), "s"),
        "locator.load_events_s": (med(lambda t: total(t, "locator.load_events")), "s"),
        "locator.pairs": (med(lambda t: t["pairs"]), "count"),
        "metrics.prevalence_s": (med(lambda t: total(t, "metrics.prevalence")), "s"),
        "party.attribute_s": (med(lambda t: total(t, "party.attribute")), "s"),
        "classifier.snippets": (med(lambda t: count(t, "classifier.classify_rule")), "count"),
        "classifier.classify_rule_s": (med(lambda t: total(t, "classifier.classify_rule")), "s"),
        "classifier.load_corpus_s": (med(lambda t: total(t, "classifier.load_corpus")), "s"),
    }
    note = (f"appsim.flow_tail_ms is the p{tail[0]:g} of {len(flows)} flows" if tail
            else f"appsim.flow_tail_ms: {len(flows)} flows, too few for a tail percentile")
    return metrics, note


def check_outputs(workload: str, seed: int, inputs: Path, first: Path, truth: dict | None,
                  errors: checks.Errors) -> checks.Counts:
    from mitmscan.certforge import CertConfig
    from mitmscan.engine import MitmMaterial

    counts = checks.Counts()
    scan = one_pass.scan_dir(workload, first, inputs)
    records = {t: checks.read_jsonl(scan / f"ledger_{t}.jsonl") for t in checks.TESTS}
    events = checks.read_jsonl(scan / "events.jsonl")
    reports = {t: json.loads((first / f"locate_{t}.json").read_text()) for t in checks.TESTS}

    if workload == "analyze":
        apps = truth["apps"]

        def location(app_id, channel):
            app = apps[app_id]
            return app[f"{channel}_loc"] if app["logged"] else None

        annotations = truth["annotations"]
        originals = truth["corpus"]
    else:
        fleet_path = inputs / "fleet.json" if workload == "revisit" else scan / "fleet.json"
        apps = {a["app_id"]: a for a in json.loads(fleet_path.read_text())}
        material = MitmMaterial.generate(CertConfig(seed=seed))
        roots = (material.untrusted_root, material.lab_trusted_root, material.installed_root)
        root_fps = {r.name: r.fingerprint for r in roots}
        secure_hosts = sorted({f for a in apps.values() if checks.is_secure_profile(a["profile"])
                               for f in a["fqdns"]})
        verdicts = checks.ssl_verdicts(material, secure_hosts)
        clients = json.loads((first / "clients.json").read_text())
        policy = "always" if workload == "demo" else "skip-if-vulnerable"
        checks.check_scan(records, clients, apps, policy, root_fps, verdicts, errors)
        counts.flows = sum(len(r) for r in records.values())
        location = checks.scan_location
        annotations = json.loads((SRC / "mitmscan" / "data" / "annotations.json").read_text())
        originals = None

    checks.check_locate(records, events, reports, location, counts, errors)
    checks.check_report(records, events, annotations, first / "report", errors)
    checks.check_classify(first / "classify.json",
                          one_pass.corpus_dir(workload, SRC, inputs), originals, counts, errors)
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=one_pass.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mitmscan" / "__init__.py").is_file():
        return _fail(f"no mitmscan sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mitmscan

    if Path(mitmscan.__file__).resolve().parent != (SRC / "mitmscan").resolve():
        return _fail(f"imported mitmscan from {mitmscan.__file__}, not from {SRC}")

    work = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")

    pin_to_one_cpu()
    started = time.perf_counter()
    truth = None
    if args.workload == "revisit":
        gen.revisit_fleet(args.seed, inputs)
    elif args.workload == "analyze":
        truth = gen.analyze_inputs(args.seed, SRC, inputs)
    errors = checks.Errors()
    try:
        done = run_passes(args, inputs, work, errors)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    counts = check_outputs(args.workload, args.seed, inputs, done[0]["dir"], truth, errors)
    for message in errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    wall = [p["wall_s"] for p in done]
    scan = one_pass.scan_dir(args.workload, Path(done[0]["dir"]), inputs)
    records = sum(len(checks.read_jsonl(scan / f"ledger_{t}.jsonl")) for t in checks.TESTS)
    # Means over passes: the host's speed switches between two levels for
    # seconds at a time (an `analyze` pass took 1.0 s or 1.6 s of processor
    # time), and a median flips between them with the share of slow passes.
    pipeline_s = statistics.mean(wall)
    print(f"{args.workload} seed {args.seed}: {len(done)} passes, pass wall "
          f"{min(wall):.3f}-{max(wall):.3f} s, {records} ledger records per pass, "
          f"run took {time.perf_counter() - started:.1f} s")
    if args.trace:
        metrics, note = layer_metrics([p["trace"] for p in done])
        print(note)
        print(f"traced pipeline_s {pipeline_s:.4f} s (mean of {len(done)} passes)")
    else:
        metrics = {
            # The first pass compiles bytecode and fills the page cache.
            "setup_s": (statistics.median(p["setup_s"] for p in done[1:]), "s"),
            "pipeline_s": (pipeline_s, "s"),
            "flows_per_s": (records / pipeline_s, "1/s"),
            "cpu_s": (statistics.mean(p["cpu_s"] for p in done), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in done), "MB"),
        }
    # Every pass attempts the same operations (its outputs equal the first
    # pass's), so the counts are those of one pass and do not depend on how
    # many passes fit in the run.
    print(json.dumps({
        "correct": not errors,
        "attempted": counts.attempted,
        "failed": counts.wrong_channel,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
