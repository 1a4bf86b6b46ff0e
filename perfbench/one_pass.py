"""Run one pass of a workload in a fresh process, and time it.

The process first times the program's set-up: importing the package and,
for the scan workloads, generating the key material and building the fleet;
for ``analyze``, loading the party annotations that ``report`` reads (no
stage of ``analyze`` loads the fleet). It then runs the pass: every stage
of the workload, each a call of the public entry point
``mitmscan.cli.main(argv)``, and writes its timings, the clients' decisions
and its peak RSS as JSON. A fresh process per pass gives every pass the same
start: passes repeated in one process ran up to three times slower as the
heap aged.

    python3 perfbench/one_pass.py --workload demo --seed 1 --trace 0 \
        --src SRC --inputs DIR --out PASS_DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from expect import TESTS
from gen import REVISIT_STEPS

WORKLOADS = ("demo", "revisit", "analyze")


def scan_dir(workload: str, pass_dir: Path, inputs: Path) -> Path:
    return inputs / "scan" if workload == "analyze" else pass_dir / "scan"


def corpus_dir(workload: str, src: Path, inputs: Path) -> Path:
    if workload == "analyze":
        return inputs / "corpus"
    return src / "mitmscan" / "data" / "corpus"


def stages(workload: str, pass_dir: Path, inputs: Path, seed: int, src: Path) -> list[list[str]]:
    """The ``mitmscan`` command lines of one pass, in order."""
    scan = scan_dir(workload, pass_dir, inputs)
    argvs = []
    if workload == "demo":
        argvs.append(["scan", "--out", str(scan), "--seed", str(seed), "--freeze-time",
                      "--strategy", "scripted", "--policy", "always"])
    elif workload == "revisit":
        argvs.append(["scan", "--out", str(scan), "--fleet", str(inputs / "fleet.json"),
                      "--seed", str(seed), "--freeze-time", "--strategy", "random",
                      "--steps", str(REVISIT_STEPS), "--policy", "skip-if-vulnerable"])
    for test in TESTS:
        argvs.append(["locate", "--events", str(scan / "events.jsonl"),
                      "--ledger", str(scan / f"ledger_{test}.jsonl"),
                      "--out", str(pass_dir / f"locate_{test}.json")])
    argvs.append(["report", "--scan", str(scan), "--out", str(pass_dir / "report"),
                  "--freeze-time"])
    argvs.append(["classify", "--corpus", str(corpus_dir(workload, src, inputs)),
                  "--out", str(pass_dir / "classify.json")])
    return argvs


def set_up(workload: str, seed: int, inputs: Path) -> None:
    from mitmscan import cli, fleet, party  # noqa: F401 - cli imports every layer
    from mitmscan.certforge import CertConfig
    from mitmscan.engine import MitmMaterial

    if workload == "analyze":
        party.load_annotations()
        return
    material = MitmMaterial.generate(CertConfig(seed=seed))
    if workload == "demo":
        fleet.demo_fleet(material)
    else:
        fleet.load_fleet(inputs / "fleet.json")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    src, inputs, pass_dir = Path(args.src), Path(args.inputs), Path(args.out)
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    set_up(args.workload, args.seed, inputs)
    setup_s = time.perf_counter() - start

    from mitmscan import appsim, cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Record what each client decided. This wraps the (possibly traced)
    # function, so its cost is in no layer's time.
    clients: list[list] = []
    perform_flow = appsim.perform_flow

    def recorded_flow(app, spec, *rest, **kwargs):
        result = perform_flow(app, spec, *rest, **kwargs)
        clients.append([app.app_id, result.fqdn, result.channel, result.accepted, result.error])
        return result

    appsim.perform_flow = recorded_flow

    argvs = stages(args.workload, pass_dir, inputs, args.seed, src)
    pass_dir.mkdir(parents=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        code = cli.main(argv)
        if code != 0:
            print(f"mitmscan {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    (pass_dir / "clients.json").write_text(json.dumps(clients))
    timing = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        timing["trace"] = tracer.take()
    (pass_dir.parent / f"{pass_dir.name}.json").write_text(json.dumps(timing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
