"""Run one benchmark workload in this fresh process and print its metrics.

    python3 perfbench/run.py --workload certify|construct \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``. The workload's inputs come from ``--seed``. Set-up (importing the
library in a fresh interpreter plus building the inputs not under test)
is repeated and its median reported. Then the workload's fixed input set
is run in passes until ``--seconds`` is used up, always at least one
pass. Every output is checked against a known answer.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` passes
alternate between untraced and traced, and the object holds the per-layer
metrics. Report lines starting with ``#`` come first. The exit code is 0
when every output was correct and 1 otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a checkout's first run and later runs import alike

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from statistics import median

from spans import Tracer, tail
from workloads import EXPECTED, FULL, WORKLOADS, Pass, Sizes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 15

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.dont_write_bytecode = True\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import burling\n"
    "print(time.perf_counter() - t0)\n"
)


def import_library():
    """Import burling from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import burling
    import burling.cli
    import burling.fuzz
    if Path(burling.__file__).resolve().parent != SRC / "burling":
        raise SystemExit(f"imported burling from {burling.__file__}, not {SRC}")
    return burling


def fresh_import_s() -> float:
    """Seconds to import the library in a new interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "burling").glob("*.py")))


def layer_metrics(p: Pass) -> dict:
    """Per-layer values of one traced pass. A span name X gives X.s (self
    time) and X.calls; a layer L gives layer.L.self_s and layer.L.calls."""
    by_name, by_layer = p.tracer.summary()
    m: dict = {}
    for name, agg in by_name.items():
        m[f"{name}.s"] = agg["self_s"]
        m[f"{name}.calls"] = agg["calls"]
    for layer, agg in by_layer.items():
        m[f"layer.{layer}.self_s"] = agg["self_s"]
        m[f"layer.{layer}.calls"] = agg["calls"]
    c = p.counts
    m.update(c)
    m["oracle.agree_frac"] = c["oracle.agreed"] / c["oracle.compared"] if c["oracle.compared"] else 0
    m["witness.valid_frac"] = c["witness.valid"] / c["witness.checked"] if c["witness.checked"] else 0
    m["trace.spans"] = len(p.tracer.spans)
    return m


def run(argv=None, sizes: Sizes = FULL, expected: dict = EXPECTED) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bl = import_library()
    setup, run_pass = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        imp = fresh_import_s()
        t0 = time.perf_counter()
        inputs = setup(bl, args.seed, sizes)
        setups.append(imp + time.perf_counter() - t0)

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    passes: list[Pass] = []
    try:
        start = time.perf_counter()
        # with --trace 1 every second pass is traced, and one of each is due
        while True:
            p = Pass(Tracer(args.trace == 1 and len(passes) % 2 == 1))
            t0 = time.perf_counter()
            run_pass(p, bl, inputs, sizes, expected, work)
            p.wall_s = time.perf_counter() - t0
            passes.append(p)
            elapsed = time.perf_counter() - start
            if (len(passes) > args.trace
                    and elapsed + median([q.wall_s for q in passes]) > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.tracer.enabled]
    traced = [p for p in passes if p.tracer.enabled]
    per_item = [median(ts) for ts in zip(*(p.item_s for p in plain))]
    tail_pct, tail_s = tail(per_item)
    attempted = sum(len(p.item_s) for p in passes)
    failed = sum(p.failed for p in passes)
    verdicts = plain[0].verdicts
    decided = median([p.decided for p in plain])
    wall = median([p.wall_s for p in plain])

    print(f"# workload={args.workload} seed={args.seed} passes={len(plain)} "
          f"traced_passes={len(traced)} python={platform.python_version()} "
          f"nproc={os.cpu_count()} src_lines={src_lines()}")
    print(f"# item_p50_s={median(per_item)} s item_tail_s={tail_s} s: p{tail_pct:g} "
          f"of {len(per_item)} items, each item's median over passes")
    undecided = sum(p.undecided for p in passes)
    print(f"# verdicts={verdicts} decided={decided} per pass; items attempted="
          f"{attempted} undecided={undecided} failed={failed} "
          f"failed_frac={(undecided + failed) / attempted:.6f}")
    for p in passes:
        for what in p.wrong:
            print(f"# WRONG: {what}")

    if args.trace:
        rows = [layer_metrics(p) for p in traced]
        keys = set().union(*rows)
        values = {k: median([r.get(k, 0) for r in rows]) for k in keys}
        overhead = median([p.wall_s for p in traced]) - wall
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / wall
        values["item.p50_s"] = median(per_item)
        values["item.tail_s"] = tail_s
        values["item.samples"] = len(per_item)
        values["item.tail_pct"] = tail_pct
        layers = sorted(k[len("layer."):-len(".self_s")] for k in keys
                        if k.startswith("layer.") and k.endswith(".self_s"))
        for layer in layers:
            print(f"# layer {layer}: self {values[f'layer.{layer}.self_s']:.6f} s, "
                  f"{values[f'layer.{layer}.calls']:g} calls")
        print(f"# tracing overhead: {values['trace.overhead_s']:.6f} s "
              f"({values['trace.overhead_frac']:.4%}) on a {wall:.6f} s pass")
        listed = spec["per_layer"]
        # a layer this workload never calls has no spans or counts: it reads 0
        absent = [m["name"] for m in listed if m["name"] not in values]
        print(f"# not called here, reads 0: {' '.join(absent)}")
        values.update(dict.fromkeys(absent, 0))
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": wall,
            "decided": decided,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(run())
