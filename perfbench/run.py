"""The repository benchmark: whole-pipeline contract synthesis.

Run from the repository root::

    python3 perfbench/run.py --workload ibex-mem-batch --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --selftest

A run synthesizes several contracts one after another, each from its
own pipeline seed derived from ``--seed`` and in its own fresh client
process (``rep.py``), and checks every output.  Timings are reported
in host-normalized seconds (see ``normalized_median``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one instance
untraced and traced in alternation, and reports the per-layer
breakdown.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, instance_seeds  # noqa: E402

#: Wall-clock budget of one benchmark invocation, in seconds.
DEADLINE_SECONDS = 170.0
#: Scratch space inside the checkout (caches, manifests, span dumps).
SCRATCH = ".perfbench_tmp"
#: Calibration seconds that normalized timings are scaled to: a
#: timing reads ``raw * CALIBRATION_REFERENCE_S / calibration_s``.
#: Fixed for good; changing it rescales every timing.
CALIBRATION_REFERENCE_S = 0.08
#: Untraced/traced pairs of one ``--trace 1`` run.
TRACE_PAIRS = 3
#: Test cases per instance in the self-test.
SELFTEST_BUDGET = 200

UNITS = {
    "contract_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "contract_fp": "count",
}


def run_client(workload, seed, tmp, deadline, traced=False, budget=None, corrupt=None):
    """Run one instance in a fresh client process and return its
    record; a client that crashes or times out yields a failed record."""
    if time.monotonic() >= deadline:
        return {"seed": seed, "failures": ["run deadline passed"]}
    spec = {
        "workload": workload.name,
        "seed": seed,
        "spawn": time.monotonic(),
        "traced": traced,
        "tmp": tempfile.mkdtemp(dir=tmp),
        "budget": budget,
        "corrupt": corrupt,
    }
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"seed": seed, "failures": ["client timed out"]}
    finally:
        shutil.rmtree(spec["tmp"], ignore_errors=True)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(err)
        return {"seed": seed, "failures": ["client exited %d" % process.returncode]}
    return json.loads(lines[-1])


def normalized_median(records, key):
    """Median ``key`` of ``records`` in seconds at the reference host
    speed, scaled by the median calibration of the same records."""
    speed = CALIBRATION_REFERENCE_S / median(r["calibration_s"] for r in records)
    return median(record[key] for record in records) * speed


def determinism_failures(first, second):
    """Two runs of one instance must give identical dataset bytes,
    contract atoms and false-positive weight."""
    if first["failures"] or second["failures"]:
        return []
    return [
        "%s differs between runs of seed %d" % (key, first["seed"])
        for key in ("digest", "atoms", "contract_fp")
        if first[key] != second[key]
    ]


def summarize(records, metrics):
    failed = sum(1 for record in records if record["failures"])
    for record in records:
        for failure in record["failures"]:
            print("FAILED seed %d: %s" % (record["seed"], failure))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def timed_run(workload, seed, seconds, tmp, deadline):
    """End-to-end metrics over the run's distinct instances."""
    seeds = instance_seeds(workload, seed, seconds)
    distinct = [run_client(workload, each, tmp, deadline) for each in seeds]
    # The first instance again, in another fresh process.
    repeat = run_client(workload, seeds[0], tmp, deadline)
    repeat["failures"] = repeat["failures"] + determinism_failures(distinct[0], repeat)
    records = distinct + [repeat]
    if any(record["failures"] for record in records):
        return summarize(records, {})
    values = {
        "contract_s": normalized_median(distinct, "contract_s"),
        "setup_s": normalized_median(records, "setup_s"),
        "peak_rss_mb": median(record["peak_rss_mb"] for record in distinct),
        "contract_fp": sum(r["contract_fp"] for r in distinct) / len(distinct),
    }
    print(
        "%s seed %d: %d contracts, each in a fresh process (+1 repeat)"
        % (workload.name, seed, len(distinct))
    )
    for name, value in values.items():
        print("  %-12s %12.4f %s" % (name, value, UNITS[name]))
    for label, samples in (
        ("raw contract_s", [record["contract_s"] for record in distinct]),
        ("raw setup_s", [record["setup_s"] for record in records]),
        ("calibration_s", [record["calibration_s"] for record in records]),
    ):
        print("  %s: %s" % (label, " ".join("%.3f" % v for v in samples)))
    metrics = {
        name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
    }
    return summarize(records, metrics)


def traced_run(workload, seed, seconds, tmp, deadline):
    """Per-layer metrics: the run's first instance, untraced and traced
    in alternation; the layers come from the median traced run."""
    first = instance_seeds(workload, seed, seconds)[0]
    plain, traced = [], []
    for _pair in range(TRACE_PAIRS):
        plain.append(run_client(workload, first, tmp, deadline))
        traced.append(run_client(workload, first, tmp, deadline, traced=True))
    records = plain + traced
    for record in records[1:]:
        record["failures"] = record["failures"] + determinism_failures(
            records[0], record
        )
    if any(record["failures"] for record in records):
        return summarize(records, {})
    traced.sort(key=lambda record: record["contract_s"])
    values = dict(traced[len(traced) // 2]["layers"])
    values["trace.overhead_frac"] = (
        normalized_median(traced, "contract_s")
        / normalized_median(plain, "contract_s")
        - 1.0
    )
    values["pipeline.calibration_s"] = median(
        record["calibration_s"] for record in records
    )
    print(
        "%s seed %d: traced layer breakdown (%d untraced/traced pairs)"
        % (workload.name, seed, TRACE_PAIRS)
    )
    for name, value in values.items():
        print("  %-32s %14.6f %s" % (name, value, layer_unit(name)))
    metrics = {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in values.items()
    }
    return summarize(records, metrics)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("utilization"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def selftest(tmp, deadline) -> int:
    """Tiny-budget run of every workload through the output checks,
    including corrupted datasets that must be reported as failed."""
    ok = True
    for workload in WORKLOADS.values():
        budget = SELFTEST_BUDGET
        clean = run_client(workload, 7, tmp, deadline, budget=budget)
        verdicts = [("clean run passes", not clean["failures"])]
        for how in ("atoms", "bit"):
            bad = run_client(workload, 7, tmp, deadline, budget=budget, corrupt=how)
            verdicts.append(
                (
                    "corrupted %s reported" % how,
                    any("reference mismatch" in f for f in bad["failures"])
                    and "digest" in bad
                    and bool(determinism_failures(clean, dict(bad, failures=[]))),
                )
            )
        for label, passed in verdicts:
            print("%-5s %s: %s" % ("ok" if passed else "FAIL", workload.name, label))
            ok = ok and passed
        if clean["failures"]:
            print("      clean failures: %s" % clean["failures"])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    root = os.getcwd()
    entry = os.path.join(root, "src", "repro", "pipeline", "pipeline.py")
    if not os.path.isfile(entry):
        print(
            "error: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + DEADLINE_SECONDS
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(root, SCRATCH))
    try:
        if args.selftest:
            return selftest(tmp, deadline)
        workload = WORKLOADS[args.workload]
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
