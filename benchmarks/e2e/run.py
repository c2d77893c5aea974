"""End-to-end, layer-by-layer benchmark of the whole porting path.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload all --seed 0 [--trace 1]
    python3 benchmarks/e2e/run.py --workload serve-mixed --seed 3 \\
        --seconds 20 --trace 1

Each workload runs in fresh subprocesses.  With ``--trace 0``: several
that only set up (their median is ``setup_s``) around one measured run
(the end-to-end metrics).  With ``--trace 1``: one untraced measured
run, then one traced run (the per-layer metrics and
``results/trace-<workload>.json``).  Times are divided by the host's
slowdown against a reference, from a fixed probe loop run in between
(see ``metrics.end_to_end``).  The command prints ``workload
metric value unit`` lines, writes ``results/<workload>.json`` and ends
with one JSON line; it exits 1 if any output differs from
``expected.json`` or two subprocesses of the invocation built inputs
with different digests, and 2 if a run failed.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import metrics  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes that only set up, per workload and untraced run; with
#: the measured run's own set-up that makes eleven set-up samples.  A
#: probe takes about 0.25 s; on a 2-CPU VM, probes a few seconds apart
#: were slow or fast together (0.26-0.35 s in one run, 0.17-0.20 s in
#: another), hence many probes, split around the measured run.
SETUP_PROBES = 10
#: Host-speed probes every subprocess takes right after set-up (about
#: 25 ms, not part of ``setup_s``).
SETUP_HOST_PROBES = 10


class RunFailed(Exception):
    """A workload subprocess ended without a result."""


class Context:
    """What a workload needs from the harness: seed, length, tracer."""

    def __init__(self, seed, seconds, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer

    def span(self, name, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)


# -- the measured subprocess -----------------------------------------------


def child(args):
    """Set up, measure one workload, print one JSON line."""
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    os.environ.update(workload.environment(args.work_dir))
    workload.imports()
    tracer = tracing = None
    if args.trace:
        import trace as tracing

        tracer = tracing.Tracer(args.work_dir)
        tracing.instrument(tracer)
    ctx = Context(args.seed, args.seconds, tracer)
    state = workload.start(ctx)
    raw_setup_s = time.time() - args.spawned_at
    # In seconds on the reference host, as every other time: on a shared
    # 2-vCPU VM, the median set-up of one set of ten runs was 48% above
    # that of a set an hour earlier.
    setup = {"raw_setup_s": raw_setup_s,
             "setup_s": raw_setup_s / metrics.host_slowdown(
                 [metrics.probe_seconds() for _ in range(SETUP_HOST_PROBES)])}
    try:
        if args.child == "setup":
            return setup
        inputs, digests = workload.inputs(ctx)
        if args.child == "inputs":
            return {**setup, "inputs": digests}
        run = workload.measure(ctx, state, inputs)
    finally:
        workload.stop(state)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    end_to_end, latency = metrics.end_to_end(
        run.deliveries, run.samples, run.wall_s, run.open_loop, run.probes)
    end_to_end["peak_rss_mb"] = rss_kb / 1024.0
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    result = {
        **setup,
        "end_to_end": end_to_end,
        "latency": latency,
        "wall_s": run.wall_s,
        "attempted": len(run.deliveries),
        "problems": metrics.check_outputs(run.deliveries, expected),
        "inputs": digests,
    }
    if tracer is not None:
        spans = tracer.collect()
        layers = metrics.per_layer(spans, run.jobs)
        layers["trace.coverage"] = tracing.coverage(spans, *run.window)
        result["per_layer"] = layers
        os.makedirs(RESULTS, exist_ok=True)
        tracing.write_chrome(
            os.path.join(RESULTS, f"trace-{args.workload}.json"),
            spans, run.window[0])
    return result


# -- the parent -------------------------------------------------------------


def spawn(role, workload, seed, seconds, traced=False):
    """Run one child in a fresh work directory; return its JSON result."""
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    temp = os.path.join(work_dir, "tmp")
    os.makedirs(temp)
    env = dict(os.environ, TMPDIR=temp)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    command = [
        sys.executable, os.path.abspath(__file__), "--child", role,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
        "--work-dir", work_dir, "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=2 * seconds + 90)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: {role} run timed out") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(
            f"{workload}: {role} run exited {proc.returncode}")
    return json.loads(lines[-1])


def calibration_score():
    """Million turns per second of the host-speed probe's loop (median
    of five)."""
    seconds = statistics.median(metrics.probe_seconds() for _ in range(5))
    return metrics.PROBE_LOOPS / 1e6 / seconds


def git_commit():
    """HEAD's commit from ``.git`` files, or None outside a checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(name, args, spec, env):
    """All subprocesses of one workload; returns its result record.

    Untraced, half the set-up probes run before the measured run and
    half after it, so that a slow spell of the host does not hit them
    all; the first probe after the run also builds the inputs.  Traced,
    the probes are skipped (``setup_s`` is not reported) and the traced
    run follows the untraced one.  Either way the measured run's input
    digests must equal the other process's: two processes with their
    own ``PYTHONHASHSEED`` must see the same sources.
    """
    seconds = args.seconds or spec["run_seconds"]
    probes = 0 if args.trace else SETUP_PROBES
    setups = [spawn("setup", name, args.seed, seconds)
              for _ in range(probes // 2)]
    plain = spawn("run", name, args.seed, seconds)
    setups.append(plain)
    traced = None
    if args.trace:
        traced = other = spawn("run", name, args.seed, seconds, traced=True)
    else:
        other = spawn("inputs", name, args.seed, seconds)
        setups.append(other)
        setups += [spawn("setup", name, args.seed, seconds)
                   for _ in range(probes - probes // 2 - 1)]
    plain["end_to_end"]["setup_s"] = statistics.median(
        setup["setup_s"] for setup in setups)
    mismatched = sorted(
        key for key in plain["inputs"].keys() | other["inputs"].keys()
        if plain["inputs"].get(key) != other["inputs"].get(key))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = len(plain["problems"])
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": seconds,
        "traced": traced is not None,
        "env": env,
        "end_to_end": {
            metric: {"value": plain["end_to_end"][metric], "unit": unit}
            for metric, unit in units.items()
        },
        "failed_frac": failed / max(1, plain["attempted"]),
        "attempted": plain["attempted"],
        "failed": failed,
        "problems": plain["problems"],
        "latency": plain["latency"],
        "setup_samples": [setup["setup_s"] for setup in setups],
        "raw_setup_samples": [setup["raw_setup_s"] for setup in setups],
        "wall_s": plain["wall_s"],
        "inputs": plain["inputs"],
        "gates": {
            "expected_outputs": {"enforced": True, "passed": failed == 0},
            "input_digests": {"enforced": True,
                              "passed": not mismatched,
                              "mismatched": mismatched},
            # This command reports the metrics; their bounds are
            # enforced by whoever compares two sets of runs.
            "bounds": {
                m["name"]: {"bound": m["bound"], "enforced": False}
                for m in spec["end_to_end"]
            },
        },
    }
    if traced is not None:
        layers = traced["per_layer"]
        layers["trace.overhead"] = 1.0 - metrics.ratio(
            traced["end_to_end"]["modules_per_s"],
            plain["end_to_end"]["modules_per_s"])
        record["per_layer"] = {
            metric: {"value": layers[metric], "unit": unit}
            for metric, unit in layer_units.items()
        }
        record["traced_problems"] = traced["problems"]
        record["failed"] += len(traced["problems"])
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}.json"), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record


def report(record):
    """Print one workload's ``workload metric value unit`` lines."""
    name = record["workload"]
    latency = record["latency"]
    for metric, cell in record["end_to_end"].items():
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    print(f"{name} host_slowdown {latency['host_slowdown']:.6g} ratio "
          f"({latency['probes']} probes)")
    print(f"{name} latency_samples {latency['samples']} count")
    if latency["samples"]:
        print(f"{name} latency_p50_s {latency['p50']:.6g} s")
    if latency["p90"] is None:
        print(f"{name} latency_p90_s unresolved "
              f"({latency['p90_tail']} samples beyond p90, need 10)")
    else:
        print(f"{name} latency_p90_s {latency['p90']:.6g} s")
    print(f"{name} failed_frac {record['failed_frac']:.6g} ratio")
    for metric, cell in record.get("per_layer", {}).items():
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    for module, problems in {**record["problems"],
                             **record.get("traced_problems", {})}.items():
        print(f"{name} MISMATCH {module}: {'; '.join(problems)}",
              file=sys.stderr)
    if record["gates"]["input_digests"]["mismatched"]:
        print(f"{name} INPUT DIGESTS DIFFER: "
              f"{record['gates']['input_digests']['mismatched']}",
              file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced, report per-layer metrics")
    parser.add_argument("--child", choices=("setup", "inputs", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    env = {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "calibration_mops": calibration_score(),
    }
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    records = []
    try:
        for name in names:
            records.append(measure(name, args, spec, env))
            report(records[-1])
    except RunFailed as error:
        print(f"e2e benchmark: {error}", file=sys.stderr)
        return 2

    group = "per_layer" if args.trace else "end_to_end"
    cells = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for metric, cell in record[group].items():
            cells[prefix + metric] = cell
    correct = all(
        record["failed"] == 0 and record["gates"]["input_digests"]["passed"]
        for record in records
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": cells,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
