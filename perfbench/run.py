"""The homcx benchmark.

    python3 perfbench/run.py --workload {pipeline,queries,coloring}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; homcx is imported from its ``src``.
Workloads (see BENCHMARK.json for why each exists):

- ``pipeline``: ``homcx construct`` for the family {K2 with its swap}
  and n = 2 on G = K3, then ``homcx verify`` of
  the certificate file in a fresh process.  Each is one operation.
- ``queries``: ``homcx hom`` (cells, cellular homology, x-homotopy
  classes) over 100 seeded (T, G) pairs, repeated with relabelled G.
- ``coloring``: ``chromatic_number`` over 100 seeded graphs with known
  chromatic number, repeated with relabelled vertices.

Every operation's answer is checked against an independent route; a
wrong answer, an error or a refusal counts as failed.  Times in the
metrics are calibrated against a reference loop run during the
measurement (see calibrate.py), which takes the shared machine's
changing speed out of them; the report also prints raw wall times.
Each step runs in its own process, one at a time.  The last line of
output is the JSON result; the lines before it are the human-readable
report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("pipeline", "queries", "coloring")
SETUP_SAMPLES = 7
STEP_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
STATE_DIR = os.path.join(ROOT, ".perfbench_state")


class StepError(RuntimeError):
    """A worker process failed without producing a result."""


def worker(*args):
    """Run one worker step in a fresh interpreter; its parsed result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=STEP_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise StepError(
            f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """(value, percentile): the highest percentile in TAIL_PERCENTILES
    with at least ten samples above it; the maximum when there are too
    few samples for any (percentile reported as 100)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return ordered[math.ceil(p / 100 * n) - 1], p
    return ordered[-1], 100


def source_digest():
    """sha256 over the program's sources, so results name what ran."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "homcx")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def setup_samples(workload, seed, workdir, count):
    worker("setup", workload, seed, workdir)  # warm-up: bytecode caches
    return [worker("setup", workload, seed, workdir)["setup_s"] for _ in range(count)]


# -- pipeline ------------------------------------------------------------


def certificate_problems(cert_path):
    """Claims the certificate must make for this workload's input."""
    try:
        with open(cert_path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable certificate: {exc}"]
    problems = []
    if obj.get("verdict") != "consistent":
        problems.append(f"verdict {obj.get('verdict')!r}")
    profile = obj.get("profiles", {}).get("K2")
    if not isinstance(profile, dict) or profile.get("G") != profile.get("H"):
        problems.append("profile(G) != profile(H)")
    if obj.get("z2") != {"free_G": True, "free_H": True, "equivariant": True}:
        problems.append(f"z2 {obj.get('z2')!r}")
    return problems


def verify_op(cert_path, trace):
    """``homcx verify`` in a fresh process; (result, problems)."""
    res = worker("verify", cert_path, int(trace))
    problems = []
    if res["exit"] != 0 or res["stdout"].strip() != "PASS":
        problems.append("verify: " + " ".join(res["stdout"].split()))
    return res, problems


def certificate_digest_problems(seed, cert_path):
    """Byte-identity of certificates from constructs with the same seed
    and program source, across runs in this checkout."""
    with open(cert_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"pipeline-{source_digest()}-{seed}.sha256")
    if os.path.exists(path):
        with open(path) as fh:
            if fh.read().strip() != digest:
                return ["certificate differs from an earlier construct with this seed"]
        return []
    with open(path, "w") as fh:
        fh.write(digest + "\n")
    return []


def run_pipeline(seed, trace, workdir, report):
    """One construct and one verify.  With ``trace``, the verify is of a
    second, traced construct, whose certificate must equal the first
    byte for byte; the tracing overhead is then that of construct."""
    samples = setup_samples("pipeline", seed, workdir, SETUP_SAMPLES - 1)
    con = worker("construct", seed, 0, workdir)
    samples.append(con["setup_s"])
    con_problems = [] if con["exit"] == 0 else [f"construct exit {con['exit']}"]
    con_problems += certificate_problems(con["cert"])
    con_problems += certificate_digest_problems(seed, con["cert"])
    failed = bool(con_problems)
    attempted = 1
    spans = None
    overhead = (0.0, 0.0)
    cert = con["cert"]
    if trace:
        tcon = worker("construct", seed, 1, workdir)
        with open(con["cert"], "rb") as a, open(tcon["cert"], "rb") as b:
            if a.read() != b.read() or tcon["exit"] != 0:
                con_problems.append("two constructs with the same seed differ")
                failed += 1
        attempted += 1
        cert = tcon["cert"]
        overhead = (tcon["op_s"], con["op_s"])
    ver, ver_problems = verify_op(cert, trace)
    failed += bool(ver_problems)
    attempted += 1
    if trace:
        spans = merge_spans([tcon["spans"], ver["spans"]])
    report(
        f"construct_s {con['op_s']:.4f}  verify_s {ver['op_s']:.4f} (calibrated; "
        f"wall {con['wall_s']:.4f} and {ver['wall_s']:.4f})"
        + (" verify traced" if trace else "")
    )
    for problem in con_problems + ver_problems:
        report(f"FAIL {problem}")
    ops = [con["op_s"], ver["op_s"]]
    return {
        "setup": samples,
        "ops_s": ops,
        "busy_s": sum(ops),
        "attempted": attempted,
        "failed": failed,
        "rss_mb": max(con["rss_mb"], ver["rss_mb"]),
        "backend": ver["backend"],
        "spans": spans,
        "overhead": overhead,
        "kernel_parity_mismatches": None,
    }


def merge_spans(span_lists):
    """Concatenate spans of several processes with distinct ids."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for op, sid, parent, *rest in spans:
            merged.append([op, sid + base, parent + base if parent >= 0 else -1, *rest])
    return merged


# -- queries and coloring ------------------------------------------------


def run_loop(workload, seed, seconds, trace, workdir, report):
    samples = setup_samples(workload, seed, workdir, SETUP_SAMPLES - 1)
    res = worker("loop", workload, seed, seconds, int(trace), workdir)
    samples.append(res["setup_s"])
    # One latency per distinct input: the median of its passes.
    ops = [statistics.median(lat) for lat in zip(*res["latencies_s"])]
    pass_s = statistics.median(sum(p) for p in res["latencies_s"])
    wall_pass_s = statistics.median(sum(p) for p in res["wall_s"])
    by_kind = {}
    for kind, value in zip(res["kinds"], ops):
        by_kind.setdefault(kind, []).append(value)
    for kind, values in by_kind.items():
        report(
            f"{kind}: {len(values)} inputs, median {1e3 * statistics.median(values):.3f} ms"
        )
    report(
        f"passes {res['passes']}, median pass {wall_pass_s:.3f} s wall, "
        f"machine speed {res['speed']:.3f} x reference"
    )
    return {
        "setup": samples,
        "ops_s": ops,
        "busy_s": pass_s,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "rss_mb": res["rss_mb"],
        "backend": res["backend"],
        "spans": res["spans"],
        "overhead": (res["traced_s"], pass_s),
        "kernel_parity_mismatches": res["kernel_parity_mismatches"],
    }


# -- main ----------------------------------------------------------------

# Per workload, what the generic operation metrics stand for.
FIGURES = {
    "pipeline": "construct_s / verify_s are the two operations",
    "queries": "queries_per_s, query_p50_ms, query_tail_ms",
    "coloring": "chi_per_s, chi_p50_ms, chi_tail_ms",
}


def end_to_end_metrics(res, ops, tail_s):
    """The end-to-end metrics of an untraced run: name -> (value, unit)."""
    return {
        "ops_per_s": (len(ops) / res["busy_s"], "1/s"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
        "setup_s": (statistics.median(res["setup"]), "s"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homcx", "__init__.py")):
        print(f"error: no homcx sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)

    def report(line):
        print(line, flush=True)

    try:
        if args.workload == "pipeline":
            res = run_pipeline(args.seed, bool(args.trace), workdir, report)
        else:
            res = run_loop(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir, report
            )
    except (StepError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": res["backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source": source_digest(),
        "kernel_parity_mismatches": res["kernel_parity_mismatches"],
    }
    report("env " + json.dumps(env, sort_keys=True))

    ops = res["ops_s"]
    tail_s, tail_p = tail(ops)
    failed_frac = res["failed"] / res["attempted"]
    report(
        f"ops {len(ops)} ({FIGURES[args.workload]}); tail = p{tail_p:g} over "
        f"{len(ops)} samples; failed_frac {failed_frac:.4f} "
        f"({res['failed']}/{res['attempted']})"
    )
    if args.trace:
        traced_s, untraced_s = res["overhead"]
        layer = tracing.per_layer_metrics(res["spans"], traced_s, untraced_s)
        report("self time per layer (traced pass):")
        for name in tracing.LAYERS:
            report(f"  {name:<14} {layer[f'self.{name}_s'][0]:10.4f} s")
        report(
            f"tracing overhead: {layer['trace.overhead_s'][0]:.4f} s "
            f"({100 * layer['trace.overhead_frac'][0]:.2f}% of {untraced_s:.4f} s)"
        )
        metrics = layer
    else:
        metrics = end_to_end_metrics(res, ops, tail_s)
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
