"""One benchmark process: imports homcx from the checkout's ``src`` and
runs one workload step, printing a JSON result as its last line.

    worker.py setup WORKLOAD SEED WORKDIR
    worker.py loop WORKLOAD SEED SECONDS TRACE WORKDIR   (queries, coloring)
    worker.py construct SEED TRACE WORKDIR               (pipeline)
    worker.py verify CERT TRACE                          (pipeline)

``run.py`` starts these one at a time; see it for the metrics.
"""

import time

_T0 = time.perf_counter()

import calibrate  # noqa: E402  (first, so set-up time is calibrated too)

SAMPLER = calibrate.Sampler()
if __name__ == "__main__":
    SAMPLER.start()

import ast  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402


def _import_homcx():
    import homcx.cli  # noqa: F401  (imports every layer)

    return sys.modules["homcx"]


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _cli(argv):
    """Run ``homcx.cli.main`` in this process; (exit code, stdout)."""
    import homcx.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = homcx.cli.main(argv)
    return code, out.getvalue()


# -- pipeline ------------------------------------------------------------


def pipeline_files(seed, workdir):
    member, g = inputs.pipeline_inputs(seed)
    fam_path = os.path.join(workdir, "K2.json")
    g_path = os.path.join(workdir, "G.json")
    _write_json(fam_path, member)
    _write_json(g_path, g)
    return fam_path, g_path


def _setup_done():
    """Calibrated set-up time: from the start of this process until now."""
    return SAMPLER.calibrated(_T0, time.perf_counter())


def _timed_cli(argv):
    """Run the CLI once; (exit code, stdout, calibrated s, wall s less
    the reference samples')."""
    t0 = time.perf_counter()
    code, stdout = _cli(argv)
    t1 = time.perf_counter()
    SAMPLER.stop()
    return code, stdout, SAMPLER.calibrated(t0, t1), t1 - t0 - SAMPLER.sampled_s(t0, t1)


def construct(seed, trace, workdir):
    _import_homcx()
    fam_path, g_path = pipeline_files(seed, workdir)
    setup_s = _setup_done()
    tracer = _tracer(trace)
    out = os.path.join(workdir, "cert-traced.json" if trace else "cert.json")
    argv = ["construct", "--family", fam_path, "--g", g_path, "--n", "2",
            "--seed", str(seed), "--out", out]
    code, stdout, op_s, wall_s = _timed_cli(argv)
    return {"setup_s": setup_s, "op_s": op_s, "wall_s": wall_s, "exit": code,
            "stdout": stdout, "cert": out, "rss_mb": _rss_mb(),
            "spans": tracer and tracer.spans}


def verify(cert, trace):
    homcx = _import_homcx()
    tracer = _tracer(trace)
    code, stdout, op_s, wall_s = _timed_cli(["verify", cert])
    return {"op_s": op_s, "wall_s": wall_s, "exit": code, "stdout": stdout,
            "rss_mb": _rss_mb(), "backend": homcx.BACKEND,
            "spans": tracer and tracer.spans}


def _tracer(trace):
    """A tracer installed on homcx and recording, or None."""
    if not trace:
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    tracer.begin_operation()
    return tracer


# -- queries -------------------------------------------------------------


def _query_files(items, pass_no, seed, workdir):
    """Write this pass's inputs: pass 0 is the generated graphs, later
    passes relabel every G so that no input repeats byte for byte."""
    rng = random.Random(f"relabel-{seed}-{pass_no}")
    t_paths = {}
    paths = []
    for i, (name, t, g) in enumerate(items):
        if name not in t_paths:
            t_paths[name] = os.path.join(workdir, f"T-{name}.json")
            _write_json(t_paths[name], t)
        if pass_no:
            g = inputs.relabel(g, inputs.random_perm(rng, g["n"]))
        g_path = os.path.join(workdir, f"G-{i}.json")
        _write_json(g_path, g)
        paths.append((t_paths[name], g_path))
    return paths


def _query_op(paths):
    code, stdout = _cli(["hom", *paths])
    return stdout if code == 0 else f"exit {code}\n{stdout}"


def _parse_hom_output(text):
    lines = text.splitlines()
    if lines and lines[0] == "empty complex":
        return None, None, None, int(lines[-1].split(":")[1])
    cells = int(lines[0].split(":")[1])
    betti = ast.literal_eval(lines[-3].split(":", 1)[1].strip())
    torsion = ast.literal_eval(lines[-2].split(":", 1)[1].strip())
    classes = int(lines[-1].split(":")[1])
    return cells, betti, torsion, classes


def _components(k):
    """Partition of the vertices (0-cells) of the face poset of k into
    connected components, as a set of frozensets of maps."""
    parent = list(range(len(k)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(k)):
        for j in k.facets(i):
            parent[find(i)] = find(j)
    groups = {}
    for i, cell in enumerate(k.cells):
        if k.dim_of[i] == 0:
            groups.setdefault(find(i), set()).add(
                tuple(s[0] for s in cell.assignment)
            )
    return {frozenset(v) for v in groups.values()}


def check_query(t_obj, g_obj, text):
    """Whether ``homcx hom`` printed the right answer for (T, G):
    homology against the order-complex route, x-homotopy classes
    against the components of the face poset."""
    from homcx.graphs import Graph
    from homcx.homology import order_complex_homology
    from homcx.homs import enumerate_cells, x_homotopy_classes

    try:
        cells, betti, torsion, classes = _parse_hom_output(text)
    except (ValueError, IndexError, SyntaxError):
        return False
    t, g = Graph.from_json_obj(t_obj), Graph.from_json_obj(g_obj)
    k = enumerate_cells(t, g)
    partition = {
        frozenset(f.mapping for f in cls) for cls in x_homotopy_classes(t, g)
    }
    if partition != _components(k) or classes != len(partition):
        return False
    if len(k) == 0:
        return cells is None
    ref = order_complex_homology(k)
    return (cells, betti, torsion) == (
        len(k),
        list(ref.betti),
        [list(tor) for tor in ref.torsion],
    )


def kernel_parity(items):
    """Mismatches between the pure and compiled kernels on the queries'
    own search and reduction inputs; None when only one backend exists."""
    try:
        from homcx._kernels import _pure, _speedups
    except ImportError:
        return None
    return compare_kernels(items, _pure, _speedups)


def compare_kernels(items, first, second):
    from homcx.graphs import Graph
    from homcx.homology import cellular_chain_complex
    from homcx.homs import _bfs_order, enumerate_cells

    bad = 0
    for _, t_obj, g_obj in items:
        t, g = Graph.from_json_obj(t_obj), Graph.from_json_obj(g_obj)
        order = _bfs_order(t)
        pos = {v: i for i, v in enumerate(order)}
        next_adj = [[] for _ in order]
        t_loop = [False] * len(order)
        for u, v in t.edges:
            i, j = sorted((pos[u], pos[v]))
            if i == j:
                t_loop[i] = True
            else:
                next_adj[i].append(j)
        loops = sum(1 << v for v in g.loops())
        search = (next_adj, t_loop, list(g.adjacency_masks), loops, g.n, 10**7)
        if first.search_homs(*search) != second.search_homs(*search):
            bad += 1
            continue
        k = enumerate_cells(t, g)
        if len(k) == 0:
            continue
        c = cellular_chain_complex(k)
        outs = []
        for kernel in (first, second):
            ranks, cols, b0 = kernel.reduce_chain_complex(c.ranks, c.boundaries)
            diag = [kernel.snf_diagonal(cols[d], ranks[d - 1]) for d in range(1, len(ranks))]
            outs.append((ranks, b0, diag))
        bad += outs[0] != outs[1]
    return bad


# -- coloring ------------------------------------------------------------


def _coloring_graphs(items, pass_no, seed):
    from homcx.graphs import Graph

    rng = random.Random(f"relabel-{seed}-{pass_no}")
    out = []
    for _, g, _ in items:
        if pass_no:
            g = inputs.relabel(g, inputs.random_perm(rng, g["n"]))
        out.append(Graph.from_json_obj(g))
    return out


def _coloring_op(graph):
    """chi, or the error a refusal raised (which then counts as failed)."""
    import homcx.coloring
    from homcx.errors import HomcxError

    try:
        return homcx.coloring.chromatic_number(graph)
    except HomcxError as exc:
        return f"error: {exc}"


# -- loop workloads ------------------------------------------------------


def loop(workload, seed, seconds, trace, workdir):
    """Whole passes over the seeded inputs, each item timed on its own,
    while another pass is expected to end within ``seconds`` of
    calibrated time; then, with ``trace``, one more pass with spans on."""
    homcx = _import_homcx()
    items = inputs.inputs_for(workload, seed)
    if workload == "queries":
        prepare = functools.partial(_query_files, items, seed=seed, workdir=workdir)
        op = _query_op
    else:
        prepare = functools.partial(_coloring_graphs, items, seed=seed)
        op = _coloring_op
    batch = prepare(0)
    setup_s = _setup_done()

    intervals = []  # per pass, per item: (start, end) of its operation
    outputs = []  # (item index, output), every pass in order
    started = time.perf_counter()
    while True:
        pass_intervals = []
        for i, arg in enumerate(batch):
            t0 = time.perf_counter()
            out = op(arg)
            pass_intervals.append((t0, time.perf_counter()))
            outputs.append((i, out))
        intervals.append(pass_intervals)
        # Calibrated, so the number of passes does not follow the machine.
        elapsed = SAMPLER.calibrated(started, time.perf_counter())
        if elapsed * (len(intervals) + 1) / len(intervals) > seconds:
            break
        del batch  # peak RSS must not depend on the number of passes
        batch = prepare(len(intervals))
    ended = time.perf_counter()
    rss_mb = _rss_mb()
    pass_no = len(intervals)

    spans = None
    traced = []
    if trace:
        batch = prepare(pass_no)
        tracer = _tracer(True)
        for i, arg in enumerate(batch):
            tracer.begin_operation()
            t0 = time.perf_counter()
            outputs.append((i, op(arg)))
            traced.append((t0, time.perf_counter()))
        tracer.enabled = False
        spans = tracer.spans
    SAMPLER.stop()
    latencies = [[SAMPLER.calibrated(a, b) for a, b in p] for p in intervals]
    wall = [[b - a - SAMPLER.sampled_s(a, b) for a, b in p] for p in intervals]
    traced_s = sum(SAMPLER.calibrated(a, b) for a, b in traced)

    if workload == "queries":
        truth = [check_query(t, g, outputs[i][1]) for i, (_, t, g) in enumerate(items)]
        first = outputs[: len(items)]
        failed = sum(
            1 for i, out in outputs if not truth[i] or out != first[i][1]
        )
        parity = kernel_parity(items)
        failed += parity or 0
    else:
        failed = sum(1 for i, out in outputs if out != items[i][2])
        parity = None
    return {
        "setup_s": setup_s,
        "attempted": len(outputs),
        "failed": failed,
        "passes": pass_no,
        "latencies_s": latencies,
        "wall_s": wall,
        "speed": SAMPLER.speed(started, ended),
        "kinds": [item[0] for item in items],
        "rss_mb": rss_mb,
        "backend": homcx.BACKEND,
        "kernel_parity_mismatches": parity,
        "spans": spans,
        "traced_s": traced_s,
    }


def setup(workload, seed, workdir):
    _import_homcx()
    if workload == "pipeline":
        pipeline_files(seed, workdir)
    elif workload == "queries":
        _query_files(inputs.query_inputs(seed), 0, seed, workdir)
    else:
        _coloring_graphs(inputs.coloring_inputs(seed), 0, seed)
    return {"setup_s": _setup_done()}


def main(argv):
    cmd, args = argv[0], argv[1:]
    if cmd == "setup":
        return setup(args[0], int(args[1]), args[2])
    if cmd == "loop":
        return loop(args[0], int(args[1]), float(args[2]), args[3] == "1", args[4])
    if cmd == "construct":
        return construct(int(args[0]), args[1] == "1", args[2])
    if cmd == "verify":
        return verify(args[0], args[1] == "1")
    raise SystemExit(f"unknown worker command {cmd!r}")


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    finally:
        SAMPLER.stop()  # a timer left running would kill the exiting process
    print(json.dumps(result))
