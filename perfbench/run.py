#!/usr/bin/env python3
"""meetxml end-to-end benchmark.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds the program in Release from the checkout it sits in, generates
the workload's inputs from --seed, computes every expected answer with
the reference evaluator, runs the timed phase through perfbench_harness
(and meetxmld for `serve`), checks every answer and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics (also written to .bench_out/trace-<workload>-seed<n>.json).
--workload all runs every workload in turn.  The run exits 2 after its
result line when an answer is wrong or an operation failed, and 1 without
a result when it could not run.  See perfbench/README.md.
"""

import time

T_START = time.monotonic()  # set-up time is measured from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
DAEMON = os.path.join(BUILD_DIR, "meetxml", "examples", "meetxmld")

WORKLOADS = ["serve", "query", "cold_open", "ingest"]
PERTURB = None  # --perturb: which expected answers or queries to corrupt

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("latency_p50_us", "us"),
    ("latency_tail_us", "us"), ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"), ("image_mib", "MiB"),
]

# (name, unit, better); the workload each one is measured on is in
# README.md.  A traced run reports every name; a layer its workload does
# not exercise reads 0 and is listed under "not_exercised" in the report.
PER_LAYER = [
    ("server.roundtrip_us", "us", "lower"),
    ("server.codec_us", "us", "lower"),
    ("server.dispatch_us", "us", "lower"),
    ("server.outside_dispatch_us", "us", "lower"),
    ("server.ctx_switches_per_op", "count", "lower"),
    ("server.sys_cpu_share", "ratio", "lower"),
    ("store.route_us", "us", "lower"),
    ("store.execute_us", "us", "lower"),
    ("store.merge_us", "us", "lower"),
    ("store.decode_us", "us", "lower"),
    ("store.index_build_us", "us", "lower"),
    ("store.fanout_docs", "count", "lower"),
    ("store.rows_found", "count", "lower"),
    ("store.rows_examined", "count", "lower"),
    ("store.rows_pruned", "count", "higher"),
    ("store.open_us", "us", "lower"),
    ("store.first_touch_us", "us", "lower"),
    ("store.save_us", "us", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.path_match_us", "us", "lower"),
    ("query.execute_us", "us", "lower"),
    ("query.unattributed_us", "us", "lower"),
    ("text.search_us", "us", "lower"),
    ("text.matches", "count", "lower"),
    ("text.index_build_us", "us", "lower"),
    ("text.index_decode_us", "us", "lower"),
    ("text.index_mib", "MiB", "lower"),
    ("core.meet_us", "us", "lower"),
    ("core.items_seeded", "count", "lower"),
    ("core.lifts", "count", "lower"),
    ("core.paths_touched", "count", "lower"),
    ("core.meets_found", "count", "lower"),
    ("core.meets_materialized", "count", "lower"),
    ("core.meets_pruned", "count", "higher"),
    ("model.bulk_shred_us", "us", "lower"),
    ("model.input_mib_per_s", "MiB/s", "higher"),
    ("xml.parse_mib_per_s", "MiB/s", "higher"),
    ("model.encode_us", "us", "lower"),
    ("util.write_sync_us", "us", "lower"),
    ("model.section_load_us", "us", "lower"),
    ("model.doc_decode_us", "us", "lower"),
    ("model.image_bytes_per_input_byte", "B/B", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
]

# Workload sizes (see README.md for what each one is for).
SERVE_DOCS = (["conf%d" % i for i in range(1, 5)]
              + ["jour%d" % i for i in range(1, 5)])
COLD_OPEN_DOCS = 6
INGEST_POOL = 6
INGEST_CATALOG = 3
# Untimed, checked operations between set-up and the timed phase: the
# daemon's first seconds under load run measurably slower.
WARMUP_S = {"serve": 2.0, "query": 1.0, "cold_open": 0.5, "ingest": 0.5}
# The tail percentile each workload reports, over groups of operations
# just large enough to leave ten samples beyond it (harness.cc); ingest
# runs too few operations for groups of 1000.
TAIL_PCT = {"serve": 99, "query": 99, "cold_open": 99, "ingest": 90}


class BenchError(Exception):
    pass


class Stopwatch:
    """Sums the time spent inside `with` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.monotonic()

    def __exit__(self, *_):
        self.seconds += time.monotonic() - self._t0


# The reference evaluator's share of set-up (parsing the generated XML
# and computing the expected answers): the benchmark's own work, which
# setup_s leaves out.
REFERENCE = Stopwatch()


class Interrupted(Exception):
    pass


def _on_signal(signum, _frame):
    raise Interrupted("signal %d" % signum)


def _die_with_parent():
    # Children get SIGKILL if this process dies without cleaning up
    # (prctl option 1 is PR_SET_PDEATHSIG).
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def cpu_count():
    return len(os.sched_getaffinity(0))


def machine_cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat, or
    None.  On a shared virtual machine the host takes CPU time from the
    guest ("steal"); its share during a run explains a slow run."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


# --- Build ----------------------------------------------------------------

def build():
    """Release build of meetxmld and the harness; returns seconds spent."""
    started = time.monotonic()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no meetxml sources around %s" % HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    with open(log_path, "w") as build_log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(cpu_count()),
                      "--target", "meetxmld", "perfbench_harness"])
        for step in steps:
            if subprocess.call(step, stdout=build_log, stderr=build_log,
                               stdin=subprocess.DEVNULL) != 0:
                raise BenchError("build failed; see %s" % log_path)
    return time.monotonic() - started


# --- Processes --------------------------------------------------------------

class Children:
    """Every process the benchmark starts; stop_all() ends and reaps them."""

    def __init__(self):
        self.procs = []

    def start(self, argv, **kwargs):
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                preexec_fn=_die_with_parent, **kwargs)
        self.procs.append(proc)
        return proc

    def stop(self, proc, grace_s=20.0):
        """SIGTERM, then SIGKILL after `grace_s`; returns the child's
        rusage (or None when it was already reaped)."""
        if proc.returncode is not None:
            return None
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + grace_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.procs.remove(proc)
                return usage
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.procs.remove(proc)
                return usage
            time.sleep(0.01)

    def stop_all(self):
        for proc in list(self.procs):
            try:
                self.stop(proc, grace_s=5.0)
            except ChildProcessError:
                self.procs.remove(proc)


def run_harness(children, mode, args, timeout_s=170):
    argv = [HARNESS, mode]
    for key, value in args.items():
        argv += ["--" + key, str(value)]
    proc = children.start(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError("harness %s timed out" % mode)
    children.procs.remove(proc)
    if proc.returncode != 0:
        raise BenchError("harness %s exited with %d" % (mode, proc.returncode))
    if mode == "prep":
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("harness %s printed no result" % mode)
    return json.loads(lines[-1])


# --- meetxmld ---------------------------------------------------------------

def _recv_exact(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise OSError("peer closed")
        data += chunk
    return data


def _roundtrip(sock, payload):
    sock.sendall(struct.pack("<I", len(payload)) + payload)
    length = struct.unpack("<I", _recv_exact(sock, 4))[0]
    return _recv_exact(sock, length)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ready(proc, port, timeout_s=60.0):
    """Ready means HELLO and PING answer OK; the daemon's output is not
    read."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
                hello = _roundtrip(sock, bytes([1, 2]))      # HELLO v2
                ping = _roundtrip(sock, bytes([3]))          # PING
                if hello[:2] == bytes([0, 1]) and ping[:2] == bytes([0, 3]):
                    return True
        except OSError:
            pass
        time.sleep(0.02)
    return False


def start_daemon(children, image, work):
    for _ in range(3):
        port = free_port()
        daemon_log = open(os.path.join(work, "meetxmld.log"), "w")
        proc = children.start([DAEMON, image, str(port), "--warm"],
                              stdout=daemon_log, stderr=subprocess.STDOUT)
        daemon_log.close()
        if wait_ready(proc, port):
            return proc, port
        children.stop(proc)
    raise BenchError("meetxmld did not become ready")


# --- Inputs and expected answers -------------------------------------------

def write_docs(work, docs):
    """docs: [(name, xml_text)] -> [(name, path)], plus the prep list."""
    out = []
    for name, xml_text in docs:
        path = os.path.join(work, name + ".xml")
        with open(path, "w") as f:
            f.write(xml_text)
        out.append((name, path))
    with open(os.path.join(work, "docs.tsv"), "w") as f:
        for name, path in out:
            f.write("D\t%s\t%s\n" % (name, path))
    return out


def contains_terms(tree, out):
    if tree[0] == "contains":
        out.append(tree[1])
    elif tree[0] in ("not", "and", "or"):
        for child in tree[1:]:
            contains_terms(child, out)


def perturbed(rows):
    """A wrong answer: the last cell of the first row changed, or a row
    that cannot exist."""
    if not rows:
        return [["no-such-document", "cdata", "x", "o0"]]
    first = list(rows[0])
    first[-1] += "9"
    return [first] + [list(r) for r in rows[1:]]


def write_queries(path, queries, ref_docs, trace=False, names=None,
                  doc_placeholder=False):
    """The harness's query file: per distinct (scope, query) pair its
    text and expected rows, computed before any timing starts."""
    with open(path, "w") as f, REFERENCE:
        if names is not None:
            if PERTURB == "names":
                names = names[::-1]
            f.write("N\t%s\n" % "\t".join(names))
        for index, (scope, query) in enumerate(queries):
            docs = reference.scoped(ref_docs, scope)
            if not docs:
                raise BenchError("scope %s matches no document" % scope)
            text = reference.render(query)
            if PERTURB == "error" and index == 0:
                text += " AND"  # a query the program rejects
            f.write("Q\t%s\t%s\t%s\n" % (scope, text, query.get("label", "")))
            expected = reference.evaluate(docs, query)
            if PERTURB == "rows":
                expected = perturbed(expected)
            for row in expected:
                if doc_placeholder:
                    row = ["$DOC"] + row[1:]
                f.write("R\t%s\n" % "\t".join(row))
            if not trace:
                continue
            terms = []
            for _, _, trees in query["vars"]:
                for tree in trees:
                    contains_terms(tree, terms)
            for term in terms:
                f.write("T\t%s\n" % term)
            if query["proj"] == "meet":
                for doc in docs:
                    for index, (_, pattern, trees) in enumerate(query["vars"]):
                        nodes = reference.bind(doc, pattern, trees)
                        f.write("I\t%d\t%s\t%s\n" % (
                            index, doc.name, ",".join(map(str, nodes))))


def load_reference(paths):
    with REFERENCE:
        return [reference.load_xml_file(name, path) for name, path in paths]


# --- Workloads ----------------------------------------------------------------

def setup_serve(rng, work, trace):
    docs = []
    for name in SERVE_DOCS:
        journal = name.startswith("jour")
        docs.append((name, inputs.dblp_xml(
            rng, icde_per_year=0 if journal else 3,
            other_per_year=1 if journal else 6,
            journal_per_year=8 if journal else 1)))
    paths = write_docs(work, docs)
    ref = load_reference(paths)
    queries = inputs.serve_mix(rng, SERVE_DOCS)
    write_queries(os.path.join(work, "queries.tsv"), queries, ref)
    return paths


def setup_query(rng, work, trace):
    docs = [("media", inputs.multimedia_xml(rng, items=2500)),
            ("dblp", inputs.dblp_xml(rng, icde_per_year=30,
                                     other_per_year=80, journal_per_year=30))]
    paths = write_docs(work, docs)
    ref = load_reference(paths)
    # A round runs each Fig. 6 query twice back to back, then the
    # selective meets, then the Fig. 7 queries, in an order that does not
    # depend on the seed.  Two thirds of a round are search-bound, so the
    # median falls inside that class.  A seeded order would put a varying
    # number of Fig. 6 queries right after a Fig. 7 query, which leaves
    # the caches cold, and move the median between seeds.
    queries = (inputs.fig6_queries() * 2 + inputs.small_meets(rng, "*", 4)
               + inputs.fig7_queries())
    write_queries(os.path.join(work, "queries.tsv"), queries, ref, trace=trace)
    return paths


def setup_cold_open(rng, work, trace):
    names = ["bib%d" % i for i in range(COLD_OPEN_DOCS)]
    docs = [(name, inputs.dblp_xml(rng, icde_per_year=8, other_per_year=30,
                                   journal_per_year=10)) for name in names]
    paths = write_docs(work, docs)
    ref = load_reference(paths)
    queries = []
    for name in names:
        queries += inputs.small_meets(rng, name, 4)
    rng.shuffle(queries)
    write_queries(os.path.join(work, "queries.tsv"), queries, ref, names=names)
    return paths


def setup_ingest(rng, work, trace):
    pool = [("pool%d" % i, inputs.dblp_xml(rng, icde_per_year=10,
                                           other_per_year=60,
                                           journal_per_year=20))
            for i in range(INGEST_POOL)]
    pool_paths = write_docs(work, pool)
    ref = load_reference(pool_paths)
    queries = []
    with open(os.path.join(work, "pool.tsv"), "w") as f:
        for index, ((name, path), doc) in enumerate(zip(pool_paths, ref)):
            queries += inputs.small_meets(rng, name, 1)
            # The node count is the reference parser's, not the program's.
            with REFERENCE:
                nodes = doc.node_count() + (1 if PERTURB == "nodes" else 0)
            f.write("F\t%s\t%d\t%d\n" % (path, nodes, index))
    write_queries(os.path.join(work, "queries.tsv"), queries, ref,
                  doc_placeholder=True)
    # The initial catalog: load0..load<C-1> from the first pool files.
    with open(os.path.join(work, "docs.tsv"), "w") as f:
        for k in range(INGEST_CATALOG):
            f.write("D\tload%d\t%s\n" % (k, pool_paths[k % INGEST_POOL][1]))
    return pool_paths


SETUP = {"serve": setup_serve, "query": setup_query,
         "cold_open": setup_cold_open, "ingest": setup_ingest}


def run_workload(workload, seed, seconds, trace, started):
    """One workload; returns its result and the first problem the checks
    met (empty when there was none).  Set-up time runs from `started`
    until the program is ready for its first operation (image written,
    daemon started and warmed or catalog opened), less the reference
    evaluator's time; the checked warm-up operations after it are not
    set-up."""
    REFERENCE.seconds = 0.0
    rng = random.Random("%s:%d" % (workload, seed))
    children = Children()
    work = os.path.join(OUT_DIR, "run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    image = os.path.join(work, "store.mxm")
    queries = os.path.join(work, "queries.tsv")
    try:
        SETUP[workload](rng, work, trace)
        inputs_done = time.monotonic() - REFERENCE.seconds
        run_harness(children, "prep", {"docs": os.path.join(work, "docs.tsv"),
                                       "image": image})
        prep_done = time.monotonic() - REFERENCE.seconds
        ticks_before = machine_cpu_ticks()
        common = {"image": image, "queries": queries, "seconds": seconds,
                  "warmup": WARMUP_S[workload],
                  "tail-pct": TAIL_PCT[workload], "trace": int(trace)}
        usage = None
        if workload == "serve":
            daemon, port = start_daemon(children, image, work)
            try:
                raw = run_harness(children, "serve", dict(
                    common, port=port, pid=daemon.pid, clients=cpu_count()))
            finally:
                usage = children.stop(daemon)
        elif workload == "ingest":
            raw = run_harness(children, "ingest", dict(
                common, pool=os.path.join(work, "pool.tsv")))
        else:
            raw = run_harness(children, workload, common)
        image_mib = os.path.getsize(image) / (1024.0 * 1024.0)
        ticks_after = machine_cpu_ticks()
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    ready = raw["ready_mono"] - REFERENCE.seconds
    setup_s = ready - started
    steal = "unknown"
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = "%.1f %%" % (100.0 * (ticks_after[0] - ticks_before[0])
                             / (ticks_after[1] - ticks_before[1]))
    print("%s seed %d: %d ops, %d failed, %d wrong; throughput, p50 and "
          "CPU: best decile over %d windows; tail = p%g: best decile over "
          "%d groups of %d of %d samples; set-up %.3f s "
          "= inputs %.3f + prep %.3f + start %.3f (reference evaluation "
          "%.3f s more); machine CPU stolen by the host %s%s" % (
              workload, seed, raw["attempted"], raw["failed"],
              raw["mismatched"], raw["windows"], raw["latency_tail_pct"],
              raw["latency_groups"], raw["latency_group"],
              raw["latency_samples"], setup_s, inputs_done - started,
              prep_done - inputs_done, ready - prep_done, REFERENCE.seconds,
              steal,
              "; first problem: " + raw["first_problem"]
              if raw["first_problem"] else ""), flush=True)
    if trace:
        layers = dict(raw.get("layers", {}))
        if workload == "serve" and usage is not None and raw["attempted"]:
            layers["server.ctx_switches_per_op"] = (
                usage.ru_nvcsw + usage.ru_nivcsw) / raw["attempted"]
        missing = [name for name, _, _ in PER_LAYER if name not in layers]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        report = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
        with open(report, "w") as f:
            json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                       "not_exercised": missing}, f, indent=1, sort_keys=True)
    else:
        values = {"setup_s": setup_s, "ops_per_s": raw["ops_per_s"],
                  "latency_p50_us": raw["latency_p50_us"],
                  "latency_tail_us": raw["latency_tail_us"],
                  "cpu_us_per_op": raw["cpu_us_per_op"],
                  "peak_rss_mib": raw["peak_rss_mib"], "image_mib": image_mib}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    # No operation fails on these workloads, so an error reply counts
    # against correctness as a wrong answer does.
    result = {"correct": raw["mismatched"] == 0 and raw["failed"] == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    return result, raw["first_problem"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb",
                        choices=["rows", "names", "nodes", "error"],
                        help="corrupt one kind of expected answer (or, with "
                        "'error', one query, which the program then "
                        "rejects), to show that the checks catch it (the "
                        "run reports correct: false and exits 2)")
    args = parser.parse_args()
    global PERTURB
    PERTURB = args.perturb
    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    problems = []
    try:
        # The build is not part of set-up.
        started = T_START + build()
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            result, problem = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace), started)
            print(json.dumps(result), flush=True)
            if not result["correct"]:
                problems.append("%s: %s" % (workload, problem))
            started = time.monotonic()
    except (BenchError, Interrupted) as error:
        log("perfbench: %s" % error)
        return 1
    if problems:
        log("perfbench: an answer check failed; first problem on %s"
            % "; ".join(problems))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
