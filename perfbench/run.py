"""The vrg benchmark: three workloads, one client, a closed loop, every output checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {algebra,fiber,cli,all} --seed N \
        --seconds S --trace {0,1}

Each workload runs passes one after another until the next pass would end
after ``--seconds``; each pass sends its requests one at a time and waits for
each reply.  ``algebra`` and ``fiber`` passes run in a fresh worker process
(``worker.py``), ``cli`` passes start one ``vrg`` process per command.  The
seed fixes the request order of every pass and the fiber audit seed of each pass.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` untraced and traced passes alternate and the last line holds
the per-layer metrics of the traced passes (spans recorded by ``tracing.py``
around the calls into each vrg layer) plus the tracing overhead.  Above that
line a table gives every metric with its unit and sample count.  A request
fails when it raises, misses its deadline (the worker is then killed) or
gives an output that differs from the reference.

Host speed on a shared machine swings by tens of percent within seconds, so
this process calibrates right before and right after every timed interval,
while the benchmarked process is idle, and scales the interval's seconds by
the reference calibration time over the mean of the two: seconds at the
reference host speed.  Requests served by a worker are calibrated with a
fixed pure-Python loop (``compute_probe``); worker starts and cli processes,
which are mostly process start and imports and follow host speed less
closely, with a fixed stdlib-only process start (``start_probe``).  Neither
calibration imports vrg, so a change to vrg cannot move it; the unscaled
wall times are printed in the table as ``*_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from tracing import TARGETS, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REL = os.path.relpath(HERE, ROOT)

ALGEBRA_SPECS = ("sym3", "psum3", "B3", "D3", "B3psum", "mixedw", "sym3xA1")
FIBER_SAMPLES = (("sym2", 10), ("mixed", 10), ("powers", 10), ("cusp", 5), ("sym3", 5))
CLI_SPECS = ("sym2", "cusp", "mixed", "powers", "dihedral4")
CLI_JSON = os.path.join(REL, "out", "cli-sym2.json")


def _spec(name: str) -> str:
    return os.path.join(REL, "specs", f"{name}.json")


# (request id, vrg arguments); expected exit codes and stdout are in reference/cli.json
CLI_COMMANDS = tuple(
    (f"analyze-{name}", ("analyze", _spec(name))) for name in CLI_SPECS
) + (
    ("analyze-sym2-json", ("analyze", _spec("sym2"), "--json", CLI_JSON)),
    ("wellramified-mixed", ("wellramified", _spec("mixed"))),
    ("jacobian-dihedral4", ("jacobian", _spec("dihedral4"))),
    ("fiber-sym2", ("fiber", _spec("sym2"), "--u", "0,-1")),
)
# what the `vrg` console script runs
CLI_ENTRY = "import sys; from vrg.cli import main; sys.exit(main())"
# the same, plus one stderr line marking when vrg.cli is imported, on the
# monotonic clock the benchmark shares with its children
CLI_READY = "vrg-ready"
CLI_TIMED_ENTRY = (
    "import sys, time; from vrg.cli import main; "
    f"print('{CLI_READY}', repr(time.monotonic()), file=sys.stderr, flush=True); sys.exit(main())"
)

REQUEST_DEADLINE_S = 30.0  # the largest request took ~5 s when the benchmark was defined
READY_DEADLINE_S = 30.0
HARD_LIMIT_S = 170.0  # the whole run, deadlines included
SETUP_PROBES = 5  # extra worker starts per algebra or fiber run, for setup_s
CALIB_ROUNDS = 20_000
START_PROBE = "import fractions, json, decimal, email.parser"
# median calibration seconds on a 2-vCPU x86-64 host, python 3.11.7
COMPUTE_REF_S = 0.04  # 571 calls
START_REF_S = 0.07

# Every workload reports every one of these, as seconds at the reference host
# speed.  Stage times and request latency percentiles are printed in the table
# only: they follow single requests, which spread across seeds far more than
# a whole pass does.
END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYER_CALLS = (
    "groebner.groebner",
    "groebner.normal_form",
    "ideals.contract_prime",
    "ideals.subalgebra_membership",
    "factor.factor",
    "poly.compose",
    "poly.exact_div",
    "extension.validate",
    "fiber.fiber_count",
    "fiber.polyroots",
)
PER_LAYER = (
    tuple((f"{name}.self_s", "s") for name, *_ in TARGETS)
    + tuple((f"{name}.calls", "count") for name in LAYER_CALLS)
    + (
        ("groebner.groebner.basis_terms", "count"),
        ("factor.factor.factors_out", "count"),
        ("ideals.subalgebra_membership.hit_ratio", "ratio"),
        ("fiber.decided_ratio", "ratio"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    )
)


def compute_probe() -> float:
    """Seconds a fixed loop of Fraction, int and dict work takes now.

    vrg's own arithmetic is pure Python over Fractions, so this tracks how
    fast the host runs it at the moment."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIB_ROUNDS):
        q = Fraction(i % 89 + 1, i % 97 + 1)
        table[i % 251] = table.get(i % 251, 0) + q.numerator * q.denominator
    sorted(map(str, table.values()))
    return time.perf_counter() - t0


def start_probe() -> float:
    """Seconds a fresh python process that imports a few stdlib modules takes now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", START_PROBE], check=True)
    return time.perf_counter() - t0


class HostSpeed:
    """Scales an interval's seconds to the reference host speed, from two
    calibrations of one kind: one right before it, one right after."""

    def __init__(self, probe, ref_s):
        self.probe, self.ref_s = probe, ref_s
        self.readings: list[float] = []

    def before(self):
        self.readings.append(self.probe())

    def scale(self):
        """Calibrate again; the factor for the interval since the last
        reading, which then serves as the reading before the next one."""
        self.readings.append(self.probe())
        return self.ref_s / statistics.fmean(self.readings[-2:])


def child_env(seed):
    """Environment of every process the benchmark starts: the checkout's vrg
    sources, no VRG_* settings from the caller, string hashing fixed by the seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VRG_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


class Worker:
    """One worker process; ``ask`` returns None when the reply misses its deadline."""

    def __init__(self, run, spec_names, spans_path=None):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), ",".join(spec_names)]
        if spans_path:
            argv += ["--trace", spans_path]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=run.env, cwd=ROOT
        )
        self.buf = b""
        ready = self._reply(run.wait_s(READY_DEADLINE_S))
        self.setup_s = time.perf_counter() - t0
        if ready is None or not ready["vrg"].startswith(SRC + os.sep):
            self.kill()
            self.stop(0)
            raise RuntimeError(f"worker not ready: {ready}")

    def _reply(self, timeout):
        end = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, request, timeout):
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._reply(timeout)

    def stop(self, timeout):
        """Close stdin so the worker exits (writing its spans); kill it if late."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the worker is already gone
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()


class Pass:
    """The requests of one pass: latencies, stage times, failures, span files."""

    def __init__(self, traced):
        self.traced = traced
        # request name (spec or cli command) -> seconds
        self.latencies: dict[str, float] = {}  # at the reference host speed
        self.wall_latencies: dict[str, float] = {}
        self.stages: dict[str, float] = {}
        self.scales: dict[str, float] = {}  # request id or "setup" -> host-speed scale
        self.failures: list[str] = []
        self.spans_paths: list[str] = []
        self.attempted = 0
        self.elapsed_s = 0.0  # set-up and benchmark overhead included

    def add(self, name, latency, stages, scale):
        self.latencies[name] = latency * scale
        self.wall_latencies[name] = latency
        for key, value in stages.items():
            self.stages[key] = self.stages.get(key, 0.0) + value * scale


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(seed)
        self.start = time.monotonic()
        self.setups: list[float] = []  # at the reference host speed
        self.wall_setups: list[float] = []
        compute_probe()  # warm-up
        self.compute = HostSpeed(compute_probe, COMPUTE_REF_S)
        self.start_speed = HostSpeed(start_probe, START_REF_S)
        self.passes: list[Pass] = []
        self.processes = 0
        self.out_of_time = False
        self.env = child_env(seed)

    @property
    def attempted(self):
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self):
        return sum(len(p.failures) for p in self.passes)

    def add_setup(self, seconds, scale):
        self.setups.append(seconds * scale)
        self.wall_setups.append(seconds)

    def wait_s(self, deadline):
        return max(0.0, min(deadline, self.start + HARD_LIMIT_S - time.monotonic()))

    def spans_path(self, p: Pass):
        path = os.path.join(OUT, f"spans-{len(self.passes)}-{len(p.spans_paths)}.json")
        p.spans_paths.append(path)
        return path

    # -- in-process workloads ---------------------------------------------

    def serve(self, p: Pass, spec_names, requests):
        """Send the requests to fresh workers, one at a time; a late or dead
        worker is killed and the rest of the pass goes to a new one."""
        pending = list(requests)
        while pending:
            self.processes += 1
            self.start_speed.before()
            try:
                worker = Worker(self, spec_names, self.spans_path(p) if p.traced else None)
            except RuntimeError as exc:
                p.attempted += len(pending)
                p.failures += [f"{r['id']}: {exc}" for r in pending]
                self.out_of_time = self.wait_s(1.0) == 0
                return
            p.scales["setup"] = self.start_speed.scale()
            self.add_setup(worker.setup_s, p.scales["setup"])
            self.compute.before()
            try:
                while pending:
                    req = pending.pop(0)
                    p.attempted += 1
                    t0 = time.perf_counter()
                    reply = worker.ask(req, self.wait_s(REQUEST_DEADLINE_S))
                    latency = time.perf_counter() - t0
                    scale = p.scales[req["id"]] = self.compute.scale()
                    if reply is None:
                        p.failures.append(f"{req['id']}: no reply after {latency:.1f} s")
                        worker.kill()
                        self.out_of_time = self.wait_s(1.0) == 0
                        if self.out_of_time:
                            p.attempted += len(pending)
                            p.failures += [f"{r['id']}: run out of time" for r in pending]
                            return
                        break
                    if reply["problems"]:
                        p.failures.append(f"{req['id']}: {'; '.join(reply['problems'])}")
                    else:
                        p.add(req["spec"], latency, reply["times"], scale)
            finally:
                worker.stop(self.wait_s(READY_DEADLINE_S))

    def algebra_pass(self, p: Pass):
        order = self.rng.sample(ALGEBRA_SPECS, len(ALGEBRA_SPECS))
        requests = [
            {
                "id": f"p{len(self.passes)}.{name}",
                "op": "algebra",
                "spec": name,
                "report_path": os.path.join(OUT, f"report-{name}.json"),
            }
            for name in order
        ]
        self.serve(p, ALGEBRA_SPECS, requests)

    def fiber_pass(self, p: Pass):
        order = self.rng.sample(FIBER_SAMPLES, len(FIBER_SAMPLES))
        # each pass audits other sample points, so that a run's median pass
        # does not hang on how costly one seed's few samples happen to be
        audit_seed = self.rng.randrange(2**31)
        requests = [
            {
                "id": f"p{len(self.passes)}.{name}",
                "op": "fiber",
                "spec": name,
                "samples": samples,
                "seed": audit_seed,
            }
            for name, samples in order
        ]
        self.serve(p, [name for name, _ in FIBER_SAMPLES], requests)

    # -- cold processes ---------------------------------------------------

    def cli_pass(self, p: Pass):
        with open(os.path.join(HERE, "reference", "cli.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        self.start_speed.before()
        for cid, args in self.rng.sample(CLI_COMMANDS, len(CLI_COMMANDS)):
            rid = f"p{len(self.passes)}.{cid}"
            if p.traced:
                argv = [sys.executable, os.path.join(HERE, "cli_child.py"), self.spans_path(p), rid]
            else:
                argv = [sys.executable, "-c", CLI_TIMED_ENTRY]
            p.attempted += 1
            self.processes += 1
            spawned = time.monotonic()
            t0 = time.perf_counter()
            try:
                done = subprocess.run(
                    argv + list(args),
                    capture_output=True,
                    text=True,
                    env=self.env,
                    cwd=ROOT,
                    timeout=self.wait_s(REQUEST_DEADLINE_S),
                )
            except subprocess.TimeoutExpired:
                p.failures.append(f"{rid}: no exit after {time.perf_counter() - t0:.1f} s")
                self.out_of_time = self.wait_s(1.0) == 0
                if self.out_of_time:
                    return
                self.start_speed.before()
                continue
            latency = time.perf_counter() - t0
            scale = p.scales[rid] = self.start_speed.scale()
            problems = check_cli(done, reference[cid])
            ready = cli_ready(done.stderr)
            if ready is None:
                problems.append("no ready line on stderr")
            if problems:
                p.failures.append(f"{rid}: {'; '.join(problems)}")
            else:
                p.add(cid, latency, {"analyze_s": latency} if args[0] == "analyze" else {}, scale)
                self.add_setup(ready - spawned, scale)

    def setup_probe(self, spec_names):
        """One more worker start-to-ready for setup_s; the worker serves nothing."""
        self.processes += 1
        self.start_speed.before()
        try:
            worker = Worker(self, spec_names)
        except RuntimeError:
            return  # the passes' workers fail the same way, and count it
        self.add_setup(worker.setup_s, self.start_speed.scale())
        worker.stop(self.wait_s(READY_DEADLINE_S))

    # -- the loop ---------------------------------------------------------

    def execute(self):
        do_pass = {"algebra": self.algebra_pass, "fiber": self.fiber_pass, "cli": self.cli_pass}
        probe_specs = {"algebra": ALGEBRA_SPECS, "fiber": [name for name, _ in FIBER_SAMPLES]}
        if self.workload in probe_specs and not self.trace:
            for _ in range(SETUP_PROBES):
                self.setup_probe(probe_specs[self.workload])
        end = self.start + self.seconds
        while not self.out_of_time:
            traced = self.trace and len(self.passes) % 2 == 1
            same = [q.elapsed_s for q in self.passes if q.traced == traced]
            if same and time.monotonic() + statistics.median(same) > end:
                break
            p = Pass(traced)
            t0 = time.monotonic()
            do_pass[self.workload](p)
            p.elapsed_s = time.monotonic() - t0
            self.passes.append(p)


def cli_ready(stderr: str) -> float | None:
    """The monotonic time at which a ``vrg`` process had imported vrg.cli."""
    for line in stderr.splitlines():
        if line.startswith(CLI_READY + " "):
            return float(line.split()[1])
    return None


def check_cli(done, ref) -> list[str]:
    problems = []
    if done.returncode != ref["exit"]:
        problems.append(f"exit code {done.returncode}, expected {ref['exit']}")
    if done.stdout != ref["stdout"]:
        problems.append("stdout differs from the reference")
    if ref.get("report") is not None:
        try:
            with open(os.path.join(ROOT, CLI_JSON), encoding="utf-8") as fh:
                if fh.read() != ref["report"]:
                    problems.append("JSON report differs from the reference")
        except OSError as exc:
            problems.append(f"JSON report unreadable: {exc}")
        else:
            os.remove(os.path.join(ROOT, CLI_JSON))
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def typical_pass(passes, wall=False):
    """Each request's median seconds over the passes, summed over one pass's
    requests: a pass at typical speed, which a host stall during one request
    of one pass does not move."""
    if not passes:
        return 0.0
    per = [p.wall_latencies if wall else p.latencies for p in passes]
    return sum(_median([times[name] for times in per]) for name in per[0])


def end_to_end(run: Run):
    """Metric -> (value, sample count); also the table-only metrics."""
    good = [p for p in run.passes if not p.failures]
    latencies = [t for p in good for t in p.latencies.values()]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "pass_s": (typical_pass(good), len(good)),
        "setup_s": (_median(run.setups), len(run.setups)),
        "peak_rss_mb": (peak_kb / 1024, run.processes),
    }
    extra = {
        "pass_wall_s": (typical_pass(good, wall=True), len(good), "s"),
        "setup_wall_s": (_median(run.wall_setups), len(run.wall_setups), "s"),
    }
    for name, speed in (("compute_probe_s", run.compute), ("start_probe_s", run.start_speed)):
        if speed.readings:
            extra[name] = (_median(speed.readings), len(speed.readings), "s")
    for stage in ("analyze_s", "verify_s", "audit_s"):
        if any(stage in p.stages for p in good):
            extra[stage] = (_median([p.stages.get(stage, 0.0) for p in good]), len(good), "s")
    request = "cli" if run.workload == "cli" else "request"
    extra[f"{request}_p50_s"] = (_median(latencies), len(latencies), "s")
    extra[f"{request}_p90_s"] = (_p90(latencies), len(latencies), "s")
    return metrics, extra


def _load_spans(p: Pass):
    """The span files of one pass, each removed once read."""
    loaded = []
    for path in p.spans_paths:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
            os.remove(path)
        except (OSError, ValueError):
            continue  # a killed process writes no spans; its request already failed
    return loaded


def _layers_of_pass(p: Pass, files):
    """Layer metrics of one traced pass, times at the reference host speed."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for data in files:
        t, c = self_times(data["spans"], lambda request: p.scales.get(request, 1.0))
        for name, value in t.items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in c.items():
            calls[name] = calls.get(name, 0) + value
        for name, value in data["counts"].items():
            if name == "cli.import_s":
                value *= p.scales.get(data["request"], 1.0)
            counts[name] = counts.get(name, 0) + value
    out = {f"{name}.self_s": totals.get(name, 0.0) for name, *_ in TARGETS}
    out.update({f"{name}.calls": calls.get(name, 0) for name in LAYER_CALLS})
    member_calls = calls.get("ideals.subalgebra_membership", 0)
    samples = calls.get("fiber.fiber_count", 0)
    out["groebner.groebner.basis_terms"] = counts.get("groebner.groebner.basis_terms", 0)
    out["factor.factor.factors_out"] = counts.get("factor.factor.factors_out", 0)
    out["ideals.subalgebra_membership.hit_ratio"] = (
        counts.get("ideals.subalgebra_membership.hits", 0) / member_calls if member_calls else 0.0
    )
    out["fiber.decided_ratio"] = (
        counts.get("fiber.fiber_count.decided", 0) / samples if samples else 0.0
    )
    out["cli.import_s"] = counts.get("cli.import_s", 0.0)
    return out


def per_layer(run: Run):
    """Per-layer metrics of the traced passes; writes all their spans to one file."""
    spans = {id(p): _load_spans(p) for p in run.passes if p.traced}
    traced = [p for p in run.passes if p.traced and not p.failures]
    plain = [p for p in run.passes if not p.traced and not p.failures]
    layers = [_layers_of_pass(p, spans[id(p)]) for p in traced]
    metrics = {
        name: (_median([layer[name] for layer in layers]), len(layers))
        for name, _ in PER_LAYER
        if not name.startswith("trace.")
    }
    plain_s = typical_pass(plain)
    overhead = typical_pass(traced) - plain_s if traced and plain else 0.0
    pairs = min(len(traced), len(plain))
    metrics["trace.overhead_s"] = (overhead, pairs)
    metrics["trace.overhead_frac"] = (overhead / plain_s if plain_s else 0.0, pairs)
    target = os.path.join(OUT, f"trace-{run.workload}-seed{run.seed}.json")
    with open(target, "w", encoding="utf-8") as fh:
        fields = ["name", "start", "end", "parent", "request"]
        json.dump({"span_fields": fields, "processes": [f for p in traced for f in spans[id(p)]]}, fh)
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_table(run: Run, rows, pass_s):
    print(
        f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  passes {len(run.passes)}"
        f"  python {sys.version.split()[0]}  nproc {os.cpu_count()}"
    )
    for p in run.passes:
        for failure in p.failures:
            print(f"  FAILED {failure}")
    print(f"  {'metric':42} {'value':>12} {'unit':6} {'samples':>7} {'share':>6}")
    for name, (value, samples, unit) in rows.items():
        share = ""
        if pass_s and name.endswith(("self_s", "import_s")):
            share = f"{value / pass_s:6.1%}"
        print(f"  {name:42} {value:12.6g} {unit:6} {samples:7d} {share:>6}")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_frac':42} {frac:12.6g} {'ratio':6} {run.attempted:7d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("algebra", "fiber", "cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vrg", "__init__.py")):
        print(f"error: no vrg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in ("algebra", "fiber", "cli"):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status

    # The benchmark and every process it starts share one CPU, so each
    # calibration measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()

    if run.trace:
        metrics = per_layer(run)
        units = dict(PER_LAYER)
        pass_s = typical_pass([p for p in run.passes if p.traced and not p.failures])
        rows = {name: (v, n, units[name]) for name, (v, n) in metrics.items()}
    else:
        metrics, extra = end_to_end(run)
        units = dict(END_TO_END)
        pass_s = 0.0
        rows = {name: (v, n, units[name]) for name, (v, n) in metrics.items()}
        rows.update(extra)
    _print_table(run, rows, pass_s)

    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
