"""techsub benchmark: one closed-loop client, no threads.

    python3 perfbench/run.py --workload {cli,logistic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; it times the code under ``src/`` there
and refuses to run if ``import techsub`` resolves anywhere else.

Workloads (why each exists is in BENCHMARK.json):
  cli       one fresh interpreter per command, cycling simulate,
            fit-killer --plot, fisher-pry --plot and waves;
  logistic  logistic_fit on seeded rising series at three growth
            stages, with one command of the mix through
            techsub.cli.main in this process after every three fits.

Every operation's output is checked by oracle.py. Operations run in
whole cycles of the mix, so each run holds the same mix; the last cycle
may end after --seconds. Timings are reported at a reference CPU speed,
measured by a probe around each operation (speed.py, LAYERS.md).

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with every public techsub function wrapped (tracer.py)
and prints the per-layer metrics and the tracing overhead. The last
stdout line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import inputs
import metrics
import speed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"
KINDS = ("simulate", "fit-killer", "fisher-pry", "waves")
CYCLE = (("simulate", 0), ("fit-killer", 0), ("fit-killer", 1), ("fisher-pry", 0), ("waves", 0))
SETUP_REPEATS = 4
IMPORT_PROBES = 3
POOL = {"cli": 8, "logistic": 16}
LOGISTIC_POOL = 240


class BenchError(Exception):
    pass


def checks():
    """oracle.py, imported on first use: it loads numpy and scipy.stats,
    which timed set-up must not, so that set-up loads only what techsub
    itself imports."""
    import oracle

    return oracle


def child_env(**extra) -> dict:
    """Environment for fresh interpreters: as inherited, except that they
    may write bytecode caches, as an installed techsub would have them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(extra)
    return env


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    """One timed operation: a techsub command (argv) or a logistic fit of
    series; check() returns the oracle's problems with the output."""

    kind: str
    check: Callable[[], list]
    argv: list | None = None
    outputs: tuple = ()
    series: object = None
    result: object = None


@dataclass
class Record:
    """One executed operation: times as measured, the oracle's problems,
    and the factor that brings its times to the reference speed."""

    kind: str
    wall_ns: int
    cpu_ns: int
    rss_kb: int
    problems: list
    scale: float = 1.0

    @property
    def wall_ms(self) -> float:
        return self.wall_ns * self.scale / 1e6


class CommandMix:
    """Seeded pools of command inputs and the cycle that draws from them."""

    def __init__(self, seed: int, directory: Path, size: int):
        directory.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.killer = [inputs.killer_case(rng, directory, f"fk{i}") for i in range(size)]
        self.shares = [inputs.shares_case(rng, directory, f"fp{i}") for i in range(size)]
        self.waves = [inputs.waves_case(rng, directory, f"wv{i}") for i in range(size)]
        self.sims = [inputs.simulate_case(rng, directory, f"sm{i}") for i in range(size)]
        out = directory / "out"
        out.mkdir(exist_ok=True)
        self.report, self.svg = out / "report.json", out / "plot.svg"
        self.k_out, self.v_out = out / "killer.csv", out / "victim.csv"

    def op(self, kind: str, cycle: int, slot: int = 0) -> Op:
        size = len(self.killer)
        if kind == "simulate":
            case = self.sims[cycle % size]
            argv = ["simulate", str(case.params_json),
                    "--killer-out", str(self.k_out), "--victim-out", str(self.v_out)]
            return Op(kind, lambda: checks().check_simulate(case, self.k_out, self.v_out),
                      argv, (self.k_out, self.v_out))
        if kind == "fit-killer":
            index = (2 * cycle + slot) % size
            case = self.killer[index]
            tolerance = "ttest" if slot == 0 else f"abs:{(0.05, 0.1, 0.2)[index % 3]}"
            argv = ["fit-killer", str(case.killer_csv), str(case.victim_csv),
                    "--plot", str(self.svg), "--regime-tolerance", tolerance,
                    "--output", str(self.report)]
            if case.period:
                argv += ["--period", f"{case.period[0]}:{case.period[1]}"]
            return Op(kind, lambda: checks().check_fit_killer(
                case, tolerance, checks().load_report(self.report),
                self.svg.read_text(encoding="utf-8")), argv, (self.report, self.svg))
        if kind == "fisher-pry":
            case = self.shares[cycle % size]
            argv = ["fisher-pry", str(case.shares_csv), "--plot", str(self.svg),
                    "--output", str(self.report)]
            return Op(kind, lambda: checks().check_fisher_pry(
                case, checks().load_report(self.report),
                self.svg.read_text(encoding="utf-8")), argv, (self.report, self.svg))
        case = self.waves[cycle % size]
        argv = ["waves", str(case.manifest), "--output", str(self.report)]
        return Op(kind, lambda: checks().check_waves(case, checks().load_report(self.report)),
                  argv, (self.report,))

    def cycle(self, cycle: int) -> list:
        """simulate, fit-killer with ttest then abs:X, fisher-pry, waves.
        Two of five are fit-killer, the paper's main analysis; it also puts
        the mix's median inside one command's latencies, not between two."""
        return [self.op(kind, cycle, slot) for kind, slot in CYCLE]


# ------------------------------------------------------------------- runners


class SubprocessRunner:
    """Each command in a fresh interpreter; CPU and peak RSS of the child."""

    def __init__(self, work: Path):
        self.log = work / "child.log"
        self.trace_out = work / "trace.json"
        self.traces = []

    def run(self, op: Op, traced: bool):
        cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
        cmd += [str(CHILD), str(SRC), str(self.trace_out) if traced else "-"] + op.argv
        with open(self.log, "wb") as log:
            start = time.perf_counter_ns()
            env = child_env(BENCH_SPAWN_NS=str(time.monotonic_ns()))
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if traced and proc.returncode == 0:
            summary = json.loads(self.trace_out.read_text(encoding="utf-8"))
            summary["imports"] = tracing.parse_importtime(self.log.read_text(encoding="utf-8"))
            self.traces.append(summary)
        cpu = int((usage.ru_utime + usage.ru_stime) * 1e9)
        return proc.returncode, wall, cpu, usage.ru_maxrss


class InProcessRunner:
    """Commands through techsub.cli.main after one import; fits direct."""

    def __init__(self):
        self.cli = import_techsub().cli
        self.estimation = sys.modules["techsub.estimation"]
        self.sink = io.StringIO()
        self.tracer = None

    def run(self, op: Op, traced: bool):
        self.sink.seek(0)
        self.sink.truncate()
        if self.tracer is not None:
            self.tracer.op += 1
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            try:
                if op.kind == "logistic":
                    op.result = self.estimation.logistic_fit(op.series)
                    code = 0
                else:
                    code = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception:  # a raising operation counts as failed
                code = traceback.format_exc()
            wall, cpu = time.perf_counter_ns() - start, time.process_time_ns() - cpu0
        return code, wall, cpu, 0


def import_techsub():
    sys.path.insert(0, str(SRC))
    import techsub
    import techsub.cli  # noqa: F401

    return techsub


def check_techsub_file(path: str) -> str:
    """Refuse to time any techsub but the one under this checkout's src/."""
    got = Path(path.strip()).resolve()
    if got != (SRC / "techsub" / "__init__.py").resolve():
        raise BenchError(f"techsub resolved to {got}, not this checkout's {SRC}")
    return str(got)


# ----------------------------------------------------------------- workloads


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.primary = ("logistic",) if name == "logistic" else KINDS

    def setup(self, check: bool = True) -> None:
        """Generate inputs, import, and warm up (not counted). The warm-up
        outputs are checked unless check is False, as in timed set-up."""
        self.mix = CommandMix(self.seed, self.work / "inputs", POOL[self.name])
        if self.name == "cli":
            self.runner = SubprocessRunner(self.work)
            warm = subprocess.run([sys.executable, str(CHILD), str(SRC), "-"],
                                  capture_output=True, text=True, env=child_env(), cwd=ROOT)
            if warm.returncode != 0:
                raise BenchError(f"import in a fresh interpreter failed: {warm.stderr}")
            self.techsub_file = check_techsub_file(warm.stdout)
        else:
            self.runner = InProcessRunner()
            self.techsub_file = check_techsub_file(sys.modules["techsub"].__file__)
        if self.name == "logistic":
            TimeSeries = sys.modules["techsub.ingest"].TimeSeries
            rng = random.Random(self.seed)
            self.fits = []
            for i in range(LOGISTIC_POOL):
                case = inputs.logistic_case(rng, inputs.STAGES[i % 3])
                series = TimeSeries("sim", "", tuple(zip(case.years, case.values)))
                self.fits.append((case, series))
        warm_ops = self.mix.cycle(0) if self.name != "cli" else []
        if self.name == "logistic":
            warm_ops += self.cycle(0)
        for op in warm_ops:
            problems = self.execute(op, check=check).problems
            if problems:
                raise BenchError(f"warm-up {op.kind} failed: {problems}")

    def cycle(self, j: int) -> list:
        if self.name != "logistic":
            return self.mix.cycle(j)
        ops = []
        for index in ((3 * j + s) % LOGISTIC_POOL for s in range(3)):
            case, series = self.fits[index]
            op = Op("logistic", None, series=series)
            op.check = lambda op=op, case=case: checks().check_logistic(case, op.result)
            ops.append(op)
        kind, slot = CYCLE[j % len(CYCLE)]
        return ops + [self.mix.op(kind, j // len(CYCLE), slot)]

    def execute(self, op: Op, traced: bool = False, check: bool = True):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        code, wall, cpu, rss = self.runner.run(op, traced)
        try:
            if code == 0:
                problems = op.check() if check else []
            else:
                problems = [code if isinstance(code, str) else f"exit code {code}"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return Record(op.kind, wall, cpu, rss, problems)

    def measure(self, seconds: float, traced: bool = False, timed_setup=None) -> tuple:
        """Closed loop over whole cycles until `seconds` have passed.

        The loop runs pinned to one CPU (children inherit the pin), so
        that each speed probe runs where the operation next to it runs.
        A probe runs before the first operation and after each one; each
        record's scale comes from the probes on either side. With
        timed_setup, it is called SETUP_REPEATS times, spread evenly over
        the run, each between two probes; the time they take is not
        counted in `seconds`. Returns the records and the set-up times as
        (seconds, scale) pairs."""
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
        records, setups = [], []
        start, paused = time.monotonic(), 0.0
        j = 0
        try:
            before = speed.probe_ns()
            while (elapsed := time.monotonic() - start - paused) < seconds:
                if timed_setup and len(setups) < SETUP_REPEATS \
                        and elapsed >= len(setups) * seconds / SETUP_REPEATS:
                    begin = time.monotonic()
                    took = timed_setup()
                    after = speed.probe_ns()
                    setups.append((took, speed.scale(before, after)))
                    before = after
                    paused += time.monotonic() - begin
                    continue
                for op in self.cycle(j):
                    record = self.execute(op, traced)
                    after = speed.probe_ns()
                    record.scale = speed.scale(before, after)
                    before = after
                    records.append(record)
                j += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return records, setups


# ------------------------------------------------------------------- metrics


def end_to_end(workload: Workload, records: list, setups: list) -> tuple[dict, dict]:
    """Metrics as {name: (value, unit)}, at the reference speed, and notes
    for the printed table, with the figures as measured."""
    primary = [r for r in records if r.kind in workload.primary]
    walls_ms = [r.wall_ms for r in primary]
    pct, tail = metrics.tail_percentile(walls_ms)
    if workload.name == "cli":
        peak_kb = max(r.rss_kb for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(took * scale for took, scale in setups), "s"),
        "ops_per_s": (len(primary) / (sum(walls_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(walls_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "cpu_ms_per_op": (statistics.fmean(r.cpu_ns * r.scale for r in primary) / 1e6, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    for kind in KINDS:
        kind_ms = [r.wall_ms for r in records if r.kind == kind]
        values[f"{kind.replace('-', '_')}_p50_ms"] = (statistics.median(kind_ms), "ms")
    measured_ms = [r.wall_ns / 1e6 for r in primary]
    notes = {
        "latency_tail_percentile": round(pct, 3),
        "primary_ops": len(primary),
        "host_slowdown": statistics.median(1.0 / r.scale for r in records),
        "measured_setup_s": statistics.median(took for took, _ in setups),
        "measured_latency_p50_ms": statistics.median(measured_ms),
        "measured_latency_tail_ms": metrics.tail_percentile(measured_ms)[1],
    }
    return values, notes


def import_probe(work: Path) -> dict:
    """Start a fresh interpreter with -X importtime that imports techsub."""
    out = work / "import-probe.json"
    log = work / "import-probe.log"
    env = child_env(BENCH_SPAWN_NS=str(time.monotonic_ns()))
    with open(log, "wb") as fh:
        done = subprocess.run([sys.executable, "-X", "importtime", str(CHILD), str(SRC),
                               str(out)], stderr=fh, env=env, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"import probe exited {done.returncode}")
    summary = json.loads(out.read_text(encoding="utf-8"))
    summary["imports"] = tracing.parse_importtime(log.read_text(encoding="utf-8"))
    return summary


def per_layer(base: list, traced: list, summary: dict, starts: list) -> tuple[dict, dict]:
    """Per-layer metrics from the traced half's spans and the fresh
    interpreters' start-up and -X importtime figures."""
    n = len(traced)
    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.calls_per_op"] = (summary["calls"][layer] / n, "count")
        values[f"{layer}.self_us_per_op"] = (summary["self_ns"][layer] / 1e3 / n, "us")

    def median_of(key):
        return statistics.median(s["imports"][key] for s in starts)

    values["interp.startup_ms"] = (statistics.median(s["startup_ns"] for s in starts) / 1e6, "ms")
    values["import.total_ms"] = (median_of("total_us") / 1e3, "ms")
    values["import.numpy_ms"] = (median_of("numpy_us") / 1e3, "ms")
    values["import.scipy_ms"] = (median_of("scipy_us") / 1e3, "ms")
    values["import.modules"] = (median_of("modules"), "count")
    for name in tracing.TIMED_CALLS:
        calls = summary["per_call_ns"][name]
        per_call = statistics.median(calls) if calls else 0.0
        if name == "estimation.logistic_fit":
            values[f"{name}.ms_per_call"] = (per_call / 1e6, "ms")
        else:
            values[f"{name}.us_per_call"] = (per_call / 1e3, "us")
    values["ingest.bytes_read_per_op"] = (summary["bytes_read"].get("ingest", 0) / n, "B")
    values["reporting.bytes_written_per_op"] = (summary["bytes_written"] / n, "B")
    m = min(len(base), n)
    overhead = sum(r.wall_ns for r in traced[:m]) / sum(r.wall_ns for r in base[:m]) - 1.0
    values["trace_overhead_frac"] = (overhead, "frac")
    return values, {"traced_ops": n, "untraced_ops": len(base)}


# ---------------------------------------------------------------- provenance


def provenance(args, techsub_file: str) -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "techsub_file": techsub_file,
    }


# ---------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "logistic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (used to time set-up)")
    return parser.parse_args(argv)


def timed_setup(args) -> float:
    """Wall time of the whole set-up in a fresh interpreter: start,
    imports, input generation and an unchecked warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"set-up failed: {done.stderr.strip()}")
    return elapsed


def report_lines(values: dict, notes: dict) -> None:
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    for name, value in notes.items():
        print(f"  {name:40s} {value}")


def run(args, work: Path) -> dict:
    workload = Workload(args.workload, args.seed, work)
    if args.setup_only:
        workload.setup(check=False)
        return {}
    workload.setup()
    print("provenance " + json.dumps(provenance(args, workload.techsub_file)))
    if args.trace == 0:
        records, setups = workload.measure(args.seconds, timed_setup=lambda: timed_setup(args))
        values, notes = end_to_end(workload, records, setups)
    else:
        base = workload.measure(args.seconds / 2)[0]
        if workload.name == "cli":
            traced = workload.measure(args.seconds / 2, traced=True)[0]
            starts = workload.runner.traces
            if not starts:
                raise BenchError("no traced command completed")
            summary = tracing.merge(starts)
        else:
            trace = workload.runner.tracer = tracing.Tracer()
            trace.install(sys.modules["techsub"])
            try:
                traced = workload.measure(args.seconds / 2)[0]
            finally:
                trace.uninstall()
            summary = trace.summary()
            starts = [import_probe(work) for _ in range(IMPORT_PROBES)]
        records = base + traced
        values, notes = per_layer(base, traced, summary, starts)
    failed = sum(1 for r in records if r.problems)
    for r in records:
        if r.problems:
            print(f"FAILED {r.kind}: {'; '.join(r.problems)}")
            break
    notes["failed_frac"] = failed / len(records)
    report_lines(values, notes)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "techsub" / "__init__.py").is_file():
        print(f"run.py: no techsub sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
