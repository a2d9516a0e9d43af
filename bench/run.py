"""Benchmark of bigjump: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload oracle-fft --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from a checkout of the repository; bigjump is imported from ``src/``.
Every timed unit runs in a fresh interpreter (``bench/worker.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Spans, provenance and per-op details go to side files under
``.bench_out/``.  ``bench/NOTES.md`` explains the workloads and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MISSING_TARGET_EXIT, summarize
from worker import Ops, intersects, reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
# A run must end within 180 s: subprocesses still running at this deadline
# are killed and the run fails without a result.
DEADLINE_S = 165.0
SUITE = "series,calibration,a_tail,second_scale_decay,repro_probe"
CLI_COMMANDS = ("simulate", "attribute", "oracle", "predict", "verify")
ARTIFACTS = ("simulate.csv", "attribution.csv", "oracle.csv", "predict.csv", "verify_report.json")
ORACLE_ROWS_XS = (64, 256, 1024)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@dataclass(frozen=True)
class Sizes:
    setup_probes: int = 6
    cutoff: int = 1 << 14
    chain_samples: int = 2000
    cluster_samples: int = 1000
    sampling_ops: int = 60
    memory_ops: int = 3
    cli_samples: int = 5000
    cli_x: int = 100
    cli_cutoff: int = 4096


FULL = Sizes()
SMOKE = Sizes(
    setup_probes=2, cutoff=1024, chain_samples=200, cluster_samples=100,
    sampling_ops=3, memory_ops=1, cli_samples=300, cli_x=10, cli_cutoff=256,
)


class RunFailed(RuntimeError):
    """A subprocess failed or overran the deadline; no result is printed."""


class Run:
    """State of one benchmark run: output directory, deadline, op tally."""

    def __init__(self, seed: int, seconds: float, trace: bool, sizes: Sizes, out: Path):
        self.seed, self.seconds, self.trace, self.sizes, self.out = seed, seconds, trace, sizes, out
        self.deadline = time.monotonic() + DEADLINE_S
        self.ops = Ops()
        self.setup: list = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, args: list, log: Path) -> tuple:
        """Run ``worker.py args`` to completion: (exit code, wall s, peak RSS MB)."""
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), *map(str, args)],
                cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise RunFailed(f"deadline of {DEADLINE_S:.0f} s passed during {args[:1]}; see {log}")
        if code == MISSING_TARGET_EXIT:
            raise RunFailed(f"tracer could not install: {tail(log, 3)}")
        return code, wall, usage.ru_maxrss / 1024.0

    def probe_setup(self, count: int) -> None:
        """Time ``count`` fresh interpreters that only set up."""
        for _ in range(count):
            log = self.out / f"setup{len(self.setup)}.log"
            code, wall, _ = self.spawn(["setup"], log)
            if code != 0:
                raise RunFailed(f"setup exited {code}: {tail(log)}")
            self.setup.append(wall)

    def worker(self, mode: str, tag: str, *args) -> dict:
        """Run one worker mode into its own directory and load its result."""
        out = self.out / tag
        out.mkdir(parents=True)
        code, wall, rss = self.spawn([mode, "--out", out, *args], out / "log.txt")
        if code != 0:
            raise RunFailed(f"{mode} worker exited {code}: {tail(out / 'log.txt')}")
        result = json.loads((out / "result.json").read_text())
        result["wall_s"], result["peak_rss_mb"] = wall, rss
        spans = out / "spans.json"
        result["spans"] = json.loads(spans.read_text())["spans"] if spans.exists() else []
        return result


def tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text().splitlines()[-lines:])


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics from span summaries plus counts the workload made."""
    own, calls, total = summary["self"], summary["calls"], summary["total"]
    metrics = {}
    for name in (
        "model.calibrate", "model.law_B", "model.extinction_table",
        "oracle.stationary_pmf", "oracle.generation_term", "oracle.dn_pmf",
        "oracle.compound", "oracle.convolve", "oracle.conv_kernel",
        "sampler.run_chain", "sampler.sample_clusters",
        "stats.ks_two_sample", "stats.empirical_survival", "stats.attribution_summary",
        "asymptotics.prediction_table",
    ):
        metrics[f"{name}_s"] = own.get(name, 0.0)
    for name in ("compound", "convolve", "conv_kernel"):
        metrics[f"oracle.{name}_calls"] = calls.get(f"oracle.{name}", 0)
    # One generation_term per stationary iteration.
    metrics["oracle.depth"] = calls.get("oracle.generation_term", 0)
    chain_s, cluster_s = total.get("sampler.run_chain", 0.0), total.get("sampler.sample_clusters", 0.0)
    metrics["sampler.chain_steps_per_s"] = counts.get("chain_steps", 0) / chain_s if chain_s else 0.0
    metrics["sampler.cluster_samples_per_s"] = counts.get("cluster_samples", 0) / cluster_s if cluster_s else 0.0
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = total.get(f"cli.{command}", 0.0)
    for check_id in SUITE.split(","):
        metrics[f"cli.check.{check_id}_s"] = summary["check_total"].get(f"cli.check.{check_id}", 0.0)
    # Command spans minus everything they call: formatting, writing, parsing.
    metrics["cli.self_s"] = sum(own.get(f"cli.{command}", 0.0) for command in CLI_COMMANDS)
    for key in ("oracle.overflow", "sampler.cap_events", "sampler.cluster_value_sum", "cli.artifact_bytes"):
        metrics[key] = counts.get(key, 0)
    metrics["process.peak_rss_mb"] = counts["process_peak_rss_mb"]
    metrics["trace.solve_s"] = counts["traced_solve_s"]
    metrics["trace.untraced_solve_s"] = counts["untraced_solve_s"]
    metrics["trace.overhead_s"] = counts["traced_solve_s"] - counts["untraced_solve_s"]
    metrics["trace.unattributed_s"] = counts["unattributed_s"]
    return metrics


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def oracle_fft(run: Run) -> dict:
    """Cold ``stationary_pmf`` in a fresh process per timed unit."""
    args = ("--cutoff", run.sizes.cutoff)
    if run.trace:
        plain = run.worker("oracle-fft", "untraced", *args)
        traced = run.worker("oracle-fft", "traced", "--trace", 1, *args)
        for result in (plain, traced):
            run.ops.merge(result["ops"])
        run.ops.check("traced brackets equal untraced", plain["brackets"] == traced["brackets"])
        summary = summarize([traced["spans"]])
        return layer_metrics(summary, {
            "oracle.overflow": traced["overflow"],
            "process_peak_rss_mb": plain["peak_rss_mb"],
            "traced_solve_s": summary["root_s"],
            "untraced_solve_s": plain["solve_s"],
            "unattributed_s": summary["root_self_s"],
        })
    results, start = [], time.monotonic()
    while not results or time.monotonic() - start + results[-1]["wall_s"] <= run.seconds:
        results.append(run.worker("oracle-fft", f"unit{len(results)}", *args))
        run.ops.merge(results[-1]["ops"])
    return {
        "solve_s": statistics.median(r["solve_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "timed_units": len(results),
        "units": [{"solve_s": r["solve_s"], "wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"]} for r in results],
        "versions": results[0]["versions"],
    }


def sampling(run: Run) -> dict:
    """A fixed number of sampler and statistics ops in one process."""
    s = run.sizes
    args = ("--seed", run.seed, "--chain-samples", s.chain_samples, "--cluster-samples", s.cluster_samples)
    if run.trace:
        result = run.worker("sampling", "traced", "--trace", 1, *args, "--ops", s.sampling_ops)
        run.ops.merge(result["ops"])
        summary = summarize([result["spans"]])
        return layer_metrics(summary, {
            "chain_steps": result["chain_steps"],
            "cluster_samples": result["cluster_samples"],
            "sampler.cap_events": result["cap_events"],
            "sampler.cluster_value_sum": result["cluster_value_sum"],
            "process_peak_rss_mb": result["peak_rss_mb"],
            "traced_solve_s": summary["root_s"],
            "untraced_solve_s": sum(result["block_s"]),
            "unattributed_s": summary["root_self_s"],
        })
    result = run.worker("sampling", "untraced", *args, "--ops", s.sampling_ops)
    run.ops.merge(result["ops"])
    # The memory of one op: the first ops again, each alone in a fresh
    # process.  The peak of the process that ran all ops is set by its
    # rarest rejection round and differs by 2x between seeds; it is the
    # per-layer process.peak_rss_mb.
    peaks = []
    for k in range(s.memory_ops):
        one = run.worker("sampling", f"memory{k}", *args, "--first", k, "--ops", 1)
        run.ops.merge(one["ops"])
        peaks.append(one["peak_rss_mb"])
    return {
        "solve_s": statistics.median(result["op_s"]),
        "peak_rss_mb": statistics.median(peaks),
        "timed_units": len(result["op_s"]),
        "units": {"op_s": result["op_s"], "process_peak_rss_mb": result["peak_rss_mb"], "op_peak_rss_mb": peaks},
        "versions": result["versions"],
    }


def cli_pipeline(run: Run) -> dict:
    """The ``bigjump`` commands as subprocesses, in passes with the same seed
    whose artifacts must be byte-identical.  Traced: one untraced pass, then
    one traced pass."""
    passes, start = [], time.monotonic()
    # Two passes at least: their artifacts must be byte-identical.
    while len(passes) < 2 or (
        not run.trace and time.monotonic() - start + passes[-1]["wall_s"] <= run.seconds
    ):
        traced = run.trace and len(passes) == 1
        passes.append(cli_pass(run, f"pass{len(passes)}", traced))
    first = passes[0]
    for other in passes[1:]:
        for name in ARTIFACTS:
            same = (first["dir"] / name).read_bytes() == (other["dir"] / name).read_bytes()
            run.ops.check(f"{name} byte-identical across passes", same, f"{other['dir'].name}")
    if not run.trace:
        return {
            "solve_s": statistics.median(p["wall_s"] for p in passes),
            # The largest process of each pass, median over passes.  simulate
            # is left out: its peak is set by the seed's rarest rejection
            # round (127 MB for most seeds, 290-390 MB for two in ten).  It
            # is in the per-layer process.peak_rss_mb.
            "peak_rss_mb": statistics.median(
                max(i["peak_rss_mb"] for i in p["invocations"] if i["command"] != "simulate") for p in passes
            ),
            "units": [p["invocations"] for p in passes],
            "timed_units": len(passes),
            "versions": json.loads((first["dir"] / "verify_report.json").read_text())["provenance"]["versions"],
        }
    plain, traced = passes
    summary = summarize(traced["spans"], root_names=tuple(f"cli.{c}" for c in CLI_COMMANDS))
    return layer_metrics(summary, {
        "cluster_samples": run.sizes.cli_samples,
        "oracle.overflow": traced["overflow"],
        "sampler.cap_events": traced["cap_events"],
        "sampler.cluster_value_sum": traced["value_sum"],
        "cli.artifact_bytes": sum((traced["dir"] / name).stat().st_size for name in ARTIFACTS),
        "process_peak_rss_mb": max(i["peak_rss_mb"] for i in plain["invocations"]),
        "traced_solve_s": traced["wall_s"],
        "untraced_solve_s": plain["wall_s"],
        # Interpreter start, imports and exit: outside every command span.
        "unattributed_s": traced["wall_s"] - summary["root_s"],
    })


def cli_pass(run: Run, tag: str, traced: bool) -> dict:
    s, seed = run.sizes, str(run.seed)
    out = run.out / tag
    out.mkdir(parents=True)
    steps = {
        "simulate": ["--method", "cluster", "--samples", s.cli_samples, "--depth", 40, "--seed", seed],
        "attribute": ["--in", out / "simulate.csv", "--x", s.cli_x, "--seed", seed],
        "oracle": ["--cutoff", s.cli_cutoff],
        "predict": [],
        "verify": ["--suite", SUITE, "--seed", seed],
    }
    invocations = []
    spans = []
    for command, extra in steps.items():
        trace_args = ["--trace-file", out / f"{command}.spans.json"] if traced else []
        code, seconds, peak = run.spawn(
            ["cli", *trace_args, "--", command, "--out", out, *extra], out / f"{command}.log"
        )
        invocations.append({"command": command, "exit": code, "wall_s": seconds, "peak_rss_mb": peak})
        if traced:
            if not (out / f"{command}.spans.json").exists():
                raise RunFailed(f"traced bigjump {command} wrote no spans: {tail(out / f'{command}.log', 5)}")
            spans.append(json.loads((out / f"{command}.spans.json").read_text())["spans"])
    check = CliChecks(run.ops, out, s)
    for command, code in ((i["command"], i["exit"]) for i in invocations):
        # Exit 3: the sampler hit a recorded cap; the artifact is still valid.
        refused = command == "simulate" and code == 3
        run.ops.check(f"bigjump {command} exit code", code == 0, f"exit {code}: {tail(out / f'{command}.log', 5)}", refused)
    return {
        "dir": out, "wall_s": sum(i["wall_s"] for i in invocations), "invocations": invocations, "spans": spans,
        "overflow": check.overflow, "value_sum": check.value_sum,
        "cap_events": check.cap_events(out / "simulate.log"),
    }


class CliChecks:
    """Parse every artifact of one pipeline pass and check its content."""

    def __init__(self, ops: Ops, out: Path, sizes: Sizes) -> None:
        self.sizes = sizes
        self.overflow = 0.0
        self.value_sum = 0
        for name, parse in (
            ("simulate.csv", self.simulate), ("attribution.csv", self.attribution),
            ("oracle.csv", self.oracle), ("predict.csv", self.predict),
            ("verify_report.json", self.verify),
        ):
            try:
                ok, detail = parse(out / name)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            ops.check(f"{name} parses and checks", ok, detail)

    @staticmethod
    def rows(path: Path) -> tuple:
        lines = path.read_text().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        body = [line.split(",") for line in lines if line and not line.startswith("#")]
        if not comments[0].startswith("# config_hash="):
            raise ValueError("missing provenance comment")
        return comments, body[0], body[1:]

    def simulate(self, path):
        _, header, rows = self.rows(path)
        col = {name: i for i, name in enumerate(header)}
        gens = [col[f"gen_{n}"] for n in range(1, 41)]
        total = 0
        for row in rows:
            value = int(row[col["value"]])
            if value != int(row[col["immigration"]]) + sum(int(row[i]) for i in gens):
                return False, f"value {value} is not immigration + generations"
            total += value
        self.value_sum = total
        ok = len(rows) == self.sizes.cli_samples and float(rows[0][col["remainder_bound"]]) < 1e-3
        return ok, f"{len(rows)} rows"

    def attribution(self, path):
        comments, header, rows = self.rows(path)
        exceed = int(comments[1].split("exceedances=")[1].split()[0])
        counts = sum(int(row[1]) for row in rows)
        shares = sum(float(row[2]) for row in rows)
        ok = header == ["label", "count", "share"] and counts == exceed > 0 and abs(shares - 1.0) < 1e-9
        return ok, f"counts {counts}, exceedances {exceed}, shares {shares}"

    def oracle(self, path):
        ref = reference()
        comments, header, rows = self.rows(path)
        self.overflow = float(comments[1].split("overflow=")[1])
        lo = [float(row[2]) for row in rows]
        hi = [float(row[3]) for row in rows]
        if len(rows) != self.sizes.cli_cutoff + 1 or any(a > b for a, b in zip(lo, hi)):
            return False, f"{len(rows)} rows or lo > hi"
        if any(b > a for a, b in zip(hi, hi[1:])):
            return False, "survival_hi increases"
        for x in ORACLE_ROWS_XS:
            if x < len(rows) and not intersects(lo[x], hi[x], ref[str(x)]):
                return False, f"bracket at {x} [{lo[x]}, {hi[x]}] misses reference {ref[str(x)]}"
        return True, ""

    def predict(self, path):
        _, header, rows = self.rows(path)
        values = [float(v) for row in rows for v in row]
        ok = header[0] == "x" and rows and all(v >= 0.0 and v == v for v in values)
        return ok, f"{len(rows)} rows"

    def verify(self, path):
        report = json.loads(path.read_text())
        ids = [check["id"] for check in report["checks"]]
        ok = report["overall"] is True and ids == SUITE.split(",")
        return ok, f"overall {report['overall']}, checks {ids}"

    @staticmethod
    def cap_events(log: Path) -> int:
        for line in log.read_text().splitlines():
            if line.startswith("saturation events:"):
                return sum(int(item.split("=")[1]) for item in line.split(":", 1)[1].split(","))
        return 0


WORKLOADS = {"oracle-fft": oracle_fft, "sampling": sampling, "cli-pipeline": cli_pipeline}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    if not (ROOT / "src" / "bigjump" / "__init__.py").is_file():
        raise RunFailed(f"no bigjump sources under {ROOT / 'src'}")
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(seed, seconds, trace, sizes, out)
    # Setup probes before and after the work, so that a slow phase of the
    # machine during one of them does not set the median.
    before = sizes.setup_probes // 2
    if not trace:
        run.probe_setup(before)
    measured = WORKLOADS[workload](run)
    if not trace:
        run.probe_setup(sizes.setup_probes - before)
    sections = spec()
    if trace:
        names = {m["name"]: m["unit"] for m in sections["per_layer"]}
    else:
        names = {m["name"]: m["unit"] for m in sections["end_to_end"]}
        measured["setup_s"] = statistics.median(run.setup)
    missing = sorted(set(names) - set(measured))
    if missing:
        raise RunFailed(f"metrics not measured: {missing}")
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in names.items()}
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "timed_units": measured.get("timed_units"),
        "units": measured.get("units"),
        "setup_probes": run.setup,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "versions": measured.get("versions"),
        "errors": run.ops.errors,
    }
    result = {
        "correct": not run.ops.errors,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps({**result, "provenance": provenance}, indent=1))
    return result


def smoke() -> int:
    """Every workload at tiny sizes, both trace modes: every named metric of
    ``BENCHMARK.json`` must be emitted as a number, and outputs correct."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            try:
                result = run_workload(workload, seed=1, seconds=1.0, trace=trace, sizes=SMOKE)
            except RunFailed as exc:
                problems.append(f"{workload} trace={int(trace)}: {exc}")
                continue
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={int(trace)}: {bad or ''} {json.dumps(result)[:400]}")
            print(f"smoke {workload} trace={int(trace)}: {result['attempted']} ops", file=sys.stderr)
    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
