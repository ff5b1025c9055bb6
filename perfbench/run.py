"""Run one workload of the sepcert benchmark and print its metrics.

    python3 perfbench/run.py --workload certify-eliminate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs are made from ``--seed``.  The benchmark then
runs passes for about ``--seconds`` seconds: each pass starts a fresh
``python perfbench/worker.py`` that sends every request of the workload, one
after another, through ``sepcert.cli.main``.  Every report is checked against
a closed-form oracle (``workloads.py``).

``--trace 0`` prints the end-to-end metrics: median ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` over the passes, and ``setup_s``, the median time of a fresh
``python -m sepcert --version``.  The host's speed drifts by tens of percent
within seconds, so the three times are rescaled to a reference host speed.
The worker is stepped one request at a time, and while it waits a
``perfbench/calibrate.py`` process runs a fixed reference kernel for as long
as the request before took.  Each request's time is multiplied by
``CALIB_REF_S`` over the kernel's time per unit in the two slices around it.

``--trace 1`` alternates untraced and traced passes, without calibration,
and prints the per-layer metrics of the traced ones (``spans.py``) and the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
environment, every pass and slice, a SHA-256 per report, the failures) go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Passes per run at the least, whatever --seconds says, so a median exists.
MIN_PASSES = 3
#: A run, set-up included, must end well within three minutes.
DEADLINE_S = 170.0
#: Seconds per unit of the calibration kernel at the reference host speed,
#: about its median on a 2-vCPU x86-64 VM (OpenBLAS Haswell kernels).  Times
#: are reported as if the host ran at that speed.
CALIB_REF_S = 0.030
#: Calibration before a pass's first request, and the least after any request.
FIRST_SLICE_S = 0.5
MIN_SLICE_S = 0.1
#: Set-up times per pass, each between two calibration slices of this length.
SETUP_SAMPLES = 2
SETUP_SLICE_S = 0.3
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "SEPCERT_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # The package's default is serial; the benchmark measures the default.
    env.pop("SEPCERT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def time_setup(env: dict) -> float:
    """Wall time of one fresh ``python -m sepcert --version``."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "sepcert", "--version"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0 or not done.stdout.startswith("sepcert"):
        raise BenchError(f"python -m sepcert --version failed: {done.stderr}")
    return elapsed


class Child:
    """A child process spoken to one line at a time; ``close`` kills and
    reaps it."""

    def __init__(self, cmd: list[str], env: dict, stderr_path: Path) -> None:
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError(
                f"{Path(self.proc.args[1]).name} exited with {self.proc.returncode}:\n"
                + self.stderr_path.read_text(encoding="utf-8")
            )
        return line

    def ask(self, line: str):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.read())

    def close(self) -> int:
        if self.proc.poll() is None:
            self.proc.kill()
        code = self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            stream.close()
        return code


class Watchdog:
    """Kills every registered child when the run's deadline passes, so that
    a hung request ends the run instead of outliving it."""

    def __init__(self, seconds: float) -> None:
        self.children: list[Child] = []
        self.fired = False
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        self.fired = True
        for child in list(self.children):
            if child.proc.poll() is None:
                child.proc.kill()

    def cancel(self) -> None:
        self._timer.cancel()


def run_worker(requests_path: Path, result_path: Path, spans_path: Path | None,
               env: dict, calibrator: Child | None, watchdog: Watchdog) -> dict:
    """One pass.  The worker is stepped one request at a time; between two
    requests, while it waits, the calibrator runs a slice as long as the
    request before it took."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(requests_path), str(result_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    worker = Child(cmd, env, result_path.with_suffix(".err"))
    watchdog.children.append(worker)
    slices = []

    def calibrate(seconds: float) -> None:
        if calibrator is not None:
            slices.append(calibrator.ask(f"{max(seconds, MIN_SLICE_S):.6f}"))

    try:
        if worker.read().strip() != "ready":
            raise BenchError("worker did not report ready")
        calibrate(FIRST_SLICE_S)
        n_requests = len(json.loads(requests_path.read_text()))
        for _ in range(n_requests):
            timing = worker.ask("go")
            calibrate(timing["wall_s"])
        worker.proc.stdin.write("done\n")
        worker.proc.stdin.close()
        code = worker.proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with {code}:\n"
                             + worker.stderr_path.read_text(encoding="utf-8"))
    finally:
        worker.close()
        watchdog.children.remove(worker)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["slices"] = slices
    return result


def rescaled(timings: list[dict], slices: list[dict], keys=("wall_s", "cpu_s")) -> list[dict]:
    """Timings at the reference host speed.  Timing i ran between slices i
    and i+1 and is rescaled by the kernel's speed over those two."""
    out = []
    for i, timing in enumerate(timings):
        around = slices[i:i + 2]
        units = sum(sl["units"] for sl in around)
        out.append({
            key: timing[key] * CALIB_REF_S * units / sum(sl[key] for sl in around)
            for key in keys
        })
    return out


def time_setups(env: dict, calibrator: Child | None) -> dict:
    """``SETUP_SAMPLES`` set-up times, each between two calibration slices."""
    raw, slices = [], []
    if calibrator is not None:
        slices.append(calibrator.ask(f"{SETUP_SLICE_S}"))
    for _ in range(SETUP_SAMPLES):
        raw.append(time_setup(env))
        if calibrator is not None:
            slices.append(calibrator.ask(f"{SETUP_SLICE_S}"))
    out = {"raw": raw, "slices": slices}
    if calibrator is not None:
        timings = [{"wall_s": t} for t in raw]
        out["rescaled"] = [t["wall_s"] for t in rescaled(timings, slices, ("wall_s",))]
    return out


def check_pass(requests, result: dict, digests: list) -> list[str]:
    """Failures of one pass; the first pass's digests become the reference."""
    failures = []
    for i, (req, got) in enumerate(zip(requests, result["requests"])):
        if got["error"] is not None or got["code"] is None:
            problem = f"raised: {got['error']}"
        else:
            problem = req.check(got["code"], got["summary"])
        if problem is None and digests[i] is None:
            digests[i] = got["sha256"]
        elif problem is None and got["sha256"] != digests[i]:
            problem = "report differs from the first pass's report"
        if problem is not None:
            failures.append(f"{req.name}: {problem}")
    return failures


def spread(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(args, requests, workdir: Path, env: dict, started: float) -> dict:
    import spans

    req_path = workdir / "requests.json"
    req_path.write_text(json.dumps([list(r.argv) for r in requests]))
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    passes, failures = [], []
    digests = [None] * len(requests)
    watchdog = Watchdog(DEADLINE_S - (time.perf_counter() - started))
    calibrator = None
    try:
        # Traced runs report per-layer figures, which are not rescaled.
        if not args.trace:
            calibrator = Child([sys.executable, str(BENCH / "calibrate.py")], env,
                               workdir / "calibrate.err")
            watchdog.children.append(calibrator)
        t0 = time.perf_counter()
        while True:
            # Set-up samples in every pass spread them over the run's conditions.
            setup = time_setups(env, calibrator)
            traced = bool(args.trace) and len(passes) % 2 == 1
            result = run_worker(req_path, workdir / "result.json",
                                spans_path if traced else None, env, calibrator,
                                watchdog)
            result["traced"] = traced
            result["setup"] = setup
            if calibrator is not None:
                per_request = rescaled(result["requests"], result["slices"])
                result["rescaled"] = {
                    key: sum(r[key] for r in per_request) for key in ("wall_s", "cpu_s")
                }
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    span_table = json.load(fh)
                emitted = sum(r["bytes"] for r in result["requests"])
                result["layers"] = spans.layer_metrics(span_table, emitted)
            failures += check_pass(requests, result, digests)
            for req in result["requests"]:
                del req["summary"]
            passes.append(result)
            elapsed = time.perf_counter() - t0
            per_pass = elapsed / len(passes)
            # Start no pass that is likely to end after --seconds.
            if len(passes) >= MIN_PASSES and elapsed + 1.25 * per_pass > args.seconds:
                break
            if time.perf_counter() - started + 2 * per_pass > DEADLINE_S:
                break
    except BenchError:
        if watchdog.fired:
            raise BenchError(f"the run passed its {DEADLINE_S:.0f} s deadline") from None
        raise
    finally:
        watchdog.cancel()
        if calibrator is not None:
            calibrator.close()
    return {"passes": passes, "failures": failures, "digests": digests}


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def summarize(args, run: dict) -> dict:
    import spans

    plain = [p for p in run["passes"] if not p["traced"]]
    wall_u = median_of(plain, "wall_s")
    if not args.trace:
        values = {
            "wall_s": statistics.median(p["rescaled"]["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["rescaled"]["cpu_s"] for p in plain),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "setup_s": statistics.median(t for p in plain for t in p["setup"]["rescaled"]),
        }
        units = END_TO_END_UNITS
    else:
        traced = [p for p in run["passes"] if p["traced"]]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in spans.LAYER_UNITS
        }
        wall_t = median_of(traced, "wall_s")
        values["trace.wall_s"] = wall_t
        values["trace.untraced_wall_s"] = wall_u
        values["trace.overhead_s"] = wall_t - wall_u
        values["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
        units = {**spans.LAYER_UNITS, **TRACE_UNITS}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def report(args, run: dict, metrics: dict, env: dict, n_requests: int) -> None:
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = len(passes) * n_requests
    failed = len(run["failures"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({len(plain)} untraced)  requests/pass {n_requests}")
    if not args.trace:
        slices = [s for p in plain for s in p["slices"] + p["setup"]["slices"]]
        units = sum(s["units"] for s in slices)
        kernel = sum(s["wall_s"] for s in slices) / units
        print(f"  host: reference kernel {kernel * 1e3:.2f} ms per unit over {units} "
              f"units (reference {CALIB_REF_S * 1e3:.2f} ms); times are rescaled "
              f"to the reference speed, raw medians in brackets")
    series = {
        "wall_s": ([p["wall_s"] for p in plain], "s", "passes"),
        "cpu_s": ([p["cpu_s"] for p in plain], "s", "passes"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in plain], "MB", "passes"),
        "setup_s": ([t for p in plain for t in p["setup"]["raw"]], "s", "set-ups"),
    }
    for key, (raw, unit, what) in series.items():
        if args.trace or key == "peak_rss_mb":
            values = raw
        elif key == "setup_s":
            values = [t for p in plain for t in p["setup"]["rescaled"]]
        else:
            values = [p["rescaled"][key] for p in plain]
        med, q1, q3 = spread(values)
        print(f"  {key:<12} {med:10.4f} {unit:<3} median of {len(values)} {what} "
              f"(q1 {q1:.4f}, q3 {q3:.4f}) [{statistics.median(raw):.4f}]")
    print(f"  {'fail_frac':<12} {failed / attempted:10.4f} ratio "
          f"({failed} of {attempted} requests failed)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:14.6g} {m['unit']}")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    blas = f"{env['blas'].get('name')} {env['blas'].get('version')}"
    print(f"  env: python {env['python']}, numpy {env['numpy']} ({blas}), "
          f"nproc {env['nproc']}, git {env['git_sha']}, {env['thread_env']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "sepcert" / "__init__.py").is_file():
        print(f"error: no sepcert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        env = child_env()
        requests = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = measure(args, requests, workdir, env, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = summarize(args, run)
    env = environment()
    report(args, run, metrics, env, len(requests))
    attempted = len(run["passes"]) * len(requests)
    failed = len(run["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "requests": [
            {"name": r.name, "argv": [Path(a).name for a in r.argv], "sha256": d}
            for r, d in zip(requests, run["digests"])
        ],
        "passes": run["passes"],
        "failures": run["failures"],
        "metrics": metrics,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2))
    print(f"  details in {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
