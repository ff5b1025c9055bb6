"""One pass of a workload: every request, in order, in this fresh process.

    python perfbench/worker.py REQUESTS.json RESULT.json [SPANS.json]

REQUESTS.json is a list of argv lists for ``sepcert.cli.main``.  The worker
is stepped by its parent: before each request, and once more before it
summarizes the pass, it waits for a line on stdin; after each request it
writes the request's wall and CPU seconds as one JSON line on stdout.  So
the parent can measure the host's speed between requests while the worker
is idle.  Only the requests are timed; importing the
package is ``setup_s``, measured separately.  With a SPANS.json path the
pass is traced and the spans are written there after the last request.

RESULT.json gets the pass's wall and CPU time (the sums over its requests),
peak resident memory, and per request its wall and CPU time, the exit code,
any exception, the stdout size, a SHA-256 of the JSON report without its
``file`` field, and the fields the oracles read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback

import sepcert.cli

SUMMARY_KEYS = ("status", "subsets_examined", "found", "novel")


def _summarize(text: str) -> tuple[str | None, dict]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None, {}
    report.pop("file", None)
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    summary = {k: report[k] for k in SUMMARY_KEYS if k in report}
    if "witnesses" in report:
        summary["witnesses"] = [w["members"] for w in report["witnesses"]]
    return digest, summary


def peak_rss_mb() -> float:
    """This process's peak resident memory.

    ``ru_maxrss`` is not used: Linux carries the launching process's
    high-water mark into it across fork and exec, so a worker started by a
    large parent would report the parent's peak.  ``VmHWM`` belongs to the
    address space that exec created.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(requests: list[list[str]], recorder=None, step=None) -> dict:
    """Send every request.  ``step``, if given, is called untimed before each
    request and once after the last with None, and after each request with
    that request's times."""
    outputs, codes, errors, timings = [], [], [], []
    for rid, argv in enumerate(requests):
        if step is not None:
            step(None)
        if recorder is not None:
            recorder.request_id = rid
        buf = io.StringIO()
        code, error = None, None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = sepcert.cli.main(argv)
        except Exception:
            error = traceback.format_exc(limit=3)
        timing = {
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
        }
        if step is not None:
            step(timing)
        outputs.append(buf.getvalue())
        codes.append(code)
        errors.append(error)
        timings.append(timing)
    if step is not None:
        # Stay idle until the parent has measured the host after the last
        # request.
        step(None)
    rss_mb = peak_rss_mb()
    results = []
    for text, code, error, timing in zip(outputs, codes, errors, timings):
        digest, summary = _summarize(text)
        results.append(
            {
                **timing,
                "code": code,
                "error": error,
                "bytes": len(text.encode()),
                "sha256": digest,
                "summary": summary,
            }
        )
    totals = {key: sum(t[key] for t in timings) for key in ("wall_s", "cpu_s")}
    return {**totals, "peak_rss_mb": rss_mb, "requests": results}


def stepped_by_parent(stdin, stdout):
    """A ``step`` that waits for the parent's go and reports each timing."""

    def step(timing):
        if timing is None:
            if not stdin.readline():
                raise SystemExit("the parent closed the step channel")
        else:
            stdout.write(json.dumps(timing) + "\n")
            stdout.flush()

    return step


def main(argv: list[str]) -> int:
    requests_path, result_path, *spans_path = argv
    with open(requests_path, encoding="utf-8") as fh:
        requests = json.load(fh)
    # The requests' own output goes to a buffer; the step channel keeps the
    # real stdout.  "ready" says the import is done and the worker is idle.
    step = stepped_by_parent(sys.stdin, sys.stdout)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if spans_path:
        import spans

        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            result = run_pass(requests, recorder, step)
        with open(spans_path[0], "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh)
    else:
        result = run_pass(requests, step=step)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
