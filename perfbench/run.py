"""End-to-end benchmark of the `arboreal` CLI verbs.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports `arboreal` from its
`src/`.  One process, one thread, one closed-loop client: each request is
one verb run in-process through `arboreal.cli.main`, from input document to
output document, and the next request starts when it returns.  Requests go
in whole rounds (the workload's full input list), so every run attempts the
same mix.  Every output is checked against the reference computations after
its round, outside the timed region.

The requests run in a forked copy of the process made after set-up, and
each round's checks in a forked copy of that one; each copy starts after
its parent has stopped running and its parent waits for it.  So the peak
resident set the copy running the requests reports is the program's, not
that of the benchmark's input generation or reference computations.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` every public function of the layer
modules is wrapped and the object carries the per-layer metrics instead.
A copy of the full record goes to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from reference import CheckFailed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MIN_REQUESTS = 110  # keeps at least ten samples above the 90th percentile


class ChildFailed(RuntimeError):
    pass


def in_child(fn):
    """Run `fn()` in a forked copy of this process, wait for it, and return
    its result, sent back as JSON.  What the copy allocates does not count
    towards this process's peak resident set, and the copy's peak starts
    from what it has resident when it starts."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            data = json.dumps(fn()).encode()
            with os.fdopen(write, "wb") as pipe:
                pipe.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildFailed(f"forked process exited with {code}")
    return json.loads(data)


def load_program():
    """Import `arboreal` afresh from this checkout and return its CLI module."""
    for name in [m for m in sys.modules if m == "arboreal" or m.startswith("arboreal.")]:
        del sys.modules[name]
    cli = importlib.import_module("arboreal.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"arboreal imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int) -> tuple:
    """Import the program and build the round, `SETUP_REPEATS` times; the
    median duration is the set-up time."""
    took = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = load_program()
        requests = WORKLOADS[workload](seed)
        took.append(perf_counter() - start)
    return cli, requests, statistics.median(took)


def attempt(main, request) -> tuple:
    """(exit code, stdout, stderr, seconds), or (None, error, '', None)."""
    argv = [request.verb, "--input", "-", "--output", "-"]
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(request.text), out, err
    try:
        start = perf_counter()
        code = main(argv)
        took = perf_counter() - start
    except (Exception, SystemExit) as exc:
        return None, repr(exc), "", None
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), took


def check_outputs(requests: list, outputs: dict) -> list:
    """[index, None or why the output is wrong] for each index -> output."""
    verdicts = []
    for i, out in outputs.items():
        try:
            requests[i].check(out)
        except (CheckFailed, LookupError, TypeError, ValueError) as exc:
            verdicts.append([i, str(exc)])
            continue
        verdicts.append([i, None])
    return verdicts


def measure(main, requests: list, seconds: float, min_requests: int) -> dict:
    """Run whole rounds until another would pass `seconds` of time inside
    requests and at least `min_requests` have been attempted.

    Every request starts from a full collection, as a fresh CLI process
    would, so the collector's work inside a request does not depend on what
    ran before it; the collection itself is not timed.  Each round's outputs
    are checked in a forked copy of this process (`in_child`), so the
    reference computations leave this process's peak resident set alone.
    """
    times, failures = [], []
    by_slot = [[] for _ in requests]  # each request's times, round by round
    wrong = 0
    loop_s = 0.0
    rounds = 0
    passed = {}  # request index -> output text that passed its check
    while True:
        results = []
        for r in requests:
            gc.collect()
            results.append(attempt(main, r))
        loop_s += sum(took for *_, took in results if took is not None)
        rounds += 1
        unchecked = {}
        for i, (request, (code, out, err, took)) in enumerate(zip(requests, results)):
            if took is None:
                failures.append(f"{request.verb} #{i}: raised {out}")
                continue
            times.append(took)
            by_slot[i].append(took)
            if code != request.exit_code:
                failures.append(f"{request.verb} #{i}: exit {code}, expected {request.exit_code}: {err.strip()}")
                continue
            if passed.get(i) != out:
                unchecked[i] = out
        if unchecked:
            for i, why in in_child(lambda: check_outputs(requests, unchecked)):
                if why is None:
                    passed[i] = unchecked[i]
                    continue
                wrong += 1
                failures.append(f"{requests[i].verb} #{i}: wrong output: {why}")
        attempted = rounds * len(requests)
        if attempted >= min_requests and loop_s * (rounds + 1) / rounds > seconds:
            break
    return {
        "times": times,
        "by_slot": by_slot,
        "failures": failures,
        "wrong": wrong,
        "loop_s": loop_s,
        "rounds": rounds,
        "attempted": rounds * len(requests),
    }


def end_to_end(run: dict, setup_s: float) -> dict:
    times = run["times"]
    done = run["attempted"] - len(run["failures"])
    return {
        "setup_s": (setup_s, "s"),
        "request_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "request_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "requests_per_s": (done / run["loop_s"], "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("error: run without -O; the program's checks are asserts", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    try:
        cli, requests, setup_s = setup(args.workload, args.seed)
    except ImportError as err:
        print(f"error: cannot import arboreal from {SRC}: {err}", file=sys.stderr)
        return 2

    # the inputs and checks are the benchmark's, not the program's: keep
    # them out of the collections the program triggers
    gc.collect()
    gc.freeze()

    def timed() -> dict:
        recorder = undo = None
        if args.trace:
            recorder = tracing.Recorder()
            undo = tracing.install(recorder)
        try:
            run = measure(cli.main, requests, args.seconds, MIN_REQUESTS)
        finally:
            if undo:
                tracing.uninstall(undo)
        out = {"run": run, "end_to_end": end_to_end(run, setup_s)}
        if recorder is not None:
            returned = len(run["times"])
            out["layer_metrics"] = tracing.layer_metrics(recorder, returned)
            out["layers"] = tracing.full_record(recorder, returned, sum(run["times"]))
        return out

    try:
        result = in_child(timed)
    except ChildFailed as err:
        print(f"error: the timed run failed: {err}", file=sys.stderr)
        return 1
    run = result["run"]
    metrics = result.get("layer_metrics", result["end_to_end"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run["rounds"],
        "requests_per_round": len(requests),
        "failures": run["failures"][:20],
        "end_to_end": {k: v for k, (v, _) in result["end_to_end"].items()},
        "requests": [[r.verb, r.size, r.tag, times] for r, times in zip(requests, run["by_slot"])],
    }
    if "layers" in result:
        record["layers"] = result["layers"]
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for failure in run["failures"][:20]:
        print(f"failed: {failure}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
