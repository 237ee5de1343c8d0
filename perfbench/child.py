"""One measurement, run by run.py in a fresh interpreter.

    child.py setup --workload W
        prints {"setup_s": ...}: import beatty_kfree and do the workload's
        per-invocation set-up, timed from interpreter start-up.
    child.py run --workload W --seed N --seconds S --trace 0|1 --out-dir D
        builds the op list, then runs it in passes until S seconds are used
        (at least MIN_PASSES), checking every op after it runs. With --trace 0
        it also starts SETUPS_PER_PASS set-up interpreters before the first
        pass and after each one, so set-up samples spread over the run like
        the passes do. With --trace 1 the set-up is traced, untraced and
        traced passes alternate, and the spans of set-up plus the first
        traced pass are written to D. After the passes, the workload's
        known-defect ops are run and checked once, untimed and untraced;
        their failures are reported apart from the workload's own.

The last stdout line is one JSON object for run.py.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

MIN_PASSES = 3
SETUPS_PER_PASS = 2


def sample_setups(args) -> list[float]:
    argv = [sys.executable, os.path.abspath(__file__), "setup",
            "--workload", args.workload, "--size", args.size]
    out = []
    for _ in range(SETUPS_PER_PASS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_pass(ops, tracer=None):
    """(summed op run time, [(op name, failure or None, output digest)])."""
    import workloads

    wall = 0.0
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.recording = True
        t = time.perf_counter()
        try:
            out, problem = op.run(), None
        except Exception as e:  # a failed op is counted, never fatal
            out, problem = None, f"raised {type(e).__name__}: {e}"
        wall += time.perf_counter() - t
        if tracer is not None:
            tracer.recording = False
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as e:
                problem = f"check raised {type(e).__name__}: {e}"
        results.append((op.name, problem, workloads.digest(out)))
    return wall, results


def _write_spans(path, tracer, spans):
    with open(path, "w") as f:
        f.write("name,start_ns,end_ns,parent,op\n")
        for name_id, t0, t1, parent, op, _ in spans:
            f.write(f"{tracer.names[name_id]},{t0},{t1},{parent},{op}\n")


def cmd_run(args) -> dict:
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    workloads.setup(args.workload)
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    ops = workloads.build(args.workload, args.seed, args.size, args.out_dir)

    deadline = time.perf_counter() + args.seconds
    setups = [] if tracer else sample_setups(args)
    walls = {"untraced": [], "traced": []}
    failures: dict[str, str] = {}
    attempted = failed = 0
    kept_spans = None
    while True:
        started = time.perf_counter()
        traced = tracer is not None and len(walls["traced"]) < len(walls["untraced"])
        if traced:
            if kept_spans is not None:
                tracer.reset()
            tracer.install()
        wall, results = run_pass(ops, tracer if traced else None)
        if traced:
            tracer.uninstall()
            if kept_spans is None:
                kept_spans = list(tracer.spans)
        walls["traced" if traced else "untraced"].append(wall)
        attempted += len(results)
        for name, problem, _ in results:
            if problem is not None:
                failed += 1
                failures.setdefault(name, problem)
        if tracer is None:
            setups += sample_setups(args)
        passes = len(walls["untraced"]) + len(walls["traced"])
        need = MIN_PASSES if tracer is None else 2
        now = time.perf_counter()
        if passes >= need and now + (now - started) > deadline:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, probed = run_pass(workloads.known_defects(args.workload, args.seed, args.size))
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "known_defects": {name: problem for name, problem, _ in probed},
        "walls": walls["untraced"],
        "setups": setups,
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        out["traced_walls"] = walls["traced"]
        out["layers"] = layer_metrics(kept_spans, tracer.names)
        out["layers"]["trace.spans"] = len(kept_spans)
        out["layers"]["known_defects.failing"] = sum(p is not None for _, p, _ in probed)
        out["layers"]["trace.overhead_s"] = (
            statistics.median(walls["traced"]) - statistics.median(walls["untraced"]))
        path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
        _write_spans(path, tracer, kept_spans)
        out["spans_file"] = path
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    if args.mode == "setup":
        import workloads

        workloads.setup(args.workload)
        result = {"setup_s": time.perf_counter() - T0}
    else:
        result = cmd_run(args)
    src = os.environ.get("PERFBENCH_SRC")
    module_file = os.path.abspath(sys.modules["beatty_kfree"].__file__)
    if src and not module_file.startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported {module_file}, not the checkout's {src}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
