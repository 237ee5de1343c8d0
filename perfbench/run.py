"""Benchmark entry point: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload count|expsum|membership|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; beatty_kfree is imported from
./src and nothing is installed. Every measurement happens in a fresh child
interpreter (child.py), one at a time, single-threaded. With --trace 0 the
last stdout line carries the end-to-end metrics named in BENCHMARK.json,
with --trace 1 the per-layer ones. Results, environment and span files go
to .bench_out/. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(root: str, args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def git_rev(root: str) -> str | None:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(os.path.join(root, ".git", ref))
    if rev is None:
        for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                rev = line.split()[0]
    return rev


def environment(root: str, numpy_version: str) -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": _read(os.path.join(cache, "index2", "size")),
        "l3": _read(os.path.join(cache, "index3", "size")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev(root),
    }


def measure(root: str, bench: dict, workload: str, seed: int, seconds: float, trace: int,
            size: str, out_dir: str) -> dict:
    res = run_child(root, ["run", "--workload", workload, "--size", size, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", str(trace), "--out-dir", out_dir],
                    CHILD_TIMEOUT_S)
    if trace:
        wanted, measured = bench["per_layer"], res["layers"]
    else:
        wanted = bench["end_to_end"]
        measured = {
            "setup_s": statistics.median(res["setups"]),
            "wall_s": statistics.median(res["walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_share": 1.0 - res["failed"] / res["attempted"],
        }
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "env": environment(root, res["numpy"]), "child": res,
              "result": result}
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def _walls(walls: list[float]) -> str:
    return (f"{len(walls)} passes of {min(walls):.3f}/{statistics.median(walls):.3f}/"
            f"{max(walls):.3f} s (min/median/max)")


def report(record: dict) -> None:
    res, result = record["child"], record["result"]
    print(f"# env {json.dumps(record['env'])}")
    line = f"# {record['workload']} seed={record['seed']} trace={record['trace']}: " + _walls(res["walls"])
    if record["trace"]:
        line += ", traced " + _walls(res["traced_walls"])
    print(line)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        print(f"{'fail_share':48s} {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} ops)")
    for name, problem in res["failures"].items():
        print(f"# FAILED {name}: {problem}")
    for name, problem in res["known_defects"].items():
        print(f"# KNOWN DEFECT {name}: {problem or 'now passes'}")
    if "spans_file" in res:
        print(f"# spans in {res['spans_file']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small is the shrunken op list the self-tests use")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "beatty_kfree", "__init__.py")):
        print("error: run from a checkout root holding src/beatty_kfree", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    results = {}
    for workload in chosen:
        record = measure(root, bench, workload, args.seed, args.seconds, args.trace, args.size, out_dir)
        report(record)
        results[workload] = record["result"]
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
