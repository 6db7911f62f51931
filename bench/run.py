"""Run one qclab benchmark workload and print its metrics.

    python3 bench/run.py --workload mc-fold --seed 1 --seconds 28 --trace 0

Set-up is timed in fresh processes: several that only start the interpreter,
import qclab and build the seeded inputs, plus the workload's own process,
which then times passes of the workload with BLAS and OpenMP pinned to one
thread and QCLAB_THREADS unset. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("mc-fold", "exact-dp", "lp-games", "verify-quick")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "ok_frac": "ratio"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROCESSES = 6  # set-up-only processes per run, besides the workload's own
DEADLINE_S = 170.0  # the whole run, set-up processes included


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCLAB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A ``worker.py`` process; ``setup_s`` runs from spawn to its READY."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", "smoke" if args.smoke else "full"]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                                     cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"worker did not get through set-up (exit {self.proc.returncode})")

    def finish(self) -> str:
        """Wait for the process, killing it at the deadline; its stdout."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker overran the deadline and was killed")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint(seed: int, numpy_version: str) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "qclab_commit": git_commit(),
        "qclab_src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run(args) -> dict:
    if not (SRC / "qclab" / "__init__.py").is_file():
        raise BenchError(f"no qclab sources under {SRC}")
    deadline = time.monotonic() + DEADLINE_S

    def setup_only(n: int) -> list:
        times = []
        for _ in range(n):
            w = Worker(args, deadline, setup_only=True)
            times.append(w.setup_s)
            w.finish()
        return times

    # half the set-up samples before the workload and half after, so a slow
    # spell of the machine at either end weighs less in the median
    n = 1 if args.smoke else SETUP_PROCESSES
    setups = setup_only(n // 2)
    w = Worker(args, deadline, setup_only=False)
    setups.append(w.setup_s)
    out = w.finish()
    setups += setup_only(n - n // 2)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1][len("RESULT "):])
    res["setups"] = setups
    res["fingerprint"] = fingerprint(args.seed, res["numpy"])
    res["correct"] = res["failed"] == 0 and not res["control_unflagged"]
    if args.trace:
        res["metrics"] = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        res["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return res


def report(args, res: dict) -> None:
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# fingerprint " + json.dumps(res["fingerprint"]))
    shown = res["seeds"][:4]
    more = f" and {len(res['seeds']) - 4} more passes in the result file" if len(res["seeds"]) > 4 else ""
    print("# stream seeds per pass " + json.dumps(shown) + more)
    print(f"# passes {len(res['walls'])} untraced, {len(res['traced_walls'])} traced; "
          f"set-up samples {len(res['setups'])}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for name, secs in res.get("top_self_s", []):
        print(f"# self time {name} {secs:.4f} s")
    for f in res["failures"]:
        print("# FAILED " + json.dumps(f))
    if res["control_unflagged"]:
        print(f"# negative control NOT flagged: {res['control_unflagged']}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up-only process, for the benchmark's own tests")
    args = p.parse_args(argv)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    report(args, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
