"""The starres benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload span --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads: span, bigstar, sweep, cli (see workloads.py for what each runs
and why).  The benchmark is a closed loop with one client: each case starts
when the previous one has been checked, in a fresh workload process, on one
thread.  The program is imported from ``src`` of the checkout; nothing is
installed.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` a separate traced run prints per-layer counts and self times.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report stamped with the Python version, commit, CPU count,
platform and seed.  A traced run writes its spans to ``.perfbench_out/``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("span", "bigstar", "sweep", "cli")
SETUP_PROBES = 10  # extra spawns that stop at the first case; setup_s is the median
CLI_PROBES = 7
TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"
CLI_PROBE_ARGV = ["-m", "starres.cli", "iseries", "17", "10"]
# The shared host this benchmark was defined on drifts in speed by up to 30%
# for minutes at a time, and a reference slice (worker.reference_slice)
# tracks that drift.  End-to-end timings are scaled to a machine on which the
# slice takes NOMINAL_SLICE_S, its typical time on that host (2 vCPUs,
# Python 3.11); the raw wall values are printed in the report.
NOMINAL_SLICE_S = 0.004



class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commit(root: str) -> str:
    """HEAD of the checkout's git metadata, or "unknown" outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(root: str) -> str:
    """Hash of the program's sources, which names the code even without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "starres")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def stamp(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "commit": commit(root),
        "src_sha256": src_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "client": "closed loop, 1 client, 1 case at a time, no threads",
    }


def program_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(env, workload, seed, seconds, mode, trace_out=None):
    """Run worker.py; return its result and the seconds from spawn to first case."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    if trace_out is not None:
        argv += ["--trace-out", trace_out]
    spawned = monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    return result, result["ready"] - spawned


def spawn_seconds(env, argv) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_timed(root, env, workload, seed, seconds):
    # each setup sample is scaled by the slices its own process ran after set-up
    setups, scaled = [], []
    for mode in ["setup"] * SETUP_PROBES + ["timed"]:
        result, setup = spawn_worker(env, workload, seed, seconds, mode)
        setups.append(setup)
        scaled.append(setup * NOMINAL_SLICE_S / result["setup_slice_s"])
    scale = NOMINAL_SLICE_S / result["slice_s"]
    attempted = result["attempted"]
    raw = {
        "cases_per_s": attempted / result["loop_s"],
        "case_ms_p50": result["case_ms_p50"],
        "case_ms_p90": result["case_ms_p90"],
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "cases_per_s": raw["cases_per_s"] / scale,
        "case_ms_p50": raw["case_ms_p50"] * scale,
        "case_ms_p90": raw["case_ms_p90"] * scale,
        "ok_ratio": (attempted - result["failed"]) / attempted,
        "setup_s": statistics.median(scaled),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    report = [
        f"cases: {attempted} over {result['rounds']} rounds in {result['loop_s']:.2f} s; "
        f"p90 has {attempted - int(0.9 * attempted)} samples above it",
        f"failed_ratio: {result['failed'] / attempted:.6g} ({result['failed']} of {attempted})",
        f"inputs skipped (non-minimal, or v < 2 for quiver): {result['skipped']}",
        f"reference slice: mean {result['slice_s'] * 1000:.3f} ms over {result['slices']} slices,"
        f" nominal {NOMINAL_SLICE_S * 1000:.3f} ms; timings below are scaled by {scale:.4f}",
        "raw wall: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()),
        f"setup_s samples (raw): {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return result, metrics, report


def cli_probe(env):
    """Median cold spawns: bare interpreter, `import starres.cli`, one subcommand."""
    bare, imported, spawned = [], [], []
    for _ in range(CLI_PROBES):
        bare.append(spawn_seconds(env, ["-c", "pass"]))
        imported.append(spawn_seconds(env, ["-c", "import starres.cli"]))
        spawned.append(spawn_seconds(env, CLI_PROBE_ARGV))
    return {
        "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1000.0,
        "cli.spawn_ms": statistics.median(spawned) * 1000.0,
    }


def run_traced(root, env, workload, seed, seconds):
    trace_out = os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}.json")
    result, _ = spawn_worker(env, workload, seed, seconds, "trace", trace_out)
    if result["left_wrapped"]:
        raise BenchError(f"names left wrapped after tracing: {result['left_wrapped']}")
    values = dict(result["layers"])
    values.update(cli_probe(env))
    wall = result["traced_s"]
    shares = sorted(
        ((k[: -len(".self_share")], v) for k, v in values.items() if k.endswith(".self_share")),
        key=lambda kv: -kv[1],
    )
    report = [
        f"traced round: {result['attempted']} cases, {result['spans']} spans -> {trace_out}",
        f"tracing overhead: traced {wall:.3f} s - untraced {result['untraced_s']:.3f} s"
        f" = {values['trace.overhead_s']:+.3f} s; traced outputs equal untraced:"
        f" {result['failed'] == 0}; every wrapped name restored: True",
        "wait time: none; one client runs one case at a time on one thread, so no"
        " layer queues for another",
        "top self-time layers (share of traced wall "
        f"{wall:.3f} s): "
        + ", ".join(f"{mod} {share:.1%}" for mod, share in shares[:4])
        + f", outside wrapped functions {1 - sum(s for _, s in shares):.1%}",
    ]
    for name, g in sorted(result["growth"].items()):
        report.append(
            f"growth: {name} time ~ size^{g['exponent']:.2f} for size {g['sizes'][0]}..{g['sizes'][1]}"
            f" ({g['spans']} spans)"
        )
    return result, values, report


def declared_units(root: str, trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(root, env, workload, seed, seconds, trace):
    info = stamp(root, workload, seed, seconds, trace)
    runner = run_traced if trace else run_timed
    result, values, report = runner(root, env, workload, seed, seconds)
    units = declared_units(root, trace)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    failed = result["failed"]
    attempted = result["attempted"]
    out = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for line in report:
        print("# " + line)
    for name, unit in units.items():
        print(f"{name:52s} {values[name]:14.6g} {unit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "starres", "__init__.py")):
        print("error: run from the root of a starres checkout (src/starres is missing)",
              file=sys.stderr)
        return 2
    env = program_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        # compile the bytecode caches once; users do not pay for that on every run
        spawn_seconds(env, ["-c", "import starres.cli"])
        for name in names:
            results[name] = run_one(root, env, name, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
