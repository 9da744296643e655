"""The spvs benchmark: one workload per run, through `spvs.cli.main`.

    python3 perfbench/run.py --workload {ssl-pretrain,cv-train,infer} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

A run builds the workload's inputs from the seed (set-up), runs whole rounds
of the workload's CLI commands in a fresh worker process for S seconds,
checks the outputs of the last round against computations made apart from
the program, and prints one JSON line: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Metric names, units
and directions come from BENCHMARK.json at the root of the checkout.
`--self-check` runs one round of every workload and shows that every output
check refuses each planted wrong output.  See perfbench/README.md.
"""

import os
import time


def _process_age():
    """Seconds since this process started, at 10 ms resolution (0 if unknown)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


# Set-up time counts from the start of this process: its age here, before
# any other import, plus the time from here to the end of set-up.
_AGE0 = _process_age()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# BLAS threads: one per process unless the caller says otherwise, set before
# numpy is imported here or in the worker.  The program's matrices are
# small; on a 2-CPU machine OpenBLAS's default of one thread per CPU made
# rounds slower and their times twice as spread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from tracer import Tracer, layer_metrics, scaled  # noqa: E402
from workloads import WORKLOADS, planted  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Traced set-up aggregate -> per-layer metric key.
SETUP_KEYS = {
    "dataprep.gen_synthetic.s": "dataprep.gen_synthetic.s",
    "dataprep.save_dataset.s": "dataprep.save_dataset.s",
    "tensorkit.rng.s": "tensorkit.setup_rng_s",
}


def _run_worker(plan, out, seconds, trace, deadline):
    spec_path = os.path.join(out, "worker_spec.json")
    result_path = os.path.join(out, "worker_result.json")
    with open(spec_path, "w") as fh:
        json.dump({
            "src": SRC, "commands": plan.commands, "outputs": plan.outputs,
            "seconds": seconds, "trace": trace, "result": result_path,
        }, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(deadline - time.perf_counter(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def _round_wall(rounds):
    """Wall time of one round: each command's median over rounds, summed."""
    return sum(statistics.median(times) for times in zip(*(r["command_s"] for r in rounds)))


def _verify(workload, plan, result):
    """Errors in the outputs, and the failed operations of one round."""
    errors = []
    if len({r["digest"] for r in result["rounds"]}) != 1:
        errors.append("rounds wrote different outputs")
    out = workload.load(plan)
    check_errors, failed = workload.check(plan, out)
    return errors + check_errors, failed, out


def _run(args, bench):
    deadline = _T0 + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    out = os.path.join(OUT, workload.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        plan = workload.setup(out, args.seed)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = _AGE0 + time.perf_counter() - _T0

    result = _run_worker(plan, out, args.seconds, args.trace, deadline)
    errors, failed, _ = _verify(workload, plan, result)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    rounds = result["rounds"]
    wall_s = _round_wall([r for r in rounds if not (r["traced"] or r["warmup"])])
    if args.trace:
        # Per-layer figures describe one timed round (the mean of the traced
        # rounds), except the set-up's corpus generation, first dataset
        # write and random draws, which only the traced set-up shows.
        traced = [r for r in rounds if r["traced"]]
        setup_trace = tracer.export()
        export = scaled(result["trace"], 1.0 / len(traced))
        for key, name in SETUP_KEYS.items():
            export["sums"][name] = setup_trace["sums"].get(key, 0.0)
        with open(os.path.join(out, "trace.json"), "w") as fh:
            json.dump({"setup": setup_trace, "round": export}, fh, indent=1, sort_keys=True)
        names = [m["name"] for m in bench["per_layer"]]
        values = layer_metrics(export, names)
        values["trace.overhead"] = _round_wall(traced) / wall_s
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "frames_per_s": plan.frames / wall_s,
            "peak_rss_mib": result["peak_rss_mib"],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": not errors,
        "attempted": plan.ops * len(rounds),
        "failed": failed * len(rounds),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def _self_check():
    """One round of each workload; every planted wrong output must be refused."""
    ok = True
    for workload in WORKLOADS.values():
        out = os.path.join(OUT, "self-check", workload.name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        plan = workload.setup(out, 1)
        result = _run_worker(plan, out, 0, 0, time.perf_counter() + RUN_LIMIT_S)
        errors, failed, loaded = _verify(workload, plan, result)
        print(f"{workload.name}: genuine output {'passes' if not errors else 'FAILS'}"
              f" ({failed} of {plan.ops} operations failed)")
        for e in errors:
            print(f"  {e}")
        ok &= not errors
        for label, mutate in workload.PLANTS:
            refused, _ = workload.check(plan, planted(loaded, mutate))
            print(f"  planted {label}: {'refused' if refused else 'ACCEPTED'}"
                  + (f" ({refused[0]})" if refused else ""))
            ok &= bool(refused)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", dest="self_check", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spvs", "cli.py")):
        print(f"no spvs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_check:
        return _self_check()
    if args.workload is None:
        p.error("--workload is required")
    if args.trace and os.environ.get("SPVS_THREADS", "1") != "1":
        p.error("--trace 1 needs SPVS_THREADS unset or 1: the tracer follows one thread")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return _run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
