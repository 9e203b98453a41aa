"""Benchmark runner for egta.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 60 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout. With ``--trace 0`` the run measures end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports per-layer
metrics, writing the spans to ``perfbench/out/``. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and units
are those of ``BENCHMARK.json``.

``--record-digests FIRST-LAST`` recomputes ``perfbench/digests.json``, the
sha256 of every output of the first passes at those seeds.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
MIN_PASSES = 2  # passes run whatever the time; their outputs form the digest
SETUP_ROUNDS = 15  # set-up rounds per untraced run, spread over its time


def _import_library():
    """Import egta from this checkout's src/, refusing any other copy."""
    if not (SRC / "egta" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'egta'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import egta

    if Path(egta.__file__).resolve().parent != (SRC / "egta").resolve():
        sys.exit(f"error: imported egta from {egta.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Environment record

def _git_sha() -> str | None:
    """HEAD commit read from .git files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> tuple[str, int | None]:
    import numpy as np

    config = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{config.get('name')} {config.get('version')}"
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "egta").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas, blas_threads = _blas()
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "processes": 1,
        "python_threads": threading.active_count(),
    }


# ---------------------------------------------------------------------------
# Measurement

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 when no call succeeded."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def digest(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in sorted(outputs.items())}


def run_digest(pass_digests: list[dict[str, str]]) -> str:
    return hashlib.sha256(json.dumps(pass_digests, sort_keys=True).encode()).hexdigest()


def prepare_and_warm_up(workload, seed: int):
    """Input generation and one warm-up pass at the smallest size.
    Returns (inputs, warm-up pass result)."""
    from workloads import WORKLOADS

    inputs = workload.prepare(seed)
    warm = WORKLOADS[workload.name](tiny=True)
    return inputs, warm.run_pass(warm.prepare(seed), 0)


def setup_round(workload, seed: int):
    """One set-up round in a fresh interpreter (``--setup-round``): the
    imports, input generation and the warm-up pass. Returns it as a pass
    whose ``wall`` is the round's time."""
    from workloads import PassResult

    command = [sys.executable, str(HERE / "run.py"), "--setup-round", "--workload", workload.name, "--seed", str(seed)]
    done = subprocess.run(
        command + (["--tiny"] if workload.tiny else []),
        capture_output=True, text=True, check=True, timeout=120,
    )
    record = json.loads(done.stdout.splitlines()[-1])
    return PassResult(record["seconds"], {}, attempted=record["attempted"], failures=record["failures"])


def run_setup_round(name: str, seed: int, tiny: bool) -> None:
    """Body of a set-up round, timed from before the first library import."""
    start = time.perf_counter()
    _import_library()
    from workloads import WORKLOADS

    _, warm = prepare_and_warm_up(WORKLOADS[name](tiny=tiny), seed)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "attempted": warm.attempted, "failures": warm.failures}))


def measure(workload, inputs, seed: int, seconds: float, traced: bool):
    """Run passes until ``seconds`` have passed (at least MIN_PASSES).
    In a traced run every pass runs twice, untraced and then traced. An
    untraced run also makes SETUP_ROUNDS set-up rounds, one at the start of
    each equal share of the time, so that their median sees the machine's
    speed over the whole run."""
    from tracing import Tracer

    tracer = Tracer() if traced else None
    plain, with_trace, rounds = [], [], []
    rounds_wanted = 0 if traced else SETUP_ROUNDS
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or len(rounds) < rounds_wanted or time.perf_counter() - start < seconds:
        if len(rounds) < rounds_wanted and time.perf_counter() - start >= len(rounds) * seconds / rounds_wanted:
            rounds.append(setup_round(workload, seed))
            continue
        plain.append(workload.run_pass(inputs, index))
        if traced:
            with_trace.append(workload.run_pass(inputs, index, tracer))
        index += 1
    return plain, with_trace, rounds, tracer


def end_to_end(passes, rounds, tail_pct: float) -> dict[str, float]:
    latencies = [t for p in passes for t in p.latencies]
    wall = sum(p.wall for p in passes)
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "evals_per_s": sum(p.evals for p in passes) / wall,
        "call_p50_ms": percentile(latencies, 50.0) * 1e3,
        "call_tail_ms": percentile(latencies, tail_pct) * 1e3,
        "setup_s": statistics.median(r.wall for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def recorded_check(workload, seed: int, plain):
    """The seed checked against ``digests.json``, its first passes, and the
    digests recorded for them. A run at a recorded seed checks its own first
    passes. Any other seed checks the recorded seed ``seed mod count``, whose
    first passes run after measurement. An unrecorded workload checks
    nothing here and fails in ``tally``."""
    table = json.loads(DIGESTS.read_text()).get(workload.name, {}) if DIGESTS.is_file() else {}
    if not table:
        return None, [], None
    seeds = sorted(int(s) for s in table)
    check_seed = seed if str(seed) in table else seeds[seed % len(seeds)]
    recorded = table[str(check_seed)]
    if check_seed == seed:
        return check_seed, plain[: len(recorded)], recorded
    inputs = workload.prepare(check_seed)
    return check_seed, [workload.run_pass(inputs, i) for i in range(len(recorded))], recorded


def tally(unmeasured, plain, traced, checked, recorded):
    """Calls attempted and failed, with the reasons. ``unmeasured`` are the
    passes run outside measurement: the warm-up, the set-up rounds and the
    recorded-seed passes.
    Besides the per-call checks, a pass fails as a whole when its traced
    rerun gives different outputs, or when a checked pass differs from the
    digest recorded for it."""
    attempted, failed, failures = 0, 0, []
    for p in unmeasured + plain + traced:
        attempted += p.attempted
        failed += min(len(p.failures), p.attempted)
        failures += p.failures
    for i, p in enumerate(traced):
        if digest(p.outputs) != digest(plain[i].outputs):
            failures.append(f"pass {i}: traced output differs from untraced output")
            failed += p.attempted
    if recorded is None:
        failures.append("no digests recorded for this workload in perfbench/digests.json")
        failed = attempted
    for i, expected in enumerate(recorded or ()):
        if digest(checked[i].outputs) != expected:
            failures.append(f"recorded pass {i}: output digest differs from perfbench/digests.json")
            failed += checked[i].attempted
    return attempted, min(failed, attempted), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    parser.add_argument("--setup-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_round:
        run_setup_round(args.workload, args.seed, args.tiny)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_library()
    from tracing import layer_metrics
    from workloads import WORKLOADS

    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        record_digests(range(int(first), int(last or first) + 1))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    inputs, warm_up = prepare_and_warm_up(workload, args.seed)
    plain, traced, rounds, tracer = measure(workload, inputs, args.seed, args.seconds, bool(args.trace))

    pass_digests = [digest(p.outputs) for p in plain]
    # tiny sizes have no recorded digests
    check_seed, checked, recorded = (args.seed, [], []) if args.tiny else recorded_check(workload, args.seed, plain)
    unmeasured = [warm_up] + rounds + (checked if check_seed != args.seed else [])
    attempted, failed, failures = tally(unmeasured, plain, traced, checked, recorded)
    for reason in failures[:20]:
        print("FAILED " + reason.strip().replace("\n", "\n    "), file=sys.stderr)
    latencies = [t for p in plain for t in p.latencies]
    tail = percentile(latencies, workload.tail_pct)
    beyond = sum(1 for t in latencies if t > tail)
    print(
        f"workload {workload.name} seed {args.seed} passes {len(plain)}"
        f" calls {len(latencies)} digest {run_digest(pass_digests[:MIN_PASSES])}"
        f" recorded_digest {'absent' if recorded is None else f'seed {check_seed}, {len(recorded)} passes'}"
    )

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        untraced_wall = sum(p.wall for p in plain)
        traced_wall = sum(p.wall for p in traced)
        values = layer_metrics(tracer.spans, len(traced), traced_wall, untraced_wall)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.dump(path, {"workload": workload.name, "seed": args.seed, "env": env})
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(plain, rounds, workload.tail_pct)
    for name in names:
        note = ""
        if name == "call_tail_ms":
            note = f" (p{workload.tail_pct:g} of {len(latencies)} calls, {beyond} beyond)"
        elif name == "call_p50_ms":
            note = f" ({len(latencies)} calls)"
        print(f"metric {name} {values[name]:.6g} {units[name]}{note}")
    print(f"metric failed_frac {failed / attempted if attempted else 1.0:.6g} ratio ({failed} of {attempted} calls)")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def record_digests(seeds) -> None:
    from workloads import WORKLOADS

    table = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        table[name] = {}
        for seed in seeds:
            inputs = workload.prepare(seed)
            passes = [workload.run_pass(inputs, i) for i in range(MIN_PASSES)]
            for p in passes:
                if p.failures:
                    raise RuntimeError(f"{name} seed {seed}: {p.failures[0]}")
            table[name][str(seed)] = [digest(p.outputs) for p in passes]
            print(f"{name} seed {seed}: {run_digest(table[name][str(seed)])}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
