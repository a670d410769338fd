"""tlfsim benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload spectrum --seed 3 --seconds 42 --trace 0

Each repetition writes the workload's scenario file and runs it in a fresh
process through ``tlfsim.cli.cli_main(["run", FILE, "--deterministic",
"--out-dir", DIR])``, one at a time. The first repetition runs at the
default seed and is compared against ``reference.json``; the rest run at
``--seed`` until ``--seconds`` are used, and what is left after the last
repetition goes to extra set-up samples. Every repetition's outputs are
checked. With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced repetitions
alternate and the per-layer metrics are reported instead. Full results,
machine facts, table digests and spans go to ``.bench_build/tlfsim/results``.

``--write-reference`` reruns the default-seed repetition of the workload and
stores its summary and table digests in ``reference.json``; do that only
when a change to the numerics is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from tracing import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, scenario_dict, write_scenario

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# the abort tolerances of tlfsim.dynamics at the commit that defined this benchmark
TRACE_ABORT_TOL = 1e-6
HERM_ABORT_TOL = 1e-6
EIG_ABORT_TOL = -1e-5
# the golden-regression tolerance of the acceptance suite
RTOL, ATOL = 1e-5, 1e-8

MIN_REPS = 3          # timed repetitions even past --seconds; a traced run has 2 of each kind
HARD_LIMIT_S = 165.0  # stop starting repetitions after this; a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_step"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def child_env() -> dict:
    """The environment of a repetition: BLAS and OpenMP use at most nproc threads."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


def count_rows(path: Path) -> tuple[str, int]:
    """Header line and number of data rows of a CSV table with a # preamble."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return (lines[0] if lines else ""), max(len(lines) - 1, 0)


def check_outputs(out_dir: Path, expected_steps: int) -> dict:
    """Check one repetition's manifest and tables; list every problem found."""
    problems = []
    manifest_path = out_dir / "manifest.yaml"
    if not manifest_path.is_file():
        return {"problems": ["no manifest written"]}
    manifest = yaml.safe_load(manifest_path.read_text(encoding="utf-8"))
    summary = manifest.get("summary") or {}
    for label, stats in (summary.get("cptp") or {}).items():
        if not stats.get("max_trace_drift", math.inf) <= TRACE_ABORT_TOL:
            problems.append(f"cptp {label}: trace drift {stats.get('max_trace_drift')}")
        if not stats.get("max_herm_dev", math.inf) <= HERM_ABORT_TOL:
            problems.append(f"cptp {label}: Hermiticity deviation {stats.get('max_herm_dev')}")
        w_min = stats.get("min_eigenvalue")
        if w_min is None or not w_min >= EIG_ABORT_TOL:
            problems.append(f"cptp {label}: minimum eigenvalue {w_min}")
    if not summary.get("cptp"):
        problems.append("manifest has no cptp entries")
    digests, steps, size = {}, 0, 0
    for name in manifest.get("files") or []:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"table {name} missing")
            continue
        data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        header, rows = count_rows(path)
        if header.startswith("t,"):
            steps += rows - 1
    if not digests:
        problems.append("manifest lists no tables")
    if steps != expected_steps:
        problems.append(f"time traces hold {steps} steps, expected {expected_steps}")
    return {
        "problems": problems,
        "summary": {k: v for k, v in summary.items() if k != "cptp"},
        "digests": digests,
        "steps": steps,
        "bytes": size,
    }


def mismatches(got, want, path="summary") -> list[str]:
    """Where ``got`` differs from ``want``; numbers compare at RTOL and ATOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        return [] if abs(got - want) <= ATOL + RTOL * abs(want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def load_reference() -> dict:
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {"workloads": {}}


def run_problems(result: dict) -> list[str]:
    """Why a repetition failed, judged from the worker's result; empty if it ran."""
    if result["error"] is not None:
        return [f"exception escaped cli_main: {result['error']}"]
    if result["exit_code"] != 0:
        return [f"cli_main returned {result['exit_code']}"]
    return []


class Runner:
    """Runs repetitions of one workload in fresh processes, one at a time."""

    def __init__(self, workload: str, work_dir: Path, started: float):
        self.workload = workload
        self.work_dir = work_dir
        self.started = started
        self.env = child_env()
        self.spans = []

    def _worker(self, result_file: Path, *args: str) -> tuple[dict | None, str]:
        """Run worker.py; return its result (None if it gave none) and its stderr tail."""
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(ROOT / "src"),
               "--result", str(result_file), *args]
        timeout = max(HARD_LIMIT_S + 10.0 - (time.perf_counter() - self.started), 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        tail = " | ".join(proc.stderr.strip().splitlines()[-2:])
        if proc.returncode != 0 or not result_file.is_file():
            return None, f"worker exited {proc.returncode}: {tail}"
        return json.loads(result_file.read_text(encoding="utf-8")), tail

    def repeat(self, seed: int, index: int, traced: bool = False) -> dict:
        scenario = write_scenario(self.workload, seed, self.work_dir / f"scenario-{seed}.yaml")
        rep = self.run_file(scenario, index, traced)
        rep["seed"] = seed
        return rep

    def setup_probe(self, seed: int, index: int) -> dict:
        """Time set-up alone in a fresh worker: one more setup_s sample."""
        scenario = write_scenario(self.workload, seed, self.work_dir / f"scenario-{seed}.yaml")
        t0 = time.perf_counter()
        result, _ = self._worker(self.work_dir / f"setup-{index}.json",
                                 "--scenario", str(scenario), "--setup-only")
        return {**(result or {}), "elapsed_s": time.perf_counter() - t0}

    def run_file(self, scenario: Path, index: int, traced: bool = False) -> dict:
        """Run one scenario file in a worker process and check what it wrote."""
        out_dir = self.work_dir / f"out-{index}"
        spans_file = self.work_dir / f"spans-{index}.json"
        args = ["--scenario", str(scenario), "--out-dir", str(out_dir)]
        if traced:
            args += ["--spans", str(spans_file), "--run-id", f"{self.workload}-{index}"]
        t0 = time.perf_counter()
        result, stderr_tail = self._worker(self.work_dir / f"result-{index}.json", *args)
        rep = {"index": index, "traced": traced, "elapsed_s": time.perf_counter() - t0}
        if result is None:
            rep.update(ok=False, problems=[stderr_tail])
            return rep
        rep.update(result)
        problems = [f"{p}: {stderr_tail}" for p in run_problems(rep)]
        if not Path(rep["tlfsim_file"]).resolve().is_relative_to(ROOT / "src"):
            problems.append(f"imported tlfsim from {rep['tlfsim_file']}, not this checkout")
        if not problems:
            checked = check_outputs(out_dir, WORKLOADS[self.workload]["steps"])
            problems += checked.pop("problems")
            rep.update(checked)
        if traced and not problems:
            trace = json.loads(spans_file.read_text(encoding="utf-8"))
            self.spans += trace["spans"]
            rep["unpatched"] = trace["missing"]
            rep["layers"] = layer_metrics(trace["spans"])
        rep.update(ok=not problems, problems=problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return rep


def measure(args, work_dir: Path) -> dict:
    started = time.perf_counter()
    runner = Runner(args.workload, work_dir, started)

    check = runner.repeat(DEFAULT_SEED, 0)
    ref = load_reference()["workloads"].get(args.workload)
    if check["ok"]:
        if ref is None:
            check["problems"].append("no reference stored for this workload")
        elif ref["scenario"] != scenario_dict(args.workload, DEFAULT_SEED):
            check["problems"].append("reference was made for another scenario; rewrite it")
        else:
            check["problems"] += mismatches(check["summary"], ref["summary"])
            check["digests_match_reference"] = check["digests"] == ref["digests"]
        check["ok"] = not check["problems"]

    kinds = [False, True] if args.trace else [False]
    timed = []
    while time.perf_counter() - started < HARD_LIMIT_S:
        last = timed[-1]["elapsed_s"] if timed else check["elapsed_s"]
        enough = len(timed) >= max(MIN_REPS, 2 * len(kinds))
        if enough and time.perf_counter() - started + last > args.seconds:
            break
        timed.append(runner.repeat(args.seed, len(timed) + 1, kinds[len(timed) % len(kinds)]))
    # setup_s is the noisiest metric: spend what is left of the budget on more samples of it
    probes = []
    while not args.trace:
        last = probes[-1]["elapsed_s"] if probes else check["elapsed_s"] - check.get("wall_s", 0.0)
        elapsed = time.perf_counter() - started
        if elapsed + last > min(args.seconds, HARD_LIMIT_S):
            break
        probes.append(runner.setup_probe(args.seed, len(probes)))

    good = [r for r in timed if r["ok"]]
    digest_sets = {json.dumps(r["digests"], sort_keys=True) for r in good}
    if len(digest_sets) > 1:
        for r in good:
            r["problems"].append("table digests differ between repetitions at one seed")
            r["ok"] = False
        good = []
    reps = [check] + timed
    return {
        "check": check,
        "timed": timed,
        "good": good,
        "setup_probes": [p["setup_s"] for p in probes if "setup_s" in p],
        "attempted": len(reps),
        "failed": sum(not r["ok"] for r in reps),
        "spans": runner.spans,
    }


def end_to_end_samples(plain, setup_probes) -> dict:
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "steps_per_s": [r["steps"] / r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain] + setup_probes,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def per_layer_samples(plain, traced) -> dict:
    samples = {name: [r["layers"][name] for r in traced] for name in layer_metrics([])}
    samples["scenarios.bytes_written"] = [r["bytes"] for r in traced]
    samples["trace.wall_s"] = [r["wall_s"] for r in traced]
    samples["trace.overhead_s"] = []
    if plain and traced:
        samples["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"])
                                       - statistics.median(r["wall_s"] for r in plain)]
    return samples


def report(args, res: dict, results_dir: Path) -> dict:
    check, good = res["check"], res["good"]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if args.trace:
        samples = per_layer_samples(plain, traced)
        units = {name: layer_unit(name) for name in samples}
    else:
        samples = end_to_end_samples(plain, res["setup_probes"])
        units = END_TO_END_UNITS
    metrics = {name: statistics.median(v) if v else None for name, v in samples.items()}
    error_rate = res["failed"] / res["attempted"]
    correct = res["failed"] == 0 and all(v is not None for v in metrics.values())

    machine = next((r["machine"] for r in [check] + res["timed"] if "machine" in r), {})
    print(f"tlfsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"reference check at seed {DEFAULT_SEED}: {'ok' if check['ok'] else 'FAILED'}; "
          f"table digests match reference: {check.get('digests_match_reference')}")
    for r in [check] + res["timed"]:
        for problem in r.get("problems", []):
            print(f"  repetition {r['index']} (seed {r['seed']}): {problem}")
    print(f"repetitions: {res['attempted']} attempted, {res['failed']} failed, "
          f"error_rate {error_rate:.4g} ratio")
    print(f"{'metric':34} {'unit':6} {'median':>14} {'min':>14} {'max':>14} {'n':>3}")
    for name, values in samples.items():
        cells = [metrics[name], min(values), max(values)] if values else [math.nan] * 3
        print(f"{name:34} {units[name]:6} " + " ".join(f"{c:14.6g}" for c in cells)
              + f" {len(values):3d}")
    digests = good[0]["digests"] if good else {}
    for name, digest in sorted(digests.items()):
        print(f"sha256 {digest}  {name} (seed {args.seed})")
    unpatched = sorted({p for r in traced for p in r["unpatched"]})
    if unpatched:
        print("not traced (absent from this tlfsim): " + ", ".join(unpatched))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir.mkdir(parents=True, exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "error_rate": error_rate,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples, "table_digests": digests,
        "repetitions": [{k: v for k, v in r.items() if k not in ("summary", "machine")}
                        for r in [check] + res["timed"]],
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if res["spans"]:
        (results_dir / f"{tag}-spans.json").write_text(json.dumps(res["spans"]), encoding="utf-8")
    print(f"details: {(results_dir / f'{tag}.json').relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v if v is not None else 0.0, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def write_reference(workload: str, work_dir: Path) -> int:
    rep = Runner(workload, work_dir, time.perf_counter()).repeat(DEFAULT_SEED, 0)
    if not rep["ok"]:
        print("\n".join(rep["problems"]), file=sys.stderr)
        return 1
    ref = load_reference()
    ref["workloads"][workload] = {
        "scenario": scenario_dict(workload, DEFAULT_SEED),
        "summary": rep["summary"],
        "digests": rep["digests"],
    }
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"stored the seed-{DEFAULT_SEED} reference of {workload} in {REFERENCE_FILE.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tlfsim" / "__init__.py").is_file():
        print(f"error: no tlfsim sources under {ROOT / 'src'}; run from a tlfsim checkout",
              file=sys.stderr)
        return 2
    base = ROOT / ".bench_build" / "tlfsim"
    work_dir = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(args.workload, work_dir)
        result = report(args, measure(args, work_dir), base / "results")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
