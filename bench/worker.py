"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage::

    python3 bench/worker.py --src SRC --scenario FILE --out-dir DIR --result FILE
                            [--spans FILE --run-id ID | --setup-only]

Set-up time runs from the start of this script through importing tlfsim
and loading and validating the scenario file. The run is then timed from
the ``cli_main(["run", ...])`` call until it returns, which is after the
manifest is written. With ``--spans`` the run is traced and its spans are
written to that file. With ``--setup-only`` it stops after set-up. The
result file holds the exit code, any exception
that escaped ``cli_main``, the timings, the peak RSS of this process and
the machine facts.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def set_up(scenario, started) -> float:
    """Import tlfsim and load and validate the scenario file; return the seconds taken."""
    import tlfsim.cli  # noqa: F401
    from tlfsim.scenarios import load_scenario_file

    try:
        load_scenario_file(scenario)
    except Exception:  # noqa: BLE001 - cli_main reports a bad file with its exit code
        pass
    return time.perf_counter() - started


def run_once(scenario, out_dir, tracer=None, started=None) -> dict:
    """Set up, then run the scenario through the CLI; never raises."""
    setup_s = set_up(scenario, time.perf_counter() if started is None else started)
    from tlfsim import cli

    restore = tracer.install() if tracer is not None else None
    code, error = None, None
    t0 = time.perf_counter()
    try:
        code = cli.cli_main(["run", str(scenario), "--deterministic", "--out-dir", str(out_dir)])
    except Exception as exc:  # noqa: BLE001 - a raw exception is a failed run, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall_s = time.perf_counter() - t0
        if restore is not None:
            restore()
    return {"exit_code": code, "error": error, "setup_s": setup_s, "wall_s": wall_s}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out-dir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    if args.setup_only:
        result = {"setup_s": set_up(args.scenario, _STARTED)}
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
    result = run_once(args.scenario, args.out_dir, tracer, started=_STARTED)

    import tlfsim

    result["tlfsim_file"] = tlfsim.__file__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_facts()
    if tracer is not None:
        tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
