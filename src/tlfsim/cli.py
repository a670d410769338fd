"""Command-line interface.

Subcommands
-----------
Each takes only the flags it reads, after the subcommand; any other flag is
a usage error.

``run <scenario-file> [--seed N] [--out-dir DIR] [--format csv|jsonl] [--deterministic]``
    Execute a scenario and write its output files plus a YAML manifest.
    ``--out-dir`` falls back to the ``SPINBOSON_OUT_DIR`` environment
    variable; ``--deterministic`` is accepted and ignored (every run is
    serial and byte-reproducible).
``validate <scenario-file> [--seed N]``
    Parse and validate a scenario, draw its fluctuator ensemble once (a
    model that cannot be sampled, or too fast for the step to hold the
    trace, is a configuration error), echo the resolved parameters. ``--seed``
    (here and in ``run``) replaces the model seed before any member is
    built, and is refused for a file whose ``grid`` runs over ``seed``.
``sample [--seed N] [--format yaml|jsonl] [model flags]``
    Print a seeded fluctuator ensemble (YAML, or one JSON line) with all
    derived quantities; the model flags are ``--n-tlf``, ``--ratio-eps``,
    ``--tan-theta-bar``, ``--mu-over-nu``, ``--nbar``, ``--gamma-plus-mode``.
``oracle``
    Run the analytic and brute-force oracle suite; one pass/fail line each.

Exit codes: 0 on success, 1 on configuration or usage errors (an output
directory, table or manifest that cannot be written among them, and standard
output closed by its reader), 2 on numerical failures.

Scenario file schema (YAML)
---------------------------
::

    schema_version: 1            # required, literal 1
    kind: spectrum_sweep         # spectrum_sweep | entanglement_sweep |
                                 # bound_compare | bell_decay | gate
    model:                       # all optional, defaults shown
      omega_p: 1.0               # probe frequency: the unit of energy, must be 1
      n_tlf: 4                   # number of fluctuators, at most 6 (5 under xxyy)
      ratio_eps: 3.0             # probe splitting / mean TLF bias
      tan_theta_bar: 0.3333333   # mean TLF local field / mean TLF bias
      mu_over_nu: 0.0            # TLF-TLF coupling ratio: each point sets
                                 # it, so a file may not
      nbar: 0.0                  # mean bath occupation
      seed: 0                    # RNG seed
      gamma_plus_mode: scaled-by-nbar   # or: sampled
      halve_couplings: false     # halve the TLF-TLF interaction term
    sweep: [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]   # mu/nu values, within [0, 1.2],
                                 # distinct to two decimals (the file label);
                                 # not for bell_decay and gate (0 and 1)
    duration: 50.0               # probe cycles (kind-specific default);
                                 # not for spectrum_sweep (see n_samples)
    gate: {kind: zz, strength: null}        # gate only: zz | xxyy;
                                 # strength defaults to the sampled coupling;
                                 # strength as run * trace step at most pi/4
    bell: phi+                   # bell_decay only: phi+ | phi- | psi+ | psi-
    epsilons: [0.1, 0.03, 0.01, 0.003, 0.001]  # bell_decay only: thresholds
    output: runs/myrun           # output directory
    n_samples: 4000              # spectrum sampling: series length
    sample_step: 0.05            # spectrum sampling: t_s, 1/omega_p units
    trace_step_cycles: 0.01      # entanglement/gate trace step, cycles
    bell_step_cycles: 0.05       # bell_decay trace step, cycles

Unknown keys anywhere are rejected, and so is a key set to other than its
default on a kind that does not read it (``scenarios.KINDS``), a time grid
of more than 10**6 steps per point, a register whose largest block
Liouvillian is over 4096 square (``scenarios.MAX_BLOCK_DIM``), and a model
whose fastest frequency times the step and the number of steps passes
``TRACE_ABORT_TOL`` / machine epsilon.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import yaml

from .dynamics import PropagationError
from .model import (
    GAMMA_PLUS_MODES,
    ConfigurationError,
    GroundStateDegeneracyError,
    ModelConfig,
    sample_ensemble,
)
from .scenarios import FORMATS, load_scenario_file, run_scenario


SAMPLE_FORMATS = ("yaml", "jsonl")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlfsim", description="probe-plus-fluctuator simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_sample = sub.add_parser("sample", help="print a seeded fluctuator ensemble")
    sub.add_parser("oracle", help="run the analytic/brute-force oracle suite")
    for p in (p_run, p_val):
        p.add_argument("scenario_file")
        p.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument(
        "--out-dir", help="output directory (falls back to $SPINBOSON_OUT_DIR, then the scenario)"
    )
    p_run.add_argument(
        "--deterministic",
        action="store_true",
        help="accepted and ignored: every run is serial and byte-reproducible",
    )
    p_run.add_argument("--format", choices=FORMATS, default="csv", help="table format")
    p_sample.add_argument(
        "--format", choices=SAMPLE_FORMATS, default="yaml", help="ensemble format"
    )

    # a model flag left out keeps ModelConfig's default
    p_sample.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_sample.add_argument("--n-tlf", type=int, default=argparse.SUPPRESS)
    p_sample.add_argument("--ratio-eps", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument("--tan-theta-bar", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument("--mu-over-nu", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument("--nbar", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument(
        "--gamma-plus-mode", choices=GAMMA_PLUS_MODES, default=argparse.SUPPRESS
    )
    return parser


def _cmd_run(args) -> int:
    entries = load_scenario_file(args.scenario_file, args.seed)
    base_out = args.out_dir if args.out_dir is not None else os.environ.get("SPINBOSON_OUT_DIR")
    for label, scenario in entries:
        out_dir = base_out if base_out is not None else scenario.output
        if label:
            out_dir = os.path.join(str(out_dir), label)
        record = run_scenario(scenario, out_dir=out_dir, fmt=args.format)
        tag = f" [{label}]" if label else ""
        print(f"scenario {record.scenario_hash} ({scenario.kind}) seed {record.seed}{tag}")
        for name in record.files:
            print(f"  wrote {name}")
        print(f"  manifest manifest.yaml  ({record.wall_clock_s:.1f}s)")
    return 0


def _cmd_validate(args) -> int:
    entries = load_scenario_file(args.scenario_file, args.seed)
    for label, scenario in entries:
        if label:
            print(f"--- {label} ---")
        print(yaml.safe_dump(scenario.canonical_dict(), sort_keys=False).rstrip())
        print(f"scenario_hash: {scenario.hash()}")
    return 0


def _cmd_sample(args) -> int:
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    cfg = ModelConfig(**{k: v for k, v in vars(args).items() if k in names})
    ens = sample_ensemble(cfg)
    payload = {"config": dataclasses.asdict(cfg), "ensemble": ens.as_dict()}
    if args.format == "jsonl":
        print(json.dumps(payload))
    else:
        print(yaml.safe_dump(payload, sort_keys=False).rstrip())
    return 0


def _cmd_oracle(args) -> int:
    from .oracles import run_all

    failures = 0
    for result in run_all():
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failures += not result.passed
    if failures:
        print(f"{failures} oracle check(s) failed")
        return 2
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "sample": _cmd_sample,
    "oracle": _cmd_oracle,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            # argparse would name the flag's value as an unknown subcommand instead
            parser.error(f"unrecognized arguments: {argv[0]} (flags go after the subcommand)")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, FileNotFoundError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (PropagationError, GroundStateDegeneracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``tlfsim sample | head -1``): point stdout at
        # the null device so that the interpreter's last flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
