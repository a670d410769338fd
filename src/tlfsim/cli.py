"""Command-line interface.

Subcommands
-----------
``run <scenario-file>``
    Execute a scenario and write its output files plus a YAML manifest.
``validate <scenario-file>``
    Parse and validate a scenario, echo the resolved parameters.
``sample``
    Print a seeded fluctuator ensemble with all derived quantities.
``oracle``
    Run the analytic and brute-force oracle suite; one pass/fail line each.

Global flags: ``--seed`` (override the scenario seed: the loader,
:func:`~tlfsim.scenarios.load_scenario_file`, writes it into the file's
model before any member is built, and refuses it for a file whose ``grid``
runs over ``seed``), ``--out-dir`` (override the scenario output directory;
falls back to the ``SPINBOSON_OUT_DIR`` environment variable),
``--deterministic`` (accepted and ignored: every run is serial and
byte-reproducible), ``--format {csv|jsonl}``.

Exit codes: 0 on success, 1 on configuration or usage errors (an output
directory, table or manifest that cannot be written among them), 2 on
numerical failures.

Scenario file schema (YAML)
---------------------------
::

    schema_version: 1            # required, literal 1
    kind: spectrum_sweep         # spectrum_sweep | entanglement_sweep |
                                 # bound_compare | bell_decay | gate
    model:                       # all optional, defaults shown
      omega_p: 1.0               # probe frequency (sets the unit)
      n_tlf: 4                   # number of fluctuators, at most 6 (5 under xxyy)
      ratio_eps: 3.0             # probe splitting / mean TLF bias
      tan_theta_bar: 0.3333333   # mean TLF local field / mean TLF bias
      mu_over_nu: 0.0            # base TLF-TLF coupling ratio
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
                                 # strength defaults to the sampled coupling
    bell: phi+                   # bell_decay only: phi+ | phi- | psi+ | psi-
    epsilons: [0.1, 0.03, 0.01, 0.003, 0.001]  # bell_decay only: thresholds
    output: runs/myrun           # output directory
    n_samples: 4000              # spectrum sampling: series length
    sample_step: 0.05            # spectrum sampling: t_s, 1/omega_p units
    trace_step_cycles: 0.01      # entanglement/gate trace step, cycles
    bell_step_cycles: 0.05       # bell_decay trace step, cycles

Unknown keys anywhere are rejected, and so is a key set to other than its
default on a kind that does not read it (``scenarios.KIND_FIELDS``), a time
grid of more than 10**6 steps per point, and a register whose largest block
Liouvillian is over 4096 square (``scenarios.MAX_BLOCK_DIM``).
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_global_flags(parser) -> None:
    # SUPPRESS keeps subcommand-level occurrences from clobbering values
    # parsed before the subcommand; real defaults live in set_defaults below.
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="override the scenario seed"
    )
    parser.add_argument(
        "--out-dir",
        default=argparse.SUPPRESS,
        help="output directory (falls back to $SPINBOSON_OUT_DIR, then the scenario)",
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        default=argparse.SUPPRESS,
        help="accepted and ignored: every run is serial and byte-reproducible",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=argparse.SUPPRESS, help="output table format"
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="tlfsim", description="probe-plus-fluctuator simulator")
    _add_global_flags(parser)
    parser.set_defaults(seed=None, out_dir=None, deterministic=False, format="csv")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario_file")
    _add_global_flags(p_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario_file")
    _add_global_flags(p_val)

    # a flag left out keeps ModelConfig's default
    p_sample = sub.add_parser("sample", help="print a seeded fluctuator ensemble")
    p_sample.add_argument("--n-tlf", type=int, default=argparse.SUPPRESS)
    p_sample.add_argument("--ratio-eps", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument("--tan-theta-bar", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument("--mu-over-nu", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument("--nbar", type=float, default=argparse.SUPPRESS)
    p_sample.add_argument(
        "--gamma-plus-mode", choices=GAMMA_PLUS_MODES, default=argparse.SUPPRESS
    )
    _add_global_flags(p_sample)

    p_oracle = sub.add_parser("oracle", help="run the analytic/brute-force oracle suite")
    _add_global_flags(p_oracle)
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
    cfg = ModelConfig(**{k: v for k, v in vars(args).items() if k in names and v is not None})
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
    try:
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
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
