import filecmp
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import tlfsim
from tlfsim.cli import cli_main

SMALL_SCENARIO = """\
schema_version: 1
kind: spectrum_sweep
model:
  n_tlf: 2
  ratio_eps: 3.0
  seed: 5
sweep: [0.0, 1.0]
n_samples: 400
output: {out}
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SMALL_SCENARIO.format(out=tmp_path / "out"))
    return path


def test_validate_ok(scenario_file, capsys):
    assert cli_main(["validate", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "scenario_hash" in out
    assert "spectrum_sweep" in out


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nkind: spectrum_sweep\nwidget: 3\n")
    assert cli_main(["validate", str(bad)]) == 1
    assert "widget" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path):
    assert cli_main(["run", str(tmp_path / "nope.yaml")]) == 1


def test_unknown_subcommand_usage_error(capsys):
    assert cli_main(["explode"]) == 1


def test_unknown_flag_usage_error(scenario_file):
    assert cli_main(["run", str(scenario_file), "--frobnicate"]) == 1


def test_help_exits_zero():
    assert cli_main(["--help"]) == 0


def test_run_deterministic_byte_identical(scenario_file, tmp_path, capsys):
    # --deterministic is accepted and changes nothing: every run is serial
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", str(scenario_file), "--out-dir", str(out_a)]) == 0
    assert cli_main(["run", str(scenario_file), "--deterministic", "--out-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert names
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert mismatch == [] and errors == []
    for out in (out_a, out_b):
        assert "jobs" not in yaml.safe_load((out / "manifest.yaml").read_text())


def test_seed_override(scenario_file, tmp_path, capsys):
    out = tmp_path / "seeded"
    assert cli_main(["run", str(scenario_file), "--seed", "9", "--out-dir", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["seed"] == 9


def test_out_dir_env_fallback(scenario_file, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("SPINBOSON_OUT_DIR", str(target))
    assert cli_main(["run", str(scenario_file)]) == 0
    assert (target / "manifest.yaml").exists()


def test_sample_parameters_in_range(capsys):
    assert cli_main(["sample", "--seed", "42"]) == 0
    payload = yaml.safe_load(capsys.readouterr().out)
    cfg = payload["config"]
    ens = payload["ensemble"]
    eps_bar = cfg["omega_p"] / cfg["ratio_eps"]
    delta_bar = cfg["tan_theta_bar"] * eps_bar
    half = 0.5 * min(cfg["omega_p"], delta_bar)
    eps = np.array(ens["eps"])
    delta = np.array(ens["delta"])
    omega_min = ens["omega_min"]
    assert np.all((eps >= 0.5 * eps_bar) & (eps <= 1.5 * eps_bar))
    assert np.all((delta >= delta_bar - half) & (delta <= delta_bar + half))
    for key in ("gamma_z", "gamma_minus"):
        rates = np.array(ens[key])
        assert np.all((rates >= omega_min / 6) & (rates <= omega_min / 2))
    assert np.isclose(ens["nu"], omega_min / 3)


def test_sample_defaults_are_the_model_defaults(capsys):
    import dataclasses

    from tlfsim.model import ModelConfig, sample_ensemble

    assert cli_main(["sample", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    cfg = ModelConfig(seed=42)
    payload = {"config": dataclasses.asdict(cfg), "ensemble": sample_ensemble(cfg).as_dict()}
    assert out == yaml.safe_dump(payload, sort_keys=False).rstrip() + "\n"
    flags = [
        "--n-tlf", "4", "--ratio-eps", "3.0", "--tan-theta-bar", repr(1.0 / 3.0),
        "--mu-over-nu", "0.0", "--nbar", "0.0", "--gamma-plus-mode", "scaled-by-nbar",
    ]
    assert cli_main(["sample", "--seed", "42", *flags]) == 0
    assert capsys.readouterr().out == out


def test_sample_jsonl(capsys):
    assert cli_main(["sample", "--seed", "1", "--format", "jsonl"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert "ensemble" in payload


def test_sample_yaml_is_the_default(capsys):
    assert cli_main(["sample", "--seed", "3"]) == 0
    default = capsys.readouterr().out
    assert cli_main(["sample", "--seed", "3", "--format", "yaml"]) == 0
    assert capsys.readouterr().out == default
    assert yaml.safe_load(default)["config"]["seed"] == 3


def test_sample_refuses_csv(capsys):
    # csv names table formats of run; an ensemble is a nested mapping
    assert cli_main(["sample", "--seed", "3", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_sample_into_a_closed_pipe_exits_cleanly():
    # the reader is gone before the ensemble is printed, as in `tlfsim sample | head -1`
    src = str(Path(tlfsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "tlfsim.cli", "sample", "--seed", "42"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_numerical_failure_exit_code(scenario_file, monkeypatch, capsys):
    from tlfsim.dynamics import PropagationError

    def boom(*args, **kwargs):
        raise PropagationError("state invariants broke down")

    monkeypatch.setattr("tlfsim.cli.run_scenario", boom)
    assert cli_main(["run", str(scenario_file)]) == 2
    assert "numerical failure" in capsys.readouterr().err


BAD_GRID_SCENARIO = """\
schema_version: 1
kind: gate
gate:
  kind: zz
model:
  n_tlf: 1
  seed: 5
duration: 1.0
trace_step_cycles: 0.3
output: {out}
"""


@pytest.mark.parametrize("command", ["validate", "run"])
def test_grid_that_does_not_divide_is_config_error(command, tmp_path, capsys):
    path = tmp_path / "bad_grid.yaml"
    path.write_text(BAD_GRID_SCENARIO.format(out=tmp_path / "out"))
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "does not divide" in err
    assert not (tmp_path / "out").exists()


KEY_KIND_MISMATCHES = {
    "bell_decay-sweep": "kind: bell_decay\nbell: phi+\nsweep: [0.5]\n",
    "gate-sweep": "kind: gate\ngate: {kind: zz}\nsweep: [0.5]\n",
    "spectrum_sweep-duration": "kind: spectrum_sweep\nn_samples: 64\nduration: 99.0\n",
    "entanglement_sweep-gate": "kind: entanglement_sweep\ngate: {kind: zz}\n",
    "entanglement_sweep-bell": "kind: entanglement_sweep\nbell: phi+\n",
    "entanglement_sweep-epsilons": "kind: entanglement_sweep\nepsilons: [0.1]\n",
    "entanglement_sweep-n_samples": "kind: entanglement_sweep\nn_samples: 64\n",
    "entanglement_sweep-bell_step_cycles": "kind: entanglement_sweep\nbell_step_cycles: 0.1\n",
    "bell_decay-trace_step_cycles": "kind: bell_decay\nbell: phi+\ntrace_step_cycles: 0.1\n",
    "gate-sample_step": "kind: gate\ngate: {kind: zz}\nsample_step: 0.1\n",
    # every point sets its own mu/nu; PyYAML keeps the last of a repeated key,
    # so each of these model mappings replaces the base one
    "entanglement_sweep-mu_over_nu":
        "kind: entanglement_sweep\nmodel: {n_tlf: 1, seed: 5, mu_over_nu: 0.7}\n",
    "bell_decay-mu_over_nu":
        "kind: bell_decay\nbell: phi+\nmodel: {n_tlf: 1, seed: 5, mu_over_nu: 0.7}\n",
    "gate-mu_over_nu":
        "kind: gate\ngate: {kind: zz}\nmodel: {n_tlf: 1, seed: 5, mu_over_nu: 0.7}\n",
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", list(KEY_KIND_MISMATCHES))
def test_key_the_kind_ignores_is_config_error(case, command, tmp_path, capsys):
    path = tmp_path / "mismatch.yaml"
    path.write_text(
        "schema_version: 1\nmodel: {n_tlf: 1, seed: 5}\n"
        + KEY_KIND_MISMATCHES[case]
        + f"output: {tmp_path / 'out'}\n"
    )
    assert cli_main([command, str(path)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _propagate_with_negative_marginal(gen, rho0, t_end, dt, **kwargs):
    from tlfsim.dynamics import Trajectory

    marginal = np.diag([0.5, 0.3, 0.201, -0.001]).astype(complex)
    return Trajectory(
        t_grid=np.array([0.0, dt]), step=dt, marginals=np.stack([marginal, marginal])
    )


@pytest.mark.parametrize("n_tlf", [1, 2])
def test_negative_population_is_numerical_failure(n_tlf, tmp_path, monkeypatch, capsys):
    path = tmp_path / "ent.yaml"
    path.write_text(
        f"schema_version: 1\nkind: entanglement_sweep\nmodel: {{n_tlf: {n_tlf}, seed: 5}}\n"
        "sweep: [0.0, 1.0]\nduration: 1.0\ntrace_step_cycles: 0.1\n"
        f"output: {tmp_path / 'out'}\n"
    )
    monkeypatch.setattr("tlfsim.scenarios.propagate", _propagate_with_negative_marginal)
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "negative population" in err
    assert "Traceback" not in err


def _propagate_with_separable_marginal(gen, rho0, t_end, dt, **kwargs):
    from tlfsim.dynamics import Trajectory

    marginal = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    return Trajectory(
        t_grid=np.array([0.0, dt]), step=dt, marginals=np.stack([marginal, marginal])
    )


def test_bell_start_that_is_not_entangled_is_numerical_failure(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bell.yaml"
    path.write_text(
        "schema_version: 1\nkind: bell_decay\nbell: phi+\nmodel: {n_tlf: 1, seed: 5}\n"
        f"duration: 1.0\noutput: {tmp_path / 'out'}\n"
    )
    monkeypatch.setattr("tlfsim.scenarios.propagate", _propagate_with_separable_marginal)
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "initial register entanglement" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["spectrum_mu0.00.csv", "manifest.yaml"])
def test_output_file_that_cannot_be_written_is_config_error(
    target, scenario_file, tmp_path, capsys
):
    out = tmp_path / "blocked"
    (out / target).mkdir(parents=True)
    assert cli_main(["run", str(scenario_file), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: cannot write output" in err and "Traceback" not in err
    assert (out / target).is_dir()


# scenarios whose gate term is too large for floating point: the first
# makes exp(L dt) non-finite, the second L itself
@pytest.mark.parametrize("strength", ["1.0e+300", "1.5e+308"])
def test_overflowing_gate_is_numerical_failure(strength, tmp_path, capsys):
    from tlfsim.dynamics import PropagationError
    from tlfsim.model import ModelConfig
    from tlfsim.scenarios import simulate

    path = tmp_path / "gate.yaml"
    path.write_text(
        "schema_version: 1\nkind: gate\nmodel: {n_tlf: 1, seed: 1}\nduration: 0.1\n"
        f"gate: {{kind: zz, strength: {strength}}}\noutput: {tmp_path / 'out'}\n"
    )
    # the step cannot resolve such a gate, so validate refuses the file
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "pi/4" in err and "Traceback" not in err
    # below the file check, the overflow is reported once, as the numerical
    # failure, with no numpy warnings
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "error", message="(overflow|invalid value) encountered", category=RuntimeWarning
        )
        with pytest.raises(PropagationError):
            simulate(
                ModelConfig(n_tlf=1, seed=1), 0.1 * 2 * np.pi, 0.01 * 2 * np.pi,
                gate="zz", g=float(strength),
            )


# the ideal gate entangles |++> maximally at t = pi/(4 g); the trace step of
# 0.01 cycles is that time at g = 12.5
@pytest.mark.parametrize("command", ["validate", "run"])
def test_gate_step_that_cannot_resolve_the_gate_is_config_error(command, tmp_path, capsys):
    path = tmp_path / "gate.yaml"
    body = "schema_version: 1\nkind: gate\nmodel: {n_tlf: 1, seed: 1}\nduration: 0.1\n"
    path.write_text(body + f"gate: {{kind: zz, strength: 12.6}}\noutput: {tmp_path / 'out'}\n")
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "pi/4" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    path.write_text(body + "gate: {kind: zz, strength: 12.4}\n")
    assert cli_main(["validate", str(path)]) == 0


@pytest.mark.parametrize("kind", ["entanglement_sweep", "gate"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_model_that_cannot_be_sampled_is_config_error(command, kind, tmp_path, capsys):
    # ratio_eps = 1e-20 puts the local-field range below the resolution of its centre
    path = tmp_path / "tiny.yaml"
    model = "model: {n_tlf: 1, seed: 1, ratio_eps: %s}\n"
    body = f"schema_version: 1\nkind: {kind}\nduration: 0.1\noutput: {tmp_path / 'out'}\n"
    body += "gate: {kind: zz}\n" if kind == "gate" else "sweep: [0.0]\n"
    path.write_text(body + model % "1.0e-20")
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: degenerate sampling range" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    path.write_text(body + model % "3.0")
    assert cli_main(["validate", str(path)]) == 0


@pytest.mark.parametrize("command", ["validate", "run"])
def test_omega_p_other_than_one_is_config_error(command, tmp_path, capsys):
    path = tmp_path / "omega.yaml"
    path.write_text(
        "schema_version: 1\nkind: entanglement_sweep\nmodel: {n_tlf: 1, omega_p: 2.0}\n"
        f"sweep: [0.0]\nduration: 0.1\noutput: {tmp_path / 'out'}\n"
    )
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: omega_p must be 1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# mu = mu_over_nu * omega_min / 3, so mu/nu above 1 puts 3 mu past the slowest
# TLF frequency; at 1 the two are equal, which the heuristic allows
@pytest.mark.parametrize("mu_over_nu, warned", [(1.1, True), (1.0, False)])
def test_strong_tlf_tlf_coupling_warns(mu_over_nu, warned, tmp_path):
    path = tmp_path / "strong.yaml"
    path.write_text(
        "schema_version: 1\nkind: entanglement_sweep\nmodel: {n_tlf: 2, seed: 5}\n"
        f"sweep: [{mu_over_nu}]\nduration: 1.0\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the once-per-location registry hides nothing
        assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert ("TLF-TLF coupling is not weak against all TLF frequencies" in messages) is warned


# ratio_eps = 1e-12 puts a TLF frequency near 1.2e12, so omega * dt is 7e10 at the
# trace step of 0.01 cycles: each step's exponential loses a few percent of
# eps * omega * dt of the trace, and the run would pass the abort tolerance
@pytest.mark.parametrize("kind", ["entanglement_sweep", "gate"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_model_too_fast_for_the_step_is_config_error(command, kind, tmp_path, capsys):
    from tlfsim.dynamics import PropagationError
    from tlfsim.model import ModelConfig
    from tlfsim.scenarios import simulate

    path = tmp_path / "fast.yaml"
    model = "model: {n_tlf: 1, seed: 1, ratio_eps: %s}\n"
    body = f"schema_version: 1\nkind: {kind}\nduration: 0.1\noutput: {tmp_path / 'out'}\n"
    body += "gate: {kind: zz}\n" if kind == "gate" else "sweep: [0.0]\n"
    path.write_text(body + model % "1.0e-12")
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "drift the trace" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    path.write_text(body + model % "3.0")
    assert cli_main(["validate", str(path)]) == 0
    # the refusal is not spurious: below the file check, the run fails
    with pytest.raises(PropagationError, match="trace drift"):
        simulate(ModelConfig(n_tlf=1, seed=1, ratio_eps=1e-12), 0.1 * 2 * np.pi, 0.01 * 2 * np.pi)


# without a strength the gate runs at the sampled coupling nu = omega_min / 3;
# ratio_eps = 0.01 puts the TLF frequencies above 60, so nu * dt is above 1
@pytest.mark.parametrize("command", ["validate", "run"])
def test_sampled_gate_strength_the_step_cannot_resolve_is_config_error(command, tmp_path, capsys):
    path = tmp_path / "gate.yaml"
    body = "schema_version: 1\nkind: gate\nduration: 0.1\ngate: {kind: zz}\n"
    model = "model: {n_tlf: 1, seed: 1, ratio_eps: %s}\n"
    path.write_text(body + model % "0.01" + f"output: {tmp_path / 'out'}\n")
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "pi/4" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    path.write_text(body + model % "1.0")
    assert cli_main(["validate", str(path)]) == 0


def test_oracle_subcommand_reports_each_check(monkeypatch, capsys):
    from tlfsim.oracles import OracleResult

    passing = OracleResult("larmor", True, "max deviation 1e-12")
    failing = OracleResult("damping", False, "max deviation 1e-2")
    monkeypatch.setattr("tlfsim.oracles.run_all", lambda: [passing])
    assert cli_main(["oracle"]) == 0
    assert "PASS larmor: max deviation 1e-12" in capsys.readouterr().out
    monkeypatch.setattr("tlfsim.oracles.run_all", lambda: [passing, failing])
    assert cli_main(["oracle"]) == 2
    out = capsys.readouterr().out
    assert "FAIL damping: max deviation 1e-2" in out
    assert "1 oracle check(s) failed" in out


MALFORMED_VALUES = {
    "grid-scalar": "kind: entanglement_sweep\ngrid: {n_tlf: 1}\n",
    "sweep-scalar": "kind: entanglement_sweep\nsweep: 0.5\n",
    "sweep-word": "kind: entanglement_sweep\nsweep: [a]\n",
    "epsilons-scalar": "kind: bell_decay\nbell: phi+\nepsilons: 0.1\n",
    "gate-without-kind": "kind: gate\ngate: {strength: 0.1}\n",
    "n_tlf-word": "kind: entanglement_sweep\nmodel: {n_tlf: four}\n",
    "n_tlf-fraction": "kind: entanglement_sweep\nmodel: {n_tlf: 2.5}\n",
    "seed-fraction": "kind: entanglement_sweep\nmodel: {seed: 0.5}\n",
    "n_samples-fraction": "kind: spectrum_sweep\nn_samples: 64.5\n",
    "duration-word": "kind: entanglement_sweep\nduration: long\n",
    "bell-number": "kind: entanglement_sweep\nbell: 5\n",
    # YAML 1.1 reads an exponent without a decimal point as a string
    "ratio_eps-string": "kind: entanglement_sweep\nmodel: {ratio_eps: 1e-3}\n",
    "halve_couplings-string": "kind: entanglement_sweep\nmodel: {halve_couplings: 'false'}\n",
    "nbar-nan": "kind: entanglement_sweep\nmodel: {nbar: .nan}\n",
    "nbar-inf": "kind: entanglement_sweep\nmodel: {nbar: .inf}\n",
    "mu_over_nu-nan": "kind: entanglement_sweep\nmodel: {mu_over_nu: .nan}\n",
    "seed-negative": "kind: entanglement_sweep\nmodel: {seed: -1}\n",
    "duration-inf": "kind: entanglement_sweep\nduration: .inf\n",
    "gate-strength-nan": "kind: gate\ngate: {kind: zz, strength: .nan}\n",
    "sweep-bool": "kind: entanglement_sweep\nsweep: [true, 0.5]\n",
    "sweep-string": "kind: entanglement_sweep\nsweep: [\"0.5\", \"1e-1\"]\n",
    "epsilons-bool": "kind: bell_decay\nbell: phi+\nepsilons: [true]\n",
    "epsilons-empty": "kind: bell_decay\nbell: phi+\nepsilons: []\n",
    "kind-unknown": "kind: spectra\n",
    "gate-kind-unknown": "kind: gate\ngate: {kind: cnot}\n",
    "gate-strength-zero": "kind: gate\ngate: {kind: zz, strength: 0.0}\n",
    "n_samples-below-16": "kind: spectrum_sweep\nn_samples: 15\n",
    "trace_step_cycles-zero": "kind: entanglement_sweep\ntrace_step_cycles: 0.0\n",
    "model-list": "kind: entanglement_sweep\nmodel: [1, 2]\n",
    "yaml-unclosed-list": "kind: entanglement_sweep\nsweep: [0.0\n",
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", list(MALFORMED_VALUES))
def test_malformed_value_is_config_error(case, command, tmp_path, capsys):
    path = tmp_path / "malformed.yaml"
    path.write_text(
        "schema_version: 1\n" + MALFORMED_VALUES[case] + f"output: {tmp_path / 'out'}\n"
    )
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# validated only: running one would ask for terabytes or days
OVERSIZED = {
    "n_tlf-40": ("kind: entanglement_sweep\nmodel: {n_tlf: 40}\n", "n_tlf"),
    "n_tlf-7": ("kind: entanglement_sweep\nmodel: {n_tlf: 7}\n", "n_tlf"),
    # XX+YY merges |01>, |10> into one 128-state sector: a 16384^2 block, about 4 GiB
    "xxyy-n_tlf-6": ("kind: gate\ngate: {kind: xxyy}\nmodel: {n_tlf: 6}\n", "n_tlf"),
    "bell-duration-1e9": ("kind: bell_decay\nbell: phi+\nduration: 1.0e+9\n", "steps"),
    "duration-overflow": ("kind: entanglement_sweep\nduration: 1.0e+308\n", "time grid"),
    "n_samples-above-ceiling": ("kind: spectrum_sweep\nn_samples: 1000002\n", "steps"),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_scenario_is_config_error(case, tmp_path, capsys):
    text, word = OVERSIZED[case]
    path = tmp_path / "oversized.yaml"
    path.write_text("schema_version: 1\n" + text)
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and word in err and "Traceback" not in err
    if "gate" in text:
        assert "xxyy" in err


@pytest.mark.parametrize(
    "text",
    [
        "kind: spectrum_sweep\nmodel: {n_tlf: 6}\n",
        "kind: gate\ngate: {kind: xxyy}\nmodel: {n_tlf: 5}\n",
        "kind: spectrum_sweep\nn_samples: 1000001\n",
    ],
    ids=["n_tlf-6", "xxyy-n_tlf-5", "steps-1e6"],
)
def test_largest_allowed_scenario_validates(text, tmp_path):
    path = tmp_path / "largest.yaml"
    path.write_text("schema_version: 1\n" + text)
    assert cli_main(["validate", str(path)]) == 0


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_path_through_a_file_is_config_error(target, scenario_file, tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory\n")
    out = tmp_path / target
    assert cli_main(["run", str(scenario_file), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: cannot write output" in err and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_sample_has_no_register_ceiling(capsys):
    # the ceiling bounds scenario runs; sampling a large ensemble stays cheap
    assert cli_main(["sample", "--n-tlf", "10"]) == 0
    assert len(yaml.safe_load(capsys.readouterr().out)["ensemble"]["eps"]) == 10


@pytest.mark.parametrize("command", ["validate", "run", "sample"])
def test_negative_seed_flag_is_config_error(command, scenario_file, tmp_path, capsys):
    out = tmp_path / "seed_out"
    args = [] if command == "sample" else [str(scenario_file)]
    if command == "run":
        args += ["--out-dir", str(out)]
    assert cli_main([command, *args, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "seed" in err and "Traceback" not in err
    assert not out.exists()


GRID_SCENARIO = """\
schema_version: 1
kind: entanglement_sweep
model: {{n_tlf: 1, seed: 5}}
sweep: [0.0]
duration: 1.0
grid: {grid}
output: {out}
"""


def test_grid_file_runs_each_member_into_its_directory(tmp_path, capsys):
    path = tmp_path / "grid.yaml"
    path.write_text(GRID_SCENARIO.format(grid="{ratio_eps: [1.0, 3.0]}", out=tmp_path / "out"))
    assert cli_main(["run", str(path)]) == 0
    printed = capsys.readouterr().out
    for label, ratio in (("ratio_eps=1", 1.0), ("ratio_eps=3", 3.0)):
        member = tmp_path / "out" / label
        manifest = yaml.safe_load((member / "manifest.yaml").read_text())
        assert manifest["scenario"]["model"]["ratio_eps"] == ratio
        assert manifest["files"] == ["entanglement_mu0.00.csv"]
        assert (member / "entanglement_mu0.00.csv").is_file()
        assert f"[{label}]" in printed


@pytest.mark.parametrize("command", ["validate", "run"])
def test_grid_members_sharing_a_directory_are_config_error(command, tmp_path, capsys):
    # both members print as ratio_eps=1, so the second run would overwrite the first
    path = tmp_path / "grid.yaml"
    path.write_text(
        GRID_SCENARIO.format(grid="{ratio_eps: [1.0, 1.0000001]}", out=tmp_path / "out")
    )
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "ratio_eps=1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_grid_over_mu_over_nu_is_config_error(command, tmp_path, capsys):
    # every point sets its own mu/nu, so the members would write identical tables
    path = tmp_path / "grid.yaml"
    path.write_text(GRID_SCENARIO.format(grid="{mu_over_nu: [0.0, 1.0]}", out=tmp_path / "out"))
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "mu_over_nu" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_seed_flag_over_a_seed_grid_is_config_error(command, tmp_path, capsys):
    # each member's directory would name a seed that its run does not use
    path = tmp_path / "grid.yaml"
    path.write_text(GRID_SCENARIO.format(grid="{seed: [1, 2]}", out=tmp_path / "out"))
    assert cli_main([command, str(path), "--seed", "9"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "--seed" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert cli_main(["validate", str(path)]) == 0


def test_seed_flag_overrides_a_grid_over_other_keys(tmp_path, capsys):
    path = tmp_path / "grid.yaml"
    path.write_text(GRID_SCENARIO.format(grid="{ratio_eps: [1.0, 3.0]}", out=tmp_path / "out"))
    assert cli_main(["validate", str(path), "--seed", "9"]) == 0
    assert capsys.readouterr().out.count("seed: 9") == 2


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_scenario_file_is_config_error(command, tmp_path, capsys):
    undecodable = tmp_path / "binary.yaml"
    undecodable.write_bytes(b"\xff\xfe\x00kind")
    for path in (tmp_path, undecodable):  # a directory, then bytes that are not UTF-8
        assert cli_main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: cannot read scenario file" in err
        assert "Traceback" not in err


def test_cli_import_and_run_load_no_scipy(tmp_path):
    # scipy's import is most of a run's start-up, and its own BLAS would run
    # beside numpy's; the run path needs neither
    src = str(Path(tlfsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    scenario = tmp_path / "gate.yaml"
    scenario.write_text(
        "schema_version: 1\nkind: gate\ngate: {kind: xxyy}\n"
        "model: {n_tlf: 2, ratio_eps: 1.0, seed: 3}\nduration: 2.0\n"
    )
    code = (
        "import sys\n"
        "from tlfsim.cli import cli_main\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(scipy_modules())\n"
        f"code = cli_main(['run', {str(scenario)!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "print(code, scipy_modules())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "manifest.yaml").is_file()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_string_output_is_config_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "output_number.yaml"
    path.write_text("schema_version: 1\nkind: entanglement_sweep\noutput: 5\n")
    assert cli_main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "output" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(jobs, scenario_file, tmp_path, capsys):
    out = tmp_path / "jobs_out"
    assert cli_main(["run", str(scenario_file), "--jobs", jobs, "--out-dir", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle", "--seed", "3"], "--seed"),
        (["validate", "F", "--out-dir", "D"], "--out-dir"),
        (["validate", "F", "--format", "jsonl"], "--format"),
        (["validate", "F", "--deterministic"], "--deterministic"),
        (["sample", "--out-dir", "D"], "--out-dir"),
        (["--seed", "3", "run", "F"], "--seed"),
    ],
    ids=[
        "oracle-seed", "validate-out-dir", "validate-format", "validate-deterministic",
        "sample-out-dir", "seed-before-run",
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(
    argv, flag, scenario_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("tlfsim.oracles.run_all", lambda: [])
    paths = {"F": str(scenario_file), "D": str(tmp_path / "D")}
    assert cli_main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "D").exists() and not (tmp_path / "out").exists()


def test_jobs_flag_is_usage_error(scenario_file, tmp_path, capsys):
    out = tmp_path / "jobs_out"
    assert cli_main(["run", str(scenario_file), "--jobs", "2", "--out-dir", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["[0.5, 0.501]", "[0.5, 0.5]"])
def test_sweep_values_sharing_a_label_are_config_error(sweep, tmp_path, capsys):
    path = tmp_path / "shared.yaml"
    path.write_text(f"schema_version: 1\nkind: entanglement_sweep\nsweep: {sweep}\n")
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "mu0.50" in err and "Traceback" not in err
