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


def test_sample_jsonl(capsys):
    assert cli_main(["sample", "--seed", "1", "--format", "jsonl"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert "ensemble" in payload


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


# valid scenarios whose gate term is too large for floating point: the first
# makes exp(L dt) non-finite, the second L itself
@pytest.mark.parametrize("strength", ["1.0e+300", "1.5e+308"])
def test_overflowing_gate_is_numerical_failure(strength, tmp_path, capsys):
    path = tmp_path / "gate.yaml"
    path.write_text(
        "schema_version: 1\nkind: gate\nmodel: {n_tlf: 1, seed: 1}\nduration: 0.1\n"
        f"gate: {{kind: zz, strength: {strength}}}\noutput: {tmp_path / 'out'}\n"
    )
    assert cli_main(["validate", str(path)]) == 0
    capsys.readouterr()
    # the overflow is reported once, as the numerical failure, with no numpy warnings
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "error", message="(overflow|invalid value) encountered", category=RuntimeWarning
        )
        assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


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
    args = [] if command == "sample" else [str(scenario_file), "--out-dir", str(out)]
    assert cli_main([command, *args, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_scenario_file_is_config_error(command, tmp_path, capsys):
    undecodable = tmp_path / "binary.yaml"
    undecodable.write_bytes(b"\xff\xfe\x00kind")
    for path in (tmp_path, undecodable):  # a directory, then bytes that are not UTF-8
        assert cli_main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: cannot read scenario file" in err
        assert "Traceback" not in err


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # they cost about a second and 40 MB of every run's start-up
    src = str(Path(tlfsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, tlfsim.cli; "
        "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
