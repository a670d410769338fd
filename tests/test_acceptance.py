"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``). The golden
bank of seeded runs is computed once per session and shared; its summary
statistics are pinned in ``tests/data/golden_summary.json`` (regenerate by
running with ``TLFSIM_REGEN_GOLDEN=1``).
"""

import filecmp
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
import scipy.stats

from tlfsim.cli import cli_main
from tlfsim.model import (
    ModelConfig,
    dressed_rates,
    sample_ensemble,
    sample_linear,
    sample_loguniform,
)
from tlfsim.observables import (
    entanglement_lifetime,
    entanglement_trace,
    magnetization_series,
    p_of_t,
    power_spectrum,
)
from tlfsim.oracles import (
    amplitude_damping,
    ideal_zz_gate,
    integrator_cross_check,
    larmor_precession,
    pure_dephasing,
    rk4_convergence,
)
from tlfsim.scenarios import (
    PEAK_MIN_SEPARATION_BINS,
    PEAK_PROMINENCE_FRAC,
    Scenario,
    _find_peaks,
    detect_peaks,
    run_scenario,
    simulate,
)

pytestmark = pytest.mark.acceptance

GOLDEN_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
TAN_THETA = 1.0 / 3.0
EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
GOLDEN_FILE = Path(__file__).parent / "data" / "golden_summary.json"

TWO_PI = 2 * np.pi


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _config(seed, ratio, mu_over_nu):
    return ModelConfig(ratio_eps=ratio, tan_theta_bar=TAN_THETA, mu_over_nu=mu_over_nu, seed=seed)


def _ent_run(seed, ratio, mu_over_nu, cycles, step_cycles, state="plus_plus", gate=None, g=None,
             fluctuators=True):
    ens, traj = simulate(
        _config(seed, ratio, mu_over_nu), cycles * TWO_PI, step_cycles * TWO_PI,
        probe=state, gate=gate, g=g, fluctuators=fluctuators,
    )
    et = entanglement_trace(traj.t_grid, traj.marginals)
    return et, traj.stats, ens


def _spectrum_run(seed, ratio, mu_over_nu, fluctuators=True):
    """Spectrum peaks, stats and power; ``fluctuators=False`` is the isolated-probe control."""
    _, traj = simulate(
        _config(seed, ratio, mu_over_nu), 3999 * 0.05, 0.05,
        fluctuators=fluctuators, magnetization=True,
    )
    spec = power_spectrum(magnetization_series(traj))
    return detect_peaks(spec), traj.stats, spec.power


def _control_spectrum(seed):
    return _spectrum_run(seed, 3.0, 1.0, fluctuators=False)


def _first_local_max(values):
    idx, _ = scipy.signal.find_peaks(values)
    return float(values[idx[0]]) if len(idx) else float(np.max(values))


def _linear_r2(x, y):
    a = np.vstack([x, np.ones_like(x)]).T
    _, residual, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        return float("nan")
    ss_res = float(residual[0]) if len(residual) else 0.0
    return 1.0 - ss_res / ss_tot


@pytest.fixture(scope="session")
def golden_bank():
    t_start = time.monotonic()
    bank = {
        "cptp": [],
        "spectrum": {},
        "power": {},
        "ent": {},
        "bound": {},
        "bell": {},
        "psi": {},
        "gate": {},
    }

    def log_stats(label, stats):
        bank["cptp"].append((label, stats))

    control_peaks, stats, bank["power"]["control"] = _control_spectrum(GOLDEN_SEEDS[0])
    bank["control_peaks"] = control_peaks
    log_stats("control", stats)

    for seed in GOLDEN_SEEDS:
        peaks, stats, bank["power"][seed] = _spectrum_run(seed, 3.0, 1.0)
        bank["spectrum"][seed] = peaks
        log_stats(f"spectrum-{seed}", stats)

        bank["ent"][seed] = {}
        for mu in (0.0, 1.0):
            et, stats, _ = _ent_run(seed, 3.0, mu, cycles=50, step_cycles=0.01)
            bank["ent"][seed][mu] = et
            log_stats(f"ent-{seed}-mu{mu}", stats)

        bank["bound"][seed] = {}
        for mu in (0.0, 1.0):
            et, stats, _ = _ent_run(seed, 1.0, mu, cycles=50, step_cycles=0.01)
            bank["bound"][seed][mu] = et
            log_stats(f"bound-{seed}-mu{mu}", stats)

        for ratio in (1.0, 3.0):
            for state in ("phi+", "phi-"):
                et, stats, ens = _ent_run(
                    seed, ratio, 0.0, cycles=150, step_cycles=0.05, state=state
                )
                t_eps = [entanglement_lifetime(et, eps) for eps in EPSILONS]
                bank["bell"][(seed, ratio, state)] = {
                    "trace": et,
                    "t_eps": t_eps,
                    "gamma_char": float(np.mean(ens.Gamma_minus)),
                }
                log_stats(f"bell-{seed}-r{ratio}-{state}", stats)

        for state in ("psi+", "psi-"):
            et, stats, _ = _ent_run(seed, 3.0, 1.0, cycles=10, step_cycles=0.05, state=state)
            bank["psi"][(seed, state)] = et
            log_stats(f"psi-{seed}-{state}", stats)

        bank["gate"][seed] = {}
        for kind in ("zz", "xxyy"):
            g = float(sample_ensemble(_config(seed, 1.0, 0.0)).nu)
            et_ideal, stats, _ = _ent_run(
                seed, 1.0, 0.0, cycles=25, step_cycles=0.01, gate=kind, g=g, fluctuators=False
            )
            entry = {"ideal": _first_local_max(et_ideal.log_negativity), "ideal_trace": et_ideal}
            log_stats(f"gate-{seed}-{kind}-ideal", stats)
            for mu in (0.0, 1.0):
                et, stats, _ = _ent_run(
                    seed, 1.0, mu, cycles=25, step_cycles=0.01, gate=kind, g=g
                )
                entry[mu] = _first_local_max(et.log_negativity)
                entry[f"trace{mu}"] = et
                log_stats(f"gate-{seed}-{kind}-mu{mu}", stats)
            bank["gate"][seed][kind] = entry

    bank["wall_clock_s"] = time.monotonic() - t_start
    print(f"\n[golden bank computed in {bank['wall_clock_s']:.0f}s]")
    return bank


class TestCriterion1AnalyticOracles:
    def test_amplitude_damping(self):
        for integrator in ("expm", "rk4"):
            res = amplitude_damping(integrator)
            report("1a", res.passed, f"{res.name}: {res.detail}")

    def test_pure_dephasing(self):
        for integrator in ("expm", "rk4"):
            res = pure_dephasing(integrator)
            report("1b", res.passed, f"{res.name}: {res.detail}")

    def test_larmor(self):
        res = larmor_precession()
        report("1c", res.passed, f"{res.name}: {res.detail}")

    def test_ideal_zz(self):
        res = ideal_zz_gate()
        report("1d", res.passed, f"{res.name}: {res.detail}")


class TestCriterion2IntegratorCrossValidation:
    def test_cross_check(self):
        res = integrator_cross_check(cycles=100.0)
        report("2a", res.passed, f"{res.name}: {res.detail}")

    def test_convergence_order(self):
        res = rk4_convergence()
        report("2b", res.passed, f"{res.name}: {res.detail}")


def test_criterion_3_cptp(golden_bank):
    worst_drift = max(s["max_trace_drift"] for _, s in golden_bank["cptp"])
    worst_herm = max(s["max_herm_dev"] for _, s in golden_bank["cptp"])
    worst_eig = min(s["min_eigenvalue"] for _, s in golden_bank["cptp"])
    ok = worst_drift <= 1e-9 and worst_herm <= 1e-9 and worst_eig >= -1e-7
    report(
        "3",
        ok,
        f"over {len(golden_bank['cptp'])} golden runs: trace drift {worst_drift:.2e}, "
        f"hermiticity {worst_herm:.2e}, min eigenvalue {worst_eig:.2e}",
    )


def test_criterion_4_distributions():
    rng = np.random.default_rng(12345)
    a, b = 0.5, 1.5
    eps = sample_linear(rng, a, b, 10_000)
    ks_eps = scipy.stats.kstest(eps, lambda x: (x**2 - a**2) / (b**2 - a**2)).statistic
    c, d = 0.05, 0.15
    delta = sample_loguniform(rng, c, d, 10_000)
    ks_delta = scipy.stats.kstest(delta, lambda x: np.log(x / c) / np.log(d / c)).statistic

    theta = np.linspace(0.1, 1.4, 7)
    gm = np.linspace(0.05, 0.2, 7)
    bz, bm, _ = dressed_rates(gm / 2, gm, 0 * gm, theta)
    identity_dev = float(np.max(np.abs(bz / bm - 1 / np.tan(theta) ** 2)))

    ok = ks_eps < 0.02 and ks_delta < 0.02 and identity_dev < 1e-12
    report(
        "4",
        ok,
        f"KS(bias)={ks_eps:.4f}, KS(local field)={ks_delta:.4f} (< 0.02); "
        f"dephasing/emission identity deviation {identity_dev:.2e}",
    )


def test_criterion_5_control_spectrum():
    t0 = time.monotonic()
    peaks, *_ = _control_spectrum(1)
    elapsed = time.monotonic() - t0
    d_omega = TWO_PI / 200.0
    ok = len(peaks) == 1 and abs(peaks[0][0] - 1.0) <= d_omega and elapsed < 60.0
    report(
        "5",
        ok,
        f"isolated-probe spectrum: {len(peaks)} peak(s), dominant at omega="
        f"{peaks[0][0]:.4f} (within {d_omega:.4f} of 1), {elapsed:.1f}s",
    )


def test_peak_finder_matches_scipy_on_golden_bank(golden_bank):
    """The numpy finder behind detect_peaks and the gate first maximum keeps the
    indices scipy.signal.find_peaks keeps, on every golden spectrum and gate trace."""

    def check(x, **kwargs):
        expected, _ = scipy.signal.find_peaks(x, **kwargs)
        np.testing.assert_array_equal(_find_peaks(x, **kwargs), expected)

    for power in golden_bank["power"].values():
        check(power)
        check(power, prominence=PEAK_PROMINENCE_FRAC * power.max(),
              distance=PEAK_MIN_SEPARATION_BINS)
    for seed in GOLDEN_SEEDS:
        for entry in golden_bank["gate"][seed].values():
            for key in ("ideal_trace", "trace0.0", "trace1.0"):
                check(entry[key].log_negativity)


def test_criterion_6_discrimination(golden_bank):
    pass_a = pass_b = 0
    split_seen = False
    control_power = golden_bank["control_peaks"][0][1]
    for seed in GOLDEN_SEEDS:
        peaks = golden_bank["spectrum"][seed]
        if peaks and peaks[0][1] < control_power:
            pass_a += 1
        if len(peaks) >= 2:
            split_seen = True
        e0 = golden_bank["ent"][seed][0.0].log_negativity.max()
        e1 = golden_bank["ent"][seed][1.0].log_negativity.max()
        if e1 < e0:
            pass_b += 1
    ok = pass_a >= 7 and pass_b >= 7 and split_seen
    report(
        "6",
        ok,
        f"peak-height discrimination {pass_a}/8, entanglement discrimination "
        f"{pass_b}/8 (>=7 required); multi-peak splitting seen: {split_seen}",
    )


def test_criterion_7_decay_law(golden_bank):
    x = -np.log(np.array(EPSILONS))
    lines = []
    ok = True
    for ratio in (1.0, 3.0):
        for state in ("phi+", "phi-"):
            n_pass = 0
            for seed in GOLDEN_SEEDS:
                entry = golden_bank["bell"][(seed, ratio, state)]
                if any(t is None for t in entry["t_eps"]):
                    continue
                p = np.array(
                    [p_of_t(t, gamma=entry["gamma_char"]) for t in entry["t_eps"]]
                )
                if _linear_r2(x, p) >= 0.95:
                    n_pass += 1
            lines.append(f"{state} ratio {ratio:g}: {n_pass}/8")
            ok = ok and n_pass >= 7
    psi_dev = max(
        float(np.max(np.abs(et.log_negativity - 1.0))) for et in golden_bank["psi"].values()
    )
    ok = ok and psi_dev <= 1e-6
    report(
        "7",
        ok,
        "exchange-probability law fits (R^2 >= 0.95): " + ", ".join(lines)
        + f"; stationary-state deviation {psi_dev:.2e} (<= 1e-6)",
    )


def _iter_traces(golden_bank):
    for seed in GOLDEN_SEEDS:
        for mu in (0.0, 1.0):
            yield golden_bank["ent"][seed][mu]
            yield golden_bank["bound"][seed][mu]
    for entry in golden_bank["bell"].values():
        yield entry["trace"]
    for et in golden_bank["psi"].values():
        yield et
    for seed in GOLDEN_SEEDS:
        for kind in ("zz", "xxyy"):
            entry = golden_bank["gate"][seed][kind]
            yield entry["ideal_trace"]
            yield entry["trace0.0"]
            yield entry["trace1.0"]


def test_criterion_8_bound_dominance(golden_bank):
    worst_violation = -np.inf
    n_samples = 0
    for et in _iter_traces(golden_bank):
        worst_violation = max(worst_violation, float(np.max(et.c2prime - et.log_negativity)))
        n_samples += len(et.t_grid)
    worst_gap = 0.0
    for seed in GOLDEN_SEEDS:
        for mu in (0.0, 1.0):
            et = golden_bank["bound"][seed][mu]
            worst_gap = max(worst_gap, float(np.mean(et.log_negativity - et.c2prime)))
    ok = worst_violation <= 1e-8 and worst_gap <= 0.1
    report(
        "8",
        ok,
        f"bound dominance over {n_samples} samples, worst violation "
        f"{worst_violation:.2e} (<= 1e-8); worst time-averaged gap {worst_gap:.4f} (<= 0.1)",
    )


def test_criterion_9_gate_degradation(golden_bank):
    n_pass = 0
    worst = None
    for seed in GOLDEN_SEEDS:
        seed_ok = True
        for kind in ("zz", "xxyy"):
            entry = golden_bank["gate"][seed][kind]
            if not (entry[0.0] < entry["ideal"] and entry[1.0] < entry["ideal"]):
                seed_ok = False
                worst = (seed, kind, entry)
        n_pass += seed_ok
    ok = n_pass == 8
    report(
        "9",
        ok,
        f"noisy first maxima strictly below ideal on {n_pass}/8 seeds, both gates"
        + ("" if worst is None else f"; counterexample {worst[:2]}"),
    )


def test_criterion_10_determinism(tmp_path):
    scenario_file = tmp_path / "scenario.yaml"
    scenario_file.write_text(
        "schema_version: 1\n"
        "kind: spectrum_sweep\n"
        "model: {n_tlf: 2, ratio_eps: 3.0, seed: 5}\n"
        "sweep: [0.0, 1.0]\n"
        "n_samples: 400\n"
        f"output: {tmp_path / 'x'}\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(scenario_file), "--deterministic", "--out-dir", str(out_a)]) == 0
    assert cli_main(["run", str(scenario_file), "--deterministic", "--out-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    ok = bool(names) and mismatch == [] and errors == []
    report("10", ok, f"{len(match)} CSV files byte-identical across two seeded runs")


def test_criterion_11_performance_budget(tmp_path):
    scenario = Scenario.from_dict(
        {
            "schema_version": 1,
            "kind": "spectrum_sweep",
            "model": {"n_tlf": 4, "ratio_eps": 3.0, "tan_theta_bar": TAN_THETA, "seed": 1},
            "output": str(tmp_path),
        }
    )
    t0 = time.monotonic()
    run_scenario(scenario, out_dir=tmp_path)
    elapsed = time.monotonic() - t0
    ok = elapsed < 1800.0
    report(
        "11",
        ok,
        f"full spectrum sweep (4 TLFs, 4000 samples, 6 couplings + control) in "
        f"{elapsed:.0f}s (CI bound 1800s)",
    )


def _bank_summary(golden_bank):
    summary = {"seeds": list(GOLDEN_SEEDS)}
    summary["control_peak"] = [round(v, 9) for v in golden_bank["control_peaks"][0]]
    summary["spectrum"] = {
        str(seed): {
            "n_peaks": len(golden_bank["spectrum"][seed]),
            "dominant": [round(v, 9) for v in golden_bank["spectrum"][seed][0]],
        }
        for seed in GOLDEN_SEEDS
    }
    summary["max_E_P"] = {
        str(seed): {
            str(mu): round(float(golden_bank["ent"][seed][mu].log_negativity.max()), 9)
            for mu in (0.0, 1.0)
        }
        for seed in GOLDEN_SEEDS
    }
    summary["bell_t_eps"] = {
        f"{seed}|{ratio:g}|{state}": [
            None if t is None else round(float(t), 9) for t in entry["t_eps"]
        ]
        for (seed, ratio, state), entry in golden_bank["bell"].items()
    }
    summary["gate_first_max"] = {
        f"{seed}|{kind}": {
            "ideal": round(golden_bank["gate"][seed][kind]["ideal"], 9),
            "mu0": round(golden_bank["gate"][seed][kind][0.0], 9),
            "mu1": round(golden_bank["gate"][seed][kind][1.0], 9),
        }
        for seed in GOLDEN_SEEDS
        for kind in ("zz", "xxyy")
    }
    return summary


def _compare(expected, actual, path=""):
    mismatches = []
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: key sets differ"]
        for k in expected:
            mismatches += _compare(expected[k], actual[k], f"{path}/{k}")
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length differs"]
        for i, (e, a) in enumerate(zip(expected, actual)):
            mismatches += _compare(e, a, f"{path}[{i}]")
    elif isinstance(expected, float) and isinstance(actual, (int, float)):
        if not np.isclose(expected, actual, rtol=1e-5, atol=1e-8):
            mismatches.append(f"{path}: {expected} != {actual}")
    elif expected != actual:
        mismatches.append(f"{path}: {expected} != {actual}")
    return mismatches


def test_golden_regression(golden_bank):
    summary = _bank_summary(golden_bank)
    if os.environ.get("TLFSIM_REGEN_GOLDEN"):
        GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_FILE.write_text(json.dumps(summary, indent=1, sort_keys=True))
        print(f"regenerated {GOLDEN_FILE}")
        return
    assert GOLDEN_FILE.exists(), "golden summary fixture missing; regenerate with TLFSIM_REGEN_GOLDEN=1"
    expected = json.loads(GOLDEN_FILE.read_text())
    mismatches = _compare(expected, summary)
    report("golden-regression", not mismatches, f"{len(mismatches)} mismatches" +
           (": " + "; ".join(mismatches[:5]) if mismatches else ""))
