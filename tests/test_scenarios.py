import json
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tlfsim.cli import cli_main
from tlfsim.model import ConfigurationError, ModelConfig
from tlfsim.observables import SpectrumEstimate
from tlfsim.scenarios import (
    KINDS,
    PEAK_MIN_SEPARATION_BINS,
    PEAK_PROMINENCE_FRAC,
    GateSpec,
    Scenario,
    _find_peaks,
    _first_local_max,
    _spectrum_point,
    _write_table,
    detect_peaks,
    load_scenario_file,
    run_scenario,
)

SMALL_MODEL = {"n_tlf": 2, "ratio_eps": 3.0, "tan_theta_bar": 1.0 / 3.0, "seed": 5}


def small_scenario(kind, **extra):
    raw = {"schema_version": 1, "kind": kind, "model": dict(SMALL_MODEL)}
    raw.update(extra)
    return Scenario.from_dict(raw)


def read_table(path):
    header, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    return header, rows


class TestScenarioValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"schema_version": 1, "kind": "gate", "bogus": 1})

    def test_unknown_model_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(
                {"schema_version": 1, "kind": "spectrum_sweep", "model": {"phase": 2}}
            )

    def test_schema_version_required(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"kind": "spectrum_sweep"})

    def test_sweep_range(self):
        with pytest.raises(ConfigurationError):
            small_scenario("spectrum_sweep", sweep=[0.0, 1.5])

    def test_gate_requires_gate_section(self):
        with pytest.raises(ConfigurationError):
            small_scenario("gate")
        sc = small_scenario("gate", gate={"kind": "zz"})
        assert sc.gate == GateSpec(kind="zz", strength=None)

    def test_bell_requires_state(self):
        with pytest.raises(ConfigurationError):
            small_scenario("bell_decay")
        with pytest.raises(ConfigurationError):
            small_scenario("bell_decay", bell="sigma")

    def test_epsilon_range(self):
        with pytest.raises(ConfigurationError):
            small_scenario("bell_decay", bell="phi+", epsilons=[0.1, 2.0])

    def test_duration_positive(self):
        with pytest.raises(ConfigurationError):
            small_scenario("gate", gate={"kind": "zz"}, duration=-1.0)

    def test_list_entries_are_numbers(self):
        for sweep in ((True, 0.5), ("0.5",), (None,)):
            with pytest.raises(ConfigurationError, match="sweep entry"):
                Scenario(kind="entanglement_sweep", sweep=sweep)
        sc = Scenario(kind="bell_decay", bell="phi+", epsilons=[1, 0.5])
        assert sc.epsilons == (1.0, 0.5) and isinstance(sc.epsilons[0], float)

    def test_hash_ignores_output_directory(self):
        a = small_scenario("spectrum_sweep", output="runs/a")
        b = small_scenario("spectrum_sweep", output="runs/b")
        assert a.hash() == b.hash()

    def test_points_carry_their_labels_in_run_order(self):
        assert small_scenario("spectrum_sweep", sweep=[0.0, 0.5]).points() == [
            ("mu0.00", 0.0), ("mu0.50", 0.5), ("control", None)
        ]
        assert small_scenario("bound_compare", sweep=[1.0]).points() == [("mu1.00", 1.0)]
        assert small_scenario("bell_decay", bell="phi+").points() == [
            ("mu0.00", 0.0), ("mu1.00", 1.0)
        ]
        assert small_scenario("gate", gate={"kind": "zz"}).points() == [
            ("ideal", None), ("mu0.00", 0.0), ("mu1.00", 1.0)
        ]

    def test_one_draw_serves_every_point_and_the_gate(self, monkeypatch, tmp_path):
        import tlfsim.scenarios as scenarios

        draws = []
        real = scenarios.sample_ensemble
        monkeypatch.setattr(
            scenarios, "sample_ensemble", lambda cfg: draws.append(cfg) or real(cfg)
        )
        small_scenario("entanglement_sweep")
        assert len(draws) == 1  # six sweep points
        sc = small_scenario("gate", gate={"kind": "zz"}, duration=0.1)
        assert len(draws) == 2
        assert sc.gate_strength() == float(real(sc.model).nu)
        run_scenario(sc, out_dir=tmp_path)
        assert len(draws) == 4  # the run draws once for each point with fluctuators

    def test_unknown_table_format_is_refused(self, tmp_path):
        sc = small_scenario("entanglement_sweep", sweep=[0.0], duration=0.1)
        with pytest.raises(ConfigurationError, match="xml"):
            run_scenario(sc, out_dir=tmp_path / "out", fmt="xml")
        assert not (tmp_path / "out").exists()

    def test_seed_changes_hash(self):
        a = small_scenario("spectrum_sweep")
        model = dict(SMALL_MODEL, seed=6)
        b = Scenario.from_dict({"schema_version": 1, "kind": "spectrum_sweep", "model": model})
        assert a.hash() != b.hash()


SHIPPED = sorted((Path(__file__).parent.parent / "scenarios").glob("*.yaml"))
KIND_EXTRAS = {"bell_decay": {"bell": "phi-"}, "gate": {"gate": {"kind": "zz"}}}


def _round_trips(sc):
    back = Scenario.from_dict(sc.canonical_dict())
    assert back.canonical_dict() == sc.canonical_dict()
    assert back.hash() == sc.hash()


@pytest.mark.parametrize("kind", KINDS)
def test_canonical_dict_round_trips_per_kind(kind):
    raw = {"schema_version": 1, "kind": kind, **KIND_EXTRAS.get(kind, {})}
    _round_trips(Scenario.from_dict(raw))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_canonical_dict_round_trips_shipped(path):
    for _, sc in load_scenario_file(path):
        _round_trips(sc)


def test_spectrum_hash_keeps_duration():
    # canonical_dict omits the derived duration of a spectrum sweep; its hash still covers it
    sc = small_scenario("spectrum_sweep", n_samples=64)
    assert "duration" not in sc.canonical_dict()
    assert sc.hash() == "8d456c9437fdd9cf"  # the hash before the key was dropped


# the hash `tlfsim validate` prints for each shipped file, one per grid member in
# the order of the file's grid; a change to the canonical form must leave them be
SHIPPED_HASHES = {
    "bell_decay_phi_minus": ["262d769ae3703fc2"],
    "bell_decay_phi_plus": ["6637574cf45f5ad0"],
    "bound_compare": ["2fc15281c669cf4b"],
    "entanglement_grid": [
        "4500ba4240553818", "a4e505523edf8641", "a579a99dc0ef27d6",
        "f38e345b60ef6efa", "154cf9671a72039b", "64d51b21b0ec2bfa",
        "82114b3cb65190da", "2c74e3c5cb062951", "39aff6161b072bae",
    ],
    "entanglement_weak_fields": ["f38e345b60ef6efa"],
    "gate_xxyy": ["82ed66d504664456"],
    "gate_zz": ["9de16a702bad5ca0"],
    "gate_zz_long": ["64416d45e1023d9c"],
    "spectrum_grid": [
        "42aa0f35f74edab7", "5a304af78e99d110", "b311cd1d41b578cd",
        "ae054474ba2868e0", "e7465e4959f1d9be", "09a252379886d351",
        "83a7c7df6ea6590d", "a6c431409e15badf", "d118a60b4edbe56c",
    ],
    "spectrum_weak_fields": ["ae054474ba2868e0"],
}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_hashes_are_pinned(path, capsys):
    assert cli_main(["validate", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = [line.split(": ")[1] for line in lines if line.startswith("scenario_hash: ")]
    assert printed == SHIPPED_HASHES[path.stem]


class TestPeakDetection:
    def synthetic(self, heights):
        n = 200
        power = np.zeros(n)
        for pos, h in heights.items():
            power[pos] = h
        omega = np.linspace(0, 10, n)
        return SpectrumEstimate(omega=omega, power=power)

    def test_separated_peaks_found(self):
        spec = self.synthetic({50: 10.0, 120: 4.0})
        peaks = detect_peaks(spec)
        assert len(peaks) == 2
        assert peaks[0][1] == 10.0 and peaks[1][1] == 4.0

    def test_below_prominence_ignored(self):
        spec = self.synthetic({50: 10.0, 120: 0.3})
        assert len(detect_peaks(spec)) == 1

    def test_close_peaks_merge(self):
        spec = self.synthetic({50: 10.0, 51: 9.0})
        assert len(detect_peaks(spec)) == 1

    def test_empty_spectrum(self):
        spec = self.synthetic({})
        assert detect_peaks(spec) == []


def assert_peaks_match_scipy(x, **kwargs):
    """The numpy finder picks the indices ``scipy.signal.find_peaks`` picks."""
    expected, _ = scipy.signal.find_peaks(x, **kwargs)
    np.testing.assert_array_equal(_find_peaks(x, **kwargs), expected)


def _runs(runs):
    """A series of plateaus: ``(value, length)`` runs end to end."""
    return np.repeat([float(v) for v, _ in runs], [n for _, n in runs])


# integer levels make ties between peaks and plateaus (at the edges and next
# to each other) common; long series sort more than 16 peak heights
SERIES = st.one_of(
    st.lists(st.integers(0, 3), max_size=200).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=60).map(_runs),
    st.lists(st.floats(-5.0, 5.0), max_size=200).map(lambda v: np.array(v, dtype=float)),
)


class TestFindPeaks:
    @given(
        x=SERIES,
        prominence=st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0)),
        distance=st.integers(1, 7),
    )
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    def test_matches_scipy(self, x, prominence, distance):
        assert_peaks_match_scipy(x)
        assert_peaks_match_scipy(x, distance=distance)
        assert_peaks_match_scipy(x, prominence=prominence)
        assert_peaks_match_scipy(x, prominence=prominence, distance=distance)

    def test_matches_scipy_on_long_tied_series(self):
        # dozens of equal-height peaks, so that the order in which distance
        # visits them is the one numpy's default argsort gives
        rng = np.random.default_rng(0)
        for n in (100, 300, 1000):
            for _ in range(20):
                x = rng.integers(0, 4, size=n).astype(float)
                assert_peaks_match_scipy(x, distance=int(rng.integers(2, 7)))
                assert_peaks_match_scipy(x, prominence=1.0, distance=3)

    def test_plateau_rules(self):
        x = np.array([2.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 3.0, 3.0, 5.0, 5.0])
        # edge plateaus never count, an even plateau takes the left of its two middles
        np.testing.assert_array_equal(_find_peaks(x), [4])
        assert_peaks_match_scipy(x)

    def test_all_zero(self):
        assert len(_find_peaks(np.zeros(64))) == 0
        assert_peaks_match_scipy(np.zeros(64), prominence=0.0, distance=3)
        assert _first_local_max(np.arange(64.0), np.zeros(64)) == (0.0, 0.0)

    def test_first_local_max_falls_back_to_argmax(self):
        t = np.linspace(0.0, 1.0, 11)
        assert _first_local_max(t, t**2) == (1.0, 1.0)  # rising: no local maximum

    def test_first_local_max_takes_the_earliest(self):
        t = np.arange(7.0)
        values = np.array([0.0, 0.4, 0.1, 0.9, 0.2, 0.5, 0.5])
        assert _first_local_max(t, values) == (1.0, 0.4)

    @pytest.mark.acceptance
    def test_matches_scipy_on_shipped_spectra(self):
        path = Path(__file__).parent.parent / "scenarios" / "spectrum_weak_fields.yaml"
        ((_, sc),) = load_scenario_file(path)
        for label, mu in sc.points():
            spectrum = _spectrum_point(sc, label, mu)["tables"][1]
            assert spectrum[0].startswith("spectrum_")
            power = np.array([p for _, p in spectrum[3]])
            assert_peaks_match_scipy(power)
            assert_peaks_match_scipy(
                power,
                prominence=PEAK_PROMINENCE_FRAC * power.max(),
                distance=PEAK_MIN_SEPARATION_BINS,
            )


class TestSpectrumSweep:
    def test_outputs_and_control(self, tmp_path):
        sc = small_scenario("spectrum_sweep", sweep=[0.0, 1.0], n_samples=400)
        record = run_scenario(sc, out_dir=tmp_path)
        for name in (
            "timeseries_mu0.00.csv",
            "timeseries_mu1.00.csv",
            "spectrum_mu0.00.csv",
            "spectrum_mu1.00.csv",
            "timeseries_control.csv",
            "spectrum_control.csv",
            "peaks.csv",
        ):
            assert (tmp_path / name).exists()
        assert (tmp_path / "manifest.yaml").exists()

        header, rows = read_table(tmp_path / "spectrum_control.csv")
        assert any("scenario_hash" in line for line in header)
        assert any("seed: 5" in line for line in header)
        assert rows[0] == "omega,power"

        # isolated probe: exactly one detected peak, at the probe frequency
        control_peaks = record.summary["peaks"]["control"]
        assert len(control_peaks) == 1
        d_omega = 2 * np.pi / (400 * 0.05)
        assert abs(control_peaks[0][0] - 1.0) <= d_omega

    def test_manifest_provenance(self, tmp_path):
        sc = small_scenario("spectrum_sweep", sweep=[0.5], n_samples=200)
        record = run_scenario(sc, out_dir=tmp_path)
        manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
        assert manifest["scenario_hash"] == sc.hash()
        assert manifest["seed"] == 5
        assert "mu0.50" in manifest["ensembles"]
        ens = manifest["ensembles"]["mu0.50"]
        assert len(ens["eps"]) == 2
        assert manifest["library_version"]
        # two fluctuators give 4-dim sectors; the isolated probe has 1-dim ones
        for label, dim_max in (("mu0.50", 16), ("control", 1)):
            cptp = manifest["summary"]["cptp"][label]
            assert (cptp["sectors"], cptp["pairs_live"], cptp["propagators"]) == (4, 16, 6)
            # from |++> every block is a quarter of the fluctuator state: of the 10
            # stepped pairs, those of one class pair share an evolution
            assert (cptp["pairs_stepped"], cptp["evolutions"]) == (10, 6)
            assert (cptp["propagators_real"], cptp["block_dim_max"]) == (3, dim_max)

    def test_manifest_reports_the_chunk(self, tmp_path):
        # 1999 steps: both points record in chunks, and say so per point
        sc = small_scenario("spectrum_sweep", sweep=[0.5], n_samples=2000)
        run_scenario(sc, out_dir=tmp_path)
        manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
        for label in ("mu0.50", "control"):
            cptp = manifest["summary"]["cptp"][label]
            assert type(cptp["chunk"]) is int and 100 % cptp["chunk"] == 0 and cptp["chunk"] > 1
            assert cptp["powers"] == cptp["propagators"] == 6

    def test_jsonl_format(self, tmp_path):
        sc = small_scenario("spectrum_sweep", sweep=[0.0], n_samples=64)
        run_scenario(sc, out_dir=tmp_path, fmt="jsonl")
        header, rows = read_table(tmp_path / "spectrum_mu0.00.jsonl")
        assert header
        parsed = json.loads(rows[0])
        assert set(parsed) == {"omega", "power"}


MULTI_POINT_SCENARIOS = {
    "spectrum_sweep": {"sweep": [0.0, 1.0], "n_samples": 200},
    "entanglement_sweep": {"sweep": [0.0, 1.0], "duration": 2.0, "trace_step_cycles": 0.05},
    "bound_compare": {"sweep": [0.0, 1.0], "duration": 2.0, "trace_step_cycles": 0.05},
    "bell_decay": {"bell": "phi+", "duration": 5.0, "bell_step_cycles": 0.1},
    "gate": {"gate": {"kind": "xxyy"}, "duration": 2.0, "trace_step_cycles": 0.05},
}


@pytest.mark.parametrize("kind", list(MULTI_POINT_SCENARIOS))
def test_parallel_pool_matches_serial(kind, tmp_path):
    """Two runs of one multi-point scenario write byte-identical tables.

    The name dates from the removed worker pool and is kept as the test id.
    """
    import filecmp

    sc = small_scenario(kind, **MULTI_POINT_SCENARIOS[kind])
    first = run_scenario(sc, out_dir=tmp_path / "a")
    second = run_scenario(sc, out_dir=tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert len(names) >= 2
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", names, shallow=False
    )
    assert mismatch == [] and errors == []
    assert first.files == second.files and first.summary == second.summary


class TestEntanglementSweep:
    def test_traces_and_summary(self, tmp_path):
        sc = small_scenario("entanglement_sweep", sweep=[0.0, 1.0], duration=10.0,
                            trace_step_cycles=0.05)
        record = run_scenario(sc, out_dir=tmp_path)
        header, rows = read_table(tmp_path / "entanglement_mu0.00.csv")
        assert rows[0] == "t,E_P,C2prime"
        first = rows[1].split(",")
        # separable start: no entanglement at t = 0, up to a few ulps of log2(1)
        assert 0.0 <= float(first[1]) <= 1e-15
        assert record.summary["max_E_P"]["mu0.00"] > 0.0
        assert record.summary["max_bound_violation"]["mu0.00"] <= 1e-8

    def test_bound_compare_alias(self, tmp_path):
        sc = small_scenario("bound_compare", sweep=[0.0], duration=5.0,
                            trace_step_cycles=0.05)
        record = run_scenario(sc, out_dir=tmp_path)
        assert "mean_bound_gap" in record.summary


class TestBellDecay:
    def test_phi_plus_decays_with_lifetimes(self, tmp_path):
        sc = small_scenario("bell_decay", bell="phi+", duration=80.0, bell_step_cycles=0.1)
        record = run_scenario(sc, out_dir=tmp_path)
        assert (tmp_path / "bell_phi_plus_mu0.00.csv").exists()
        header, rows = read_table(tmp_path / "decay_phi_plus_mu0.00.csv")
        assert rows[0] == "epsilon,t_eps,p_t_eps,neg_log_eps"
        assert len(rows) == 1 + 5
        fit = record.summary["fits"]["mu0.00"]
        assert fit is not None and 0.0 <= fit["r_squared"] <= 1.0
        assert any("t_eps_resolution" in line for line in header)
        assert any("gamma_char" in line for line in header)

    def test_warm_bath_with_sampled_gamma_plus(self, tmp_path):
        sc = small_scenario("bell_decay", bell="phi+", duration=80.0, bell_step_cycles=0.1,
                            model={**SMALL_MODEL, "nbar": 0.5, "gamma_plus_mode": "sampled"})
        record = run_scenario(sc, out_dir=tmp_path)
        manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
        for label in ("mu0.00", "mu1.00"):
            gamma_char = record.summary["gamma_char"][label]
            assert gamma_char == np.mean(manifest["ensembles"][label]["Gamma_minus"])
            _, rows = read_table(tmp_path / f"decay_phi_plus_{label}.csv")
            crossed = [[float(x) for x in row.split(",")[1:3]]
                       for row in rows[1:] if row.split(",")[1]]
            assert crossed
            for t_eps, p in crossed:
                assert p == 1 - np.exp(-gamma_char * (2 * 0.5 + 1) * t_eps / 2)
            cptp = manifest["summary"]["cptp"][label]
            assert cptp["max_trace_drift"] <= 1e-9 and cptp["max_herm_dev"] == 0.0
            assert cptp["min_eigenvalue"] >= -1e-7

    def test_psi_plus_never_decays(self, tmp_path):
        sc = small_scenario("bell_decay", bell="psi+", duration=5.0, bell_step_cycles=0.1)
        record = run_scenario(sc, out_dir=tmp_path)
        _, rows = read_table(tmp_path / "decay_psi_plus_mu1.00.csv")
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[1] == "" and fields[2] == ""
        assert record.summary["fits"]["mu1.00"] is None
        assert record.summary["lifetimes"]["mu0.00"] == [None] * 5

    def test_missing_lifetime_is_null_in_jsonl(self, tmp_path):
        # a numeric column, as the manifest's lifetimes: null, not an empty string
        sc = small_scenario("bell_decay", bell="psi+", duration=5.0, bell_step_cycles=0.1)
        record = run_scenario(sc, out_dir=tmp_path, fmt="jsonl")
        _, rows = read_table(tmp_path / "decay_psi_plus_mu1.00.jsonl")
        assert len(rows) == 5
        for row in map(json.loads, rows):
            assert row["t_eps"] is None and row["p_t_eps"] is None
        assert record.summary["lifetimes"]["mu1.00"] == [None] * 5


class TestGate:
    def test_ideal_beats_noisy(self, tmp_path):
        sc = small_scenario("gate", gate={"kind": "zz"}, duration=10.0,
                            trace_step_cycles=0.05)
        record = run_scenario(sc, out_dir=tmp_path)
        for name in ("gate_zz_ideal.csv", "gate_zz_mu0.00.csv", "gate_zz_mu1.00.csv"):
            assert (tmp_path / name).exists()
        first_max = record.summary["first_max"]
        assert first_max["ideal"]["E_P"] > first_max["mu0.00"]["E_P"]
        assert first_max["ideal"]["E_P"] > first_max["mu1.00"]["E_P"]
        assert np.isclose(record.summary["gate_strength"],
                          yaml_nu(tmp_path / "manifest.yaml"))

    def test_gate_trace_starts_separable(self, tmp_path):
        sc = small_scenario("gate", gate={"kind": "xxyy", "strength": 0.25}, duration=5.0,
                            trace_step_cycles=0.05)
        record = run_scenario(sc, out_dir=tmp_path)
        _, rows = read_table(tmp_path / "gate_xxyy_ideal.csv")
        assert 0.0 <= float(rows[1].split(",")[1]) <= 1e-15
        assert record.summary["gate_strength"] == 0.25
        assert "plateau" in record.summary


def yaml_nu(manifest_path):
    manifest = yaml.safe_load(manifest_path.read_text())
    return manifest["ensembles"]["mu0.00"]["nu"]


class TestGridExpansion:
    def test_grid_cross_product(self):
        from tlfsim.scenarios import expand_grid

        raw = {
            "schema_version": 1,
            "kind": "spectrum_sweep",
            "model": {"n_tlf": 2, "seed": 5},
            "grid": {
                "ratio_eps": [1.0, 3.0, 10.0],
                "tan_theta_bar": [1.0 / 3.0, 1.0, 3.0],
            },
        }
        entries = expand_grid(raw)
        assert len(entries) == 9
        combos = {
            (sc.model.ratio_eps, sc.model.tan_theta_bar) for _, sc in entries
        }
        assert combos == {
            (r, t) for r in (1.0, 3.0, 10.0) for t in (1.0 / 3.0, 1.0, 3.0)
        }
        labels = [label for label, _ in entries]
        assert len(set(labels)) == 9
        for _, sc in entries:
            assert sc.model.n_tlf == 2

    def test_labels_name_strings_as_is_and_numbers_with_g(self):
        from tlfsim.scenarios import expand_grid

        raw = {
            "schema_version": 1,
            "kind": "spectrum_sweep",
            "grid": {"gamma_plus_mode": ["sampled", "scaled-by-nbar"], "ratio_eps": [3.0]},
        }
        labels = [label for label, _ in expand_grid(raw)]
        assert labels == [
            "gamma_plus_mode=sampled__ratio_eps=3",
            "gamma_plus_mode=scaled-by-nbar__ratio_eps=3",
        ]

    def test_no_grid_is_single_anonymous(self):
        from tlfsim.scenarios import expand_grid

        raw = {"schema_version": 1, "kind": "spectrum_sweep"}
        entries = expand_grid(raw)
        assert len(entries) == 1 and entries[0][0] == ""

    def test_bad_grid_keys(self):
        from tlfsim.model import ConfigurationError
        from tlfsim.scenarios import expand_grid

        raw = {"schema_version": 1, "kind": "spectrum_sweep", "grid": {"zork": [1]}}
        with pytest.raises(ConfigurationError):
            expand_grid(raw)

    def test_shipped_grid_file_covers_parameter_plane(self):
        from pathlib import Path

        from tlfsim.scenarios import load_scenario_file

        path = Path(__file__).parent.parent / "scenarios" / "spectrum_grid.yaml"
        entries = load_scenario_file(path)
        ratios = {sc.model.ratio_eps for _, sc in entries}
        tans = {round(sc.model.tan_theta_bar, 6) for _, sc in entries}
        assert ratios == {1.0, 3.0, 10.0}
        assert tans == {round(1.0 / 3.0, 6), 1.0, 3.0}
        assert len(entries) == 9

    def test_shipped_scenarios_validate(self):
        from pathlib import Path

        from tlfsim.scenarios import load_scenario_file

        for path in sorted((Path(__file__).parent.parent / "scenarios").glob("*.yaml")):
            entries = load_scenario_file(path)
            assert entries, path


class TestPlateauDetector:
    def test_detects_steady_tail(self):
        from tlfsim.scenarios import _plateau_report

        t = np.linspace(0.0, 100.0, 1001)
        values = np.concatenate([np.linspace(0.0, 0.4, 500), np.full(501, 0.4)])
        rep = _plateau_report(t, values)
        assert rep["plateau"] is True
        assert np.isclose(rep["steady_value"], 0.4)
        assert rep["max_abs_slope"] < 1e-6

    def test_rejects_oscillating_tail(self):
        from tlfsim.scenarios import _plateau_report

        t = np.linspace(0.0, 100.0, 1001)
        rep = _plateau_report(t, np.sin(t))
        assert rep["plateau"] is False
        assert rep["steady_value"] is None


def test_csv_table_writes_numpy_floats_plainly_and_none_empty(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(np.float64(0.1), None, "a,b"), (1 / 3, 2, True)]
    _write_table(path, "csv", ["note"], ["x", "y", "z"], rows)
    header, lines = read_table(path)
    assert header == ["# note"]
    assert lines == ["x,y,z", '0.1,,"a,b"', "0.3333333333333333,2,True"]


@pytest.mark.parametrize(
    "kind, extra",
    [
        # M_x points and the isolated-probe control
        ("spectrum_sweep", {"sweep": [0.5], "n_samples": 64}),
        # marginal points, with the ideal register among them
        ("gate", {"gate": {"kind": "zz"}, "duration": 1.0, "trace_step_cycles": 0.05}),
    ],
)
def test_manifest_cptp_values_are_plain(kind, extra, tmp_path):
    record = run_scenario(small_scenario(kind, **extra), out_dir=tmp_path)
    manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    for cptp in (record.summary["cptp"], manifest["summary"]["cptp"]):
        values = [v for stats in cptp.values() for v in stats.values()]
        assert values and all(type(v) in (int, float, type(None)) for v in values)
    assert manifest["summary"]["cptp"] == record.summary["cptp"]


def test_bell_decay_epsilon_one_row(tmp_path):
    sc = small_scenario(
        "bell_decay", bell="phi+", duration=30.0, bell_step_cycles=0.1,
        epsilons=[1.0, 0.5],
    )
    record = run_scenario(sc, out_dir=tmp_path)
    header, rows = read_table(tmp_path / "decay_phi_plus_mu0.00.csv")
    first = rows[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 0.0  # threshold met at the start
    assert float(first[2]) == 0.0  # no exchange probability accumulated
