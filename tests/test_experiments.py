import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcmc
from qmcmc.errors import SchemaError
from qmcmc.experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    compare,
    run,
    run_with_comparison,
    tvd,
    transpile_report,
)
from qmcmc.noise import NoiseModel, ZERO_NOISE
from qmcmc.references import experiment_reference, reference_table

from conftest import noise_models


class TestSpecValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ExperimentSpec("unknown")

    def test_shots_positive(self):
        for shots in (0, 2.5, float("nan"), True):
            with pytest.raises(ValueError):
                ExperimentSpec("lcu-state-prep", shots=shots)

    @pytest.mark.parametrize("t", [True, 2.0, 2.5, 0], ids=repr)
    def test_t_is_an_int_bit_count(self, t):
        with pytest.raises(ValueError, match="phase register needs an int number of bits >= 1"):
            ExperimentSpec("lcu-state-prep", t=t)

    def test_shots_bounded_by_the_stream_count(self):
        ExperimentSpec("lcu-state-prep", shots=2**64)
        with pytest.raises(ValueError, match=r"at most 2\*\*64"):
            ExperimentSpec("lcu-state-prep", shots=2**64 + 1)

    @pytest.mark.parametrize("field", ["shots", "t"])
    def test_numpy_ints_rejected(self, field):
        # The report is JSON, which has no NumPy integers.
        with pytest.raises(ValueError, match="plain ints"):
            ExperimentSpec("lcu-state-prep", **{field: np.int64(2)})

    @pytest.mark.parametrize("angle", [float("nan"), 7.0, -0.1, True, "0.5"], ids=repr)
    def test_acceptance_angle_in_range(self, angle):
        with pytest.raises(ValueError, match="acceptance angle must be None or lie in"):
            ExperimentSpec("cswap-state-prep", acceptance_angle=angle)

    # The report holds the spec as given, so other reals are refused, not coerced.
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("delta", np.float32(0.25), "delta must be a float"),
            ("delta", "0.25", "delta must be a float"),
            ("delta", None, "delta must be a float"),
            ("acceptance_angle", np.float32(0.5), "acceptance angle must be None or lie in"),
        ],
        ids=["delta-float32", "delta-str", "delta-None", "angle-float32"],
    )
    def test_non_python_reals_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec("cswap-state-prep", shots=10, **{field: value})

    # One spec must give one report: no OS entropy, and a seed JSON holds as given.
    @pytest.mark.parametrize(
        "seed", [None, True, np.int64(5), -1, 1.5, "7", (1, 2)], ids=repr
    )
    def test_seed_is_a_plain_count(self, seed):
        with pytest.raises(ValueError, match="seed must be a plain int >= 0"):
            ExperimentSpec("cswap-state-prep", shots=10, seed=seed)

    def test_numpy_float64_angle_reports(self):
        spec = ExperimentSpec("cswap-state-prep", acceptance_angle=np.float64(0.5), shots=10)
        assert json.loads(run(spec).to_json())["spec"]["acceptance_angle"] == 0.5

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown encoding 'bogus'"):
            ExperimentSpec("spectral-check", encoding="bogus")

    def test_default_angles(self):
        assert ExperimentSpec("cswap-state-prep").angle() == pytest.approx(np.pi / 6)
        assert ExperimentSpec("dual-overlap").angle() == pytest.approx(np.pi / 4)

    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.builds(
            ExperimentSpec,
            name=st.sampled_from(EXPERIMENT_NAMES),
            delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            acceptance_angle=st.none() | st.floats(0.0, np.pi / 2),
            shots=st.integers(1, 10**6),
            seed=st.integers(0, 2**63 - 1),
            noise=st.none() | noise_models(),
            t=st.integers(1, 8),
            encoding=st.sampled_from(("lcu", "szegedy", "cswap", "dual")),
        )
    )
    def test_dict_round_trip_property(self, spec):
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestStatePrepExperiments:
    def test_lcu_expected_statistics(self):
        report = run(ExperimentSpec("lcu-state-prep", shots=10_000, seed=7))
        assert sum(report.histogram.values()) == 10_000
        assert 4850 <= report.success_count <= 5150
        assert report.derived["conditional_x_tvd_from_uniform"] < 0.02
        # the encoding ancilla always returns to |0> on ideal runs
        assert all(key[2] == "0" for key in report.histogram)

    def test_szegedy_expected_statistics(self):
        report = run(ExperimentSpec("szegedy-state-prep", shots=10_000, seed=7))
        assert 0.485 <= report.derived["success_rate"] <= 0.515
        joint = report.derived["conditional_joint_xy"]
        n = report.success_count
        for cell, p in (("00", 0.375), ("01", 0.125), ("10", 0.125), ("11", 0.375)):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(joint.get(cell, 0) - n * p) < 3 * sigma

    def test_cswap_expected_statistics(self):
        report = run(ExperimentSpec("cswap-state-prep", shots=10_000, seed=7))
        assert report.derived["phase0_count"] == 10_000
        x = report.derived["x_marginal"]
        assert abs(x.get("0", 0) - 5000) < 150

    def test_lcu_qae_all_estimates_half(self):
        report = run(ExperimentSpec("lcu-qae", shots=1000, seed=7))
        hist = report.derived["mean_estimate_histogram"]
        assert set(hist) == {"0.5"}
        assert hist["0.5"] == report.derived["prep_success_count"]
        assert 400 <= report.derived["prep_success_count"] <= 600

    def test_cross_encoding_x_distribution_consistency(self):
        # all three preparations sample the same stationary register law
        shots = 10_000
        sigma = 3 * np.sqrt(shots / 2 * 0.5 * 0.5)
        lcu = run(ExperimentSpec("lcu-state-prep", shots=shots, seed=5))
        sz = run(ExperimentSpec("szegedy-state-prep", shots=shots, seed=5))
        cs = run(ExperimentSpec("cswap-state-prep", shots=shots, seed=5))
        for counts, total in (
            (lcu.derived["conditional_x"], lcu.success_count),
            (sz.derived["conditional_x"], sz.success_count),
            (cs.derived["x_marginal"], shots),
        ):
            assert abs(counts.get("0", 0) - total / 2) < 3 * np.sqrt(total * 0.25)


class TestDualExperiments:
    def test_eigenstate_support_and_uniformity(self):
        report = run(ExperimentSpec("dual-eigenstate", shots=10_000, seed=7))
        assert report.derived["eigenstate_support_ok"]
        assert report.derived["walk_invariance_norm"] < 1e-8
        sigma = np.sqrt(10_000 * 0.125 * 0.875)
        for count in report.histogram.values():
            assert abs(count - 1250) < 3 * sigma

    def test_overlap_all_zeros(self):
        report = run(ExperimentSpec("dual-overlap", shots=1000, seed=7))
        assert report.derived["zero_outcomes"] == 1000
        assert report.derived["overlap_estimate"] == 1.0


class TestReports:
    def test_reproducible_byte_identical(self):
        spec = ExperimentSpec("szegedy-state-prep", shots=2000, seed=11)
        a = run_with_comparison(spec).to_json()
        b = run_with_comparison(spec).to_json()
        assert a == b

    def test_byte_identical_across_hash_seeds(self):
        # Reports must not depend on set or dict iteration order, which
        # follows PYTHONHASHSEED and so differs between interpreters.
        script = (
            "from qmcmc.experiments import ExperimentSpec, run_with_comparison\n"
            "from qmcmc.noise import NoiseModel\n"
            "noise = NoiseModel(p1=2e-5, p2=5e-3, p_meas=1e-3)\n"
            "for name in ('cswap-state-prep', 'dual-eigenstate', 'szegedy-state-prep'):\n"
            "    spec = ExperimentSpec(name, shots=2000, seed=3, noise=noise)\n"
            "    print(run_with_comparison(spec).to_json())\n"
        )
        src = str(Path(qmcmc.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=300, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_histogram_totals_equal_shots(self):
        for name in ("lcu-state-prep", "szegedy-state-prep", "dual-overlap"):
            report = run(ExperimentSpec(name, shots=500, seed=2))
            assert sum(report.histogram.values()) == 500
            if report.success_count is not None:
                assert report.success_count <= 500

    def test_report_schema_keys(self):
        report = run_with_comparison(ExperimentSpec("lcu-state-prep", shots=200, seed=1))
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "spec", "histogram", "bit_order", "success_count",
            "derived", "comparison", "seed", "version",
        }


class TestCompare:
    def test_report_vs_itself_tvd_zero(self):
        report = run(ExperimentSpec("lcu-state-prep", shots=1000, seed=3))
        assert tvd(report.histogram, report.histogram) == 0.0

    def test_ideal_vs_expected_small_tvd(self):
        report = run(ExperimentSpec("dual-eigenstate", shots=10_000, seed=7))
        summary = compare(report, "expected")
        assert summary["tvd"] < 0.02

    def test_ideal_vs_device_nonzero(self):
        report = run(ExperimentSpec("lcu-state-prep", shots=10_000, seed=7))
        summary = compare(report, "H2-1")
        assert 0 < summary["tvd"] < 0.2

    def test_overlap_against_reference(self):
        report = run(ExperimentSpec("dual-overlap", shots=1000, seed=7))
        assert compare(report, "expected")["tvd"] == pytest.approx(0.0)
        assert compare(report, "Helios")["tvd"] == pytest.approx(1 - 707 / 1000)

    def test_unknown_source(self):
        report = run(ExperimentSpec("lcu-state-prep", shots=100, seed=0))
        with pytest.raises(SchemaError):
            compare(report, "H9-9")

    def test_spectral_check_has_no_reference(self):
        report = run(ExperimentSpec("spectral-check"))
        with pytest.raises(SchemaError):
            compare(report, "expected")

    @pytest.mark.parametrize("seed", [4, 5, 7])
    def test_lcu_qae_without_prep_success_has_null_tvd(self, seed):
        # One shot that fails the prep filter leaves no mean estimate to compare.
        report = run_with_comparison(ExperimentSpec("lcu-qae", shots=1, seed=seed))
        assert report.success_count == 0
        assert report.derived["mean_estimate_histogram"] == {}
        assert report.comparison["tvd"] is None
        assert set(report.comparison["z_scores"].values()) == {None}
        assert json.loads(report.to_json())["comparison"]["tvd"] is None


class TestReferences:
    def test_tables_present_for_all_measured_experiments(self):
        for name in EXPERIMENT_NAMES:
            if name == "spectral-check":
                continue
            ref = experiment_reference(name)
            assert "bit_order" in ref

    def test_expected_histogram_loads(self):
        counts = reference_table("lcu-state-prep", "expected", "counts")
        assert sum(counts.values()) == 10_000

    def test_device_histograms_normalize(self):
        counts = reference_table("cswap-state-prep", "H2-1", "counts")
        assert sum(counts.values()) == 10_000


class TestSpectralCheckExperiment:
    @pytest.mark.parametrize("encoding", ["lcu", "szegedy", "cswap", "dual"])
    def test_all_encodings_pass(self, encoding):
        report = run(ExperimentSpec("spectral-check", encoding=encoding))
        assert report.derived["spectral"]["ok"]

    def test_quarter_delta_phases(self):
        report = run(ExperimentSpec("spectral-check", encoding="szegedy", delta=0.25))
        thetas = sorted({round(e["theta"], 6) for e in report.derived["spectral"]["entries"]})
        assert thetas == [0.0, round(np.arccos(0.5), 6)]


class TestNoiseIntegration:
    def test_zero_model_matches_noiseless_bit_exactly(self):
        for name in ("lcu-state-prep", "cswap-state-prep", "dual-overlap"):
            base = run(ExperimentSpec(name, shots=800, seed=13))
            zero = run(ExperimentSpec(name, shots=800, seed=13, noise=ZERO_NOISE))
            assert base.histogram == zero.histogram

    def test_noise_degrades_overlap(self):
        noisy = run(
            ExperimentSpec(
                "dual-overlap", shots=1500, seed=13, noise=NoiseModel(p2=5e-3)
            )
        )
        assert noisy.derived["overlap_estimate"] < 1.0


class TestTranspileReport:
    def test_report_covers_pipelines_with_references(self):
        payload = transpile_report()
        assert set(payload) >= {"lcu-qae", "szegedy-state-prep", "cswap-state-prep"}
        for entry in payload.values():
            assert set(entry["counts"]) <= {"phasedx", "rz", "zzphase", "measure"}
        assert payload["szegedy-state-prep"]["reference"]["phasedx"] == 92
        assert payload["cswap-state-prep"]["reference"]["zzphase"] == 91
        assert payload["lcu-qae"]["reference"]["total"] == 237
        assert payload["lcu-qae"]["qubits"] == 6
