import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmcmc.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "lcu-state-prep" in out and "dual-overlap" in out


def test_run_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main([
        "run", "--experiment", "lcu-qae", "--shots", "1000", "--seed", "7",
        "--out", str(out_file),
    ])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["derived"]["mean_estimate_histogram"] == {
        "0.5": payload["derived"]["prep_success_count"]
    }
    assert payload["bit_order"] == ["x", "c", "j1", "j0", "f", "a"]


def test_run_csv_format(capsys):
    assert main([
        "run", "--experiment", "lcu-state-prep", "--shots", "300", "--seed", "1",
        "--format", "csv",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "outcome,count,probability"
    assert sum(int(row.split(",")[1]) for row in lines[1:]) == 300


def test_run_with_noise_file(tmp_path, capsys):
    noise_file = tmp_path / "noise.json"
    noise_file.write_text('{"p1": 2e-5, "p2": 5e-3, "p_meas": 1e-3, "attach": "native"}')
    code = main([
        "run", "--experiment", "dual-overlap", "--shots", "400", "--seed", "3",
        "--noise", str(noise_file),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived"]["overlap_estimate"] < 1.0


def test_run_assert_threshold(capsys):
    ok = main([
        "run", "--experiment", "dual-overlap", "--shots", "200", "--seed", "2",
        "--assert", "0.05",
    ])
    assert ok == 0
    bad = main([
        "run", "--experiment", "dual-overlap", "--shots", "200", "--seed", "2",
        "--compare-to", "H2-1", "--assert", "0.05",
    ])
    assert bad == 1


def test_compare_subcommand(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    main([
        "run", "--experiment", "szegedy-state-prep", "--shots", "2000", "--seed", "4",
        "--out", str(out_file),
    ])
    capsys.readouterr()
    assert main(["compare", str(out_file), "--reference", "expected"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tvd"] < 0.05


def test_spectra_subcommand(capsys):
    assert main(["spectra", "--encoding", "dual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]


def test_transpile_report_subcommand(capsys):
    assert main(["transpile-report"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "szegedy-state-prep" in payload


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", '"x"', '{"p2": 1e-3, "pmeas": 0.5}'],
    ids=["list", "string", "unknown-key"],
)
def test_run_malformed_noise_file_exits_2(tmp_path, capsys, content):
    noise_file = tmp_path / "noise.json"
    noise_file.write_text(content)
    code = main([
        "run", "--experiment", "lcu-state-prep", "--shots", "10", "--noise", str(noise_file),
    ])
    assert code == 2
    assert "noise model" in capsys.readouterr().err


def test_run_more_shots_than_streams_names_the_limit(capsys):
    assert main(["run", "--experiment", "lcu-state-prep", "--shots", str(2**64 + 1)]) == 2
    assert "at most 2**64" in capsys.readouterr().err


def test_run_out_of_memory_is_usage_error(monkeypatch, capsys):
    def run(spec):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr("qmcmc.experiments.run", run)
    assert main(["run", "--experiment", "lcu-state-prep", "--shots", "1099511627776"]) == 2
    assert "usage error: Unable to allocate" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", "not-a-thing"])
    assert exc.value.code == 2


def _stored_report(tmp_path, experiment="lcu-state-prep") -> dict:
    out_file = tmp_path / "report.json"
    assert main([
        "run", "--experiment", experiment, "--shots", "200", "--seed", "1",
        "--out", str(out_file),
    ]) == 0
    return json.loads(out_file.read_text())


def test_compare_unknown_noise_key_is_schema_error(tmp_path, capsys):
    payload = _stored_report(tmp_path)
    payload["spec"]["noise"] = {"p1": 0.0, "p2": 1e-3, "p_meas": 0.0, "attach": "native", "p3": 1.0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(bad)]) == 2
    assert "malformed experiment spec" in capsys.readouterr().err


def test_compare_top_level_list_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([_stored_report(tmp_path)]))
    capsys.readouterr()
    assert main(["compare", str(bad)]) == 2
    assert "malformed report" in capsys.readouterr().err


def _set_first(histogram: dict, key=None, count=None) -> dict:
    """``histogram`` with its first entry's key and/or count replaced."""
    (first, first_count), *rest = histogram.items()
    entry = (first if key is None else key(first), first_count if count is None else count)
    return dict([entry, *rest])


_BAD_HISTOGRAMS = {
    "non-binary-key": lambda h: _set_first(h, key=lambda k: "2" + k[1:]),
    "wider-key": lambda h: _set_first(h, key=lambda k: k + "0"),
    "float-count": lambda h: _set_first(h, count=1.7),
    "negative-count": lambda h: _set_first(h, count=-5),
    "string-count": lambda h: _set_first(h, count="12"),
    "bool-count": lambda h: _set_first(h, count=True),
}


@pytest.mark.parametrize("experiment", ["lcu-state-prep", "dual-overlap", "lcu-qae"])
@pytest.mark.parametrize("damage", sorted(_BAD_HISTOGRAMS))
def test_compare_malformed_histogram_is_schema_error(tmp_path, capsys, experiment, damage):
    payload = _stored_report(tmp_path, experiment)
    payload["histogram"] = _BAD_HISTOGRAMS[damage](payload["histogram"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(bad)]) == 2
    assert "malformed report" in capsys.readouterr().err



_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_COMPARED = ("lcu-state-prep", "lcu-qae", "dual-overlap", "cswap-state-prep")


@st.composite
def _damaged(draw, report: dict):
    """``report`` with one entry, at any depth, replaced by a JSON value or deleted."""
    out = json.loads(json.dumps(report))
    holder = out
    key = draw(st.sampled_from(sorted(holder)))
    while isinstance(holder[key], dict) and holder[key] and draw(st.booleans()):
        holder = holder[key]
        key = draw(st.sampled_from(sorted(holder)))
    if draw(st.booleans()):
        holder[key] = draw(_JSON)
    else:
        del holder[key]
    return out


@pytest.fixture(scope="module")
def stored_reports(tmp_path_factory):
    return {name: _stored_report(tmp_path_factory.mktemp(name), name) for name in _COMPARED}


@pytest.mark.parametrize(
    "experiment, damage",
    [
        ("lcu-qae", {"derived": []}),
        ("lcu-qae", {"derived": {"mean_estimate_histogram": {"0.5": None}}}),
        ("lcu-qae", {"derived": {"mean_estimate_histogram": [1]}}),
        ("dual-overlap", {"derived": {"zero_outcomes": "7"}}),
        ("dual-overlap", {"derived": {}}),
    ],
)
def test_compare_malformed_derived_counts_is_schema_error(
    tmp_path, capsys, stored_reports, experiment, damage
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**stored_reports[experiment], **damage}))
    capsys.readouterr()
    assert main(["compare", str(bad)]) == 2
    assert "malformed report" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", _COMPARED)
@pytest.mark.parametrize("shots", [5, float("nan"), 200.5, True], ids=["5", "nan", "200.5", "true"])
def test_compare_shots_not_the_histogram_total_is_schema_error(
    tmp_path, capsys, stored_reports, experiment, shots
):
    payload = json.loads(json.dumps(stored_reports[experiment]))
    payload["spec"]["shots"] = shots
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(bad)]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["lcu-qae", "dual-overlap"])
def test_compare_bit_order_mismatch_is_schema_error(tmp_path, capsys, stored_reports, experiment):
    # A one-bit readout of the right total: the estimate and zero tables read the histogram's bits.
    report = stored_reports[experiment]
    payload = {**report, "bit_order": report["bit_order"][:1], "histogram": {"0": report["spec"]["shots"]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(bad)]) == 2
    assert "bit order mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, damage",
    [
        pytest.param(
            "lcu-qae",
            lambda d: {"mean_estimate_histogram": _set_first(d["mean_estimate_histogram"], key=lambda k: "abc")},
            id="lcu-qae-estimate-key",
        ),
        pytest.param(
            "dual-overlap", lambda d: {"zero_outcomes": d["zero_outcomes"] // 2}, id="dual-overlap-zero-count"
        ),
    ],
)
def test_compare_ignores_derived_counts(tmp_path, capsys, stored_reports, experiment, damage):
    # compare reads the histogram, so derived tables edited to other valid counts change nothing
    report = stored_reports[experiment]
    damaged = {**report, "derived": {**report["derived"], **damage(report["derived"])}}
    outputs = []
    for payload in (report, damaged):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["compare", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("experiment", _COMPARED)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_compare_exit_code_is_0_or_2(tmp_path, stored_reports, experiment, data):
    payload = data.draw(_JSON | _damaged(stored_reports[experiment]))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert main(["compare", str(path)]) in (0, 2)
