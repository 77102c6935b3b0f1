import json

import pytest

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
