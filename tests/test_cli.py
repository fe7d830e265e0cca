"""Command-line interface: parsing, file formats, determinism, exit codes."""

import csv
import json
import logging
import math

import numpy as np
import pytest

from twopolaritons import cli, sweeps
from twopolaritons.cli import main, parse_angle, parse_values
from twopolaritons.model import ModelParams
from twopolaritons.sweeps import BoundSweepPoint


def run(argv):
    return main(list(argv))


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line.startswith("# columns:"):
            continue
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.extend(csv.reader([line]))
    return meta, columns, rows


def test_parse_angle():
    assert parse_angle("1.5") == 1.5
    assert parse_angle("-2e-3") == -2e-3
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("0.3pi") == pytest.approx(0.3 * math.pi)
    assert parse_angle("2*pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle(" PI ") == math.pi
    with pytest.raises(ValueError):
        parse_angle("one")


def test_parse_values():
    assert parse_values("2.0", grid=0).tolist() == [2.0]
    assert parse_values("1,2,3", grid=0).tolist() == [1.0, 2.0, 3.0]
    np.testing.assert_allclose(parse_values("0:1:0.25", grid=0),
                               [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(parse_values("0:1", grid=5),
                               np.linspace(0.0, 1.0, 5))
    assert parse_values("0.3:2.8", grid=100).shape == (100,)
    with pytest.raises(ValueError):
        parse_values("5:1:1", grid=0)     # empty range
    with pytest.raises(ValueError):
        parse_values("0:1:-0.5", grid=0)  # bad step
    with pytest.raises(ValueError):
        parse_values("0:1", grid=0)       # two-field range needs --grid
    # angle conversion applies per field
    np.testing.assert_allclose(parse_values("pi/4,pi/2", grid=0, angles=True),
                               [math.pi / 4, math.pi / 2])


def test_normalize_argv_glues_leading_dash_values():
    argv = ["bound", "--xi", "-0.2", "--delta", "-10:10:5", "--out", "x.csv"]
    fixed = cli._normalize_argv(argv)
    assert "--xi=-0.2" in fixed
    assert "--delta=-10:10:5" in fixed
    assert fixed[-2:] == ["--out", "x.csv"]


def test_bands_csv_and_gap_sidecar(tmp_path):
    out = tmp_path / "bands.csv"
    assert run(["bands", "--xi", "-0.2", "--delta", "-1,0,1",
                "--out", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert float(meta["xi"]) == -0.2
    assert meta["delta"] == "-1,0,1"
    assert columns == ["delta", "aa_lo", "aa_hi", "ab_lo", "ab_hi",
                       "bb_lo", "bb_hi"]
    assert len(rows) == 3
    mid = [float(v) for v in rows[1]]
    assert mid[0] == 0.0
    assert mid[1] == pytest.approx(1.6396078054371142, abs=1e-9)
    side = json.loads((tmp_path / "bands.csv.gaps.json").read_text())
    assert side[1]["delta"] == 0.0
    assert len(side[1]["gaps"]) == 2


def test_bands_stdout(capsys):
    assert run(["bands", "--xi", "-0.2", "--delta", "0"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# twopol bands")
    assert "aa_lo" in text


def test_bands_json_format(tmp_path):
    out = tmp_path / "bands.json"
    assert run(["bands", "--xi", "-0.2", "--delta", "0,2",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "bands"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["delta"] == 0.0
    assert len(doc["gaps"]) == 2


def test_bound_rows_and_weights(tmp_path):
    out = tmp_path / "bound.csv"
    assert run(["bound", "--xi", "-0.2", "--delta", "-2,0,2", "--jobs", "1",
                "--out", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["delta", "gap_id", "E_b", "weight_p", "weight_d",
                       "weight_t", "kappa", "note"]
    assert len(rows) == 6  # two gaps per detuning
    for row in rows:
        assert row[7] == ""
        vals = [float(v) for v in row[:7]]
        assert vals[1] in (1.0, 2.0)
        assert abs(vals[3] + vals[4] + vals[5] - 1.0) < 1e-9
        assert vals[6] > 0.0
    # mirror pair: E_b(delta=-2, gap 2) = -E_b(delta=+2, gap 1)
    by_key = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert abs(by_key[(-2.0, 2.0)] + by_key[(2.0, 1.0)]) < 1e-9


def test_bound_emits_empty_rows_when_gaps_closed(tmp_path):
    # xi=-0.75, delta=0: all three bands overlap, no gaps at all
    out = tmp_path / "bound.csv"
    assert run(["bound", "--xi", "-0.75", "--delta", "0", "--jobs", "1",
                "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert row[2:] == ["", "", "", "", "", "closed"]


def test_bound_note_for_open_gap_without_state(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "find_bound_states", lambda params, gap: [])
    out = tmp_path / "bound.json"
    assert run(["bound", "--xi", "-0.2", "--delta", "0", "--jobs", "1",
                "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["gap_id"], r["E_b"], r["note"]) for r in rows] == [
        (1.0, None, "no state"), (2.0, None, "no state")]


def test_scatter_rows(tmp_path):
    out = tmp_path / "scatter.csv"
    assert run(["scatter", "--xi", "-0.2", "--delta", "-10", "--q", "0.3,0.9",
                "--jobs", "1", "--out", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert meta["branch"] == "AB"
    assert columns == ["q", "delta", "channel_out", "re_f", "im_f",
                       "abs_f_sq", "residual_max", "current_max"]
    # deep negative detuning keeps only AB/BA open at these momenta
    assert [r[2] for r in rows] == ["AB", "BA", "AB", "BA"]
    for ab, ba in (rows[0:2], rows[2:4]):
        assert abs(float(ab[3]) - float(ba[3])) < 1e-12
        assert abs(float(ab[4]) - float(ba[4])) < 1e-12
    first = [float(v) for v in rows[0][3:]]
    assert abs(first[0] ** 2 + first[1] ** 2 - first[2]) < 1e-12
    assert first[3] < 1e-8 and first[4] < 1e-8


def test_scatter_skips_degenerate_energy(tmp_path, caplog):
    # at q = 1 this detuning puts the pair energy exactly at twice the
    # detuning, where the third channel degenerates and the point is skipped
    delta = -0.4 * math.cos(1.0)
    out = tmp_path / "scatter.csv"
    with caplog.at_level(logging.WARNING, logger="twopol"):
        code = run(["scatter", "--xi", "-0.2", f"--delta={delta}",
                    "--q", "0.5,1.0", "--jobs", "1", "--out", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    qs = {float(r[0]) for r in rows}
    assert qs == {0.5}
    assert any("skipped" in rec.message for rec in caplog.records)


def test_bound_skips_zone_boundary(tmp_path, caplog):
    # at K = pi both gaps are refused; the sweep logs why and exits 0
    out = tmp_path / "bound.csv"
    with caplog.at_level(logging.WARNING, logger="twopol"):
        code = run(["bound", "--xi", "-0.2", "--delta", "-2", "--K", "pi",
                    "--jobs", "1", "--out", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    assert [r[2] for r in rows] == ["", ""]
    # each row names the refusal, which holds a comma and is quoted
    for row in rows:
        assert "zone boundary K = pi" in row[7]
    assert '"photon pair does not hop' in out.read_text()
    assert any("skipped delta=-2: gap 1" in rec.message
               and "zone boundary" in rec.message for rec in caplog.records)


def test_oracle_reports_skipped_gaps(tmp_path, caplog, monkeypatch):
    # a gap the sweep refuses has no oracle comparison: say so and fail
    def refused(xi, deltas, K=0.0, **kwargs):
        return [BoundSweepPoint(params=ModelParams(xi=xi, delta=d, K=K), gaps=(),
                                states=(), skipped=((1, "refused"),)) for d in deltas]

    monkeypatch.setattr(cli, "bound_sweep", refused)
    out = tmp_path / "oracle.csv"
    with caplog.at_level(logging.ERROR, logger="twopol"):
        code = run(["oracle", "--xi", "-0.2", "--delta", "0", "--N", "24",
                    "--out", str(out)])
    assert code == 1
    assert any("no oracle comparison at delta=0: gap 1: refused" in rec.message
               for rec in caplog.records)


def test_output_deterministic_across_jobs(tmp_path):
    argv = ["scatter", "--xi", "-0.2", "--delta", "-1,1",
            "--q", "0.4:2.8", "--grid", "6"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--jobs", "1", "--out", str(a)]) == 0
    assert run(argv + ["--jobs", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle.csv"
    assert run(["oracle", "--xi", "-0.2", "--delta", "0", "--N", "12,24",
                "--jobs", "1", "--out", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert meta["N"] == "12,24"
    assert columns == ["delta", "gap_id", "E_b", "N", "E_ed", "error",
                       "overlap"]
    assert len(rows) == 4  # two gaps x two ring sizes
    for row in rows:
        vals = [float(v) for v in row]
        assert vals[6] > 0.999
    errors = {(float(r[1]), float(r[3])): float(r[5]) for r in rows}
    assert errors[(1.0, 24.0)] <= errors[(1.0, 12.0)]


def test_validate_command(tmp_path):
    out = tmp_path / "report.json"
    assert run(["validate", "--checks", "parity-conjugation,ed-jc-levels",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["parity-conjugation",
                                                  "ed-jc-levels"]


def test_validate_failure_exit_code(monkeypatch, tmp_path):
    from twopolaritons.validation import CheckResult

    def forced_failure(names=None, **kwargs):
        return [CheckResult(name="forced", passed=False, seconds=0.0,
                            detail="synthetic")]

    monkeypatch.setattr(cli, "run_checks", forced_failure)
    out = tmp_path / "report.json"
    assert run(["validate", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_bad_q_range_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["scatter", "--xi", "-0.2", "--delta", "0", "--q", "0.5,3.5"])
    assert exc.value.code == 2


def test_unknown_check_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--checks", "no-such-check"])
    assert exc.value.code == 2


def test_bad_parameter_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["bands", "--xi", "nan", "--delta", "0"])
    assert exc.value.code == 2


def test_pi_syntax_reaches_metadata(tmp_path):
    out = tmp_path / "bands.csv"
    assert run(["bands", "--xi", "-0.2", "--K", "pi/2", "--delta", "0",
                "--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert meta["K"] == "pi/2"
