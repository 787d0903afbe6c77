import json
import subprocess
import sys

import pytest

from noncollide import cli


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run_cli(["count", "--start", "0,2", "--end", "0,2", "--steps", "2"], capsys)
    assert code == 0
    assert out.strip() == "3"


def test_count_parity_error(capsys):
    code, out, err = run_cli(
        ["count", "--start", "0,2", "--end", "1,3", "--steps", "2"], capsys
    )
    assert code == 1
    assert "parity" in err
    assert out == ""


def test_schur_methods(capsys):
    code, out, _ = run_cli(
        ["schur", "--shape", "2,1", "--points", "1,1,1", "--method", "principal"],
        capsys,
    )
    assert code == 0 and out.strip() == "8"
    code, out, _ = run_cli(
        ["schur", "--shape", "2,1", "--points", "1,2,3", "--method", "ssyt"], capsys
    )
    assert code == 0 and out.strip() == "60"
    code, out, _ = run_cli(
        ["schur", "--shape", "2", "--points", "1/2,1/3", "--method", "dualjt"],
        capsys,
    )
    assert code == 0 and out.strip() == "19/36"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.run(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.run(["count", "--start", "0,2"])
    assert info.value.code == 2


def test_tableau_round_trip(tmp_path, capsys):
    walk = {"start": [0, 2], "steps": [[-1, 1], [1, 1]], "horizon": 2}
    src = tmp_path / "walk.json"
    src.write_text(json.dumps(walk))
    mid = tmp_path / "tab.json"
    code, _, _ = run_cli(
        ["tableau", "--to", "ssyt", "--in", str(src), "--out", str(mid)], capsys
    )
    assert code == 0
    tab = json.loads(mid.read_text())
    assert tab["shape"] == [1]
    code, out, _ = run_cli(
        ["tableau", "--to", "walk", "--in", str(mid), "--n", "2", "--steps", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == walk


def test_lgv_command(tmp_path, capsys):
    from noncollide import lgv

    g = lgv.walk_graph(2, 0, 2)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    code, out, _ = run_cli(
        [
            "lgv",
            "--graph",
            str(path),
            "--sources",
            "0,0;2,0",
            "--sinks",
            "0,2;2,2",
            "--check-compatibility",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    assert lines[1] == "compatible: true"


def test_density_values(capsys):
    code, out, _ = run_cli(
        ["density", "--kind", "survival", "--t", "1", "--x", "0,2"], capsys
    )
    assert code == 0
    assert abs(float(out) - 0.8427007929497149) < 1e-12
    code, out, _ = run_cli(
        ["density", "--kind", "p", "--t", "1", "--y", "-0.3,0.8"], capsys
    )
    assert code == 0
    assert float(out) > 0
    code, _, err = run_cli(["density", "--kind", "km", "--t", "1", "--x", "0,2"], capsys)
    assert code == 1 and "needs --y" in err


def test_sample_walk_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["sample-walk", "--start", "0,2", "--steps", "3", "--n", "25", "--seed", "42"]
    assert run_cli(base + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(base + ["--out", str(b)], capsys)[0] == 0
    content = a.read_bytes()
    assert content == b.read_bytes()
    lines = content.decode().splitlines()
    assert lines[0] == "# seed=42"
    assert lines[1] == "sample_id,t,walker_id,position"
    # 25 samples x 4 times x 2 walkers
    assert len(lines) == 2 + 25 * 4 * 2


def test_simulate_threads_do_not_change_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = [
        "simulate-dyson",
        "--n",
        "2",
        "--t",
        "0.5",
        "--steps",
        "16",
        "--paths",
        "40",
        "--seed",
        "11",
    ]
    assert run_cli(base + ["--out", str(a), "--threads", "1"], capsys)[0] == 0
    assert run_cli(base + ["--out", str(b), "--threads", "4"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_matrix_csv_schema(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code, _, _ = run_cli(
        [
            "simulate-matrix",
            "--n",
            "2",
            "--t",
            "0.5",
            "--steps",
            "8",
            "--paths",
            "3",
            "--seed",
            "2",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "path_id,t,i,value"
    assert len(lines) == 2 + 3 * 8 * 2
    first = lines[2].split(",")
    assert first[0] == "0" and first[2] == "0"


def test_verify_sde_roundtrip(tmp_path, capsys):
    eig = tmp_path / "eig.csv"
    report = tmp_path / "sde.json"
    code, _, _ = run_cli(
        [
            "simulate-matrix",
            "--n",
            "2",
            "--t",
            "1.0",
            "--steps",
            "100",
            "--paths",
            "120",
            "--seed",
            "5",
            "--out",
            str(eig),
        ],
        capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["verify-sde", "--in", str(eig), "--report", str(report), "--seed", "5"],
        capsys,
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert set(payload) >= {"slope", "intercept", "qv_per_time", "gamma", "seed"}
    assert abs(payload["qv_per_time"] - 1.0) < 0.1


def test_verify_suite_subset(tmp_path, capsys):
    report = tmp_path / "reports.json"
    code, out, _ = run_cli(
        ["verify", "--suite", "pinned,drift-limit", "--report", str(report)], capsys
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    payload = json.loads(report.read_text())
    assert all(entry["passed"] for entry in payload)


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "--suite", "nonsense"], capsys)
    assert code == 1
    assert "unknown suite" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "noncollide.cli", "count", "--start", "0",
         "--end", "2", "--steps", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_scaling_check_output(capsys):
    code, out, _ = run_cli(
        ["scaling-check", "--start", "0,2", "--t", "1", "--y", "-1,1",
         "--scale", "50", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_error"] < 0.05


@pytest.mark.parametrize("flags", [["--t", "0", "--scale", "50"], ["--t", "1", "--scale", "-5"]])
def test_scaling_check_rejects_nonpositive(flags, capsys):
    code, out, err = run_cli(
        ["scaling-check", "--start", "0,2", "--y", "-1,1"] + flags, capsys
    )
    assert code == 1 and out == ""
    assert "needs t > 0 and scale > 0" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--start", "1,4", "--steps", "3", "--n", "2"], "start position 1 is odd"),
        (["--start", "2,0", "--steps", "3", "--n", "2"], "not strictly increasing"),
        (["--start", "0,2", "--steps", "-1", "--n", "2"], "--steps must be nonnegative"),
        (["--start", "0,2", "--steps", "3", "--n", "-1"], "--n must be nonnegative"),
    ],
)
def test_sample_walk_rejects_bad_input_before_writing(tmp_path, flags, message, capsys):
    out = tmp_path / "walks.csv"
    code, _, err = run_cli(["sample-walk"] + flags + ["--out", str(out)], capsys)
    assert code == 1
    assert message in err
    assert not out.exists()
