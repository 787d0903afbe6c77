import argparse
import decimal
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_count_refuses_negative_steps(capsys):
    code, out, err = run_cli(["count", "--start", "0", "--end", "0", "--steps", "-1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: --steps must be nonnegative, got -1\n"


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


@pytest.mark.parametrize("method", ["ssyt", "bialternant", "dualjt", "principal"])
def test_schur_refuses_zero_denominator(method, capsys):
    code, out, err = run_cli(
        ["schur", "--shape", "1", "--points", "1/0", "--method", method], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cannot read '1/0' as a rational" in err


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


@pytest.mark.parametrize("sources, sinks", [("a;c;e", "b;d;f"), ("c;e;a", "d;f;b")])
def test_lgv_prints_a_mixed_weight_determinant_exactly(sources, sinks, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": list("abcdef"),
        "edges": [{"from": "a", "to": "b", "weight": "1/3"}, {"from": "c", "to": "d"},
                  {"from": "e", "to": "f"}],
    }))
    code, out, _ = run_cli(
        ["lgv", "--graph", str(path), "--sources", sources, "--sinks", sinks], capsys
    )
    assert (code, out) == (0, "1/3\n")


def test_lgv_compatibility_check_tests_every_crossing_pair(tmp_path, capsys):
    # a -> a, b -> b, c -> c: a nonintersecting tuple of a permutation other
    # than the identity
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [{"from": "a", "to": "b"}]}))
    code, out, _ = run_cli(
        ["lgv", "--graph", str(path), "--sources", "a;b;c", "--sinks", "b;c;a",
         "--check-compatibility"],
        capsys,
    )
    assert (code, out) == (0, "1\ncompatible: false\n")


@pytest.mark.parametrize("weight", ["1/0", None, math.inf])
def test_lgv_refuses_unreadable_weight(weight, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "weight": weight}]}
    ))
    code, out, err = run_cli(
        ["lgv", "--graph", str(path), "--sources", "a", "--sinks", "b"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"cannot read {weight!r} as a rational" in err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("lgv", [1, 2], "not a path graph (list indices"),
        ("lgv", {"vertices": [{"a": 1}], "edges": []}, "not a path graph (unhashable type"),
        ("tableau", {"start": 5, "steps": [[1]]}, "not a walk record ('int' object is not iterable)"),
    ],
)
def test_json_of_the_wrong_shape_is_refused(command, content, message, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    argv = {
        "lgv": ["lgv", "--graph", str(path), "--sources", "a", "--sinks", "b"],
        "tableau": ["tableau", "--to", "ssyt", "--in", str(path)],
    }[command]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize(
    "to, content, message",
    [
        ("ssyt", {"start": [0, 2], "steps": [[1.9, 1], [1, 1]]}, "steps: 1.9 is not a JSON integer"),
        ("ssyt", {"start": [0.0, 2], "steps": [[1, 1], [1, 1]]}, "start: 0.0 is not a JSON integer"),
        ("ssyt", {"start": [0, 2], "steps": [[-1, 1], [1, 1]], "horizon": 2.0},
         "horizon: 2.0 is not a JSON integer"),
        ("ssyt", {"start": [0, 2], "steps": [[True, 1], [1, 1]]}, "steps: True is not a JSON integer"),
        ("walk", {"rows": [[1.7]], "max_entry": 2, "shape": [1]}, "rows: 1.7 is not a JSON integer"),
        ("walk", {"rows": [[1]], "max_entry": 2.5, "shape": [1]}, "max_entry: 2.5 is not a JSON integer"),
        ("walk", {"rows": [[1]], "max_entry": 2, "shape": [1.0]}, "shape: 1.0 is not a JSON integer"),
    ],
)
def test_tableau_refuses_numbers_that_are_not_integers(to, content, message, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    argv = ["tableau", "--to", to, "--in", str(path)]
    if to == "walk":
        argv += ["--n", "2", "--steps", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("edge, vertex", [(("a", "c"), "c"), (("z", "b"), "z")])
def test_lgv_names_an_edge_to_an_unlisted_vertex(edge, vertex, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"vertices": ["a", "b"], "edges": [{"from": edge[0], "to": edge[1]}]}
    ))
    code, out, err = run_cli(
        ["lgv", "--graph", str(path), "--sources", "a", "--sinks", "b"], capsys
    )
    assert code == 1 and out == ""
    assert err == f"error: edge {edge[0]!r} -> {edge[1]!r}: vertex {vertex!r} is not in \"vertices\"\n"


@pytest.mark.parametrize("weight", [True, False])
def test_lgv_refuses_a_boolean_edge_weight(weight, tmp_path, capsys):
    # Fraction(True) == 1: read as a number, true would give a determinant of 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "weight": weight}]}
    ))
    code, out, err = run_cli(
        ["lgv", "--graph", str(path), "--sources", "a", "--sinks", "b"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {weight!r} as a rational: ")


@pytest.mark.parametrize(
    "sources, sinks, line",
    [("z", "b", "unknown vertex 'z'"), ("a", "1,2", "unknown vertex (1, 2)")],
)
def test_lgv_names_an_unknown_endpoint_without_quotes(sources, sinks, line, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}]}))
    code, out, err = run_cli(
        ["lgv", "--graph", str(path), "--sources", sources, "--sinks", sinks], capsys
    )
    assert code == 1 and out == ""
    assert err == f"error: {line}\n"


@pytest.mark.parametrize("text", ["", "not json"])
@pytest.mark.parametrize(
    "argv",
    [["lgv", "--graph", "{}", "--sources", "a", "--sinks", "b"], ["tableau", "--to", "ssyt", "--in", "{}"]],
)
def test_a_file_that_is_not_json_is_named(argv, text, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run_cli([a.format(path) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {path}: not JSON (Expecting value: line 1 column 1 (char 0))\n"


@pytest.mark.parametrize(
    "argv, content, what, key",
    [
        (["lgv", "--graph", "{}", "--sources", "a", "--sinks", "a"], {"vertices": ["a"]},
         "path graph", "edges"),
        (["tableau", "--to", "walk", "--in", "{}", "--n", "2", "--steps", "2"],
         {"rows": [[1]], "shape": [1]}, "tableau", "max_entry"),
    ],
)
def test_a_missing_key_is_named_with_the_file(argv, content, what, key, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli([a.format(path) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {path}: not a {what} (missing key {key!r})\n"


def test_stdin_that_is_not_json_is_named(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    code, out, err = run_cli(["tableau", "--to", "ssyt", "--in", "-"], capsys)
    assert code == 1 and out == ""
    assert err == "error: -: not JSON (Expecting value: line 1 column 1 (char 0))\n"


def test_lgv_compatibility_check_on_a_long_lattice(tmp_path, capsys):
    # 2^16 paths per crossing pair, past any enumeration of pairs of paths
    from noncollide import lgv

    path = tmp_path / "g.json"
    path.write_text(json.dumps(lgv.walk_graph(16, 0, 16).to_json()))
    code, out, _ = run_cli(
        ["lgv", "--graph", str(path), "--sources", "0,0;4,0", "--sinks", "0,16;4,16",
         "--check-compatibility"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "compatible: true"


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
        ["verify-sde", "--in", str(eig), "--out", str(report), "--seed", "5"],
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


def test_verify_writes_its_lines_to_out(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    code, stdout, _ = run_cli(["verify", "--suite", "pinned"], capsys)
    assert code == 0 and stdout.startswith("PASS ")
    assert run_cli(["verify", "--suite", "pinned", "--out", str(out)], capsys) == (0, "", "")
    assert out.read_text() == stdout


# sha256 of the stdout and the --report JSON of every suite but the two
# slowest, equivalence and sde, recorded before the reports were built by
# TestReport.below and TestReport.exact
VERIFY_PINNED = (
    "8bf95705326cf3b4905ffb3bf9923efadbc63218b033c4f6e1f554e8d860d548",
    "70a0a4929b9e4789f5e6e08da1b2f2b041cf3a1996abd439e007940275617f0b",
)


def test_verify_output_is_pinned(tmp_path, capsys):
    suites = "counting,pinned,bijection,schur,involution,survival,normalization,scaling," \
        "drift-limit,determinism"
    report = tmp_path / "reports.json"
    code, out, _ = run_cli(["verify", "--suite", suites, "--report", str(report)], capsys)
    assert code == 0 and out.endswith("\n70/70 checks passed\n")
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(report.read_bytes()).hexdigest())
    assert digests == VERIFY_PINNED


def test_verify_prints_each_report_line(tmp_path, capsys):
    from noncollide.verify import TestReport

    report = tmp_path / "reports.json"
    code, out, _ = run_cli(
        ["verify", "--suite", "pinned,drift-limit,scaling", "--report", str(report)], capsys
    )
    assert code == 0
    reports = [
        TestReport(**dict(entry, sample_sizes=tuple(entry["sample_sizes"]),
                          seeds=tuple(entry["seeds"])))
        for entry in json.loads(report.read_text())
    ]
    lines = out.splitlines()
    assert lines[:-1] == [r.line() for r in reports]
    assert lines[-1] == f"{len(reports)}/{len(reports)} checks passed"


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
    "flags, name",
    [
        (["--t", "inf", "--y", "-1,1", "--scale", "50"], "finite t,"),
        (["--t", "1", "--y", "-1,1", "--scale", "1e200"], "finite scale^2 * t,"),
        (["--t", "1", "--y", "0,nan", "--scale", "50"], "finite y[1],"),
    ],
)
def test_scaling_check_refuses_non_finite(flags, name, capsys):
    code, out, err = run_cli(["scaling-check", "--start", "0,2"] + flags, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and name in err


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


def test_sample_walk_twelve_walkers(tmp_path, capsys):
    # N = 12 is out of reach of a sampler exponential in N; checks the output, not the time
    start = list(range(0, 72, 6))
    out = tmp_path / "walk.csv"
    code, _, err = run_cli(
        ["sample-walk", "--start", ",".join(map(str, start)), "--steps", "20", "--n", "1",
         "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0, err
    rows = np.loadtxt(out, delimiter=",", skiprows=2, dtype=int)
    assert rows.shape == (21 * 12, 4) and set(rows[:, 0]) == {0}
    pos = rows[:, 3].reshape(21, 12)
    assert pos[0].tolist() == start
    assert np.all(np.abs(np.diff(pos, axis=0)) == 1)
    assert np.all(np.diff(pos, axis=1) > 0)


# sha256 of the walks written when rand_below still drew all its 32-bit
# words in one batched call per draw
SAMPLE_WALK_PINNED = "68ee0691aafe0318671c15ea845a3f18832f9b5ff1d7e3fde2749e4f8b4c49a5"


def test_sample_walk_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "walks.csv"
    code, _, err = run_cli(
        ["sample-walk", "--start", "0,2,4,8", "--steps", "12", "--n", "50", "--seed", "42",
         "--out", str(out)],
        capsys,
    )
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_WALK_PINNED


def test_count_beyond_int_str_limit(capsys):
    # 96,320 digits, past CPython's 4300-digit int-to-str limit
    code, out, err = run_cli(
        ["count", "--start", "0,2", "--end", "0,2", "--steps", "160000"], capsys
    )
    assert code == 0, err
    digits = out.strip()
    assert len(digits) == 96_320 and digits.isdigit()
    # Lindstrom-Gessel-Viennot for two walkers: C(T,T/2)^2 - C(T,T/2+1)^2
    exact = math.comb(160_000, 80_000) ** 2 - math.comb(160_000, 80_001) ** 2
    assert decimal.Decimal(digits) == decimal.Decimal(exact)
    code, out, err = run_cli(
        ["count", "--start", "0,2", "--end", "0,2", "--steps", "8000", "--format", "json"],
        capsys,
    )
    assert code == 0, err
    value = json.loads(out)["value"]
    exact = math.comb(8000, 4000) ** 2 - math.comb(8000, 4001) ** 2
    assert len(value) > 4300 and decimal.Decimal(value) == decimal.Decimal(exact)


def test_simulate_dyson_six_from_origin_finishes():
    proc = subprocess.run(
        [sys.executable, "-m", "noncollide.cli", "simulate-dyson", "--n", "6",
         "--t", "1", "--steps", "100", "--paths", "20"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2 + 20 * 100 * 6


# sha256 of outputs written by the per-value CSV writer this one replaced,
# with CHUNK_VALUES = 1000 so the paths span several chunks
PINNED_CHUNKED = [
    (
        ["simulate-matrix", "--n", "4", "--t", "1", "--steps", "50", "--paths", "12",
         "--seed", "2024"],
        "6e29b6cec25f308278e1b4c8adc622385f9dda299887636a9501a4878881b2fc",
    ),
    (
        ["simulate-inhomogeneous", "--n", "2", "--horizon", "1.5", "--t", "1",
         "--steps", "50", "--paths", "12", "--seed", "7"],
        # re-recorded when the from-origin start became a two-matrix draw
        "47d6ceb58b2bdda53d2a12dce71e88bcc740acb1d47ddb7a91adbbf27bfb0bdf",
    ),
    # recorded from the block writer and the per-process loops, before the
    # three processes shared one trajectory engine
    (
        ["simulate-dyson", "--n", "3", "--t", "1", "--steps", "50", "--paths", "15",
         "--seed", "11"],
        "4d843985617e7fb2cbfe763db8a10c113c1b500778c89ae061427bb357beda77",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_CHUNKED)
def test_chunked_simulate_csv_is_pinned(argv, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "CHUNK_VALUES", 1000)
    out = tmp_path / "paths.csv"
    code, _, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _write_fixed_paths(states, out, monkeypatch, chunk_values=None):
    """Write ``states`` (paths, steps, N) through the simulate-matrix writer."""
    paths, steps, n = states.shape
    if chunk_values is not None:
        monkeypatch.setattr(cli, "CHUNK_VALUES", chunk_values)
    offset = 0

    def fake_chunk(args, size, rng):
        nonlocal offset
        block = states[offset : offset + size]
        offset += size
        return block

    monkeypatch.setattr(cli, "_chunk", fake_chunk)
    code = cli.run(
        ["simulate-matrix", "--n", str(n), "--t", "1", "--steps", str(steps),
         "--paths", str(paths), "--seed", "3", "--out", str(out)]
    )
    assert code == 0


def test_simulate_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    scale = 10.0 ** rng.integers(-9, 17, (7, 5, 3))  # values in exponent form too
    states = np.sort(rng.standard_normal((7, 5, 3)) * scale, axis=2)
    out = tmp_path / "paths.csv"
    _write_fixed_paths(states, out, monkeypatch, chunk_values=30)  # two paths a chunk
    dt = 1 / 5
    lines = ["# seed=3", "path_id,t,i,value"]
    for p in range(7):
        for k in range(5):
            for i in range(3):
                lines.append(",".join([str(p), repr(float((k + 1) * dt)), str(i),
                                       repr(float(states[p, k, i]))]))
    assert out.read_text() == "\n".join(lines) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-7, -1e-7, 1e16, 1.5e16, 5e-324, 0.1, 1 / 3]
)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)),
    data=st.data(),
)
def test_simulate_csv_round_trip_is_exact(shape, data, tmp_path_factory):
    paths, steps, n = shape
    values = data.draw(st.lists(_finite, min_size=paths * steps * n,
                                max_size=paths * steps * n, unique=True))
    states = np.sort(np.array(values).reshape(shape), axis=2)
    out = tmp_path_factory.mktemp("rt") / "paths.csv"
    with pytest.MonkeyPatch.context() as monkeypatch:
        _write_fixed_paths(states, out, monkeypatch)
    read = cli._read_paths_csv(str(out))
    dt = 1 / steps
    assert len(read) == paths
    for p, path in enumerate(read):
        assert np.array_equal(path.states, states[p])
        assert np.array_equal(path.times, [(k + 1) * dt for k in range(steps)])


def _paths_csv_lines(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code, _, err = run_cli(
        ["simulate-matrix", "--n", "2", "--t", "1", "--steps", "4", "--paths", "3",
         "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0, err
    return out, out.read_text().splitlines(keepends=True)


def test_paths_csv_reads_rows_in_any_order(tmp_path, capsys):
    out, lines = _paths_csv_lines(tmp_path, capsys)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join(lines[:2] + lines[:1:-1]))
    for a, b in zip(cli._read_paths_csv(str(out)), cli._read_paths_csv(str(shuffled))):
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)


def test_verify_sde_rejects_duplicated_row(tmp_path, capsys):
    out, lines = _paths_csv_lines(tmp_path, capsys)
    out.write_text("".join(lines[:7] + [lines[5]] + lines[7:]))
    code, _, err = run_cli(["verify-sde", "--in", str(out), "--gamma-steps", "10"], capsys)
    assert code == 1
    assert str(out) in err and "3*4*2 = 24 rows" in err and "found 25" in err


def test_verify_sde_rejects_missing_row(tmp_path, capsys):
    out, lines = _paths_csv_lines(tmp_path, capsys)
    out.write_text("".join(lines[:7] + lines[8:]))
    code, _, err = run_cli(["verify-sde", "--in", str(out), "--gamma-steps", "10"], capsys)
    assert code == 1
    assert str(out) in err and "3*4*2 = 24 rows" in err and "found 23" in err


def test_verify_sde_on_a_one_step_csv_is_an_error(tmp_path, capsys):
    paths = tmp_path / "one.csv"
    code, _, err = run_cli(
        ["simulate-matrix", "--n", "2", "--t", "1", "--steps", "1", "--paths", "3",
         "--out", str(paths)],
        capsys,
    )
    assert code == 0, err
    out = tmp_path / "report.json"
    code, _, err = run_cli(["verify-sde", "--in", str(paths), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "at least two grid times" in err
    assert not out.exists()


def test_verify_sde_refuses_a_nonuniform_grid(tmp_path, capsys):
    paths, lines = _paths_csv_lines(tmp_path, capsys)
    # grid 0.25, 0.5, 0.75, 1 becomes 0.1, 0.2, 0.9, 1
    regrid = {"0.25": "0.1", "0.5": "0.2", "0.75": "0.9", "1.0": "1.0"}
    body = []
    for line in lines[2:]:
        pid, t, rest = line.split(",", 2)
        body.append(f"{pid},{regrid[t]},{rest}")
    paths.write_text("".join(lines[:2] + body))
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify-sde", "--in", str(paths), "--gamma-steps", "10", "--out", str(out)], capsys
    )
    assert code == 1
    assert err.startswith("error: ") and "uniform time grid" in err
    assert not out.exists()


def test_verify_sde_on_one_walker_writes_json(tmp_path, capsys):
    # one walker gives no drift spread, so the slope interval is unbounded;
    # JSON has no Infinity, so both bounds are null
    paths = tmp_path / "one.csv"
    code, _, err = run_cli(
        ["simulate-matrix", "--n", "1", "--t", "1", "--steps", "50", "--paths", "4",
         "--out", str(paths)],
        capsys,
    )
    assert code == 0, err
    code, out, err = run_cli(["verify-sde", "--in", str(paths), "--gamma-steps", "10"], capsys)
    assert code == 0, err

    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    payload = json.loads(out, parse_constant=refuse)
    assert payload["slope"] == 0.0 and payload["slope_ci95"] == [None, None]
    for key in ("intercept_ci95", "qv_ci95"):
        assert all(math.isfinite(bound) for bound in payload[key])


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_sde_refuses_a_state_that_is_not_finite(value, tmp_path, capsys):
    # the last row is the top walker of the last path at the last time
    paths, lines = _paths_csv_lines(tmp_path, capsys)
    pid, t, i, _ = lines[-1].split(",")
    paths.write_text("".join(lines[:-1] + [f"{pid},{t},{i},{value}\n"]))
    code, out, err = run_cli(["verify-sde", "--in", str(paths), "--gamma-steps", "10"], capsys)
    assert code == 1 and out == ""
    assert err == "error: states must be finite\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_sde_refuses_nonpositive_gamma_steps_before_reading(tmp_path, value, capsys):
    missing = tmp_path / "absent.csv"
    code, _, err = run_cli(["verify-sde", "--in", str(missing), "--gamma-steps", value], capsys)
    assert code == 1
    assert err.startswith("error: --gamma-steps must be positive")


def test_schur_prints_long_rationals(capsys):
    # s_(15000)(1/2) = 1/2^15000, a denominator of 4516 digits
    code, out, err = run_cli(
        ["schur", "--shape", "15000", "--points", "1/2", "--method", "bialternant"], capsys
    )
    assert code == 0, err
    assert out.strip() == "1/" + str(decimal.Decimal(2**15000))


def test_simulate_inhomogeneous_four_from_origin_in_bounded_time():
    from scipy.stats import ks_2samp

    from noncollide.diffusion import terminal

    proc = subprocess.run(
        [sys.executable, "-m", "noncollide.cli", "simulate-inhomogeneous", "--n", "4",
         "--horizon", "1.5", "--t", "1", "--steps", "100", "--paths", "20"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 + 20 * 100 * 4
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    states = rows[:, 3].reshape(20, 100, 4)
    exact = terminal("matrix", 4, 1.0, 1, 20_000, np.random.default_rng(86), horizon=1.5)
    for coord in range(4):
        assert ks_2samp(states[:, -1, coord], exact[:, coord]).pvalue > 1e-3


def test_failed_simulate_leaves_no_out_file(tmp_path, monkeypatch, capsys):
    def failing_chunk(args, size, rng):
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(cli, "_chunk", failing_chunk)
    out = tmp_path / "paths.csv"
    code, _, err = run_cli(
        ["simulate-inhomogeneous", "--n", "2", "--horizon", "1", "--t", "1", "--steps", "4",
         "--paths", "3", "--out", str(out)],
        capsys,
    )
    assert code == 1 and "chunk failed" in err
    assert not out.exists()


def test_schur_default_method_long_shape_in_bounded_time(capsys):
    # the dual Jacobi-Trudi matrix is 15000 x 15000 here, but banded
    argv = ["schur", "--shape", "15000", "--points", "1/2"]
    proc = subprocess.run(
        [sys.executable, "-m", "noncollide.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(argv + ["--method", "bialternant"], capsys)
    assert code == 0 and proc.stdout == out


def test_schur_ssyt_long_alphabet_matches_dualjt(capsys):
    # 436,590 tableaux: summed letter by letter, never listed one by one
    argv = ["schur", "--shape", "5,5,3,1", "--points", "1,2,3,4,5,6,7", "--method"]
    code, ssyt, err = run_cli(argv + ["ssyt"], capsys)
    assert code == 0, err
    code, dualjt, err = run_cli(argv + ["dualjt"], capsys)
    assert code == 0, err
    assert ssyt == dualjt


@pytest.mark.parametrize(
    "argv, message",
    [
        ("density --kind survival --t nan --x 0,1", "t must be finite"),
        ("density --kind survival --t inf --x 0,1,2", "t must be finite"),
        ("density --kind survival --t 1 --x 0,nan", "not finite"),
        ("density --kind km --t nan --x 0,1 --y 0.5,1.5", "t must be finite"),
        ("density --kind p --t 1 --y 0,inf", "not finite"),
        ("density --kind g --t 1 --horizon inf --y 0,1", "horizon must be finite"),
        ("density --kind g --t 1 --horizon inf --grid -1:1:3", "horizon must be finite"),
        ("simulate-dyson --n 2 --t nan --steps 4 --paths 2", "t_end must be finite"),
        ("simulate-inhomogeneous --n 2 --horizon inf --t 1 --steps 4 --paths 2", "horizon must be finite"),
    ],
)
def test_non_finite_arguments_exit_1_without_output(argv, message, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code, _, err = run_cli(argv.split() + ["--out", str(out)], capsys)
    assert code == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--kind km --grid -1:1:3", "kind km needs --x"),
        ("--kind km --y 0,1", "kind km needs --x"),
        ("--kind g --grid -1:1:3", "kind g needs --horizon"),
        ("--kind g --y 0,1", "kind g needs --horizon"),
        ("--kind p --grid -1:1:3:4", "--grid must be lo:hi:count"),
        ("--kind p --grid -1:1", "--grid must be lo:hi:count"),
        ("--kind p --grid a:1:3", "--grid must be lo:hi:count"),
        ("--kind p --grid -1:1:2.5", "--grid must be lo:hi:count"),
        ("--kind p --grid 0:1:100000000", "--grid count must be in 0..1000, got 100000000"),
        ("--kind p --grid -1:1:3 --y 0,1", "give --grid or --y, not both"),
        ("--kind p --y 1,0", "point [1.0, 0.0] is not strictly increasing"),
        ("--kind p", "kind p needs --y"),
        ("--kind km --x 0,1 --y 0.5,1.5 --s 0.5", "kind km takes no --s"),
        ("--kind km --x 0,1 --y 0.5,1.5 --s 0", "kind km takes no --s"),
        ("--kind km --x 0,1 --y 0.5,1.5 --horizon 2", "kind km takes no --horizon"),
        ("--kind p --y 0.5,1.5 --horizon 2", "kind p takes no --horizon"),
        ("--kind survival --x 0,1 --s 0.5", "kind survival takes no --s"),
        ("--kind survival --x 0,1 --y 0.5,1.5", "kind survival takes no --y"),
        ("--kind survival --x 0,1 --horizon 2", "kind survival takes no --horizon"),
    ],
)
def test_density_argument_checks(flags, message, tmp_path, capsys):
    out = tmp_path / "density.csv"
    code, _, err = run_cli(["density", "--t", "1", *flags.split(), "--out", str(out)], capsys)
    assert code == 1 and message in err
    assert not out.exists()


GRID_REQUESTS = {
    name: flags.split()
    for name, flags in (
        ("km", "--kind km --t 0.8 --x -0.3,0.4"),
        ("p origin", "--kind p --t 0.8 --x origin"),
        ("p chamber", "--kind p --s 0.3 --t 0.8 --x -0.3,0.4"),
        ("g origin", "--kind g --t 0.8 --horizon 1.5 --x origin"),
        ("g chamber", "--kind g --s 0.3 --t 0.8 --horizon 1.5 --x -0.3,0.4"),
        ("g origin t=T", "--kind g --t 0.8 --horizon 0.8 --x origin"),
        ("g chamber t=T", "--kind g --s 0.3 --t 0.8 --horizon 0.8 --x -0.3,0.4"),
    )
}


@pytest.mark.parametrize("name", list(GRID_REQUESTS))
def test_density_grid_matches_one_point_requests(name, tmp_path, capsys):
    flags = GRID_REQUESTS[name]
    out = tmp_path / "grid.csv"
    assert run_cli(["density", *flags, "--grid", "-1.5:1.5:7", "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# seed=0", "y1,y2,value"] and len(lines) == 2 + 7 * 7
    for line in lines[2:]:
        a, b, value = line.split(",")
        if float(a) >= float(b):
            assert value == "0.0"
            continue
        code, text, _ = run_cli(["density", *flags, "--y", f"{a},{b}"], capsys)
        assert code == 0
        assert float(value) > 0.0
        assert float(value) == pytest.approx(float(text), rel=1e-14)


# sha256 of grid CSVs written when the whole grid was formatted as one
# string, with repr of both coordinates on every row
PINNED_GRIDS = [
    (GRID_REQUESTS["km"], "-2.5:2.7:20",
     "b0e3609fc50f1ee4060b2a583913fe1edde9fb55e1b8dcddd4ec18489f88e4ea"),
    (GRID_REQUESTS["p origin"], "-2.5:2.7:20",
     "2259cc8865f951e57a3f459e5690d3cf9e1d6707cbde14b367c5ce0b4995e517"),
    (GRID_REQUESTS["p chamber"], "-2.5:2.7:20",
     "206bb04ce3bf0c1fa75d66e88e94798b89dc9d665becd11067a54fd565282028"),
    (GRID_REQUESTS["g origin"], "-2.5:2.7:20",
     "2a33ec444b804239c5aa01a984bf6c2dc3d3de1576b10f946972afdacc98edf7"),
    (GRID_REQUESTS["g chamber"], "-2.5:2.7:20",
     "25a5d8cbcc6fef7183ae2a2d4401d61833a74e411793518eb280e5de0f7fd0ca"),
    # the edge counts: the header alone, and one point
    (GRID_REQUESTS["p origin"], "-1:1:0",
     "135be3c0d7f8287f63c66b70186e7325f534ecee72ef9d5bf0487a8816221540"),
    (GRID_REQUESTS["p origin"], "-1:1:1",
     "f7e16aad4c3efdf4dbb0b78ba17eedfa8117253c0dd916f81fa2004ab56cefbb"),
    # linspace turns lo = -0.0 into 0.0, and keeps hi = -0.0 as the last point
    (GRID_REQUESTS["km"], "-0.0:1.5:9",
     "08b3929636acd28ebd202824f21648587bf25ff57da110375366939d6a8ec66e"),
    (GRID_REQUESTS["km"], "-1:-0.0:3",
     "25584c65cec807e8d969487e36a63958514cad8af34b1a4b86115e79a84d5cc9"),
]


@pytest.mark.parametrize("flags, grid, digest", PINNED_GRIDS)
def test_density_grid_csv_is_pinned(flags, grid, digest, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, err = run_cli(["density", *flags, "--grid", grid, "--out", str(out)], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_density_grid_is_one_library_call(tmp_path, monkeypatch, capsys):
    from noncollide import diffusion

    calls = []
    for name in ("km_density", "transition_homogeneous", "transition_inhomogeneous"):
        def counting(*args, _density=getattr(diffusion, name), _name=name):
            calls.append(_name)
            return _density(*args)

        monkeypatch.setattr(diffusion, name, counting)
    for flags, name in (
        (GRID_REQUESTS["km"], "km_density"),
        (GRID_REQUESTS["p chamber"], "transition_homogeneous"),
        (GRID_REQUESTS["g origin"], "transition_inhomogeneous"),
    ):
        calls.clear()
        out = tmp_path / "grid.csv"
        assert run_cli(["density", *flags, "--grid", "-2:2:20", "--out", str(out)], capsys)[0] == 0
        assert calls == [name]
        assert len(out.read_text().splitlines()) == 2 + 20 * 20


@pytest.mark.parametrize("command", ["simulate-dyson", "simulate-matrix"])
def test_simulate_at_time_zero_exits_1_without_output(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [command, "--n", "2", "--t", "0", "--steps", "4", "--paths", "2", "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 1 and "t_end must be positive" in err
    assert not out.exists()


# mixed kinds of request, each run in turn; --s is given, then left out, and
# the second round's count prints its seed after a run with --seed 5
REUSE_SEQUENCE = [
    "count --start 0,2 --end 0,2 --steps 4 --format json",
    "density --kind p --t 1 --x 0,1 --y 0.5,1.5 --s 0.3",
    "density --kind p --t 1 --x 0,1 --y 0.5,1.5",
    "simulate-dyson --n 2 --t 0.5 --steps 4 --paths 3 --seed 5",
    "count --start 0,2",  # --end and --steps missing: usage error
    "count --start 0,2 --end 1,3 --steps 2",  # parity: the handler's ValueError
]


def _outcome(argv, capsys):
    """Exit code (or the SystemExit code), stdout and stderr of one run."""
    try:
        code = cli.run(argv.split())
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_reused_and_keeps_nothing_between_runs(monkeypatch, capsys):
    first = [_outcome(argv, capsys) for argv in REUSE_SEQUENCE]  # also the warm-up
    assert [outcome[0] for outcome in first] == [0, 0, 0, 0, ("SystemExit", 2), 1]
    assert json.loads(first[0][1]) == {"seed": 0, "value": "20"}
    assert "parity" in first[-1][2]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [_outcome(argv, capsys) for argv in REUSE_SEQUENCE] == first
    # without --s the default s = 0.0 comes back, not the 0.3 parsed before
    assert float(first[1][1]) != float(first[2][1])
    assert _outcome(REUSE_SEQUENCE[2] + " --s 0.0", capsys) == first[2]
    assert built == []


# every option string of the CLI, per parser; a flag added or removed shows here
CLI_OPTIONS = {
    "noncollide": "-h --help --seed --out --format",
    "count": "-h --help --seed --out --format --start --end --steps",
    "tableau": "-h --help --seed --out --format --to --in --n --steps",
    "schur": "-h --help --seed --out --format --shape --points --n-vars --method",
    "lgv": "-h --help --seed --out --format --graph --sources --sinks --check-compatibility",
    "sample-walk": "-h --help --seed --out --format --start --steps --n",
    "scaling-check": "-h --help --seed --out --format --start --t --y --scale",
    "simulate-dyson": "-h --help --seed --out --format --n --t --steps --paths",
    "simulate-matrix": "-h --help --seed --out --format --n --t --steps --paths",
    "simulate-inhomogeneous": "-h --help --seed --out --format --n --horizon --t --steps --paths",
    "density": "-h --help --seed --out --format --kind --t --s --x --y --horizon --grid",
    "verify": "-h --help --seed --out --format --suite --report",
    "verify-sde": "-h --help --seed --out --format --in --gamma-steps",
}


def _option_strings(parser):
    return " ".join(o for action in parser._actions for o in action.option_strings)


def test_cli_option_census():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {"noncollide": _option_strings(parser)}
    options.update((name, _option_strings(child)) for name, child in sub.choices.items())
    assert options == CLI_OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        "density --kind survival --t 1 --x 0,1 --method quadrature",
        "--threads 2 count --start 0,2 --end 0,2 --steps 2",
        "count --start 0,2 --end 0,2 --steps 2 --threads 2",
        "verify-sde --in paths.csv --report x",
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(argv.split())
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: noncollide")
