"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nomaopt import cli
from nomaopt.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from nomaopt.experiments import RadioConfig, generate_scenario, scenario_with_caps
from nomaopt.model import Scenario

import hard_drops


def _write_scenario(path, *, users=2, cells=2, seed=3, cap=None):
    cfg = RadioConfig(num_cells=cells, users_per_cell=users, seed=seed)
    s = generate_scenario(cfg)
    if cap is not None:
        s = scenario_with_caps(s, cap)
    path.write_text(s.to_json() + "\n")
    return s


# -- gen -----------------------------------------------------------------------


def test_gen_writes_valid_scenario(tmp_path, capsys):
    out = tmp_path / "scenario.json"
    code = main(["gen", "--set", "users_per_cell=2", "--out", str(out)])
    assert code == EXIT_OK
    s = Scenario.from_json(out.read_text())
    assert s.users_per_cell == (2, 2)
    assert "wrote scenario" in capsys.readouterr().out


def test_gen_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "7", "--out", str(a)]) == EXIT_OK
    assert main(["gen", "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["gen", "--seed", "8", "--out", str(c)]) == EXIT_OK
    assert a.read_bytes() != c.read_bytes()


def test_gen_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "radio.json"
    cfg_path.write_text(json.dumps(RadioConfig(num_cells=3).to_json_dict()))
    out = tmp_path / "s.json"
    code = main([
        "gen", "--config", str(cfg_path), "--set", "users_per_cell=2",
        "--set", "fading=true", "--out", str(out),
    ])
    assert code == EXIT_OK
    s = Scenario.from_json(out.read_text())
    assert s.num_cells == 3
    assert s.meta["radio"]["fading"] is True


def test_gen_rejects_unknown_field(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["gen", "--set", "bogus=1", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    # a bare word that is not JSON, like fading=no, is taken as a string
    ["num_cells=2.5", 'num_subcarriers="2"', 'seed="abc"', 'fading="no"', "fading=no", "sic_limit=1.5",
     "seed"],
)
def test_gen_rejects_mistyped_override(tmp_path, capsys, override):
    out = tmp_path / "s.json"
    code = main(["gen", "--set", override, "--out", str(out)])
    assert code == EXIT_INVALID
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


# -- solve ----------------------------------------------------------------------


FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


def _formats_section(title: str) -> str:
    """The text of FORMATS.md's section ``## title``, up to the next one."""
    return FORMATS.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_formats_result_example_matches_solve(tmp_path):
    # the worked result example in FORMATS.md, rerun: every key but
    # wall_time_s; the trace CSV example is the same run's trace, byte for byte
    text = FORMATS.read_text()
    m = re.search(
        r"`gen --set users_per_cell=2 --seed 5`, then\n`solve --epsilon 0.01`\):\n\n```json\n(.*?)```",
        text,
        re.S,
    )
    documented = json.loads(m.group(1))
    scen, out, trace = tmp_path / "scenario.json", tmp_path / "result.json", tmp_path / "t.csv"
    assert main(["gen", "--set", "users_per_cell=2", "--seed", "5", "--out", str(scen)]) == EXIT_OK
    assert main([
        "solve", "--scenario", str(scen), "--epsilon", "0.01", "--out", str(out), "--trace", str(trace),
    ]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(documented) == set(doc)
    for key in sorted(set(doc) - {"wall_time_s"}):
        assert doc[key] == documented[key], key
    csv_block = re.search(r"```csv\n(.*?)```", _formats_section("Trace CSV (output: `solve --trace`)"), re.S)
    assert trace.read_text() == csv_block.group(1)


def test_formats_oracle_example_matches_oracle(tmp_path):
    # the worked oracle report in FORMATS.md, rerun: every key, and the
    # algorithm of the abridged solver report
    section = _formats_section("Oracle report JSON (output: `oracle --out`)")
    m = re.search(
        r"`gen --set users_per_cell=2 --seed 5`, then\n`oracle --grid 150 --epsilon 0.05`\):\n\n```json\n(.*?)```",
        section,
        re.S,
    )
    documented = json.loads(m.group(1))
    scen, out = tmp_path / "scenario.json", tmp_path / "report.json"
    assert main(["gen", "--set", "users_per_cell=2", "--seed", "5", "--out", str(scen)]) == EXIT_OK
    assert main(["oracle", "--scenario", str(scen), "--grid", "150", "--epsilon", "0.05", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(documented) == set(doc)
    assert doc["solver"]["algorithm"] == documented.pop("solver")["algorithm"]
    for key in documented:
        assert doc[key] == documented[key], key


def test_formats_radio_config_table_matches_dataclass():
    section = _formats_section("Radio config JSON (input: `gen`, `sweep`, `cdf`, `bench`)")
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \|", section, re.M)
    documented = [(name, json.loads(default)) for name, default in rows]
    declared = [(f.name, f.default) for f in dataclasses.fields(RadioConfig)]
    assert documented == declared
    # == takes 0 for false and 1 for 1.0; the JSON types must match too
    assert [type(v) for _, v in documented] == [type(v) for _, v in declared]


def test_formats_scenario_keys_match_dataclass():
    section = _formats_section("Scenario JSON (output: `gen`; input: `solve`, `oracle`)")
    bullets = section.split("\nExample")[0].split("\n- ")[1:]
    documented = [name for b in bullets for name in re.findall(r"`(\w+)`", b.split(":")[0])]
    assert documented == [f.name for f in dataclasses.fields(Scenario)]


def test_solve_rejects_meta_that_is_not_an_object(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    doc = _write_scenario(scen).to_json_dict()
    scen.write_text(json.dumps({**doc, "meta": [1, 2]}))
    out = tmp_path / "result.json"
    code = main(["solve", "--scenario", str(scen), "--epsilon", "0.1", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "meta" in capsys.readouterr().err
    assert not out.exists()


def test_solve_end_to_end(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    _write_scenario(scen)
    out = tmp_path / "result.json"
    trace = tmp_path / "trace.csv"
    code = main([
        "solve", "--scenario", str(scen), "--epsilon", "0.01",
        "--out", str(out), "--trace", str(trace),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal"
    assert doc["certified"] is True
    assert doc["algorithm"] == "polyblock"
    assert doc["epsilon"] == 0.01
    assert doc["sum_rate_bits"] == pytest.approx(doc["sum_rate_nats"] / math.log(2.0), rel=1e-12)
    assert doc["upper_bound"] - doc["sum_rate_nats"] <= 0.01 + 1e-9
    assert doc["feasibility"]["feasible"] is True
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "upper_bound", "incumbent"]
    assert len(rows) == len(doc["trace"]) + 1
    msg = capsys.readouterr().out
    assert "status=optimal" in msg
    assert "certified=True" in msg


def test_readme_quickstart_matches_solve(tmp_path, monkeypatch, capsys):
    # run the Quickstart's gen and solve lines as written; the README's
    # "# -> " line after solve must quote the rates they print
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    gen = next(i for i, line in enumerate(lines) if line.startswith("nomaopt gen "))
    solve = next(i for i, line in enumerate(lines) if line.startswith("nomaopt solve "))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NOMAOPT_OUT_DIR", raising=False)
    assert main(shlex.split(lines[gen])[1:]) == EXIT_OK
    capsys.readouterr()
    assert main(shlex.split(lines[solve])[1:]) == EXIT_OK
    rates = re.search(r"sum_rate=\S+ nats \(\S+ bits\)", capsys.readouterr().out).group(0)
    assert lines[solve + 1].startswith("# -> ")
    assert rates in lines[solve + 1]


def test_solve_missing_scenario(tmp_path, capsys):
    code = main([
        "solve", "--scenario", str(tmp_path / "nope.json"),
        "--epsilon", "0.1", "--out", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_solve_malformed_scenario(tmp_path):
    scen = tmp_path / "bad.json"
    scen.write_text("{not json")
    code = main([
        "solve", "--scenario", str(scen), "--epsilon", "0.1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_INVALID


def test_solve_budget_exit_code_with_partial_result(tmp_path, capsys):
    # a region B drop, still 0.90 nats short of certifying at epsilon 0.01
    # after 200 iterations: one iteration cannot certify it at 1e-6
    scen = tmp_path / "scenario.json"
    scen.write_text(hard_drops.scenario("B K=4 [0, 0]").to_json() + "\n")
    out = tmp_path / "partial.json"
    code = main([
        "solve", "--scenario", str(scen), "--epsilon", "1e-6",
        "--max-iterations", "1", "--out", str(out),
    ])
    assert code == EXIT_BUDGET
    doc = json.loads(out.read_text())
    assert doc["status"] == "budget_exceeded"
    assert doc["certified"] is False
    assert doc["upper_bound"] >= doc["sum_rate_nats"] - 1e-12
    assert "budget exceeded" in capsys.readouterr().err


def test_solve_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--scenario", "x.json", "--epsilon", "-1", "--out", "r.json"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE
    for bad in ["inf", "1e400", "nan", "0"]:
        with pytest.raises(SystemExit) as info:
            main(["solve", "--scenario", "x.json", "--epsilon", bad, "--out", "r.json"])
        assert info.value.code == EXIT_USAGE
    out = str(tmp_path / "out.csv")
    for bad in ["0", "inf", "nan", "0.1,-1"]:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--caps", "1e-7", "--epsilons", bad, "--trials", "1", "--out", out])
        assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as info:
            main(["bench", "--epsilons", bad, "--trials", "1", "--out", out])
        assert info.value.code == EXIT_USAGE
    for bad in ["1", "0"]:
        with pytest.raises(SystemExit) as info:
            main(["oracle", "--scenario", "x.json", "--grid", bad, "--out", "r.json"])
        assert info.value.code == EXIT_USAGE
    for bad in ["nan", "inf", "1e-7,-1e400"]:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--caps", bad, "--epsilons", "0.5", "--trials", "1", "--out", out])
        assert info.value.code == EXIT_USAGE
    capsys.readouterr()
    sweep = ["sweep", "--caps", "1e-7", "--epsilons", "0.5", "--trials", "1", "--out", out]
    for argv, message in [
        (["solve", "--scenario", "x.json", "--epsilon", "abc", "--out", "r.json"], "not a number"),
        (sweep + ["--trials", "abc"], "not an integer"),
        (sweep + ["--caps", "1e-7,x"], "not a comma-separated number list"),
        (sweep + ["--caps", ","], "empty list"),
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# -- sweep, cdf, bench -------------------------------------------------------------


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--set", "users_per_cell=2", "--caps", "1e-7,4e-7",
        "--epsilons", "0.5", "--trials", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cap_w", "epsilon", "algo", "mean_sum_rate_nats", "mean_sum_rate_bits", "trials"]
    assert len(rows) == 1 + 2 * 1 * 3
    assert "stand-in" in capsys.readouterr().out


def test_sweep_threads_write_identical_csv(tmp_path):
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"sweep-{threads}.csv")
        assert main([
            "sweep", "--set", "users_per_cell=2", "--caps", "1e-7,4e-7", "--epsilons", "0.5",
            "--trials", "3", "--threads", threads, "--out", str(outs[-1]),
        ]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cdf_command(tmp_path, capsys):
    out = tmp_path / "cdf.csv"
    code = main([
        "cdf", "--set", "users_per_cell=2", "--samples", "200", "--out", str(out),
    ])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "cdf"]
    assert len(rows) == 1 + 400
    msg = capsys.readouterr().out
    assert "P(product statistic >= 0)" in msg
    assert "P(margin >= 0" in msg


def test_cdf_one_user_per_cell_is_invalid(tmp_path, capsys):
    out = tmp_path / "cdf.csv"
    code = main(["cdf", "--set", "users_per_cell=1", "--samples", "20", "--out", str(out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert "nomaopt cdf: error: the decodability statistic needs at least two users per cell" in err
    assert not out.exists()


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--set", "users_per_cell=2", "--epsilons", "0.5,1.0",
        "--trials", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epsilon", "algo", "mean_ms", "std_ms", "mean_iters"]
    assert len(rows) == 1 + 2 * 3


def test_bench_has_no_threads_flag(tmp_path):
    # bench times solves; a thread pool on GIL-bound work inflates them
    with pytest.raises(SystemExit) as info:
        main(["bench", "--epsilons", "0.5", "--trials", "1", "--threads", "2",
              "--out", str(tmp_path / "bench.csv")])
    assert info.value.code == EXIT_USAGE


# -- oracle -------------------------------------------------------------------------


def test_oracle_verdict_pass(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    _write_scenario(scen)
    out = tmp_path / "report.json"
    code = main([
        "oracle", "--scenario", str(scen), "--grid", "150",
        "--epsilon", "0.05", "--out", str(out),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["gap"] <= doc["tolerance"]
    assert doc["grid"]["points_per_dim"] == 150
    assert doc["solver"]["certified"] is True
    assert "oracle verdict: pass" in capsys.readouterr().out


def test_oracle_rejects_large_instances(tmp_path, capsys):
    scen = tmp_path / "big.json"
    _write_scenario(scen, cells=5, seed=1)
    code = main(["oracle", "--scenario", str(scen), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INVALID
    assert "at most 4" in capsys.readouterr().err


def test_oracle_rejects_large_instances_before_solving(tmp_path, capsys, monkeypatch):
    # 5 cells, past the grid's 4
    scen = tmp_path / "big.json"
    s = generate_scenario(RadioConfig(num_cells=5, users_per_cell=2))
    scen.write_text(s.to_json() + "\n")

    def no_solve(*args, **kwargs):
        raise AssertionError("oracle solved an instance the grid rejects")

    monkeypatch.setattr(cli, "solve", no_solve)
    code = main(["oracle", "--scenario", str(scen), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_INVALID
    assert "at most 4 cells" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_oracle_searches_each_carrier_of_a_wide_drop(tmp_path, capsys):
    # 2 cells times 3 carriers: three 30 x 30 carrier grids
    scen = tmp_path / "wide.json"
    s = generate_scenario(RadioConfig(num_cells=2, num_subcarriers=3, users_per_cell=2))
    scen.write_text(s.to_json() + "\n")
    out = tmp_path / "r.json"
    assert main(["oracle", "--scenario", str(scen), "--grid", "30", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["grid"]["evaluated"] == 3 * 30**2
    assert "oracle verdict: pass" in capsys.readouterr().out


# -- output redirection ----------------------------------------------------------


def test_out_dir_redirects_relative_paths(tmp_path, monkeypatch):
    dest = tmp_path / "outputs"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NOMAOPT_OUT_DIR", str(dest))
    code = main(["gen", "--set", "users_per_cell=2", "--out", "scenario.json"])
    assert code == EXIT_OK
    assert (dest / "scenario.json").exists()
    assert not (tmp_path / "scenario.json").exists()
    # absolute paths are left alone
    absolute = tmp_path / "direct.json"
    assert main(["gen", "--out", str(absolute)]) == EXIT_OK
    assert absolute.exists()


# -- installed entry point ---------------------------------------------------------


def test_console_script_round_trip(tmp_path):
    scen = tmp_path / "scenario.json"
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nomaopt.cli import main; sys.exit(main(sys.argv[1:]))",
         "gen", "--set", "users_per_cell=2", "--seed", "4", "--out", str(scen)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    out = tmp_path / "result.json"
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nomaopt.cli import main; sys.exit(main(sys.argv[1:]))",
         "solve", "--scenario", str(scen), "--epsilon", "0.05", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["certified"] is True


def test_usage_error_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nomaopt.cli import main; sys.exit(main(sys.argv[1:]))",
         "solve", "--epsilon", "0.1"],
        capture_output=True, text=True,
    )
    assert result.returncode == EXIT_USAGE
    assert "error" in result.stderr
