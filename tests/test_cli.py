"""Sweep configuration, output formats, and the command-line contract."""
import builtins
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dense_transform, sweep_rows
import qubit_entropy.cli as cli_mod
from qubit_entropy.cli import (
    CSV_COLUMNS,
    Sweep,
    SweepConfig,
    SweepError,
    emit,
    main,
    parse_config,
    run_sweep,
)
from qubit_entropy.entropy import bipartite_entropies
from qubit_entropy.model import FrequencyMethod, normal_modes
from qubit_entropy.state import thermal_spectra, thermal_weights, validity_diagnostics
from qubit_entropy.transform import build_transform, parity_levels

FAST = ["--t-steps", "3", "--q", "1.0,2.0"]


def failing_entropies(joint, marginals, q):
    raise RuntimeError("synthetic")


def per_temperature_rows(config):
    """The sweep composed one temperature at a time, each stage a stacked
    call on a batch of one: the reference for the chunked sweep.  The
    levels-small tensor is the leading block of the levels-big one, as the
    sweep takes it."""
    modes = normal_modes(config.lam, config.g)
    u_big = build_transform(modes, d=config.levels_big)
    d_small, d_big = config.levels_small, config.levels_big
    kept = [n * d_big + m for n in range(d_small) for m in range(d_small)]
    leading = dense_transform(u_big)[np.ix_(kept, kept)]
    u_small = tuple(leading[np.ix_(levels, levels)] for levels in parity_levels(d_small))
    rows = []
    for temperature in cli_mod._temperature_grid(config).tolist():
        big = thermal_weights(modes, [temperature], config.levels_big)
        mu_block, mu_complement, offdiag = validity_diagnostics(
            big, u_big, config.levels_small
        )
        joint, marginals = thermal_spectra(
            thermal_weights(modes, [temperature], config.levels_small), u_small
        )
        for q in config.q_values:
            s_joint, s_first, s_second, margin = bipartite_entropies(
                joint, marginals, q
            )
            rows.append({
                "T": temperature, "q": q,
                "S_joint": s_joint[0], "S_1": s_first[0],
                "S_2": s_second[0], "I": margin[0], "margin": margin[0],
                "mu_I": mu_block[0], "mu_II": mu_complement[0],
                "offdiag_sum": offdiag[0],
            })
    return rows


def chunk_bytes_per_temperature(config):
    """Bytes the sweep stacks per temperature, as CHUNK_BYTES counts them."""
    return 8 * (config.levels_small**4 + config.levels_big**2)


def write_bytes_per_temperature(config):
    """Bytes the writer's slots take per temperature, as CHUNK_BYTES counts
    them: one rendered cell per column and, in JSON, per separator."""
    slots = len(CSV_COLUMNS) + (len(CSV_COLUMNS) + 1) * (config.output_format == "json")
    return len(config.q_values) * slots * cli_mod.CELL_BYTES


def rendered_texts(values, as_json):
    """The text of each cell the writer renders for ``values``."""
    return [bytes(row).replace(b"\0", b"").decode() for row in cli_mod._render(values, as_json)]


def spelling_values(rng):
    """About 37,000 doubles: random bit patterns, subnormals, integers,
    powers of ten, values around 1e11 to 1e16, NaN and infinities."""
    return np.concatenate([
        rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float),
        rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(float),
        -rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(float),
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
         2.225073858507201e-308, 99999999999.99999, 1e11, 1e16, -1e16],
        np.arange(-2000.0, 2001.0),
        rng.integers(-(2**53), 2**53, size=2000).astype(float),
        10.0 ** np.arange(-320, 301),
        rng.uniform(1e11, 1e16, size=2000),
        -rng.uniform(1e11, 1e16, size=2000),
        rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, size=2000),
    ])


def reference_report(sweep, config):
    """The per-cell writer emit replaced: one ``_fmt`` call per cell of
    ``sweep_rows``, and JSON through ``json.dumps(indent=2)``."""
    rows = sweep_rows(sweep)
    if config.output_format == "json":
        rounded = [
            {key: float(cli_mod._fmt(row[key])) for key in CSV_COLUMNS} for row in rows
        ]
        return json.dumps(rounded, indent=2) + "\n"
    lines = cli_mod._header_lines(config) + [",".join(CSV_COLUMNS)]
    lines += [",".join(cli_mod._fmt(row[key]) for key in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def emitted(sweep, config):
    # emit looks up sys.stdout when it is called
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        emit(sweep, config)
    return buffer.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    return header, rows


class TestParseConfig:
    def test_defaults(self):
        config = parse_config([])
        assert config.lam == 1.5
        assert config.g == 0.1
        assert config.t_steps == 50
        assert config.q_values == (0.5, 0.8, 1.0, 1.5, 2.0)
        assert config.levels_small == 2
        assert config.levels_big == 6

    def test_flags_override_defaults(self):
        config = parse_config(["--g", "0", "--lambda", "2"])
        assert config.g == 0.0
        assert config.lam == 2.0

    def test_q_list_parsing(self):
        config = parse_config(["--q", "1.0,2.0"])
        assert config.q_values == (1.0, 2.0)

    def test_config_file_then_flag_precedence(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("lambda = 1.2\nt_steps = 2  # comment\nq = 0.5,1.0\n")
        config = parse_config(["--config", str(path), "--lambda", "1.8"])
        assert config.lam == 1.8
        assert config.t_steps == 2
        assert config.q_values == (0.5, 1.0)

    def test_file_values_do_not_leak_into_the_next_call(self, tmp_path):
        # the parser is built once per process and shared by every call
        path = tmp_path / "sweep.conf"
        path.write_text("lambda = 1.2\nq = 0.5,1.0\nformat = json\n")
        assert parse_config(["--config", str(path)]).lam == 1.2
        assert parse_config([]) == SweepConfig()
        assert cli_mod._parser() is cli_mod._parser()

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # "#" opens a comment only at the start of a line or after whitespace
        path = tmp_path / "sweep.conf"
        path.write_text(
            f"# header\noutput = {tmp_path}/run#1.csv\n  # indented\n"
            "t-steps = 2\t# tab comment\nq = 1.0 #no space after\n"
        )
        config = parse_config(["--config", str(path)])
        assert config.output == f"{tmp_path}/run#1.csv"
        assert config.t_steps == 2
        assert config.q_values == (1.0,)

    def test_byte_order_mark_ignored(self, tmp_path):
        # Windows editors may save a config file with a leading BOM
        text = "lambda = 1.8\nt-steps = 7\n"
        plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbflambda")
        config = parse_config(["--config", str(marked)])
        assert config == parse_config(["--config", str(plain)])
        assert (config.lam, config.t_steps) == (1.8, 7)

    def test_unknown_config_key_exits(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as err:
            parse_config(["--config", str(path)])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda", "1.8"), ("g", "0.02"), ("t-min", "0.02"), ("t-max", "0.4"),
            ("t-steps", "7"), ("t-scale", "log"), ("q", "1.0,2.0"),
            ("levels-small", "3"), ("levels-big", "8"), ("method", "quadrature"),
            ("format", "json"), ("output", "{tmp}/sweep.json"), ("frequencies", "exact"),
        ],
    )
    def test_config_key_reads_as_its_flag(self, key, value, tmp_path):
        value = value.format(tmp=tmp_path)
        path = tmp_path / "sweep.conf"
        path.write_text(f"{key} = {value}\n")
        from_file = parse_config(["--config", str(path)])
        assert from_file == parse_config([f"--{key}", value])
        assert (from_file == SweepConfig()) == (key == "method")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda", "x"), ("g", "x"), ("t-min", "x"), ("t-max", "x"),
            ("t-steps", "2.5"), ("t-scale", "cubic"), ("q", ","),
            ("levels-small", "2.5"), ("levels-big", "x"), ("method", "foo"),
            ("format", "xml"), ("frequencies", "Exact"),
        ],
    )
    def test_bad_config_value_exits_as_its_flag(self, key, value, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text(f"{key} = {value}\n")
        for argv in (["--config", str(path)], [f"--{key}", value]):
            with pytest.raises(SystemExit) as err:
                parse_config(argv)
            assert err.value.code == 2

    @pytest.mark.parametrize("key", ["config", "help", "bogus"])
    def test_rejected_config_key_names_its_line(self, key, tmp_path, capsys):
        path = tmp_path / "sweep.conf"
        path.write_text(f"# header\nlambda = 1.8\n{key} = 1\n")
        with pytest.raises(SystemExit) as err:
            parse_config(["--config", str(path)])
        assert err.value.code == 2
        assert f"{path}:3: unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("t-steps = x", "argument --t-steps: invalid int value: 'x'"),
        ("q = 1,a", "argument --q: could not parse q list from '1,a'"),
        ("t-scale = cubic", "argument --t-scale: invalid choice: 'cubic'"),
        ("lambda 1.8", "expected 'key = value'"),
    ])
    def test_bad_config_value_names_its_line(self, line, message, tmp_path, capsys):
        path = tmp_path / "sweep.conf"
        path.write_text(f"# header\nlambda = 1.8\n{line}\n")
        with pytest.raises(SystemExit) as err:
            parse_config(["--config", str(path)])
        assert err.value.code == 2
        assert f"{path}:3: {message}" in capsys.readouterr().err

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.conf"
        path.write_bytes(b"\xfflambda = 1.8\n")
        with pytest.raises(SystemExit) as err:
            parse_config(["--config", str(path)])
        assert err.value.code == 2
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--t-steps", "x"], "argument --t-steps: invalid int value: 'x'"),
        (["--t-steps"], "argument --t-steps: expected one argument"),
        (["--q", "0"], "q values must be positive"),
        (["--levels-small", "1"], "levels-small must be at least 2"),
    ])
    def test_bad_flag_value_exits(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            parse_config(argv)
        assert err.value.code == 2
        assert f"qubit-entropy: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--lam", "2"], ["--fo", "json"], ["--t-st", "3"]])
    def test_abbreviated_flag_exits(self, argv, capsys):
        # a flag has one spelling, as a config key does
        with pytest.raises(SystemExit) as err:
            parse_config(argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_config_key_in_config_file_exits(self, tmp_path):
        other = tmp_path / "other.conf"
        other.write_text("lambda = 1.8\n")
        path = tmp_path / "sweep.conf"
        path.write_text(f"config = {other}\n")
        with pytest.raises(SystemExit) as err:
            parse_config(["--config", str(path)])
        assert err.value.code == 2

    def test_nonpositive_t_min_exits(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["--t-min", "0"])
        assert err.value.code == 2

    def test_single_step_grid_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["--t-steps", "1"])
        assert err.value.code == 2

    def test_degenerate_frequencies_exits(self):
        # the small-angle modes are built while parsing: lam = 1 is singular
        with pytest.raises(SystemExit) as err:
            parse_config(["--lambda", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lambda", "inf"),
            ("--g", "nan"),
            ("--t-min", "nan"),
            ("--t-max", "inf"),
            ("--q", "1.0,nan"),
        ],
    )
    def test_non_finite_value_exits(self, flag, value):
        with pytest.raises(SystemExit) as err:
            parse_config([flag, value])
        assert err.value.code == 2

    def test_unstable_coupling_exits(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["--g", "1.5"])
        assert err.value.code == 2

    def test_large_angle_circuit_exits(self, capsys):
        # phi = -0.371 at lam = 3, g = -0.99: a bad configuration, not a traceback
        with pytest.raises(SystemExit) as err:
            parse_config(["--lambda", "3", "--g", "-0.99"])
        assert err.value.code == 2
        assert "outside the small-angle regime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lambda", "0"], "frequency ratio must be positive, got 0.0"),
            (["--lambda", "-1", "--g", "0"], "frequency ratio must be positive, got -1.0"),
            (["--g", "1"], "|g| < 1 required for stable modes, got g=1.0"),
            # lam**2 overflows above about 1.34e154
            (["--lambda", "1e200"], "frequency ratio 1e+200 is too large"),
            # omega2^2 underflows to 0 below about 1.5e-162
            (["--lambda", "1e-200"], "non-positive squared frequency"),
        ],
    )
    def test_circuit_without_modes_exits_with_its_message(self, argv, message, capsys):
        # normal_modes checks the circuit while the config is parsed
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_method_exits(self, tmp_path):
        # --method is ignored, but its value is still checked
        with pytest.raises(SystemExit) as err:
            parse_config(["--method", "foo"])
        assert err.value.code == 2
        path = tmp_path / "sweep.conf"
        path.write_text("method = foo\n")
        with pytest.raises(SystemExit) as err:
            parse_config(["--config", str(path)])
        assert err.value.code == 2

    def test_method_key_accepted(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("method = quadrature\nlevels-small = 3\n")
        expected = parse_config(["--levels-small", "3"])
        assert parse_config(["--config", str(path)]) == expected

    def test_quadrature_allows_more_levels(self):
        config = parse_config(
            ["--method", "quadrature", "--levels-small", "3", "--levels-big", "5"]
        )
        assert config.levels_small == 3

    def test_levels_big_above_limit_exits(self, capsys):
        # the levels-big quadrature tables grow as levels_big^4
        with pytest.raises(SystemExit) as err:
            parse_config(["--levels-big", "33"])
        assert err.value.code == 2
        assert "levels-big must be at most 32" in capsys.readouterr().err

    def test_levels_big_at_limit_accepted(self):
        assert parse_config(["--levels-big", "32"]).levels_big == 32


class TestRunSweep:
    def test_row_count_and_order(self):
        config = parse_config(FAST)
        rows = sweep_rows(run_sweep(config))
        assert len(rows) == 3 * 2
        # T-major, q fastest
        assert rows[0]["T"] == rows[1]["T"]
        assert rows[0]["q"] == 1.0
        assert rows[1]["q"] == 2.0
        assert rows[2]["T"] > rows[1]["T"]

    def test_log_grid(self):
        config = parse_config(FAST + ["--t-scale", "log"])
        rows = sweep_rows(run_sweep(config))
        temps = sorted({row["T"] for row in rows})
        assert_allclose(temps[1] / temps[0], temps[2] / temps[1], rtol=1e-12)

    def test_log_grid_is_geomspace(self):
        # the grid takes np.geomspace's arithmetic without its argument
        # handling, so it must match it bit for bit
        rng = np.random.default_rng(20)
        cases = [(1e-320, 1e-8, 3), (1e-320, 1e13, 40), (0.01, 0.5, 2), (5e-324, 1e308, 2)]
        for _ in range(2000):
            low_exp = rng.uniform(-320, 300)
            low, high = 10.0**low_exp, 10.0 ** rng.uniform(low_exp, 307)
            if high > low:
                cases.append((low, high, int(rng.integers(2, 60))))
        for t_min, t_max, steps in cases:
            config = SweepConfig(t_min=t_min, t_max=t_max, t_steps=steps, t_scale="log")
            grid = cli_mod._temperature_grid(config)
            assert grid.tobytes() == np.geomspace(t_min, t_max, steps).tobytes()

    def test_zero_coupling_mutual_info_vanishes(self):
        config = parse_config(["--g", "0", "--t-steps", "4", "--q", "1.0"])
        rows = sweep_rows(run_sweep(config))
        assert all(abs(row["I"]) < 1e-10 for row in rows)

    @pytest.mark.parametrize("lam", [0.5, 0.7, 1.3, 1.5, 2.2])
    def test_uncoupled_mutual_info_never_negative(self, lam):
        # at g = 0 the state is a product and I = S_1 + S_2 - S_joint is
        # exactly 0: the three rounded entropies must not print it below 0
        argv = ["--lambda", str(lam), "--g", "0", "--q", "1", "--t-max", "1",
                "--t-steps", "40"]
        mutual_info = run_sweep(parse_config(argv)).entropies[0, 3]
        assert np.all(mutual_info >= 0.0)
        assert not np.any(np.signbit(mutual_info))

    @pytest.mark.parametrize("d_small, d_big", [(2, 6), (4, 8), (5, 9)])
    def test_uncoupled_mutual_info_prints_zero(self, d_small, d_big):
        # at g = 0, I is exactly 0; the three rounded entropies left it at
        # +2.2e-16 (levels 2/6, T = 0.5), which is rounding, printed as 0
        argv = ["--g", "0", "--q", "1", "--t-steps", "50",
                "--levels-small", str(d_small), "--levels-big", str(d_big)]
        config = parse_config(argv)
        _, rows = parse_csv(emitted(run_sweep(config), config))
        assert len(rows) == 50
        assert all(row["I"] == row["margin"] == 0.0 for row in rows)

    @pytest.mark.parametrize("d_small, d_big", [(2, 6), (4, 8), (5, 9)])
    def test_uncoupled_deformed_margin_prints_no_negative(self, d_small, d_big):
        # at g = 0 and q > 1 the margin is (q - 1) S_1 S_2 >= 0; the three
        # rounded entropies left it at -1e-22 or so (one to three cells of
        # this grid at each truncation), which is rounding, printed as 0
        argv = ["--lambda", "2.5", "--g", "0", "--q", "1.5,2,3",
                "--t-min", "0.02", "--t-max", "1", "--t-steps", "50", "--t-scale", "log",
                "--levels-small", str(d_small), "--levels-big", str(d_big)]
        config = parse_config(argv)
        sweep = run_sweep(config)
        _, rows = parse_csv(emitted(sweep, config))
        assert len(rows) == 150
        assert all(row["margin"] >= 0.0 for row in rows)
        s_joint, s_first, s_second, margin = sweep.entropies.transpose(1, 0, 2)
        product = (np.array(config.q_values)[:, None] - 1.0) * s_first * s_second
        bound = 4 * np.finfo(float).eps * (s_first + s_second + s_joint)
        assert np.all((margin == 0.0) | (np.abs(margin - product) <= bound))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d_small, d_big", [(2, 6), (4, 8), (5, 9)])
    def test_uncoupled_deformed_margin_below_one(self, seed, d_small, d_big):
        # at g = 0 the state is a product and the margin is the non-additive
        # part (q - 1) S_1 S_2, negative for q < 1, up to the rounding of
        # the three entropies (at most 2.9 eps times their sum over 30 lam
        # and T from 1e-3 to 50); q near 1 is left out, where 1/(q - 1)
        # amplifies it (8.8 eps at q = 0.95)
        lam = np.random.default_rng(seed).uniform(0.2, 4.0)
        config = parse_config(["--lambda", repr(lam), "--g", "0", "--q", "0.5,0.8",
                               "--t-min", "0.02", "--t-max", "1", "--t-steps", "50",
                               "--t-scale", "log", "--levels-small", str(d_small),
                               "--levels-big", str(d_big)])
        s_joint, s_first, s_second, margin = run_sweep(config).entropies.transpose(1, 0, 2)
        product = (np.array(config.q_values)[:, None] - 1.0) * s_first * s_second
        bound = 4 * np.finfo(float).eps * (s_first + s_second + s_joint)
        assert np.all(np.abs(margin - product) <= bound)
        assert np.any(margin < -bound)  # not rounding alone

    @pytest.mark.parametrize("g, d_small, d_big", [(1e-3, 2, 6), (5e-7, 31, 32)])
    def test_weak_coupling_mutual_info_stays_positive(self, g, d_small, d_big):
        # I of about 3.6e-7 at g = 1e-3, and 1.3e-13 at g = 5e-7 with 31
        # levels, lies above the rounding of its three entropies (a few
        # eps times their sum, 1.3 here), and is kept; a bound of d*d eps
        # times their sum zeroed the second
        config = parse_config(["--g", str(g), "--lambda", "1.5", "--q", "1",
                               "--levels-small", str(d_small), "--levels-big", str(d_big),
                               "--t-min", "0.4", "--t-max", "0.5", "--t-steps", "2"])
        _, rows = parse_csv(emitted(run_sweep(config), config))
        assert rows[-1]["T"] == 0.5
        assert rows[-1]["I"] > 0.0

    def test_ground_state_joint_entropy_is_zero(self):
        # every excited weight underflows: the joint state is the ground projector
        config = parse_config(
            ["--t-min", "1e-10", "--t-max", "5e-9",
             "--t-steps", "4", "--t-scale", "log", "--q", "0.3,0.5,1,1.5,2,3"]
        )
        s_joint = run_sweep(config).entropies[:, 0]
        assert np.all(s_joint == 0.0)
        assert not np.any(np.signbit(s_joint))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            # a fine-sweep grid: nearly pure joint spectra at its cold end
            ["--t-min", "0.0196", "--t-max", "0.5448", "--t-steps", "1000",
             "--q", "0.511,0.767,1,1.701,2.71"],
            ["--lambda", "2.5", "--g", "0.3", "--levels-small", "4", "--levels-big", "5",
             "--t-min", "1e-9", "--t-max", "2", "--t-steps", "16", "--t-scale", "log",
             "--q", "0.3,0.5,1,2"],
        ],
    )
    def test_entropies_never_negative(self, argv):
        # the largest eigenvalue enters as 1 - rest, so a nearly pure
        # spectrum gives a small positive entropy, not rounding noise
        entropies = run_sweep(parse_config(argv)).entropies[:, :3]
        assert np.all(entropies >= 0.0)
        assert not np.any(np.signbit(entropies))

    @pytest.mark.parametrize("method", ["closed-form", "quadrature"])
    def test_zero_coupling_diagnostics_exact(self, method):
        # U is the exact identity at g = 0: the block is diagonal and the
        # complement weight is the thermal weight outside it, whichever
        # value the ignored --method flag carries
        config = parse_config(
            ["--g", "0", "--t-steps", "6", "--q", "1.0", "--method", method]
        )
        rows = sweep_rows(run_sweep(config))
        d, d_small = config.levels_big, config.levels_small
        grid = cli_mod._temperature_grid(config)
        w = thermal_weights(config.modes, grid, d)
        rest = np.array([max(n, m) >= d_small for n in range(d) for m in range(d)])
        expected = (w * w * rest).sum(axis=1) / w.sum(axis=1) ** 2
        assert len(rows) == len(expected)
        for row, mu_complement in zip(rows, expected):
            assert row["offdiag_sum"] == 0.0
            assert row["mu_II"] == mu_complement

    def test_one_transform_build_per_sweep(self, monkeypatch):
        # the levels-small tensor is the leading block of the levels-big one
        calls = []

        def counting_build(modes, d):
            calls.append(d)
            return build_transform(modes, d)

        monkeypatch.setattr(cli_mod, "build_transform", counting_build)
        config = parse_config(FAST + ["--levels-small", "3", "--levels-big", "7"])
        run_sweep(config)
        assert calls == [7]

    @pytest.mark.parametrize("seed", range(6))
    def test_coupling_sign_invariance(self, seed):
        # g -> -g is the reflection x2 -> -x2 of the circuit: U takes the
        # signs (-1)^(m + m'), a local sign change on mode 2 that leaves
        # every column unchanged, so the two sweeps differ by rounding
        # alone.  Every cell comes from sums of at most d_big^2 products of
        # entries of unit-trace states or of their spectra, terms bounded
        # by max(1, |cell|); each sweep errs by at most d_big^2 eps times
        # that (constant taken as 1), and the two sweeps' errors add.
        rng = np.random.default_rng(seed)
        lam = float(rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0)]))
        # a rotation angle inside the small-angle regime
        phi = float(rng.uniform(0.01, 0.25))
        g = phi * abs(lam**2 - 1) / lam
        d_small, d_big = [(2, 6), (3, 8), (2, 20)][seed % 3]
        argv = [
            "--lambda", repr(lam), "--t-min", "1e-9", "--t-max", "2",
            "--t-scale", "log", "--t-steps", "30", "--q", "0.5,1,2",
            "--levels-small", str(d_small), "--levels-big", str(d_big),
        ]
        plus = run_sweep(parse_config(argv + ["--g", repr(g)]))
        minus = run_sweep(parse_config(argv + ["--g", repr(-g)]))
        allow = 2 * d_big**2 * np.finfo(float).eps
        for a, b in [(plus.entropies, minus.entropies),
                     (plus.diagnostics, minus.diagnostics)]:
            assert np.all(np.abs(a - b) <= allow * np.maximum(1.0, np.abs(a)))

    @pytest.mark.parametrize("seed", range(24))
    def test_entropies_and_margins_non_negative(self, seed):
        # every entropy of a state is >= 0.  The margin S_1 + S_2 - S_joint
        # is the mutual information at q = 1 and, for q > 1, >= 0 by Tsallis
        # subadditivity (Audenaert, J. Math. Phys. 48, 083507 (2007)); at
        # q = 0.5 it can be negative and is left unchecked.
        rng = np.random.default_rng(100 + seed)
        lam = float(rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0)]))
        # a small-angle rotation phi = g*lam / (lam^2 - 1) of either sign
        phi = float(rng.uniform(-0.25, 0.25))
        g = phi * (lam**2 - 1) / lam
        d_small, d_big = [(2, 6), (3, 8), (4, 8), (2, 12)][seed % 4]
        argv = [
            "--lambda", repr(lam), "--g", repr(g),
            "--t-min", "1e-9", "--t-max", "3", "--t-scale", "log", "--t-steps", "30",
            "--q", "0.5,1,1.2,1.5,2,3",
            "--levels-small", str(d_small), "--levels-big", str(d_big),
        ]
        entropies = run_sweep(parse_config(argv)).entropies
        assert np.all(entropies[:, :3] >= 0.0)
        assert np.all(entropies[1:, 3] >= 0.0)

    def test_diagnostics_repeat_across_q(self):
        rows = sweep_rows(run_sweep(parse_config(FAST)))
        assert rows[0]["mu_I"] == rows[1]["mu_I"]
        assert rows[0]["offdiag_sum"] == rows[1]["offdiag_sum"]

    def test_point_failures_carry_coordinates(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "bipartite_entropies", failing_entropies)
        with pytest.raises(SweepError, match=r"T=.*q="):
            run_sweep(parse_config(FAST))

    def test_failure_names_first_failing_temperature(self, monkeypatch):
        # chunks of 25 temperatures: the failures at grid indices 30 and
        # 41 both fall in the second chunk
        config = parse_config(["--t-steps", "60", "--q", "1.0"])
        monkeypatch.setattr(cli_mod, "CHUNK_BYTES", 25 * chunk_bytes_per_temperature(config))
        grid = cli_mod._temperature_grid(config)
        bad = grid[[41, 30]]
        real_weights = cli_mod.thermal_weights

        def negative_weights(modes, temps, d):
            weights = real_weights(modes, temps, d)
            weights[np.isin(temps, bad)] *= -1.0
            return weights

        monkeypatch.setattr(cli_mod, "thermal_weights", negative_weights)
        with pytest.raises(SweepError) as err:
            run_sweep(config)
        assert str(err.value).startswith(f"sweep failed at T={grid[30]:.12g}: ")

    def test_chunk_failure_without_a_failing_temperature_names_the_chunk(self, monkeypatch):
        # a chunk that fails while each of its temperatures succeeds alone
        # re-raises the chunk's error, which names the chunk's range
        config = parse_config(["--t-steps", "60", "--q", "1.0"])
        monkeypatch.setattr(cli_mod, "CHUNK_BYTES", 25 * chunk_bytes_per_temperature(config))
        grid = cli_mod._temperature_grid(config)
        real_spectra = cli_mod.thermal_spectra
        sizes = []

        def chunk_only_spectra(weights, blocks):
            sizes.append(len(weights))
            if len(weights) > 1:
                raise ValueError("fails on chunks only")
            return real_spectra(weights, blocks)

        monkeypatch.setattr(cli_mod, "thermal_spectra", chunk_only_spectra)
        with pytest.raises(SweepError) as err:
            run_sweep(config)
        assert str(err.value) == (
            f"sweep failed at T in [{grid[0]:.12g}, {grid[24]:.12g}]: fails on chunks only"
        )
        assert sizes == [25] + [1] * 25

    @pytest.mark.parametrize(
        "argv",
        [
            ["--t-steps", "333", "--levels-big", "8", "--t-scale", "log"],
            # starts where every excited weight underflows to a ground projector
            ["--t-min", "1e-9", "--t-max", "0.3",
             "--t-steps", "40", "--t-scale", "log"],
            ["--method", "quadrature", "--levels-small", "3", "--levels-big", "5",
             "--t-steps", "30", "--q", "0.5,1.0,2.5"],
            ["--levels-big", "20", "--t-steps", "20"],
            # the circuit-scan shape: marginal width 2 at both parities, an
            # SVD call per plan, and a negative coupling
            ["--lambda", "0.6", "--g", "-0.1", "--levels-small", "4", "--levels-big", "8",
             "--t-steps", "20", "--t-scale", "log", "--q", "0.5,1.0,2.0"],
            # marginal widths 3 and 2: a plan and an SVD call per width
            ["--levels-small", "5", "--levels-big", "9", "--t-steps", "15"],
            # marginal width 3 at both parities: an SVD call per plan
            ["--levels-small", "6", "--levels-big", "10", "--t-steps", "15"],
            # joint blocks of one shape and marginal width 4 at both parities
            ["--levels-small", "8", "--levels-big", "10", "--t-steps", "15"],
        ],
    )
    def test_chunked_rows_match_per_temperature_composition(self, argv, monkeypatch):
        config = parse_config(argv)
        # chunks of 7 temperatures: every grid spans several chunks and
        # ends with a partial one
        monkeypatch.setattr(cli_mod, "CHUNK_BYTES", 7 * chunk_bytes_per_temperature(config))
        sizes = []
        real_chunk = cli_mod._sweep_chunk

        def recording_chunk(config, u_small, u_big, temps):
            sizes.append(len(temps))
            return real_chunk(config, u_small, u_big, temps)

        monkeypatch.setattr(cli_mod, "_sweep_chunk", recording_chunk)
        rows = sweep_rows(run_sweep(config))
        assert sizes[:-1] == [7] * (len(sizes) - 1) and 0 < sizes[-1] < 7
        expected = per_temperature_rows(config)
        assert len(rows) == len(expected)
        for row, ref in zip(rows, expected):
            for key in CSV_COLUMNS:
                assert row[key] == ref[key], key

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_method_flag_is_ignored(self, output_format, tmp_path):
        reports = []
        for extra in ([], ["--method", "closed-form"], ["--method", "quadrature"]):
            out = tmp_path / f"sweep-{len(reports)}.{output_format}"
            argv = FAST + ["--format", output_format, "--output", str(out)]
            assert main(argv + extra) == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]


class TestEmit:
    def test_csv_schema(self):
        config = parse_config(FAST)
        sweep = run_sweep(config)
        text = emitted(sweep, config)
        comment_lines = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert any("qubit-entropy" in ln for ln in comment_lines)
        assert any("lambda=1.5" in ln for ln in comment_lines)
        header, parsed = parse_csv(text)
        assert header == list(CSV_COLUMNS)
        assert len(parsed) == len(sweep_rows(sweep))

    def test_single_row_gives_header_plus_row(self):
        config = parse_config(FAST)
        sweep = run_sweep(config)
        one = Sweep(
            temperatures=sweep.temperatures[:1],
            q_values=sweep.q_values[:1],
            entropies=sweep.entropies[:1, :, :1],
            diagnostics=sweep.diagnostics[:, :1],
        )
        data_lines = [
            ln for ln in emitted(one, config).splitlines() if not ln.startswith("#")
        ]
        assert len(data_lines) == 2

    def test_values_printed_with_twelve_digits(self):
        config = parse_config(FAST)
        sweep = run_sweep(config)
        _, parsed = parse_csv(emitted(sweep, config))
        for printed, computed in zip(parsed, sweep_rows(sweep)):
            for key in CSV_COLUMNS:
                assert printed[key] == pytest.approx(computed[key], rel=1e-11)

    def test_json_array(self):
        config = parse_config(FAST + ["--format", "json"])
        data = json.loads(emitted(run_sweep(config), config))
        assert isinstance(data, list)
        assert len(data) == 6
        assert set(data[0].keys()) == set(CSV_COLUMNS)

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--method", "quadrature", "--levels-small", "3", "--levels-big", "5",
             "--q", "0.5,1,2.5"],
            # T = 1e5 prints as 100000 in CSV and 100000.0 in JSON
            ["--t-min", "1e-12", "--t-max", "1e5", "--t-scale", "log"],
            # ground projectors, where S_joint at q = 1 prints as -0
            ["--t-min", "1e-9", "--t-max", "1e-8",
             "--t-steps", "4", "--t-scale", "log"],
            # duplicate and integer-valued q
            ["--q", "1,1,2"],
            # a single q
            ["--q", "1.5", "--t-steps", "7"],
            # one temperature past a full write block: a CSV block of the
            # five default q values holds CHUNK_BYTES of their cells
            ["--t-steps", str(cli_mod.CHUNK_BYTES // (5 * 10 * cli_mod.CELL_BYTES) + 1)],
            # subnormal and 3-digit-exponent temperatures, which fall back
            ["--t-min", "1e-320", "--t-scale", "log"],
            # an uncoupled circuit: zeros and, at q < 1, negative margins
            ["--g", "0", "--q", "0.5"],
        ],
    )
    def test_byte_identical_to_per_cell_writer(self, argv, output_format):
        config = parse_config(argv + ["--format", output_format])
        sweep = run_sweep(config)
        assert emitted(sweep, config) == reference_report(sweep, config)

    def test_json_cells_spell_the_rounded_value(self):
        # a cell is json.dumps of the value _fmt prints, whether it keeps its
        # %.12g text or takes json.dumps (subnormal, |v| >= 1e11, non-finite)
        values = spelling_values(np.random.default_rng(26))
        cells = rendered_texts(values, True)
        expected = [json.dumps(float("%.12g" % value)) for value in values.tolist()]
        mismatches = [(v, c, e) for v, c, e in zip(values.tolist(), cells, expected) if c != e]
        assert not mismatches[:5]
        assert len(cells) == len(values)

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_rendered_cells_spell_python_formatting(self, output_format):
        # the numpy digits against Python's on ties, near-ties and values
        # that round up to the next power of ten, where the renderer must
        # fall back or carry, and on 3-digit exponents, which fall back
        rng = np.random.default_rng(30)
        twelve_digits = rng.integers(10**11, 10**12, size=3000).astype(float)
        below_powers = 10.0 ** np.arange(-320, 309)
        values = np.concatenate([
            spelling_values(rng),
            # exact ties at the 12th digit round half to even
            [123456789012.5, 123456789013.5, 999999999999.5, -100000000000.5],
            twelve_digits + 0.5,
            (twelve_digits + 0.5) * 10.0 ** rng.integers(-30, 30, size=3000),
            [9.9999999999995, 99999999999.99999, 0.000099999999999995, -0.0],
            np.nextafter(below_powers, 0.0),
            np.nextafter(below_powers, math.inf),
            [1e-100, -1.5e100, 9.99999999999e99, 9.999999999999e99, 1e-99, 1e99],
            rng.uniform(-1, 1, size=5000) * 10.0 ** rng.integers(-6, 16, size=5000),
        ])
        as_json = output_format == "json"
        cells = rendered_texts(values, as_json)
        spell = (lambda text: json.dumps(float(text))) if as_json else str
        expected = [spell("%.12g" % value) for value in values.tolist()]
        mismatches = [(v, c, e) for v, c, e in zip(values.tolist(), cells, expected) if c != e]
        assert not mismatches[:5]
        assert len(cells) == len(values)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_exponent_one_off_falls_back(self, shift, monkeypatch):
        # a log10 one off scales the digits out of [1e11, 1e12): such a
        # cell takes Python's spelling, never wrong digits
        rng = np.random.default_rng(31)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 20, size=2000)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        assert rendered_texts(values, False) == ["%.12g" % value for value in values.tolist()]

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_blocks_ending_mid_grid(self, output_format, monkeypatch):
        # blocks of 7 temperatures: the 50-point grid ends with a block of 1
        config = parse_config(["--format", output_format])
        monkeypatch.setattr(cli_mod, "CHUNK_BYTES", 7 * write_bytes_per_temperature(config))
        sweep = run_sweep(config)
        assert emitted(sweep, config) == reference_report(sweep, config)

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_one_temperature_per_block(self, output_format, monkeypatch):
        # every block is also the first or the last; JSON drops the comma
        # of the first row only
        config = parse_config(["--t-steps", "4", "--format", output_format])
        monkeypatch.setattr(cli_mod, "CHUNK_BYTES", write_bytes_per_temperature(config))
        sweep = run_sweep(config)
        assert emitted(sweep, config) == reference_report(sweep, config)


class TestMain:
    def test_success_exit_code_and_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(FAST + ["--output", str(out)])
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 6

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(FAST + ["--output", str(first)]) == 0
        assert main(FAST + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_csv_run_never_imports_json(self, tmp_path):
        # json serves only the JSON fallback cells of _render: neither the
        # import of the CLI nor a CSV run loads it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
        script = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "import qubit_entropy.cli as cli",
            "loaded = ['json' in sys.modules]",
            f"code = cli.main(['--t-steps', '3', '--output', {str(tmp_path / 'r.csv')!r}])",
            "print(code, loaded + ['json' in sys.modules])",
        ])
        # -I: no PYTHONPATH, user site or PYTHONSTARTUP that could load json
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
        )
        assert result.stdout == "0 [False, False]\n"

    def test_pipeline_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "bipartite_entropies", failing_entropies)
        out = tmp_path / "never.csv"
        code = main(FAST + ["--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("qubit-entropy: ")
        assert not out.exists()

    def test_output_in_missing_directory_exits_before_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_mod, "run_sweep", None)  # never reached
        out = tmp_path / "missing" / "sweep.csv"
        with pytest.raises(SystemExit) as err:
            main(FAST + ["--output", str(out)])
        assert err.value.code == 2
        assert "does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_output_naming_a_directory_exits_before_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_mod, "run_sweep", None)  # never reached
        with pytest.raises(SystemExit) as err:
            main(FAST + ["--output", str(tmp_path)])
        assert err.value.code == 2
        assert "is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_exits_before_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "run_sweep", None)  # never reached
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(FAST + ["--output", ""])
        assert err.value.code == 2
        assert "--output must name a file" in capsys.readouterr().err

    def test_empty_output_key_exits_before_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "run_sweep", None)  # never reached
        path = tmp_path / "sweep.conf"
        path.write_text("output =\n")
        with pytest.raises(SystemExit) as err:
            main(FAST + ["--config", str(path)])
        assert err.value.code == 2
        assert "--output must name a file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_output_in_working_directory_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert parse_config(FAST + ["--output", "sweep.csv"]).output == "sweep.csv"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_regime_message_printed_once(self, capsys):
        # phi = 1.02 at lam = 1.05, g = 0.1: outside the small-angle regime
        with pytest.raises(SystemExit) as err:
            main(FAST + ["--lambda", "1.05"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert err_text.count("outside the small-angle regime") == 1
        assert "lambda=1.05, g=0.1" in err_text
        assert "exact method (--frequencies exact)" in err_text

    @pytest.mark.parametrize(
        "argv",
        [["--lambda", "1"], ["--lambda", "1.05", "--g", "0.1"], ["--lambda", "3", "--g", "-0.99"]],
        ids=["degenerate", "large-angle", "large-angle-negative-g"],
    )
    def test_exact_frequencies_sweep_outside_the_small_angle_regime(self, argv, capsys):
        assert main(FAST + argv + ["--frequencies", "exact"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 6
        assert all(math.isfinite(value) for row in rows for value in row.values())

    def test_header_names_the_frequency_method(self, capsys):
        # two reports of one circuit by different methods differ in every
        # row, and their headers say why
        headers = {}
        for method in ("small-angle", "exact"):
            assert main(["--t-steps", "2", "--frequencies", method]) == 0
            text = capsys.readouterr().out
            headers[method] = [ln for ln in text.splitlines() if ln.startswith("#")]
        phi = parse_config(["--frequencies", "exact"]).modes.phi
        assert "# frequencies=small-angle phi=0.12" in headers["small-angle"]
        assert f"# frequencies=exact phi={phi:.12g}" in headers["exact"]
        assert headers["small-angle"] != headers["exact"]

    def test_frequencies_select_the_modes(self):
        # small-angle is the default, so a default report is unchanged
        assert parse_config([]) == parse_config(["--frequencies", "small-angle"])
        assert parse_config([]).modes.method is FrequencyMethod.SMALL_ANGLE
        exact = parse_config(["--frequencies", "exact"]).modes
        assert exact == normal_modes(1.5, 0.1, FrequencyMethod.EXACT)

    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], 0),
            (["--lambda", "1.05", "--g", "0.1"], 2),
            (["--lambda", "3", "--g", "-0.99"], 2),
            (["--lambda", "1"], 2),
            (["--t-min", "1e-9", "--t-max", "1e-3", "--t-scale", "log"], 0),
            (["--g", "0"], 0),
        ],
        ids=["default", "large-angle", "large-angle-negative-g", "degenerate",
             "cold-log", "uncoupled"],
    )
    def test_warnings_filter_changes_no_report(self, argv, code):
        # the exit code and the report are the same under every filter,
        # and no run emits a warning for the filter to act on
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    result = main(argv)
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue().encode()

        results = []
        for action in ("ignore", "default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                results.append(run())
        assert results == [results[0]] * 3
        assert results[0][0] == code
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert caught == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--t-min", "1e-9", "--t-max", "1e-8", "--t-steps", "3", "--t-scale", "log"],
            ["--lambda", "0.6", "--g", "0", "--t-steps", "2", "--q", "0.5,1,2",
             "--format", "json"],
        ],
    )
    def test_zero_entropies_print_without_sign(self, argv, capsys):
        # pure spectra: the ground state, and the marginals of an uncoupled pair
        assert main(argv) == 0
        out = capsys.readouterr().out
        if "json" in argv:
            rows = json.loads(out)
        else:
            rows = parse_csv(out)[1]
        zeros = [v for row in rows for v in row.values() if v == 0.0]
        assert zeros
        assert all(math.copysign(1.0, v) == 1.0 for v in zeros)

    def test_stdout_default(self, capsys):
        assert main(FAST) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 6

    def test_json_to_file(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(FAST + ["--format", "json", "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())) == 6


@pytest.mark.parametrize("output_format", ["csv", "json"])
class TestReportFile:
    """emit overwrites an existing report in place and cuts it to length:
    the file ends as ``open(path, "w")`` would leave it."""

    def fresh_report(self, tmp_path, argv):
        path = tmp_path / "fresh.out"
        assert main(argv + ["--output", str(path)]) == 0
        return path.read_bytes()

    def test_shorter_report_drops_the_old_tail(self, output_format, tmp_path):
        fmt = ["--format", output_format]
        out = tmp_path / "report.out"
        assert main(fmt + ["--t-steps", "200", "--output", str(out)]) == 0
        long_size = out.stat().st_size
        assert main(fmt + ["--t-steps", "3", "--output", str(out)]) == 0
        assert out.stat().st_size < long_size
        assert out.read_bytes() == self.fresh_report(tmp_path, fmt + ["--t-steps", "3"])

    def test_symlink_kept_and_target_rewritten(self, output_format, tmp_path):
        fmt = ["--format", output_format]
        target = tmp_path / "target.out"
        link = tmp_path / "link.out"
        link.symlink_to(target)
        assert main(fmt + ["--t-steps", "200", "--output", str(link)]) == 0
        assert main(fmt + FAST + ["--output", str(link)]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh_report(tmp_path, fmt + FAST)

    def test_dev_null(self, output_format):
        assert main(["--format", output_format] + FAST + ["--output", os.devnull]) == 0

    def test_fifo_is_written_through(self, output_format, tmp_path):
        # a FIFO can be neither truncated nor asked for its offset
        fmt = ["--format", output_format]
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        assert main(fmt + FAST + ["--output", str(fifo)]) == 0
        reader.join(timeout=30)
        assert received == [self.fresh_report(tmp_path, fmt + FAST)]

    def test_truncates_only_a_longer_old_report(
        self, output_format, tmp_path, monkeypatch
    ):
        # ext4 journals even a truncate to the file's own length, which
        # would slow every write to a new path and every same-size rewrite.
        fmt = ["--format", output_format]
        out = tmp_path / "report.out"
        cuts = []
        ftruncate = os.ftruncate

        def recording_ftruncate(fd, length):
            cuts.append(length)
            return ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
        assert main(fmt + FAST + ["--output", str(out)]) == 0
        report = out.read_bytes()
        assert main(fmt + FAST + ["--output", str(out)]) == 0
        assert cuts == []
        out.write_bytes(report + b"old tail")
        assert main(fmt + FAST + ["--output", str(out)]) == 0
        assert cuts == [len(report)]
        assert out.read_bytes() == report

    def test_file_modes(self, output_format, tmp_path):
        fmt = ["--format", output_format]
        new, kept = tmp_path / "new.out", tmp_path / "kept.out"
        kept.write_text("x" * 100_000)
        kept.chmod(0o600)
        old_umask = os.umask(0o027)
        try:
            assert main(fmt + FAST + ["--output", str(new)]) == 0
            assert main(fmt + FAST + ["--output", str(kept)]) == 0
        finally:
            os.umask(old_umask)
        # a new file as open(path, "w") creates it; an existing one keeps its mode
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~0o027
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        assert kept.read_bytes() == new.read_bytes()

    def test_failed_sweep_leaves_report_unchanged(
        self, output_format, tmp_path, monkeypatch
    ):
        out = tmp_path / "report.out"
        assert main(["--format", output_format, "--output", str(out)]) == 0
        before = out.read_bytes()
        monkeypatch.setattr(cli_mod, "bipartite_entropies", failing_entropies)
        assert main(["--format", output_format] + FAST + ["--output", str(out)]) == 1
        assert out.read_bytes() == before

    def test_failed_write_leaves_its_prefix(self, output_format, tmp_path, monkeypatch):
        fmt = ["--format", output_format]
        out = tmp_path / "report.out"
        assert main(fmt + ["--t-steps", "200", "--output", str(out)]) == 0
        long_report = out.read_bytes()

        written = []

        class FailingStream:
            """Passes the header and the first block of rows to the file,
            then raises on the second block.  With two q values a block of
            one temperature is a single write of two or more lines; a
            header write is at most one line."""

            def __init__(self, stream):
                self.stream = stream
                self.blocks = 0

            def write(self, text):
                if text.count("\n") >= 2:
                    self.blocks += 1
                    if self.blocks == 2:
                        raise OSError("synthetic write failure")
                written.append(text)
                return self.stream.write(text)

        write = cli_mod._write
        # a budget too small for one temperature: blocks of one
        monkeypatch.setattr(cli_mod, "CHUNK_BYTES", 1)
        monkeypatch.setattr(
            cli_mod, "_write",
            lambda sweep, config, stream: write(sweep, config, FailingStream(stream)),
        )
        assert main(fmt + FAST + ["--output", str(out)]) == 1
        prefix = "".join(written).encode()
        monkeypatch.undo()
        fresh = self.fresh_report(tmp_path, fmt + FAST)
        assert len(prefix) < len(fresh) < len(long_report)
        assert fresh.startswith(prefix)
        assert out.read_bytes() == prefix

    def test_failed_flush_leaves_the_accepted_prefix(
        self, output_format, tmp_path, monkeypatch
    ):
        # A full disk shows when the buffer reaches the file, not in _write:
        # the file must still end where the kernel stopped accepting bytes.
        fmt = ["--format", output_format]
        out = tmp_path / "report.out"
        assert main(fmt + ["--t-steps", "200", "--output", str(out)]) == 0
        fresh = self.fresh_report(tmp_path, fmt + FAST)
        room = len(fresh) // 2

        class FullDisk(io.FileIO):
            """Takes ``room`` bytes, then fails as a full disk does."""

            def write(self, data):
                nonlocal room
                if room == 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                taken = super().write(bytes(data)[:room])
                room -= taken
                return taken

        def full_disk_open(fd, mode, **kwargs):
            return io.TextIOWrapper(io.BufferedWriter(FullDisk(fd, "w")), **kwargs)

        monkeypatch.setattr(cli_mod, "open", full_disk_open, raising=False)
        assert main(fmt + FAST + ["--output", str(out)]) == 1
        assert room == 0
        assert out.read_bytes() == fresh[: len(fresh) // 2]

    def test_report_path_never_opened_truncating(
        self, output_format, tmp_path, monkeypatch
    ):
        # Truncating an existing report to zero before rewriting it costs a
        # filesystem flush per file; emit opens it without O_TRUNC or "w".
        out = tmp_path / "report.out"
        out.write_text("x" * 100_000)
        opened = []
        os_open, builtin_open = os.open, builtins.open

        def recording_os_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), "O_TRUNC" if flags & os.O_TRUNC else ""))
            return os_open(path, flags, *args, **kwargs)

        def recording_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int):
                opened.append((os.fspath(file), mode))
            return builtin_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_os_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        assert main(["--format", output_format] + FAST + ["--output", str(out)]) == 0
        monkeypatch.undo()
        modes = [mode for path, mode in opened if path == str(out)]
        assert modes
        assert not [mode for mode in modes if "O_TRUNC" in mode or "w" in mode]


class TestSweepConfigValidation:
    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            SweepConfig(t_min=0.2, t_max=0.1)

    def test_empty_q_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(q_values=())

    def test_levels_must_nest(self):
        with pytest.raises(ValueError):
            SweepConfig(levels_small=6, levels_big=6)

    @pytest.mark.parametrize(
        "build",
        [
            lambda tmp: SweepConfig(t_scale="Log"),
            lambda tmp: SweepConfig(t_min=0.5, t_max=0.1),
            lambda tmp: SweepConfig(t_steps=1),
            lambda tmp: SweepConfig(levels_big=33),
            lambda tmp: SweepConfig(output_format="xml"),
            lambda tmp: SweepConfig(lam=1.0, g=0.1),
            lambda tmp: SweepConfig(output=str(tmp / "missing" / "sweep.csv")),
            lambda tmp: dataclasses.replace(SweepConfig(), t_steps=1),
            lambda tmp: SweepConfig(frequencies="Exact"),
            lambda tmp: SweepConfig(q_values=(0.0,)),
            lambda tmp: SweepConfig(levels_small=1),
        ],
        ids=["t-scale", "descending", "one-step", "levels-big", "format",
             "no-modes", "output-directory", "replace", "frequencies",
             "q", "levels-small"],
    )
    def test_construction_checks_as_the_command_line(self, build, tmp_path):
        # the library path, run_sweep(SweepConfig(...)), gets every check
        # parse_config makes, when the config is built
        with pytest.raises(ValueError):
            build(tmp_path)

    @pytest.mark.parametrize(
        "field, value",
        [("t_steps", 2.5), ("levels_small", 2.5), ("levels_big", 6.0), ("t_steps", "5")],
    )
    def test_counts_must_be_integers(self, field, value):
        # a non-integer count would fail only inside run_sweep, with TypeError
        name = field.replace("_", "-")
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lam", "1.5", "lambda must be a number"),
            ("g", None, "g must be a number"),
            ("t_min", "0.1", "t-min must be a number"),
            ("q_values", (1.0, "a"), "q values must be numbers"),
            ("q_values", 0.5, "q values must be a sequence"),
            ("q_values", "1,2", "q values must be a sequence"),
            ("output", 3, "--output must be a path"),
        ],
        ids=["lambda-text", "g-none", "t-min-text", "q-text-item", "q-scalar", "q-text",
             "output-int"],
    )
    def test_values_must_have_their_types(self, field, value, message):
        # each would fail with TypeError, from math.isfinite or os.path
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{field: value})

    def test_numpy_scalars_and_q_list_accepted(self):
        config = SweepConfig(
            lam=np.float64(1.5), g=np.float32(0.1), t_min=np.float64(0.01), t_max=np.int64(1),
            t_steps=3, q_values=[np.float64(1.0), 2.0],
        )
        assert run_sweep(config).entropies.shape == (2, 4, 3)

    def test_q_list_kept_as_tuple(self):
        # a frozen config hashes, and the sweep reports the q values as a tuple
        config = SweepConfig(q_values=[1.0, 2.0], t_steps=2)
        assert hash(config) == hash(SweepConfig(q_values=(1.0, 2.0), t_steps=2))
        assert run_sweep(config).q_values == (1.0, 2.0)
        assert isinstance(run_sweep(config).q_values, tuple)

    def test_numpy_integer_counts_accepted(self):
        config = SweepConfig(
            t_steps=np.int64(3), levels_small=np.int32(2), levels_big=np.int64(4),
            q_values=(1.0,),
        )
        assert run_sweep(config).entropies.shape == (1, 4, 3)
