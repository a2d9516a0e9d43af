"""Command-line interface tests: config handling, artifact formats,
determinism, seed precedence, and exit codes.

Everything here drives ``bigjump.cli.main`` in-process, so the suite stays
fast and the exit codes are asserted directly; one test runs ``predict`` in
a ``python -O`` subprocess, where no ``assert`` runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigjump import cli, sampler
from bigjump.cli import (
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SATURATED,
    EXIT_VERIFY_FAILED,
    ConfigError,
    RunConfig,
    load_config,
    main,
)
from bigjump.model import calibrate, depth_remainder_bound

FAST_SUITE = "series,calibration,a_tail,second_scale_decay"


def read_lines(path):
    return path.read_text().splitlines()


def csv_header(path):
    """First non-comment line of a CSV artifact."""
    for line in read_lines(path):
        if not line.startswith("#"):
            return line
    raise AssertionError(f"no header line in {path}")


def _limit_cases():
    """For each declared limit of each config field: a value just outside
    it and one just inside it (the bound itself where it is inclusive)."""
    cases = []
    for section, cls in cli._SECTION_TYPES.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            for key in ("gt", "ge", "lt", "le"):
                if key not in f.metadata:
                    continue
                bound = f.metadata[key]
                if hint in (float, tuple):
                    below = math.nextafter(float(bound), -math.inf)
                    above = math.nextafter(float(bound), math.inf)
                else:
                    below, above = bound - 1, bound + 1
                outside, inside = {
                    "gt": (bound, above),
                    "ge": (below, bound),
                    "lt": (bound, below),
                    "le": (above, bound),
                }[key]
                if hint is tuple:  # the limits hold for each grid entry
                    outside, inside = (float(outside),), (float(inside),)
                where = f"{section}.{f.name}"
                cases.append(
                    pytest.param(section, f.name, outside, inside, id=f"{where}-{key}")
                )
            if "choices" in f.metadata:
                inside = f.metadata["choices"][0]
                cases.append(
                    pytest.param(
                        section, f.name, "not-" + inside, inside, id=f"{where}-choices"
                    )
                )
    return cases


class TestConfigLoading:
    def test_default_config_validates(self):
        config = RunConfig()
        config.validate()
        assert config.model.b == 0.5
        assert config.simulate.method == "chain"
        assert config.oracle.cutoff == 1 << 16

    def test_unknown_section_key_named_in_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"bb": 0.3}}))
        with pytest.raises(ConfigError, match="'bb'"):
            load_config(str(path))

    def test_unknown_top_level_key_named_in_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"modell": {}}))
        with pytest.raises(ConfigError, match="'modell'"):
            load_config(str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_values_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "model": {"b": 0.3, "epsilon": 2},
                    "simulate": {"seed": 11, "samples": 42},
                    "predict": {"x_grid": [10, 20, 30]},
                }
            )
        )
        config = load_config(str(path))
        config.validate()
        assert config.model.b == 0.3
        assert config.model.epsilon == 2.0  # int is accepted for float
        assert config.simulate.seed == 11
        assert config.predict.x_grid == (10.0, 20.0, 30.0)

    @pytest.mark.parametrize(
        "section, payload, fragment",
        [
            ("model", {"b": 1.5}, "model.b"),
            ("model", {"epsilon": 0.0}, "model.epsilon"),
            ("simulate", {"method": "teleport"}, "simulate.method"),
            ("simulate", {"samples": 0}, "simulate.samples"),
            ("simulate", {"seed": -1}, "simulate.seed"),
            ("simulate", {"max_population": 1024}, "simulate.max_population"),
            ("simulate", {"max_population": 100_000_000}, "simulate.max_population"),
            ("oracle", {"cutoff": 2}, "oracle.cutoff"),
            ("predict", {"x_grid": [10.0, 10.0]}, "strictly increasing"),
            ("predict", {"x_grid": []}, "nonempty"),
            ("verify", {"confidence": 1.5}, "verify.confidence"),
            ("verify", {"suite": "series,nonsense"}, "nonsense"),
            ("verify", {"suite": ""}, "no checks"),
            ("model", {"b": "0.5"}, "model.b must be a number"),
            ("predict", {"x_grid": ["ten"]}, "predict.x_grid entry"),
            ("predict", {"x_grid": 10}, "predict.x_grid must be a list"),
            ("simulate", {"samples": 2.5}, "simulate.samples must be of type int"),
            ("simulate", {"samples": True}, "simulate.samples must be of type int"),
            ("simulate", {"seed": "7"}, "simulate.seed must be of type int"),
            ("simulate", {"seed": None}, "simulate.seed must be of type int"),
            ("verify", {"suite": ["series"]}, "verify.suite must be of type str"),
            ("model", {"epsilon": float("nan")}, "model.epsilon"),
            ("model", {"tolerance": float("inf")}, "model.tolerance"),
            ("oracle", {"tol": float("nan")}, "oracle.tol"),
            ("predict", {"x_grid": [1.0, float("inf")]}, "finite"),
        ],
    )
    def test_out_of_range_values_rejected(
        self, tmp_path, section, payload, fragment
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: payload}))
        with pytest.raises(ConfigError, match=fragment):
            load_config(str(path)).validate()

    @pytest.mark.parametrize("section, key, outside, inside", _limit_cases())
    def test_declared_limits_are_enforced(self, section, key, outside, inside):
        default = RunConfig()
        default.validate()

        def with_value(value):
            changed = dataclasses.replace(getattr(default, section), **{key: value})
            return RunConfig(**{section: changed})

        with_value(inside).validate()
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            with_value(outside).validate()

    def test_cutoff_above_2_18_is_refused_before_any_solve(self):
        # 2**18 is the largest cutoff measured to finish; above it one power
        # table of D_2 alone needs 2 GB or more.
        RunConfig(oracle=cli.OracleConfig(cutoff=1 << 18)).validate()
        too_large = RunConfig(oracle=cli.OracleConfig(cutoff=(1 << 18) + 1))
        with pytest.raises(ConfigError, match=r"oracle\.cutoff .* <= 262144, got"):
            too_large.validate()

    def test_config_hash_changes_with_values(self):
        base = RunConfig()
        other = load_config(None)
        assert base.config_hash() == other.config_hash()
        from dataclasses import replace

        changed = RunConfig(model=replace(base.model, b=0.4))
        assert changed.config_hash() != base.config_hash()


def _every_field_changed() -> RunConfig:
    """A valid config in which every field differs from its default."""
    config = RunConfig(
        model=cli.ModelConfig(b=0.3, epsilon=2.0, tolerance=1e-9),
        simulate=cli.SimulateConfig(
            method="cluster", samples=5, burn_in=3, depth=7, seed=11, streams=2,
            max_population=1 << 21,
        ),
        oracle=cli.OracleConfig(cutoff=4096, tol=1e-10, max_iter=30),
        predict=cli.PredictConfig(x_grid=(10.0, 20.0), n_max=3),
        verify=cli.VerifyConfig(suite="series", confidence=0.99),
    )
    config.validate()
    for name, f, _ in cli._declared_fields():
        assert getattr(getattr(config, name), f.name) != f.default, f.name
    return config


class TestConfigHash:
    """``config_hash`` is SHA-256, computed by ``cli._sha256_hex`` so that
    no command imports hashlib (and OpenSSL) for it: every digest must be
    hashlib's."""

    def test_every_length_across_the_padding_edges(self):
        # Lengths 55/56, 63/64 and 119/120 move the padding into one more
        # block; 130 bytes take three.
        for n in range(131):
            data = bytes((31 * i + n) % 256 for i in range(n))
            assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest(), n

    @given(st.binary(max_size=600))
    @settings(max_examples=200, deadline=None)
    def test_drawn_bytes(self, data):
        assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("make", [RunConfig, _every_field_changed])
    def test_config_hash_is_the_sha256_of_the_canonical_json(self, make):
        config = make()
        canonical = config.canonical_dict()
        text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        assert config.config_hash() == hashlib.sha256(text.encode()).hexdigest()

    def test_default_config_hash_is_pinned(self):
        assert RunConfig().config_hash() == (
            "2267b900d6fbe474b5e765b1d53f3ffa112fee7244afdd660214af81df538754"
        )


class TestSeedPrecedence:
    def test_builtin_default(self):
        assert RunConfig().simulate.seed == DEFAULT_SEED

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"seed": 11}}))
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--samples",
                "20",
                "--burnin",
                "5",
                "--seed",
                "77",
            ]
        )
        assert code == EXIT_OK
        first = read_lines(out / "simulate.csv")[0]
        assert first.endswith("seed=77")


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"bb": 0.3}}))
        code = main(["model", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "'bb'" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code = main(["model", "--b", "1.5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "model.b" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag",
        [
            ("missing", "--in"),
            ("directory", "--in"),
            ("undecodable", "--in"),
            ("undecodable", "--config"),
            ("regular file", "--out"),
        ],
    )
    def test_unusable_path_exits_2_naming_it(self, tmp_path, capsys, kind, flag):
        # Each used to leave main as an OSError or a UnicodeDecodeError:
        # a traceback and exit 1, the code of a failed verify check.
        path = tmp_path if kind == "directory" else tmp_path / "named"
        if kind in ("undecodable", "regular file"):
            path.write_bytes(b"\xff\xfe\x00")
        argv = ["attribute", "--x", "5"] if flag == "--in" else ["model"]
        if flag != "--out":
            argv += ["--out", str(tmp_path / "out")]
        assert main([*argv, flag, str(path)]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["verify", "--suite", "series"], ["oracle", "--cutoff", "256"]],
        ids=lambda argv: argv[0],
    )
    def test_unusable_out_is_refused_before_the_work(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # The refusal used to come when the artifact was written, after the
        # suite or the solve had run.
        def never(*args):
            raise AssertionError("the command's work ran")

        monkeypatch.setitem(cli.CHECKS, "series", never)
        monkeypatch.setattr(cli, "_stationary_pmf", never)
        out = tmp_path / "named"
        out.write_bytes(b"")
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    def test_verify_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        # Force a failing check by stubbing one entry of the registry.
        def always_fail(ctx):
            return cli._record("stub", 1.0, 0.0, 0.0, False)

        monkeypatch.setitem(cli.CHECKS, "series", always_fail)
        code = main(
            ["verify", "--suite", "series", "--out", str(tmp_path)]
        )
        assert code == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["overall"] is False
        assert [c["id"] for c in report["checks"]] == ["series"]

    def test_saturation_exits_3(self, tmp_path, monkeypatch, capsys):
        # Make every chain step look saturated via a tiny population cap on a
        # stubbed run; easiest honest route: monkeypatch run_chain's result
        # events by running with an absurdly low max population through the
        # sampler API directly is impossible (config floor is 2**20), so stub
        # the sampler call.
        from bigjump import sampler as sampler_mod

        real_run_chain = sampler_mod.run_chain

        def saturated_run_chain(params, config, stream):
            result = real_run_chain(params, config, stream)
            object.__setattr__(result, "events", {"population_cap": 3})
            return result

        monkeypatch.setattr(cli.sampler, "run_chain", saturated_run_chain)
        code = main(
            [
                "simulate",
                "--samples",
                "10",
                "--burnin",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_SATURATED
        assert "population_cap" in capsys.readouterr().err
        # The artifact is still written before the saturation exit.
        assert (tmp_path / "simulate.csv").exists()

    def test_attribute_saturation_exits_3(self, tmp_path, monkeypatch, capsys):
        # attribute's own cluster draw reports its cap events as simulate
        # does; the stub records two on the draw's stream.
        real_sample_clusters = sampler.sample_clusters

        def capped(params, depth, count, stream, *args):
            batch = real_sample_clusters(params, depth, count, stream, *args)
            stream.events["population_cap"] += 2
            return batch

        monkeypatch.setattr(cli.sampler, "sample_clusters", capped)
        argv = ["attribute", "--x", "10", "--samples", "300", "--depth", "8"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_SATURATED
        assert "population_cap=2" in capsys.readouterr().err
        assert (tmp_path / "attribution.csv").exists()

    @pytest.mark.parametrize("cutoff", ["256", "4096"])
    @pytest.mark.parametrize(
        "b, epsilon, max_iter", [("0.8", "3", 131), ("0.9", "5", 286)]
    )
    def test_oracle_at_theta_at_least_half_names_max_iter(
        self, tmp_path, capsys, cutoff, b, epsilon, max_iter
    ):
        # b = 0.8, epsilon = 3 calibrates to theta = 0.607; 0.9, 5 to 0.79.
        # Their early generation terms take the compound route, and the
        # only refusal left is the iteration cap, with the cap that does.
        args = ["--b", b, "--epsilon", epsilon, "--cutoff", cutoff]
        assert main(["oracle", *args, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "theta" not in err
        assert f"oracle.max_iter = {max_iter} suffices" in err
        rerun = ["oracle", *args, "--max-iter", str(max_iter)]
        assert main([*rerun, "--out", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "b, gap, depth",
        [("0.8", "e-07", 100), ("0.9", "e-05", 180), ("0.95", "e-04", 290)],
        ids=["0.8-e-07", "0.9-e-05", "0.95-e-04"],
    )
    def test_oracle_refuses_no_convergence(self, tmp_path, capsys, b, gap, depth):
        # 60 iterations leave sup-norm gaps of 1.1e-7, 2.3e-5 and 1.9e-4.
        # The refusal names an oracle.max_iter that suffices (108, 200 and
        # 338), and with it the oracle converges (at depths 100, 180, 290).
        args = ["--b", b, "--epsilon", "1", "--cutoff", "256"]
        assert main(["oracle", *args, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "oracle.max_iter = 60" in err and "oracle.tol = 1e-11" in err
        assert re.search(rf"gap \d\.\d{{3}}{gap}", err)
        assert not (tmp_path / "oracle.csv").exists()
        suggested = re.search(r"oracle\.max_iter = (\d+) suffices", err)
        assert suggested, err
        rerun = ["oracle", *args, "--max-iter", suggested.group(1)]
        assert main([*rerun, "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "oracle.csv").read_text()
        assert f"depth={depth}," in header

    def test_oracle_refusal_names_no_max_iter_past_float_resolution(
        self, tmp_path, capsys
    ):
        # Below a remainder of 1e-30 P(D_n > 0) is past float resolution
        # (from generation 50 at b = 0.5), so no iteration cap would do.
        args = ["--cutoff", "64", "--tol", "1e-30", "--max-iter", "5"]
        assert main(["oracle", *args, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no oracle.max_iter brings the depth remainder below it" in err
        assert "suffices" not in err

    @pytest.mark.parametrize(
        "b, epsilon, extra",
        [
            ("0.5", "0.1", []),
            ("0.2", "0.2", []),
            ("0.8", "1", ["--max-iter", "200"]),
            ("0.9", "1", ["--max-iter", "400"]),
            ("0.95", "1", ["--max-iter", "800"]),
            # Stops at depth 1, where the remainder bound reads 152.7.
            ("0.99", "1", ["--tol", "0.5"]),
            # theta = 0.607 and 0.79: refused for theta >= 1/2 until the
            # generation terms took the compound route there.
            ("0.8", "3", ["--max-iter", "131"]),
            ("0.9", "5", ["--max-iter", "286"]),
        ],
        ids=[
            "0.5-0.1",
            "0.2-0.2",
            "0.8-iter200",
            "0.9-iter400",
            "0.95-iter800",
            "0.99-tol0.5",
            "0.8-3-iter131",
            "0.9-5-iter286",
        ],
    )
    def test_oracle_folds_the_depth_remainder(self, tmp_path, b, epsilon, extra):
        # The first five were refused with exit 2: the remainder past the
        # stopping depth broke the stationary law's mass conservation.  It
        # now comes off the placed masses and widens the brackets.
        args = ["--b", b, "--epsilon", epsilon, "--cutoff", "256", *extra]
        assert main(["oracle", *args, "--out", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "oracle.csv"
        header = re.search(r"depth=(\d+),.* overflow=(\S+)", path.read_text())
        params = calibrate(float(b), float(epsilon))
        remainder = depth_remainder_bound(params, int(header.group(1)))
        if remainder < 1.0:
            assert float(header.group(2)) >= remainder
        else:  # every mass unplaced: the bracket is [0, 1] at each k
            lines = [line for line in read_lines(path) if not line.startswith("#")]
            rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
            assert not rows[:, 1].any() and not rows[:, 2].any()
            assert rows[:, 3] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("cutoff", ["256", "4096"])
    @pytest.mark.parametrize(
        "args",
        [["--b", "0.2", "--epsilon", "0.2"], ["--b", "0.99", "--tol", "0.5"]],
        ids=["0.2-0.2", "0.99-tol0.5"],
    )
    def test_oracle_upper_bracket_at_zero_is_one(self, tmp_path, args, cutoff):
        # A >= 1 makes P(X > 0) = 1.  Without a rounding margin on the
        # overflow the fold's placed total plus overflow read 1 - 3.3e-16
        # and 1 - 1.1e-16 at cutoff 256, and so did survival_hi at k = 0.
        # At 4096 and 2^16 the unmargined total reads above 1 (by 45 and
        # 286 ulps at b = 0.2).
        args += ["--cutoff", cutoff, "--out", str(tmp_path)]
        assert main(["oracle", *args]) == EXIT_OK
        lines = read_lines(tmp_path / "oracle.csv")
        first_row = next(line for line in lines if line[0].isdigit())
        k, _, _, survival_hi = first_row.split(",")
        assert k == "0" and float(survival_hi) >= 1.0

    @pytest.mark.parametrize("b", ["0.5", "0.2"])
    def test_oracle_stops_where_survival_leaves_float_range(self, tmp_path, b):
        # tol = 1e-30 is out of reach, and the fold ran on until P(D_n > 0)
        # rounded to 0 and that generation's term raised (exit 1); it now
        # stops there (depth 47 at b = 0.5, 21 at b = 0.2).
        args = ["--b", b, "--cutoff", "256", "--tol", "1e-30"]
        args += ["--out", str(tmp_path)]
        assert main(["oracle", *args, "--max-iter", "100"]) == EXIT_OK
        depth = re.search(r"depth=(\d+)", (tmp_path / "oracle.csv").read_text())
        assert int(depth.group(1)) < 100
        assert main(["oracle", *args, "--max-iter", "2"]) == EXIT_CONFIG

    def test_oracle_stops_where_the_table_survival_leaves_float_range(
        self, tmp_path
    ):
        # The table's q_n is exactly 1 from generation 50, but at cutoff 64
        # the chain's zero mass stalled an ulp below 1, so every later term
        # widened the brackets by 8e-15 and all 60 iterations ran (exit 2,
        # gap 7.640e-15).
        args = ["--cutoff", "64", "--tol", "1e-30", "--max-iter", "60"]
        assert main(["oracle", *args, "--out", str(tmp_path)]) == EXIT_OK
        depth = re.search(r"depth=(\d+)", (tmp_path / "oracle.csv").read_text())
        assert int(depth.group(1)) <= 49

    def test_cluster_simulate_at_depth_200(self, tmp_path):
        # The depth remainder once summed the immigration truncated mean at
        # scales 2**200 and beyond, and its quartic term overflowed (exit
        # 1); it now reads P(D_200 > 0) from the extinction table.
        args = ["--method", "cluster", "--depth", "200", "--samples", "10"]
        assert main(["simulate", *args, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "simulate.csv").exists()

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["model", "--epsilon", "nan"], "model.epsilon"),
            (["model", "--epsilon", "inf"], "model.epsilon"),
            (["model", "--tolerance", "nan"], "model.tolerance"),
            (["model", "--tolerance", "inf"], "model.tolerance"),
            (["oracle", "--tol", "nan"], "oracle.tol"),
            (["oracle", "--tol", "inf"], "oracle.tol"),
            (["predict", "--x-grid", "10,nan"], "predict.x_grid"),
            (["predict", "--x-grid", "10,inf"], "predict.x_grid"),
        ],
    )
    def test_non_finite_float_exits_2(self, tmp_path, capsys, argv, fragment):
        # NaN passed the `<= 0` range checks: epsilon = nan died in the
        # quadrature (exit 1) and epsilon = inf calibrated with overflows.
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert fragment in err and "finite" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv", [["--tolerance", "1e-18"], ["--epsilon", "1e-6"]]
    )
    def test_unreachable_calibration_exits_2(self, tmp_path, capsys, argv):
        # The tail bracket cannot narrow below the tolerance by the
        # summation cap; this was a ValueError traceback (exit 1).
        assert main(["model", *argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.tolerance" in err
        assert "unreachable" in err and "summation cap" in err

    def test_epsilon_just_below_the_limit_works(self, tmp_path):
        # phi stays finite and positive up to 2**62 for epsilon <= 176.31.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["model", "--epsilon", "176", "--out", str(tmp_path)]) == EXIT_OK
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["extinction_survival"]["p1"] > 0.0

    @pytest.mark.parametrize("epsilon", ["176.5", "1e300"])
    def test_epsilon_above_the_limit_exits_2(self, tmp_path, capsys, epsilon):
        # epsilon = 1e300 exited 0 after an overflow warning, with phi
        # reading 0 for every k >= 1.
        assert main(["model", "--epsilon", epsilon, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "model.epsilon" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_small_epsilon_calibrates(self, tmp_path):
        # epsilon = 1e-3 died with an inverted tail bracket (exit 1).
        assert main(["model", "--epsilon", "1e-3", "--out", str(tmp_path)]) == EXIT_OK
        model = json.loads((tmp_path / "model.json").read_text())
        bracket = model["offspring_mean_bracket"]
        assert bracket["lo"] - 1e-9 <= 0.5 <= bracket["hi"] + 1e-9

    def test_cluster_population_cap_above_2_26_exits_2(self, tmp_path, capsys):
        # Cluster sums are exact only up to 2**26; a larger cap was a
        # ValueError traceback from the sampler (exit 1).
        args = ["--method", "cluster", "--max-population", "100000000"]
        code = main(["simulate", *args, "--samples", "10", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "simulate.max_population" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, x, threshold",
        [(["--b", "0.01"], "x=100 ", "109.7"), (["--x-grid", "1,2"], "x=1 ", " 8 ")],
    )
    def test_predict_below_positivity_threshold_exits_2(
        self, tmp_path, capsys, argv, x, threshold
    ):
        # Grid points below the second-scale positivity threshold (which
        # depends on b) were a ValueError traceback (exit 1).
        assert main(["predict", *argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "predict.x_grid" in err and x in err and threshold in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "b, x",
        [
            ("0.3", "9.355360492722449"),
            ("0.4", "8.482555051859082"),
            ("0.55", "7.839823614322092"),
        ],
    )
    def test_predict_at_the_positivity_threshold_exits_2(self, tmp_path, capsys, b, x):
        # Each x is exp(log(1/b) * (1+b)/(1-b)), the threshold written without
        # the series constants; second_scale reads about -2e-18 there, which
        # was a RuntimeError traceback (exit 1).  The table refuses on the
        # sign of that column and names the threshold.
        argv = ["predict", "--b", b, "--x-grid", x, "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "predict.x_grid" in err and "positivity threshold" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("b, n_max, runs", [("0.5", 1100, 1000), ("0.2", 500, 400)])
    def test_predict_past_the_float_range_of_the_scale(self, tmp_path, b, n_max, runs):
        # x*b^-n passed the float range: an OverflowError traceback (exit 1)
        # at these n_max, inf in predict.csv for n_max 1011..1023 at b = 0.5.
        # The generations past it add nothing to an n_max that ran before.
        columns = {}
        for n in (runs, n_max):
            out = tmp_path / str(n)
            argv = ["predict", "--b", b, "--n-max", str(n), "--out", str(out)]
            assert main(argv) == EXIT_OK
            rows = [line.split(",") for line in read_lines(out / "predict.csv")[2:]]
            assert all(math.isfinite(float(value)) for row in rows for value in row)
            columns[n] = [row[4] for row in rows]  # decomposition
        assert columns[n_max] == columns[runs]

    def test_tail_sums_refuse_b_past_their_limit(self, tmp_path, capsys):
        # Past b = 0.9926 the sums outran their 5,000-generation cap, a
        # RuntimeError traceback (exit 1).  0.995 now runs; larger b would
        # take minutes and are refused by name.
        args = ["--b", "0.995", "--out", str(tmp_path)]
        assert main(["predict", *args]) == EXIT_OK
        assert main(["verify", "--suite", "a_tail", *args]) == EXIT_OK
        for argv in (["predict"], ["verify", "--suite", "series,a_tail"]):
            for b in ("0.999", "0.9999"):
                code = main([*argv, "--b", b, "--out", str(tmp_path / b)])
                assert code == EXIT_CONFIG
                err = capsys.readouterr().err
                assert f"model.b = {b}" in err and "above 0.995" in err
        assert not (tmp_path / "0.999").exists()

    def test_conv_tail_needs_mass_above_2_14(self, tmp_path, capsys):
        # Below the cutoff 2**14 + 1 the offspring law places no mass above
        # x = 2**14, which was a ValueError traceback (exit 1).
        args = ["--cutoff", "16384", "--out", str(tmp_path)]
        assert main(["verify", "--suite", "series,conv_tail", *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "oracle.cutoff > 16384" in err and "got 16384" in err
        assert not any(tmp_path.iterdir())
        # Suites without conv_tail still run at small cutoffs, and the next
        # cutoff runs conv_tail.
        assert main(["verify", "--suite", "series", *args]) == EXIT_OK
        args[1] = "16385"
        assert main(["verify", "--suite", "conv_tail", *args]) == EXIT_OK
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"][0]["measured"]["light_point"] == 31.5

    @pytest.mark.parametrize(
        "check, x",
        [
            ("conv_tail", 16384),
            ("generation_tail", 16384),
            ("random_sum", 8192),
            ("two_scale", 4096),
            ("mc_oracle", 1000),
        ],
    )
    def test_oracle_checks_refuse_a_cutoff_at_their_x(
        self, tmp_path, capsys, check, x
    ):
        # At x >= cutoff the oracle places no mass above x, and the bracket
        # [0, overflow] gave made-up verdicts (random_sum read a ratio of
        # 3.92 at cutoff 4096, with exit 1).
        args = ["--suite", check, "--cutoff", str(x), "--out", str(tmp_path)]
        assert main(["verify", *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"the {check} check" in err
        assert f"oracle.cutoff > {x}" in err and f"got {x}" in err
        assert not any(tmp_path.iterdir())

    def test_success_exits_0(self, tmp_path):
        assert main(["model", "--out", str(tmp_path)]) == EXIT_OK


class TestArtifacts:
    def test_model_json_provenance(self, tmp_path):
        main(["model", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "model.json").read_text())
        prov = payload["provenance"]
        assert set(prov) == {"seed", "config_hash", "versions"}
        assert set(prov["versions"]) == {"bigjump", "numpy", "scipy", "python"}
        assert payload["theta"] == pytest.approx(0.236874324482515, rel=1e-12)

    def test_predict_csv_columns(self, tmp_path):
        main(
            [
                "predict",
                "--out",
                str(tmp_path),
                "--x-grid",
                "10,100,1000",
            ]
        )
        path = tmp_path / "predict.csv"
        assert csv_header(path) == (
            "x,leading,second_scale,two_scale_total,decomposition,"
            "a_tail_exact,a_tail_asym"
        )
        data_rows = [
            line
            for line in read_lines(path)
            if line and not line.startswith("#")
        ][1:]
        assert len(data_rows) == 3
        first = data_rows[0].split(",")
        assert float(first[0]) == 10.0
        # leading tail at x=10 for b=0.5 is 1/((1-b)(1+x)) = 2/11
        assert float(first[1]) == pytest.approx(2 / 11, rel=1e-12)

    def test_oracle_csv_columns_and_bracket_order(self, tmp_path):
        main(["oracle", "--out", str(tmp_path), "--cutoff", "256"])
        path = tmp_path / "oracle.csv"
        assert csv_header(path) == "k,mass,survival_lo,survival_hi"
        rows = [
            line.split(",")
            for line in read_lines(path)
            if line and not line.startswith("#")
        ][1:]
        assert len(rows) == 257
        for row in rows:
            lo, hi = float(row[2]), float(row[3])
            assert 0.0 <= lo <= hi <= 1.0
        # mass column sums to 1 - overflow (within float accumulation).
        total = sum(float(row[1]) for row in rows)
        assert total < 1.0
        assert total == pytest.approx(1.0, abs=0.02)

    def test_simulate_chain_csv_columns(self, tmp_path):
        main(
            [
                "simulate",
                "--out",
                str(tmp_path),
                "--samples",
                "25",
                "--burnin",
                "5",
            ]
        )
        path = tmp_path / "simulate.csv"
        assert csv_header(path) == "sample_index,value,method,stream_id"
        rows = [
            line.split(",")
            for line in read_lines(path)
            if line and not line.startswith("#")
        ][1:]
        assert len(rows) == 25
        assert [int(r[0]) for r in rows] == list(range(25))
        assert all(r[2] == "chain" for r in rows)

    def test_simulate_cluster_csv_columns(self, tmp_path):
        main(
            [
                "simulate",
                "--out",
                str(tmp_path),
                "--method",
                "cluster",
                "--samples",
                "10",
                "--depth",
                "6",
            ]
        )
        header = csv_header(tmp_path / "simulate.csv").split(",")
        assert header[:4] == ["sample_index", "value", "method", "stream_id"]
        assert header[4] == "immigration"
        assert header[5:11] == [f"gen_{n}" for n in range(1, 7)]
        assert header[11] == "remainder_bound"

    def test_cluster_rows_decompose(self, tmp_path):
        main(
            [
                "simulate",
                "--out",
                str(tmp_path),
                "--method",
                "cluster",
                "--samples",
                "40",
                "--depth",
                "8",
            ]
        )
        rows = [
            line.split(",")
            for line in read_lines(tmp_path / "simulate.csv")
            if line and not line.startswith("#")
        ][1:]
        for row in rows:
            value = int(row[1])
            immigration = int(row[4])
            gens = [int(v) for v in row[5:13]]
            assert value == immigration + sum(gens)

    def test_streams_partition_samples(self, tmp_path):
        main(
            [
                "simulate",
                "--out",
                str(tmp_path),
                "--samples",
                "25",
                "--burnin",
                "5",
                "--streams",
                "4",
            ]
        )
        rows = [
            line.split(",")
            for line in read_lines(tmp_path / "simulate.csv")
            if line and not line.startswith("#")
        ][1:]
        per_stream = {}
        for row in rows:
            per_stream[int(row[3])] = per_stream.get(int(row[3]), 0) + 1
        # 25 over 4 streams: remainder goes to the early streams.
        assert per_stream == {0: 7, 1: 6, 2: 6, 3: 6}

    def test_attribute_round_trip(self, tmp_path):
        main(
            [
                "simulate",
                "--out",
                str(tmp_path),
                "--method",
                "cluster",
                "--samples",
                "400",
                "--depth",
                "10",
                "--seed",
                "3",
            ]
        )
        code = main(
            [
                "attribute",
                "--out",
                str(tmp_path),
                "--x",
                "20",
                "--in",
                str(tmp_path / "simulate.csv"),
            ]
        )
        assert code == EXIT_OK
        path = tmp_path / "attribution.csv"
        assert csv_header(path) == "label,count,share"
        rows = [
            line.split(",")
            for line in read_lines(path)
            if line and not line.startswith("#")
        ][1:]
        assert rows, "expected at least one exceedance at x=20"
        shares = sum(float(r[2]) for r in rows)
        assert shares == pytest.approx(1.0, abs=1e-12)
        labels = [r[0] for r in rows]
        assert labels[0] == "immigration" or labels[0].startswith("gen ")

    def test_attribute_without_input_samples_itself(self, tmp_path):
        code = main(
            [
                "attribute",
                "--out",
                str(tmp_path),
                "--x",
                "10",
                "--samples",
                "300",
                "--depth",
                "8",
                "--seed",
                "4",
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "attribution.csv").exists()

    def test_cluster_artifacts_build_no_row_tuples(self, tmp_path, monkeypatch):
        # Cluster samples reach simulate.csv and attribution.csv by column.
        def no_rows(*args):
            raise AssertionError("a ClusterRow was built")

        monkeypatch.setattr(sampler, "ClusterRow", no_rows)
        out = ["--out", str(tmp_path)]
        args = ["--method", "cluster", "--samples", "50", "--depth", "6"]
        assert main(["simulate", *args, "--streams", "2", *out]) == EXIT_OK
        path = str(tmp_path / "simulate.csv")
        assert main(["attribute", "--x", "1", "--in", path, *out]) == EXIT_OK
        assert main(["attribute", "--x", "1", *args[2:], *out]) == EXIT_OK

    def test_attribute_requires_x(self, tmp_path, capsys):
        code = main(["attribute", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda row: [row[0], str(int(row[1]) + 1), *row[2:]],  # value != sum
            lambda row: row[:-2],  # ragged row
            lambda row: [row[0], "x", *row[2:]],  # not an integer
            lambda row: [*row[:-1], "abc"],  # remainder_bound not a number
            lambda row: [*row[:-1], "0.5"],  # remainder_bound differs
        ],
    )
    def test_attribute_refuses_malformed_cluster_csv(self, tmp_path, capsys, corrupt):
        args = ["--method", "cluster", "--samples", "20", "--depth", "4"]
        main(["simulate", *args, "--out", str(tmp_path)])
        path = tmp_path / "simulate.csv"
        lines = read_lines(path)
        last = lines[-1] if lines[-1] else lines[-2]
        bad = ",".join(corrupt(last.split(",")))
        path.write_text(path.read_text().replace(last, bad))
        code = main(["attribute", "--out", str(tmp_path), "--x", "1", "--in", str(path)])
        assert code == EXIT_CONFIG
        assert "simulate.csv" in capsys.readouterr().err
        assert not (tmp_path / "attribution.csv").exists()

    @staticmethod
    def _cluster_csv(tmp_path):
        # 2,000 depth-3 cluster samples: rows of the table below the header.
        args = ["--method", "cluster", "--samples", "2000", "--depth", "3"]
        assert main(["simulate", *args, "--out", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "simulate.csv"
        lines = read_lines(path)
        start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        rows = [line.split(",") for line in lines[start:] if line]
        return path, lines[:start], rows

    @staticmethod
    def _attribution_counts(path):
        return {
            row[0]: row[1]
            for row in (line.split(",") for line in read_lines(path))
            if row[0] and not row[0].startswith("#")
        }

    def test_attribute_reads_gen_columns_by_their_index(self, tmp_path):
        path, comment, rows = self._cluster_csv(tmp_path)
        out = ["--out", str(tmp_path), "--x", "10", "--in", str(path)]
        assert main(["attribute", *out]) == EXIT_OK
        expected = self._attribution_counts(tmp_path / "attribution.csv")
        # The same table with gen_1 and gen_2 swapped, header and data.
        g1, g2 = rows[0].index("gen_1"), rows[0].index("gen_2")
        for row in rows:
            row[g1], row[g2] = row[g2], row[g1]
        path.write_text("\n".join([*comment, *map(",".join, rows)]) + "\n")
        assert main(["attribute", *out]) == EXIT_OK
        assert self._attribution_counts(tmp_path / "attribution.csv") == expected

    @pytest.mark.parametrize(
        "names",
        [("gen_7", "gen_2", "gen_3"), ("gen_1", "gen_1", "gen_3"), ("gen_0", "gen_1", "gen_2")],
    )
    def test_attribute_refuses_gen_columns_not_1_to_m(self, tmp_path, capsys, names):
        path, comment, rows = self._cluster_csv(tmp_path)
        header = rows[0]
        for k, name in enumerate(names, start=1):
            header[header.index(f"gen_{k}")] = name
        path.write_text("\n".join([*comment, *map(",".join, rows)]) + "\n")
        code = main(["attribute", "--out", str(tmp_path), "--x", "1", "--in", str(path)])
        assert code == EXIT_CONFIG
        assert "gen_1..gen_m each once" in capsys.readouterr().err
        assert not (tmp_path / "attribution.csv").exists()

    def test_attribute_refuses_a_negative_count(self, tmp_path, capsys):
        # Immigration -999 with gen_1 raised to match: value is unchanged,
        # and the row still sums.
        path, comment, rows = self._cluster_csv(tmp_path)
        imm, g1 = rows[0].index("immigration"), rows[0].index("gen_1")
        row = rows[1]
        row[g1] = str(int(row[g1]) + int(row[imm]) + 999)
        row[imm] = "-999"
        path.write_text("\n".join([*comment, *map(",".join, rows)]) + "\n")
        code = main(["attribute", "--out", str(tmp_path), "--x", "1", "--in", str(path)])
        assert code == EXIT_CONFIG
        assert "negative count" in capsys.readouterr().err
        assert not (tmp_path / "attribution.csv").exists()

    def test_no_partial_files_on_config_error(self, tmp_path):
        code = main(["predict", "--out", str(tmp_path), "--x-grid", "5,4"])
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        main(["model", "--out", str(tmp_path)])
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"model.json"}


# sha256 of small artifacts as the row-by-row writer produced them, before
# every table became a dict of named columns; the column writer reproduces
# each byte.  The oracle is left out: its FFT bits depend on the platform.
_PINNED_ARTIFACTS = {
    "chain": (
        ["simulate", "--samples", "301", "--burnin", "50", "--streams", "3",
         "--seed", "7"],
        "simulate.csv",
        "2dfe75cae15297a7374a52947e5094cab1b35b31aa4de1075611c6208feae130",
    ),
    "cluster": (
        ["simulate", "--method", "cluster", "--samples", "201", "--depth", "8",
         "--streams", "2", "--seed", "7"],
        "simulate.csv",
        "8763bf2159456a7b519da0d7b5c9189b04e561ec49bc3a9cef0be531d705ebb5",
    ),
    "predict": (
        ["predict"],
        "predict.csv",
        "e29f1c6ea699d3f9d9e68b629c6d61b77707298e05a7d738be4c7f804a267a7c",
    ),
    "predict_grid": (
        ["predict", "--x-grid", "10,100,1000,1e5", "--n-max", "9"],
        "predict.csv",
        "fc6840cdead9f48099895926734368f9b492b7c45e9a6f15ee10b3482e5fd2d7",
    ),
    # Reads the cluster case's simulate.csv.
    "attribute": (
        ["attribute", "--x", "20"],
        "attribution.csv",
        "c0b27d7cfdeea8f011a1e36c97b660197218752248f6e4413c7d809c1d826074",
    ),
}


class TestDeterminism:
    @pytest.mark.parametrize("case", list(_PINNED_ARTIFACTS))
    def test_artifact_bytes_are_pinned(self, tmp_path, case):
        argv, name, digest = _PINNED_ARTIFACTS[case]
        if case == "attribute":
            cluster_argv = _PINNED_ARTIFACTS["cluster"][0]
            assert main([*cluster_argv, "--out", str(tmp_path)]) == EXIT_OK
            argv = [*argv, "--in", str(tmp_path / "simulate.csv")]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_predict_bytes_are_pinned_under_python_O(self, tmp_path, src_env):
        argv, name, digest = _PINNED_ARTIFACTS["predict"]
        subprocess.run(
            [sys.executable, "-O", "-m", "bigjump.cli", *argv, "--out", str(tmp_path)],
            env=src_env,
            capture_output=True,
            check=True,
            timeout=120,
        )
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_predict_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["predict", "--out", str(out), "--x-grid", "10,100"])
        assert (a / "predict.csv").read_bytes() == (b / "predict.csv").read_bytes()

    def test_simulate_byte_identical_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(
                [
                    "simulate",
                    "--out",
                    str(out),
                    "--samples",
                    "60",
                    "--burnin",
                    "10",
                    "--seed",
                    "42",
                    "--streams",
                    "3",
                ]
            )
        assert (
            (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()
        )

    def test_simulate_differs_across_seeds(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "1"), (b, "2")):
            main(
                [
                    "simulate",
                    "--out",
                    str(out),
                    "--samples",
                    "60",
                    "--burnin",
                    "10",
                    "--seed",
                    seed,
                ]
            )
        body = lambda p: [
            line
            for line in read_lines(p / "simulate.csv")
            if not line.startswith("#")
        ]
        assert body(a) != body(b)

    def test_verify_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        codes = [
            main(["verify", "--out", str(out), "--suite", FAST_SUITE])
            for out in (a, b)
        ]
        assert codes == [EXIT_OK, EXIT_OK]
        assert (
            (a / "verify_report.json").read_bytes()
            == (b / "verify_report.json").read_bytes()
        )

    def test_verify_timings_stay_beside_the_report(self, tmp_path):
        # Two runs into one directory: the second starts with the first's
        # timings file in place, and the report does not move a byte.
        reports = []
        for _ in range(2):
            argv = ["verify", "--out", str(tmp_path), "--suite", FAST_SUITE]
            assert main(argv) == EXIT_OK
            reports.append((tmp_path / "verify_report.json").read_bytes())
            timings = json.loads((tmp_path / "verify_timings.json").read_text())
            assert list(timings) == FAST_SUITE.split(",")
            assert all(seconds >= 0.0 for seconds in timings.values())
        assert reports[0] == reports[1]


class TestMemory:
    # A cold run peaks at 3.57 MiB under tracemalloc, set by calibration's
    # partial sum.  Holding every harmonic term of the immigration mean in
    # one array peaks at 10.84 (predict) and 15.69 MiB (verify); 6 MiB
    # catches that and leaves 2.4 MiB of margin.
    @pytest.mark.parametrize(
        "argv",
        [["predict"], ["verify", "--suite", "a_tail,second_scale_decay"]],
        ids=["predict", "verify"],
    )
    def test_peak_stays_below_6_mib(self, tmp_path, argv):
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


class TestVerifyReportShape:
    def test_report_fields(self, tmp_path):
        main(["verify", "--out", str(tmp_path), "--suite", FAST_SUITE])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert set(report) == {"checks", "overall", "provenance"}
        ids = [c["id"] for c in report["checks"]]
        assert ids == FAST_SUITE.split(",")
        for check in report["checks"]:
            assert set(check) == {
                "id",
                "description",
                "measured",
                "expected",
                "tolerance",
                "pass",
            }
            assert check["pass"] is True
        assert report["overall"] is True

    def test_random_sum_does_not_depend_on_the_grid(self):
        # Criterion 5 sets generation 1's exact term beside its first-order
        # term, which reads the model's b, not the grid's truncated mean of
        # D_1.  Across these cutoffs the ratio was measured to move by
        # 1.0e-11 relative; reading the truncated mean it moved from 1.0019
        # to 0.9933.
        ratios = [
            cli.CHECKS["random_sum"](
                cli.VerifyContext(RunConfig(oracle=cli.OracleConfig(cutoff=cutoff)))
            )["measured"]
            for cutoff in (10_000, 1 << 14, 1 << 16)
        ]
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-9)

    def test_overall_iff_all_pass(self):
        # overall is defined as the conjunction of the per-check flags.
        config = RunConfig()
        from dataclasses import replace

        config = RunConfig(
            verify=replace(config.verify, suite="series,calibration")
        )
        report = cli.run_verify(config)
        assert report["overall"] == all(c["pass"] for c in report["checks"])

    def test_suite_selection_order_fixed(self, tmp_path):
        main(
            [
                "verify",
                "--out",
                str(tmp_path),
                "--suite",
                "calibration,series",
            ]
        )
        report = json.loads((tmp_path / "verify_report.json").read_text())
        ids = [c["id"] for c in report["checks"]]
        assert ids == ["calibration", "series"]

    def test_series_check_compares_partial_sums_with_closed_forms(
        self, monkeypatch
    ):
        # Partial sums that drift from the closed forms by 1e-6 relative
        # make a FAIL record naming the deviation, not a traceback.
        partial_sums = cli.asymptotics.series_partial_sums

        def drifted(b):
            n1, n2 = partial_sums(b)
            return n1 * (1.0 + 1e-6), n2

        record = cli._check_series(None)
        assert 0.0 < record["measured"] <= 1e-10 and record["pass"] is True
        monkeypatch.setattr(cli.asymptotics, "series_partial_sums", drifted)
        record = cli._check_series(None)
        assert record["pass"] is False
        assert record["measured"] == pytest.approx(25.0 * 1e-6, rel=1e-6)

    def test_all_expands_to_full_registry(self):
        assert cli._suite_tokens("all") == list(cli.CHECK_IDS)
        assert len(cli.CHECK_IDS) == 11


# The flags each subcommand had when they were written out by hand: option
# string, dest, choices and type name (None for a plain string).  Every
# subcommand first takes --config, --out and the model's three flags.
_COMMON_FLAGS = [
    ("--config", "config", None, None),
    ("--out", "out", None, None),
    ("--b", "b", None, "float"),
    ("--epsilon", "epsilon", None, "float"),
    ("--tolerance", "tolerance", None, "float"),
]
_FLAG_SNAPSHOT = {
    "model": [],
    "predict": [
        ("--x-grid", "x_grid", None, "_parse_x_grid"),
        ("--n-max", "n_max", None, "int"),
    ],
    "oracle": [
        ("--cutoff", "cutoff", None, "int"),
        ("--tol", "tol", None, "float"),
        ("--max-iter", "max_iter", None, "int"),
    ],
    "simulate": [
        ("--method", "method", ("chain", "cluster"), None),
        ("--samples", "samples", None, "int"),
        ("--burnin", "burn_in", None, "int"),
        ("--depth", "depth", None, "int"),
        ("--seed", "seed", None, "int"),
        ("--streams", "streams", None, "int"),
        ("--max-population", "max_population", None, "int"),
    ],
    "verify": [
        ("--suite", "suite", None, None),
        ("--confidence", "confidence", None, "float"),
        ("--seed", "seed", None, "int"),
        ("--cutoff", "cutoff", None, "int"),
    ],
    "attribute": [
        ("--x", "x", None, "int"),
        ("--in", "infile", None, None),
        ("--samples", "samples", None, "int"),
        ("--depth", "depth", None, "int"),
        ("--seed", "seed", None, "int"),
    ],
}


def _listed_csv_columns(help_text: str) -> dict:
    """Each CSV in the help's artifact list -> its entry, lines joined."""
    listed, name = {}, None
    block = help_text.split("artifact formats")[1].split("exit codes")[0]
    for line in block.splitlines():
        entry = re.match(r"  (\S+\.csv)\s+(.*)", line)
        if entry:
            name = entry[1]
            listed[name] = entry[2]
        elif name and line.startswith("   "):
            listed[name] += " " + line.strip()
        else:
            name = None
    return listed


class TestHelp:
    def test_flags_match_snapshot(self):
        parser = cli.build_parser()
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == list(_FLAG_SNAPSHOT)
        for command, expected in _FLAG_SNAPSHOT.items():
            flags = [
                (
                    " ".join(a.option_strings),
                    a.dest,
                    tuple(a.choices) if a.choices is not None else None,
                    None if a.type in (None, str) else a.type.__name__,
                )
                for a in sub.choices[command]._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            assert flags == _COMMON_FLAGS + expected, command

    def test_help_documents_columns_and_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "survival_lo" in text
        assert "exit codes" in text

    def test_artifact_list_names_each_csv_header(self, tmp_path, capsys):
        # The artifact list in --help is the columns' second definition.
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = _listed_csv_columns(capsys.readouterr().out)
        depth = 3
        chain, clusters = listed["simulate.csv"].split(" (+ ")
        gens = ", ".join(f"gen_{n}" for n in range(1, depth + 1))
        clusters = clusters.removesuffix(" for clusters)")
        listed["simulate.csv"] = chain
        listed["cluster"] = f"{chain}, {clusters.replace('gen_1..gen_m', gens)}"
        runs = {
            "predict.csv": ["predict", "--x-grid", "10,100"],
            "oracle.csv": ["oracle", "--cutoff", "256"],
            "simulate.csv": ["simulate", "--samples", "20", "--burnin", "5"],
            "cluster": ["simulate", "--method", "cluster", "--samples", "100",
                        "--depth", str(depth)],
            "attribution.csv": ["attribute", "--x", "1", "--samples", "200",
                                "--depth", str(depth)],
        }
        assert set(runs) == set(listed)
        for name, argv in runs.items():
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            (path,) = out.glob("*.csv")
            assert csv_header(path) == listed[name].replace(", ", ","), name
