"""Command-line parsing, subcommand behavior, and output determinism."""

import json
from fractions import Fraction

import pytest

from relaycache.cli import ConfigError, main, parse_config
from relaycache.topology import load_network


class TestParseConfig:
    def test_grid_expansion(self):
        cfg = parse_config(
            ["sweep", "--topology", "comb:6,2", "--N", "50", "--M", "grid",
             "--schemes", "all"]
        )
        assert cfg.m_values == [0, 10, 20, 30, 40, 50]
        assert cfg.schemes == ["proposed", "routing", "cmcnc"]
        assert cfg.demand_mode == "distinct"

    def test_m_list_with_fractions(self):
        cfg = parse_config(
            ["verify", "--topology", "comb:4,2", "--N", "2", "--M", "0,2/3,4/3,2",
             "--schemes", "proposed", "--demands", "exhaustive"]
        )
        assert cfg.m_values == [0, Fraction(2, 3), Fraction(4, 3), 2]

    def test_unresolvable_topology(self):
        assert main(["topology", "--topology", "comb:3,2"]) == 2

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            parse_config(
                ["run", "--topology", "comb:4,2", "--N", "6", "--M", "2",
                 "--schemes", "bogus"]
            )

    def test_run_takes_single_scheme(self):
        with pytest.raises(ConfigError, match="single scheme"):
            parse_config(
                ["run", "--topology", "comb:4,2", "--N", "6", "--M", "2",
                 "--schemes", "proposed,routing"]
            )

    def test_exhaustive_only_for_verify(self):
        with pytest.raises(ConfigError, match="exhaustive"):
            parse_config(
                ["run", "--topology", "comb:4,2", "--N", "2", "--M", "2",
                 "--schemes", "proposed", "--demands", "exhaustive"]
            )

    def test_small_library_falls_back_from_distinct(self):
        cfg = parse_config(
            ["run", "--topology", "affine:3", "--N", "4", "--M", "0",
             "--schemes", "proposed"]
        )
        assert cfg.demand_mode == "seeded-random"

    def test_explicit_distinct_needs_enough_files(self):
        with pytest.raises(ConfigError, match="N >= K"):
            parse_config(
                ["run", "--topology", "affine:3", "--N", "4", "--M", "0",
                 "--schemes", "proposed", "--demands", "distinct"]
            )

    def test_bad_f_values(self):
        for bad in ("12", "x"):
            with pytest.raises(ConfigError, match="--F"):
                parse_config(
                    ["run", "--topology", "comb:4,2", "--N", "6", "--M", "2",
                     "--schemes", "proposed", "--F", bad]
                )

    def test_m_out_of_range(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(
                ["run", "--topology", "comb:4,2", "--N", "6", "--M", "7",
                 "--schemes", "proposed"]
            )

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(
            '{"topology": "comb:4,2", "N": 6, "M": "2", "schemes": "proposed",'
            ' "seed": 5}'
        )
        cfg = parse_config(["run", "--config", str(cfg_file)])
        assert cfg.net.K == 6
        assert cfg.m_values == [2]
        assert cfg.seed == 5

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text('{"topology": "comb:4,2", "N": 6, "M": "2", "seed": 5}')
        cfg = parse_config(
            ["sweep", "--config", str(cfg_file), "--M", "0,6", "--seed", "9"]
        )
        assert cfg.m_values == [0, 6]
        assert cfg.seed == 9

    def test_config_file_unknown_field(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text('{"topology": "comb:4,2", "banana": 1}')
        with pytest.raises(ConfigError, match="banana"):
            parse_config(["topology", "--config", str(cfg_file)])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("M", 5),
            ("schemes", 3),
            ("out", 5),
            ("topology", 7),
            ("N", True),
            ("F", 800.5),
            ("F", 800),
            ("format", "xml"),
            ("demands", "bogus"),
            ("count", "3"),
        ],
    )
    def test_config_field_needs_its_flags_type_and_choices(self, tmp_path, capsys, field, value):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({field: value}))
        code = main(["sweep", "--topology", "comb:4,2", "--N", "6", "--config", str(cfg_file)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert f"config field {field!r} must be" in record["message"]

    def test_missing_topology_everywhere(self):
        with pytest.raises(ConfigError, match="--topology is required"):
            parse_config(["topology"])


class TestTopologyCommand:
    def test_prints_and_saves(self, tmp_path, capsys):
        code = main(
            ["topology", "--topology", "comb:4,2", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "h=4 r=2 K=6 Ktilde=3" in out
        net = load_network(tmp_path / "topology.json")
        assert net.K == 6

    def test_loads_saved_file(self, tmp_path, capsys):
        main(["topology", "--topology", "affine:3", "--out", str(tmp_path)])
        code = main(["topology", "--topology", str(tmp_path / "topology.json")])
        assert code == 0
        assert "Ktilde=4" in capsys.readouterr().out


COMB42 = {
    "h": 4, "r": 2,
    "users": [[1, 2], [3, 4], [1, 3], [2, 4], [1, 4], [2, 3]],
    "classes": [[0, 1], [2, 3], [4, 5]],
}


class TestTopologyFile:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("users", [5]),
            ("classes", [0]),
            ("users", [[1, None], *COMB42["users"][1:]]),
            ("classes", [[0, 1.7], *COMB42["classes"][1:]]),
            ("users", [[1, 2], [3, "4"], *COMB42["users"][2:]]),
            # One relay of fan-in 1, and four relays of fan-in 1: valid
            # networks if true were read as 1.
            ("h", {"h": True, "r": 1, "users": [[1]], "classes": [[0]]}),
            ("r", {"h": 4, "r": True, "users": [[1], [2], [3], [4]], "classes": [[0, 1, 2, 3]]}),
        ],
        ids=["int-users", "int-classes", "null", "float", "string", "true-h", "true-r"],
    )
    def test_fields_must_have_their_types(self, tmp_path, capsys, field, value):
        data = value if field in ("h", "r") else {**COMB42, field: value}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        assert main(["topology", "--topology", str(path)]) == 2
        out, err = capsys.readouterr()
        record = json.loads(err)
        assert out == "" and record["error"] == "ValueError"
        assert record["message"].startswith(f"topology field '{field}' must be")

    def test_the_valid_base_loads(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(COMB42))
        assert main(["topology", "--topology", str(path)]) == 0
        assert "h=4 r=2 K=6 Ktilde=3" in capsys.readouterr().out


class TestRunCommand:
    def test_reports_match_and_dumps_log(self, tmp_path, capsys):
        code = main(
            ["run", "--topology", "comb:4,2", "--N", "6", "--M", "2",
             "--schemes", "proposed", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "R1=1/2" in out and "R2=1/3" in out and "decode=ok" in out
        assert (tmp_path / "run_proposed_log.json").exists()
        assert (tmp_path / "run_proposed_report.json").exists()

    def test_full_cache_has_empty_log(self, capsys):
        code = main(
            ["run", "--topology", "comb:4,2", "--N", "6", "--M", "6",
             "--schemes", "proposed"]
        )
        assert code == 0
        assert "signals=0" in capsys.readouterr().out

    def test_off_grid_m_is_config_error(self, capsys):
        code = main(
            ["run", "--topology", "comb:4,2", "--N", "6", "--M", "1",
             "--schemes", "proposed"]
        )
        assert code == 2
        assert "GridError" in capsys.readouterr().err


class TestVerifyCommand:
    def test_exhaustive_counts(self, capsys):
        code = main(
            ["verify", "--topology", "comb:4,2", "--N", "2", "--M", "2",
             "--schemes", "proposed", "--demands", "exhaustive"]
        )
        assert code == 0
        assert "64/64" in capsys.readouterr().out

    def test_exhaustive_over_cap_is_config_error(self, capsys):
        # 6^6 = 46,656 demand vectors, over EXHAUSTIVE_CAP.
        code = main(
            ["verify", "--topology", "comb:4,2", "--N", "6", "--M", "2",
             "--schemes", "proposed", "--demands", "exhaustive"]
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "BudgetError"
        assert "46656" in record["message"]

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_config_error(self, count, capsys):
        code = main(
            ["verify", "--topology", "comb:4,2", "--N", "6", "--M", "2",
             "--schemes", "proposed", "--demands", "seeded-random",
             "--count", str(count)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "demand vectors decode" not in captured.out
        record = json.loads(captured.err)
        assert record["error"] == "ConfigError"
        assert f"--count must be at least 1, got {count}" in record["message"]

    def test_count_below_one_from_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"topology": "comb:4,2", "N": 6, "count": 0}))
        code = main(
            ["verify", "--config", str(config), "--M", "2", "--schemes", "proposed",
             "--demands", "seeded-random"]
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "--count must be at least 1, got 0" in record["message"]

    def test_count_of_one_verifies_one_vector(self, capsys):
        code = main(
            ["verify", "--topology", "comb:4,2", "--N", "6", "--M", "2",
             "--schemes", "proposed", "--demands", "seeded-random", "--count", "1"]
        )
        assert code == 0
        assert "1/1 demand vectors decode" in capsys.readouterr().out

    def test_file_size_flag_sets_the_library(self, tmp_path, capsys):
        # 960 bits are 120 bytes, which r * C(Kt, t) = 6 subfiles divide;
        # auto would pick 6 bytes.
        code = main(
            ["verify", "--topology", "comb:4,2", "--N", "6", "--M", "2",
             "--schemes", "proposed", "--demands", "seeded-random", "--count", "2",
             "--F", "960", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "2/2 demand vectors decode" in capsys.readouterr().out
        (report,) = json.loads((tmp_path / "verify.json").read_text())
        assert report["file_bytes"] == 120

    def test_file_size_that_does_not_split_is_exit_2(self, capsys):
        # 800 bits are 100 bytes, not a multiple of the 6 subfiles.
        code = main(
            ["verify", "--topology", "comb:4,2", "--N", "6", "--M", "2",
             "--schemes", "proposed", "--demands", "seeded-random", "--count", "2",
             "--F", "800"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "demand vectors decode" not in captured.out
        record = json.loads(captured.err)
        assert record["error"] == "SubpacketizationError"
        assert "file size 100 bytes" in record["message"]

    def test_needs_verification_mode(self):
        with pytest.raises(ConfigError, match="verify needs"):
            parse_config(
                ["verify", "--topology", "comb:4,2", "--N", "6", "--M", "2",
                 "--schemes", "proposed", "--demands", "distinct"]
            )


class TestSweepCommand:
    def test_csv_golden_column(self, tmp_path):
        code = main(
            ["sweep", "--topology", "comb:4,2", "--N", "6", "--M", "grid",
             "--schemes", "proposed", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        r1 = {row["M"]: row["R1_formula"] for row in rows}
        assert r1 == {"0": "3/2", "2": "1/2", "4": "1/6", "6": "0"}
        for row in rows:
            assert row["R1_formula"] == row["R1_measured"]
            assert row["R2_formula"] == row["R2_measured"]
            assert row["decode_ok"] == "true"

    def test_structured_format(self, tmp_path):
        code = main(
            ["sweep", "--topology", "comb:4,2", "--N", "6", "--M", "0,6",
             "--schemes", "proposed", "--format", "structured",
             "--out", str(tmp_path)]
        )
        assert code == 0
        import json

        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload) == 2
        assert payload[0]["scheme"] == "proposed"

    def test_stdout_when_no_out(self, capsys):
        code = main(
            ["sweep", "--topology", "comb:4,2", "--N", "6", "--M", "6",
             "--schemes", "proposed"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("scheme,h,r,K")


    @pytest.mark.parametrize("scheme", ["cmcnc", "broadcast-mds"])
    def test_more_relays_than_gf256_pieces_is_budget_error(self, capsys, scheme):
        # affine(17) has 289 relays; proposed and routing run on it.
        argv = ["sweep", "--topology", "affine:17", "--N", "2", "--M", "0", "--schemes", scheme]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert json.loads(err) == {
            "error": "BudgetError",
            "message": "289 relays exceed the GF(256) limit of 255 MDS pieces",
        }


class TestCompareCommand:
    def test_ratio_row(self, capsys):
        code = main(
            ["compare", "--topology", "comb:6,2", "--N", "50", "--M", "10"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("6,2,15,5,50,10,2/3,4/15,1/91,")


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        args = ["sweep", "--topology", "comb:4,2", "--N", "6", "--M", "grid",
                "--schemes", "all", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
