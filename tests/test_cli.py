"""CLI smoke tests (hardware artefacts only; training paths are covered
by the benchmarks)."""

import pytest

from repro.cli import ALL_ARTEFACTS, build_parser, main


class TestParser:
    def test_accepts_known_artefacts(self):
        parser = build_parser()
        args = parser.parse_args(["tab1", "tab3"])
        assert args.artefacts == ["tab1", "tab3"]

    def test_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["tab99"])

    def test_all_artefacts_have_runners(self):
        from repro.cli import _RUNNERS

        assert set(ALL_ARTEFACTS) == set(_RUNNERS)

    def test_defaults(self):
        args = build_parser().parse_args(["tab1"])
        assert args.timesteps == 8
        assert args.width == 0.125
        assert args.engine == "dense"
        assert args.workers == 1
        assert args.shard_mode == "auto"
        assert args.profile is False

    def test_batched_engine_and_workers(self):
        args = build_parser().parse_args(
            ["fig7", "--engine", "batched", "--workers", "2"]
        )
        assert args.engine == "batched"
        assert args.workers == 2

    def test_auto_engine_profile_and_shard_mode(self):
        args = build_parser().parse_args(
            ["fig9", "--engine", "auto", "--shard-mode", "thread", "--profile"]
        )
        assert args.engine == "auto"
        assert args.shard_mode == "thread"
        assert args.profile is True

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--engine", "warp"])

    def test_rejects_unknown_shard_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--shard-mode", "quantum"])

    def test_unknown_engine_error_lists_valid_choices(self, capsys):
        """A bad --engine dies at the parser with every valid backend
        spelled out — not as a traceback from the engine factory."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig7", "--engine", "warp"])
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        err = capsys.readouterr().err
        assert "invalid choice" in err
        for name in ("dense", "event", "batched", "auto"):
            assert name in err

    def test_unknown_shard_mode_error_lists_valid_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig7", "--shard-mode", "quantum"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for mode in ("auto", "fork", "thread"):
            assert mode in err

    def test_engine_choices_track_registry(self):
        """The CLI accepts exactly the engine registry — the five
        canonical names — so a new backend never needs a second
        hand-maintained list."""
        from repro.cli import ENGINE_CHOICES
        from repro.snn.engines import ENGINES

        assert set(ENGINE_CHOICES) == set(ENGINES) == {
            "auto", "batched", "dense", "event", "event-batched",
        }
        args = build_parser().parse_args(["fig7", "--engine", "event-batched"])
        assert args.engine == "event-batched"

    def test_shard_mode_choices_track_registry(self):
        from repro.snn.engines.sharding import SHARD_MODES

        parser = build_parser()
        for mode in SHARD_MODES:
            assert parser.parse_args(["fig7", "--shard-mode", mode]).shard_mode == mode

    def test_input_format_flag(self):
        args = build_parser().parse_args(["fig8", "--input-format", "events"])
        assert args.input_format == "events"
        assert build_parser().parse_args(["fig8"]).input_format == "frames"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--input-format", "holograms"])


class TestCampaignParser:
    def test_kind_and_out_required(self):
        from repro.cli import build_campaign_parser

        parser = build_campaign_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["faults"])  # missing --out
        with pytest.raises(SystemExit):
            parser.parse_args(["bogus", "--out", "x"])
        args = parser.parse_args(["faults", "--out", "runs/f"])
        assert args.kind == "faults"
        assert args.out == "runs/f"

    def test_defaults(self):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(["dse", "--out", "x"])
        assert args.workers == 1
        assert args.mode == "serial"
        assert args.max_points is None
        assert args.retries == 1
        assert args.trials == 2
        assert 1e-3 in args.rates

    def test_list_flags_parse(self):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args(
            ["dse", "--out", "x", "--pe", "4,8", "--clock", "50,100",
             "--rates", "0.001,0.01", "--max-points", "2"]
        )
        assert args.pe == [4, 8]
        assert args.clock == [50.0, 100.0]
        assert args.rates == [0.001, 0.01]
        assert args.max_points == 2

    def test_rejects_empty_list(self):
        from repro.cli import build_campaign_parser

        with pytest.raises(SystemExit):
            build_campaign_parser().parse_args(["dse", "--out", "x", "--pe", ","])


class TestCampaignCommand:
    def test_dse_campaign_kill_and_resume(self, tmp_path, capsys):
        from repro.cli import EXIT_CAMPAIGN_INCOMPLETE

        out = str(tmp_path / "dse")
        argv = ["campaign", "dse", "--out", out,
                "--pe", "4,8", "--bn-lanes", "8", "--clock", "50,100"]
        # Simulated kill: stop after 2 of 4 points.
        assert main(argv + ["--max-points", "2"]) == EXIT_CAMPAIGN_INCOMPLETE
        assert "INCOMPLETE" in capsys.readouterr().out
        # Resume completes the remaining points and exits 0.
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "4/4 points complete" in text
        assert "8x8PE/8BN@100MHz" in text

    def test_campaign_dispatch_does_not_shadow_artefacts(self, capsys):
        # Regular artefact parsing still works after the dispatch hook.
        assert main(["tab3"]) == 0
        assert "Table III" in capsys.readouterr().out


class TestHardwareArtefacts:
    def test_tab1(self, capsys):
        assert main(["tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "FC (512)" in out

    def test_tab2(self, capsys):
        assert main(["tab2"]) == 0
        out = capsys.readouterr().out
        assert "11x11" in out

    def test_tab3(self, capsys):
        assert main(["tab3"]) == 0
        out = capsys.readouterr().out
        assert "BRAM" in out
        assert "95" in out

    def test_tab4(self, capsys):
        assert main(["tab4"]) == 0
        out = capsys.readouterr().out
        assert "This Work" in out
        assert "DSP-efficiency" in out

    def test_asic(self, capsys):
        assert main(["asic"]) == 0
        out = capsys.readouterr().out
        assert "192" in out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "8x8PE/16BN@100MHz" in out
        assert "Pareto" in out or "pareto" in out

    def test_multiple_and_dedup(self, capsys):
        assert main(["tab3", "tab3", "asic"]) == 0
        out = capsys.readouterr().out
        assert out.count("Table III") == 1

    def test_all_skip_training(self, capsys):
        assert main(["all", "--skip-training"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "Fig. 7" not in out
