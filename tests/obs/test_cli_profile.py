"""CLI surface for the phase profiler: the ``repro profile``
subcommand and its speedscope/folded exports."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_speedscope


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["profile", "Bro217"])
        assert args.target == "Bro217"
        assert args.format == "table"
        assert args.speedscope is None
        assert args.folded is None
        assert not args.validate
        assert args.backend == "serial"

    def test_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "Bro217", "--format", "xml"]
            )

    def test_help_mentions_exports(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--help"])
        helptext = capsys.readouterr().out
        assert "--speedscope" in helptext
        assert "--folded" in helptext
        assert "--validate" in helptext


class TestProfileCommand:
    ARGS = ["profile", "Bro217", "--scale", "0.05", "--trace-bytes", "4096"]

    def test_table_output_verifies_and_names_phases(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "transition" in out
        assert "identities verified" in out
        assert "hot=" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "Bro217"
        assert payload["accounted_cycles"] == (
            payload["segment_cycles"]
            + payload["cycles"]["decode"]
            + payload["cycles"]["report"]
        )
        assert payload["wall_ns"]["transition"] > 0

    def test_speedscope_export_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "profile.speedscope.json"
        assert main(self.ARGS + ["--speedscope", str(path)]) == 0
        payload = json.loads(path.read_text())
        validate_speedscope(payload)
        capsys.readouterr()
        assert main(["profile", str(path), "--validate"]) == 0
        assert "valid speedscope profile" in capsys.readouterr().out

    def test_folded_export_parses(self, capsys, tmp_path):
        path = tmp_path / "profile.folded"
        assert main(self.ARGS + ["--folded", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack.startswith("Bro217;")
            assert int(count) > 0

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"profiles": []}))
        assert main(["profile", str(bad), "--validate"]) == 1
        assert "invalid profile" in capsys.readouterr().out

    def test_unknown_target_fails(self):
        with pytest.raises(SystemExit):
            main(["profile", "NotABenchmark"])

    def test_process_backend_profile_matches_serial(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        code = main(
            self.ARGS
            + ["--format", "json", "--backend", "process", "--workers", "1"]
        )
        assert code == 0
        process = json.loads(capsys.readouterr().out)
        assert process["cycles"] == serial["cycles"]
        assert process["accounted_cycles"] == serial["accounted_cycles"]
        # Wall rows: serial from the parent's own segment spans, process
        # from the worker spans merged into the parent's tracer.
        for profile in (serial, process):
            assert profile["wall_ns"]["transition"] > 0
            for entry in profile["per_segment"]:
                assert "transition" in entry["wall_ns"]
