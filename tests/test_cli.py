"""Command-line interface: parsing, reports, formats, exit codes."""

import io
import json
import contextlib
import math
import subprocess
import sys

import numpy as np
import pytest

from unsteer import ParseError, __version__
from unsteer.cli import (
    _SOURCES,
    CommandSpec,
    build_parser,
    dumps_deterministic,
    format_float,
    main,
    render_text,
    run,
)
from unsteer.decompose import UNDECIDED, CaseTrace, Certificate, _TraceEntry
from unsteer.rac import MIN_STEP

UNIFORM_BOX = '{"n": 2, "p": ' + json.dumps(np.full((2, 2, 2, 2), 0.25).tolist()) + "}"


def run_cli(argv):
    """Invoke main() in-process, capturing (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_inline_triple(self):
        """Comma-separated components parse into params."""
        p = _SOURCES["c"]("0.5,0.5,0")
        assert (p.c1, p.c2, p.c3) == (0.5, 0.5, 0.0)

    def test_inline_json(self):
        """Inline JSON objects with a c field parse."""
        p = _SOURCES["state"]('{"c": [0.5, 0.5, 0]}')
        assert (p.c1, p.c2, p.c3) == (0.5, 0.5, 0.0)

    def test_file_input(self, tmp_path):
        """A JSON file with a c field parses."""
        f = tmp_path / "state.json"
        f.write_text('{"c": [0.6, 0.4, -0.2]}')
        p = _SOURCES["state"](str(f))
        assert (p.c1, p.c2, p.c3) == (0.6, 0.4, -0.2)

    def test_unphysical_rejected(self):
        """(0.9, 0.9, 0.9) fails validation at parse time."""
        from unsteer import UnphysicalParams

        with pytest.raises(UnphysicalParams):
            _SOURCES["c"]("0.9,0.9,0.9")

    def test_garbage_rejected(self):
        """Nonsense input raises a parse error."""
        from unsteer import ParseError

        with pytest.raises(ParseError):
            _SOURCES["c"]("not,a")
        with pytest.raises(ParseError):
            _SOURCES["state"]('{"c": "nope"}')


class TestFormatting:
    def test_floats_are_17_digits_and_signless_zero(self):
        """Floats serialize at 17 significant digits with -0.0 normalized."""
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(-0.0) == "0"
        assert format_float(0.1 + 0.2) == "0.30000000000000004"

    def test_dumps_is_sorted_and_compact(self):
        """Keys sorted, no whitespace, arrays inline."""
        doc = {"b": [1.0, 2.0], "a": {"y": True, "x": None}}
        assert dumps_deterministic(doc) == '{"a":{"x":null,"y":true},"b":[1,2]}'

    def test_dumps_matches_the_recursive_json_dumps_serializer(self):
        """Strings, keys included, are quoted byte for byte as the former
        serializer quoted them with json.dumps(..., ensure_ascii=False):
        non-ASCII kept, control characters, quotes and backslashes escaped."""

        def reference(obj):
            if isinstance(obj, np.ndarray):
                obj = obj.tolist()
            if isinstance(obj, float):
                return format_float(obj)
            if isinstance(obj, dict):
                items = sorted(obj.items(), key=lambda kv: str(kv[0]))
                body = ",".join(
                    f"{json.dumps(str(k), ensure_ascii=False)}:{reference(v)}"
                    for k, v in items
                )
                return "{" + body + "}"
            if isinstance(obj, (list, tuple)):
                return "[" + ",".join(reference(v) for v in obj) + "]"
            return json.dumps(obj, ensure_ascii=False)

        odd = ["", "ψ⊗φ", "日本", "\x00\x01\x1f\x7f", "tab\tnl\ncr\r", 'q"b\\s/',
               "\u2028\u2029", "😀", "\ud800"]
        doc = {
            **dict(zip(odd, reversed(odd))),
            "nested": [{"ü": [None, True, False, 0, -3, 1.5, "\x1b[0m"]}, (odd, {})],
            "array": np.array([[0.25, -0.0], [1e-300, 3.0]]),
            7: "int key",
        }
        assert dumps_deterministic(doc) == reference(doc)
        assert json.loads(dumps_deterministic(doc))["ψ⊗φ"] == "😀"
        for value in odd:
            assert dumps_deterministic(value) == json.dumps(value, ensure_ascii=False)
        with pytest.raises(TypeError):
            dumps_deterministic(object())

    def test_render_text_flattens(self):
        """Dotted keys, 4 significant digits, long lists elided."""
        from unsteer.cli import Report

        report = Report("demo", {}, {"a": {"b": 0.123456}, "c": list(range(30))})
        text = render_text(report)
        assert "a.b: 0.1235" in text
        assert "c: <30 items>" in text


class TestExitCodes:
    def test_success(self):
        """A valid invocation exits 0."""
        code, out, err = run_cli(["state", "--c", "0.5,0.5,0"])
        assert code == 0
        assert json.loads(out)["command"] == "state"

    def test_validation_failure(self):
        """Unphysical input exits 2 with a diagnostic on stderr."""
        code, out, err = run_cli(["state", "--c", "0.9,0.9,0.9"])
        assert code == 2
        assert "error:" in err and "lambda" in err
        assert out == ""

    def test_argparse_failure(self):
        """Unknown subcommands exit 2."""
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_missing_input(self):
        """A command with no input source exits 2."""
        code, _, err = run_cli(["certify"])
        assert code == 2
        assert "exactly one input source" in err

    def test_conflicting_inputs(self):
        """Passing both --c and --state exits 2."""
        code, _, err = run_cli(
            ["state", "--c", "0.5,0.5,0", "--state", '{"c":[0.5,0.5,0]}']
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, count",
        [(["state", "--c", "0.5,0.5"], 2), (["rac", "--c", "0.5,0.5,0,0"], 4)],
    )
    def test_triple_with_wrong_component_count(self, argv, count):
        """Comma-separated numbers other than three are a malformed triple,
        exit 2, not a state file that cannot be read."""
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert f"has {count} components, expected 3" in err
        assert "cannot read" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--c", "0.5"],
            ["state", "--c", "0.5,"],
            ["state", "--c", ",0.5"],
            ["state", "--c=-0.2"],
            ["state", "--c", "nan"],
            ["state", "--c", '{"c": [0.5, 0.5, 0]}'],
        ],
    )
    def test_lone_number_is_malformed_triple(self, argv):
        """A lone number, a triple with an empty component, or inline JSON
        after --c is a malformed triple, exit 2, not a state file that cannot
        be read or a state."""
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "inline triple" in err
        assert "cannot read" not in err and "Traceback" not in err

    def test_state_path_with_comma(self, tmp_path):
        """--state is only JSON or a path, so a path holding commas is read
        as a file, not as an inline triple."""
        target = tmp_path / "a,b" / "s,t.json"
        target.parent.mkdir()
        target.write_text('{"c": [0.5, 0.4, -0.3]}')
        code, out, _ = run_cli(["state", "--state", str(target)])
        assert code == 0
        assert out == run_cli(["state", "--c", "0.5,0.4,-0.3"])[1]

    def test_state_flag_is_not_a_triple(self):
        """--state never reads an inline triple; a triple there is a path."""
        code, out, err = run_cli(["state", "--state", "0.5,0.5,0"])
        assert code == 2 and out == ""
        assert "cannot read state file" in err

    def test_missing_file(self):
        """A nonexistent box file exits 2, not 1."""
        code, _, err = run_cli(["box", "--box", "/nonexistent/box.json"])
        assert code == 2
        assert "cannot read box file" in err

    @pytest.mark.parametrize("flag, what", [("--state", "state"), ("--box", "box")])
    def test_non_utf8_file(self, tmp_path, flag, what):
        """An input file that is not UTF-8 is a named read error, exit 2."""
        target = tmp_path / "input.json"
        target.write_bytes(b'{"c": [0.5, 0.5, 0]}\xff')
        code, out, err = run_cli(["certify", flag, str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {what} file")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("where", ["directory", "under_file"])
    def test_unwritable_out(self, tmp_path, where):
        """An --out path that is a directory, or lies under a regular file,
        is a named write error, exit 2, with nothing on stdout."""
        (tmp_path / "file").write_text("")
        target = tmp_path if where == "directory" else tmp_path / "file" / "report.json"
        code, out, err = run_cli(["rac", "--c", "0.5,0.5,0", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write report file")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["rac", "--c", "nan,nan,nan"],
            ["rac", "--n", "3", "--c", "nan,0,0"],
            ["state", "--c", "inf,inf,-inf"],
        ],
    )
    def test_non_finite_triple(self, argv):
        """A NaN or infinite component is a named validation error, exit 2."""
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "must be finite" in err and "internal error" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1e-13"])
    def test_bad_tolerance(self, tol):
        """--tol must be finite and at least 1e-12: reports echo it, so a NaN
        would be written as the invalid JSON token nan, and below 1e-12 a
        residual proof would compare float rounding against zero."""
        code, out, err = run_cli(["certify", "--c", "0.5,0.5,0", "--tol", tol])
        assert code == 2
        assert out == ""
        assert "error: tol must be finite" in err

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "1.5", "5e-324", "1e-4"])
    def test_bb84_step_domain(self, step):
        """bb84 --step lies in [MIN_STEP, 1]: 0 would divide by zero, a
        negative step would print an empty grid, and 5e-324 overflows the
        grid size."""
        code, out, err = run_cli(["bb84", "--step", step])
        assert code == 2
        assert out == ""
        assert f"error: step must lie in [{MIN_STEP}, 1]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["box", "--box", "box.json", "--n", "3"],
            ["box", "--box", "box.json", "--dim", "3"],
            ["box", "--box", "box.json", "--tol", "1e-6"],
            ["rac", "--c", "0.5,0.5,0", "--dim", "3"],
            ["rac", "--c", "0.5,0.5,0", "--tol", "1e-6"],
            ["sweep", "--dim", "3"],
            ["sweep", "--tol", "1e-6"],
            ["bb84", "--n", "3"],
        ],
    )
    def test_unread_flag_rejected(self, argv):
        """A flag the command would ignore is a usage error, not a report."""
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("step", ["5e-324", "1e-4", "0.2"])
    def test_sweep_step_domain(self, step):
        """sweep --step lies in [MIN_STEP, 0.1]; 5e-324 overflowed the grid
        size and 1e-4 would build 10^11 rows."""
        code, out, err = run_cli(["sweep", "--n", "3", "--step", step])
        assert code == 2
        assert out == ""
        assert f"error: step must lie in [{MIN_STEP}, 0.1]" in err


# Each command's numeric flags, and the arguments that make the rest of its
# invocation valid and light; a flag given after them overrides them.
NUMERIC_FLAGS = {
    "state": (("n", "dim", "tol"), ["--c", "0.5,0.4,-0.3"]),
    "certify": (("n", "dim", "tol"), ["--c", "0.5,0.4,-0.3"]),
    "rac": (("n",), ["--c", "0.5,0.4,-0.3"]),
    "sweep": (("n", "step"), ["--step", "0.1"]),
    "bb84": (("dim", "tol", "v", "step"), ["--step", "0.25"]),
}
ODD_VALUES = ("nan", "inf", "-inf", "0", "-0.0", "-1", "1e300", "1e-320", "", "abc")
EXTREME_TRIPLES = (
    "1e300,0,0",
    "1e-320,1e-320,-1e-320",
    "-0.0,-0.0,-0.0",
    "1,1,-1",
    "-1,-1,-1",
    "1,-1,1",
    "0,0,1",
    "1,1,1",
)
ODD_BOXES = (
    "[]",
    '{"n": 2, "p": "x"}',
    '{"n": true, "p": []}',
    UNIFORM_BOX.replace('"n": 2', '"n": 2.0'),
    UNIFORM_BOX.replace("0.25", "NaN", 1),
    '{"n": 3, "p": [[[[1e300]]]]}',
    UNIFORM_BOX.replace("0.25", '"0.25"', 1),
    UNIFORM_BOX.replace("0.25", "true", 1),
)
# State JSON whose "c" holds strings or booleans where numbers belong.
ODD_STATES = (
    '{"c": ["0.5", true, "-0"]}',
    '{"c": [0.5, 0.4, true]}',
    '{"c": ["0.5", "0.4", "-0.3"]}',
)
# An integer beyond the float range, which float() cannot convert.
HUGE_INT = "1" + "0" * 400
# Every JSON input whose numbers are not all numbers, and the error it must name.
NON_NUMBER_JSON = {
    "state-strings": (["state", "--state", ODD_STATES[0]], '"c" is a list of three numbers'),
    "rac-bool": (["rac", "--n", "3", "--state", ODD_STATES[1]], '"c" is a list of three numbers'),
    "rac-huge-int": (
        ["rac", "--state", '{"c": [%s, 0, 0]}' % HUGE_INT],
        '"c" is a list of three numbers',
    ),
    "certify-string": (
        ["certify", "--n", "2", "--dim", "2", "--box", ODD_BOXES[-2]],
        '"p" is not a numeric array',
    ),
    "box-bool": (["box", "--box", ODD_BOXES[-1]], '"p" is not a numeric array'),
    "box-huge-int": (
        ["box", "--box", UNIFORM_BOX.replace("0.25", HUGE_INT, 1)],
        '"p" is not a numeric array',
    ),
}
# Canonical components small enough that 1/c or 1/c^2 overflows.
TINY_TRIPLE_ARGV = tuple(
    [command, *n, f"--c={triple}"]
    for command, n, triples in (
        ("rac", ["--n", "3"], ("1e-320,1e-320,-1e-320", "1e-200,1e-200,-1e-200", "0.5,1e-320,-1e-320")),
        ("state", [], ("1e-160,1e-160,-1e-160", "1e-320,1e-320,-1e-320")),
    )
    for triple in triples
)
# Inclusive ends of the step ranges, light enough to run; sweep's MIN_STEP is not.
BOUNDARY_ARGV = (
    ["sweep", "--n", "3", "--step=0.1"],
    ["bb84", f"--step={MIN_STEP}"],
    ["bb84", "--step=1"],
)
ARGV_GRID = (
    [
        [command, *base, f"--{flag}={value}"]
        for command, (flags, base) in NUMERIC_FLAGS.items()
        for flag in flags
        for value in ODD_VALUES
    ]
    + [
        [command, *n, f"--c={triple}"]
        for triple in EXTREME_TRIPLES
        for command, n in (("state", []), ("certify", []), ("rac", ["--n", "3"]))
    ]
    + [[command, "--box", box] for box in ODD_BOXES for command in ("box", "certify")]
    + [
        [command, *n, "--state", state]
        for state in ODD_STATES
        for command, n in (("state", []), ("rac", ["--n", "3"]))
    ]
    + list(BOUNDARY_ARGV)
)


class TestArgvGrid:
    @pytest.mark.parametrize("argv", ARGV_GRID, ids=" ".join)
    def test_exit_zero_or_two(self, argv):
        """Odd numbers, empty and non-numeric text in every numeric flag, and
        extreme triples and boxes, end in a parsable report (exit 0) or a
        named error (exit 2), never in a traceback or an internal error."""
        code, out, err = run_cli(argv)
        assert code in (0, 2), err
        assert "Traceback" not in err and "internal error" not in err
        if code == 2:
            assert out == ""
        elif argv[0] == "sweep":
            lines = out.splitlines()
            assert lines[0] == "c1,c2,c3,separable,strength_n,efficiency_n,discord"
            assert len(lines) > 1 and all(line.count(",") == 6 for line in lines)
        else:
            assert json.loads(out)["command"] == argv[0]

    @pytest.mark.parametrize("argv, message", NON_NUMBER_JSON.values(), ids=NON_NUMBER_JSON)
    def test_json_non_numbers_rejected(self, argv, message):
        """JSON strings, booleans and integers beyond the float range where
        a number belongs exit 2 with the input's named error; float() would
        read "0.5" and true as numbers, and overflow on the integer."""
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert message in err and "internal error" not in err

    @pytest.mark.parametrize("argv", TINY_TRIPLE_ARGV, ids=" ".join)
    def test_tiny_components_report_without_warnings(self, argv):
        """Physical triples with tiny or subnormal components get a report,
        in an interpreter that turns every warning into an error."""
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "unsteer", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == argv[0]


class TestStateCommand:
    def test_report_blocks(self):
        """The state report carries spectra, splits, RAC data, certificate."""
        code, out, _ = run_cli(["state", "--c", "0.5,0.5,0"])
        doc = json.loads(out)
        r = doc["results"]
        assert r["eigenvalues"] == [0.25, 0.5, 0.25, 0.0]
        assert r["separable"] is True
        assert r["discord"] == pytest.approx(0.125)
        assert r["strength"]["n2"] == 0.5
        assert r["certificate"]["verdict"] == "SUPERUNSTEERABLE"
        assert r["rac"]["efficiency_n2"] == pytest.approx(0.6767766952966369)
        assert doc["version"] == __version__

    def test_positive_c3_skips_three_setting_split(self):
        """When the canonical c3 is positive the 3-split is marked skipped."""
        code, out, _ = run_cli(["state", "--c", "0.4,0.3,0.2"])
        r = json.loads(out)["results"]
        assert r["splits"]["n3"] is None
        assert "three-setting split undefined" in r["splits"]["n3_skipped_reason"]

    @pytest.mark.parametrize("c3, has_split", [("1e-12", True), ("2e-12", False)])
    def test_three_setting_split_threshold(self, c3, has_split):
        """The report reads the library's c3 threshold, ATOL_CANONICAL: the
        split is present exactly when canonical_split_3set accepts."""
        code, out, _ = run_cli(["state", "--c", f"0.3,0.3,{c3}"])
        splits = json.loads(out)["results"]["splits"]
        assert code == 0
        assert (splits["n3"] is not None) == has_split
        assert ("n3_skipped_reason" in splits) != has_split

    def test_canonicalization_recorded(self):
        """Non-canonical input records the transform steps."""
        code, out, _ = run_cli(["state", "--c=-0.2,0.6,0.4"])
        r = json.loads(out)["results"]
        assert r["canonical"]["params"] == [0.6, 0.4, -0.2]
        assert len(r["canonical"]["transform"]) >= 1


class TestOtherCommands:
    def test_box_command(self):
        """box reports correlators, functional, and estimated params."""
        code, out, _ = run_cli(["box", "--box", UNIFORM_BOX])
        r = json.loads(out)["results"]
        assert code == 0
        assert r["functional"] == 0.0
        assert r["estimated_params"] == [0.0, 0.0, 0.0]

    def test_certify_command(self):
        """certify emits verdict and dimension."""
        code, out, _ = run_cli(["certify", "--c", "0.5,0.5,0", "--dim", "2"])
        r = json.loads(out)["results"]
        assert r["verdict"] == "SUPERUNSTEERABLE"
        assert r["d_A"] == 2

    def test_rac_command(self):
        """rac reports bounds, efficiency, and an exact simulation."""
        code, out, _ = run_cli(["rac", "--c", "0.5,0.5,0", "--n", "2"])
        r = json.loads(out)["results"]
        assert r["beats_classical"] is True
        assert r["simulation"]["deviation_from_closed_form"] <= 1e-12

    def test_rac_degenerate_axis_is_reported_not_fatal(self):
        """A vanishing axis skips simulation with a reason, exit 0."""
        code, out, _ = run_cli(["rac", "--c", "0.5,0,0", "--n", "2"])
        r = json.loads(out)["results"]
        assert code == 0
        assert r["simulation"] is None
        assert "axis" in r["simulation_skipped_reason"]

    def test_bb84_single_v(self):
        """bb84 --v reports one row with the four curve values."""
        code, out, _ = run_cli(["bb84", "--v", "0.9"])
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 1
        assert rows[0]["functional"] == pytest.approx(1.2727922061357857)
        assert rows[0]["cost"] == pytest.approx(0.6585786437626907)
        assert rows[0]["verdict"] == "WITNESSED_STEERABLE"

    def test_bb84_grid_csv(self):
        """bb84 --step emits the csv header and one line per grid point."""
        code, out, _ = run_cli(["bb84", "--step", "0.5", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "v,functional,cost,strength,verdict"
        assert len(lines) == 4  # v = 0, 0.5, 1
        assert lines[-1].endswith("WITNESSED_STEERABLE")

    def test_sweep_csv_default(self):
        """sweep defaults to csv with the mandated header."""
        code, out, _ = run_cli(["sweep", "--n", "2", "--step", "0.1"])
        lines = out.strip().splitlines()
        assert lines[0] == "c1,c2,c3,separable,strength_n,efficiency_n,discord"
        assert len(lines) > 50

    def test_sweep_json(self):
        """sweep --format json reports maximizers and the witness pair."""
        code, out, _ = run_cli(["sweep", "--n", "2", "--step", "0.1", "--format", "json"])
        r = json.loads(out)["results"]
        assert r["strength_max"]["params"] == [0.5, 0.5, 0.0]
        assert r["witness_pair"] is not None

    def test_bb84_grid_ends_at_one(self):
        """A step that does not divide 1 still evaluates V = 1 last."""
        code, out, _ = run_cli(["bb84", "--step", "0.03"])
        v = [row["v"] for row in json.loads(out)["results"]["rows"]]
        assert code == 0
        assert len(v) == 35
        assert v[:34] == [i * 0.03 for i in range(34)]
        assert v[-1] == 1.0

    def test_sweep_rows_in_every_format(self):
        """json and text carry every sweep row; csv has one line per row."""
        argv = ["sweep", "--n", "3", "--step", "0.05"]
        _, csv_text, _ = run_cli(argv)
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        _, json_text, _ = run_cli(argv + ["--format", "json"])
        results = json.loads(json_text)["results"]
        assert results["count"] == len(results["rows"]) == len(rows) > 0
        assert results["rows"] == [
            [float(r[0]), float(r[1]), float(r[2]), True, *map(float, r[4:])]
            for r in rows
        ]
        _, text, _ = run_cli(argv + ["--format", "text"])
        assert f"count: {len(rows)}" in text.splitlines()
        assert f"rows: <{len(rows)} items>" in text.splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--c", "0.5,0.5,0"],
            ["box", "--box", UNIFORM_BOX],
            ["certify", "--c", "0.5,0.5,0"],
            ["rac", "--c", "0.5,0.5,0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_rejected_elsewhere(self, argv):
        """--format csv is a choice only for sweep and bb84; elsewhere it is
        a usage error, raised before any analysis runs."""
        code, out, err = run_cli(argv + ["--format", "csv"])
        assert code == 2
        assert out == ""
        assert "invalid choice: 'csv'" in err and "Traceback" not in err


def as_plain(obj):
    """A copy of a report with every dict a plain dict."""
    if isinstance(obj, dict):
        return {key: as_plain(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_plain(value) for value in obj]
    return obj


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--c", "0.6,0.4,-0.2"],
            ["box", "--box", UNIFORM_BOX],
            ["certify", "--c", "0.5,0.5,0"],
            ["rac", "--n", "3", "--c", "0.6,0.5,-0.4"],
            ["sweep", "--n", "2", "--step", "0.1"],
            ["bb84", "--step", "0.25"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_run_matches_main(self, argv):
        """run(spec), serialized, is exactly main's JSON report."""
        argv = argv + ["--format", "json"]
        spec = CommandSpec(**vars(build_parser().parse_args(argv)))
        _, out, _ = run_cli(argv)
        assert dumps_deterministic(run(spec).to_json_dict()) + "\n" == out

    @pytest.mark.parametrize("n, d", [(n, d) for n in (2, 3) for d in range(1, 2**n + 1)])
    def test_trace_through_the_c_encoder_matches_the_walk(self, n, d):
        """A certificate's trace, all read-only entries, serializes through
        json.dumps to exactly the bytes the walk gives its plain copy: in
        certify and state reports at every (n, d) (a diagonal-norm trace at
        every d), and in a certificate with a phase-1 head."""
        for command in ("certify", "state"):
            argv = [command, "--c=1,0.3,-0.3", "--n", str(n), "--dim", str(d)]
            doc = run(CommandSpec(**vars(build_parser().parse_args(argv)))).to_json_dict()
            cert = doc["results"] if command == "certify" else doc["results"]["certificate"]
            assert cert["trace"] and {type(e) for e in cert["trace"]} == {_TraceEntry}
            _, out, _ = run_cli(argv)
            assert out == dumps_deterministic(as_plain(doc)) + "\n" == dumps_deterministic(doc) + "\n"
        head = ("negative_weight", "reconstruction_residual") * (math.comb(2**n + d - 1, d) // 2)
        doc = Certificate(UNDECIDED, d, 0.5, None, CaseTrace(n, d, head, "unresolved")).to_json_dict()
        assert dumps_deterministic(doc) == dumps_deterministic(as_plain(doc))

    def test_only_an_all_entry_list_takes_the_encoder(self):
        """A list mixing entries with plain dicts, in either order, goes
        through the walk, which formats every float with format_float."""
        entry, plain = _TraceEntry(case="c", violated="v"), {"case": "c", "violated": 1 / 3}
        for doc in ([entry, plain], [plain, entry]):
            out = dumps_deterministic(doc)
            assert f'"violated":{format_float(1 / 3)}' in out
            assert out == dumps_deterministic(as_plain(doc))

    def test_run_rejects_unknown_command(self):
        """A spec naming no command is a parse error, not a crash."""
        with pytest.raises(ParseError, match="unknown command 'nope'"):
            run(CommandSpec("nope"))

    @pytest.mark.parametrize(
        "spec, flag",
        [
            (CommandSpec("rac", box=UNIFORM_BOX), "--box"),
            (CommandSpec("box", c="0.5,0.5,0"), "--c"),
        ],
        ids=["rac", "box"],
    )
    def test_run_rejects_unread_source(self, spec, flag):
        """run() checks the input source against the command table, which
        argparse hides from main."""
        with pytest.raises(ParseError, match=f"does not accept {flag}$"):
            run(spec)

    def test_byte_identical_reports(self):
        """Two runs of the same invocation produce identical bytes."""
        for argv in (
            ["state", "--c", "0.6,0.4,-0.2"],
            ["certify", "--c", "0.5,0.5,0"],
            ["sweep", "--n", "3", "--step", "0.1"],
            ["bb84", "--step", "0.25"],
        ):
            _, first, _ = run_cli(argv)
            _, second, _ = run_cli(argv)
            assert first == second, argv

    def test_out_file_matches_stdout(self, tmp_path):
        """--out writes exactly the bytes that stdout would carry, on the
        report path and on the sweep csv path."""
        for argv, name in (
            (["certify", "--c", "0.5,0.5,0"], "report.json"),
            (["sweep", "--n", "2", "--step", "0.05"], "nested/sweep.csv"),
        ):
            _, stdout_text, _ = run_cli(argv)
            target = tmp_path / name
            code, out, _ = run_cli(argv + ["--out", str(target)])
            assert code == 0
            assert out == ""
            assert target.read_text() == stdout_text

    def test_success_writes_nothing_to_stderr(self):
        """A successful command prints no timing or other line to stderr."""
        code, out, err = run_cli(["state", "--c", "0.5,0.5,0"])
        assert code == 0
        assert out
        assert err == ""

    def test_subprocess_matches_inprocess(self):
        """The installed console script emits the same bytes as main()."""
        _, expected, _ = run_cli(["bb84", "--v", "0.5"])
        proc = subprocess.run(
            [sys.executable, "-m", "unsteer", "bb84", "--v", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_version_flag(self):
        """--version prints the package version and exits 0."""
        code, out, _ = run_cli(["--version"])
        assert code == 0
        assert out.strip() == f"unsteer {__version__}"
