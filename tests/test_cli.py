"""End-to-end CLI tests: every subcommand, the exit-code contract, JSON
schema validity of each output, and load-fixture round trips."""

import json
from fractions import Fraction

import pytest
from jsonschema import validate as js_validate

from scaletop import jsonio
from scaletop.cli import main
from scaletop.continuity import ContinuityMode, ScaledMap
from scaletop.exactnum import ExactNumber
from scaletop.finite_topology import sierpinski
from scaletop.fixtures import FIXTURE_NAMES, load_fixture
from scaletop.interval_continuity import iw_check_continuity
from scaletop.intervals import Carrier, Interval, LineSet, SheetPoint, SheetSet
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap
from scaletop.scales import trivial_scale


def run_cli(capsys, *argv):
    code = main(["--quiet", *argv])
    out = capsys.readouterr().out
    return code, out


def one_doc(out: str) -> dict:
    return json.loads(out)


EXACT_SCHEMA = {
    "type": "object",
    "properties": {"a": {"type": "string"}, "b": {"type": "string"}},
    "required": ["a", "b"],
}

GAPS_SCHEMA = {
    "type": "object",
    "properties": {
        "gaps": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "point": {"type": "object"},
                    "gap": EXACT_SCHEMA,
                },
                "required": ["point", "gap"],
            },
        },
        "within_threshold": {"type": "boolean"},
    },
    "required": ["gaps"],
}

CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "holds": {"type": "boolean"},
        "mode": {"type": "object"},
    },
    "required": ["holds", "mode", "certificate"],
}

VERIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "property": {"type": "string"},
        "tested": {"type": "integer"},
        "skipped": {"type": "integer"},
        "verdict": {"enum": ["CONFIRMED_ON_SWEEP", "COUNTEREXAMPLE_FOUND"]},
        "violations": {"type": "array"},
    },
    "required": ["property", "config", "tested", "skipped", "verdict", "violations"],
}

VALIDATE_SCHEMA = {
    "type": "object",
    "properties": {"valid": {"type": "boolean"}},
    "required": ["valid", "code", "message"],
}


@pytest.fixture
def fixture_file(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps(jsonio.interval_scaled_map_to_json(load_fixture(name)))
        )
        return str(path)

    return write


def test_fixtures_subcommand_roundtrip(capsys):
    for name in FIXTURE_NAMES:
        code, out = run_cli(capsys, "fixtures", "--name", name)
        assert code == 0
        doc = one_doc(out)
        assert jsonio.interval_scaled_map_from_json(doc) == load_fixture(name)


def test_fixtures_unknown_name(capsys):
    code = main(["--quiet", "fixtures", "--name", "ex99"])
    assert code == 2


def test_gaps_within_threshold(capsys, fixture_file):
    code, out = run_cli(
        capsys, "gaps", "--fn", fixture_file("ex17-f"), "--threshold", "1/10"
    )
    assert code == 0
    doc = one_doc(out)
    js_validate(doc, GAPS_SCHEMA)
    assert doc["gaps"] == [
        {
            "point": {"sheet": 0, "x": {"a": "1", "b": "0"}},
            "gap": {"a": "1/11", "b": "0"},
        }
    ]
    assert doc["within_threshold"] is True


def test_gaps_exceeding_threshold_exits_1(capsys, fixture_file):
    code, out = run_cli(
        capsys, "gaps", "--fn", fixture_file("ex17-ff"), "--threshold", "1/10"
    )
    assert code == 1
    doc = one_doc(out)
    assert doc["within_threshold"] is False
    assert doc["witnesses"][0]["gap"] == {"a": "21/121", "b": "0"}


def test_check_local_and_global(capsys, fixture_file):
    path = fixture_file("ex12")
    code, out = run_cli(capsys, "check", "--map", path, "--mode", "local-strong")
    assert code == 0
    doc = one_doc(out)
    js_validate(doc, CHECK_SCHEMA)
    assert doc["holds"] is True

    code, out = run_cli(capsys, "check", "--map", path, "--mode", "global-strong")
    assert code == 1
    doc = one_doc(out)
    assert doc["holds"] is False
    assert doc["certificate"] is not None  # exit 1 comes with a certificate


def test_check_at_point(capsys, fixture_file):
    path = fixture_file("ex13")
    code, out = run_cli(
        capsys, "check", "--map", path, "--mode", "at-strong", "--at", "0"
    )
    assert code == 1
    code, out = run_cli(
        capsys, "check", "--map", path, "--mode", "at-strong", "--at", "sqrt2"
    )
    assert code == 1
    doc = one_doc(out)
    assert doc["certificate"] is not None


@pytest.mark.parametrize("x", [
    ExactNumber(Fraction(1, 2), Fraction(1, 3)),
    ExactNumber(Fraction(-1, 2), Fraction(-1, 3)),
    ExactNumber(0, Fraction(-3, 4)),
    ExactNumber(Fraction(7, 5)),
], ids=str)
def test_check_at_reads_what_an_exact_number_prints(capsys, fixture_file, x):
    """``--at`` takes a coordinate as ``str`` prints it, and the check is
    the check at that exact point."""
    path = fixture_file("ex13")
    code, out = run_cli(capsys, "check", "--map", path, "--mode", "at-strong", "--at", f"0:{x}")
    verdict = iw_check_continuity(
        load_fixture("ex13"), ContinuityMode("strong", "at-point", at_point=SheetPoint(0, x))
    )
    assert code == (0 if verdict.holds else 1)
    doc = one_doc(out)
    assert doc["holds"] == verdict.holds
    assert doc["certificate"] == jsonio.certificate_to_json(verdict.certificate)


@pytest.mark.parametrize("at", ["1/2", "5"])
@pytest.mark.parametrize("mode", ["at-strong", "at-weak"])
def test_check_at_a_point_outside_the_domain_exits_2(capsys, fixture_file, at, mode):
    """ex12's domain is [0, 1/2) u (1/2, 1]: the puncture and a far point
    are usage errors, reported on one line with no traceback."""
    path = fixture_file("ex12")
    code = main(["--quiet", "check", "--map", path, "--mode", mode, "--at", at])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_check_finite_map(capsys, tmp_path):
    t = trivial_scale(sierpinski())
    from scaletop.continuity import ScaledMap

    doc = jsonio.scaled_map_to_json(ScaledMap((0, 1), t, t))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, "check", "--map", str(path), "--mode", "global-strong"
    )
    assert code == 0
    assert one_doc(out)["holds"] is True


def test_check_finite_map_failing_at_a_point(capsys, tmp_path):
    """The swap of the Sierpinski space's two points pulls the open {0}
    back to {1}, which is not open: the certificate names the point as
    an integer and the sets as lists."""
    t = trivial_scale(sierpinski())
    path = tmp_path / "map.json"
    path.write_text(json.dumps(jsonio.scaled_map_to_json(ScaledMap((1, 0), t, t))))
    code, out = run_cli(
        capsys, "check", "--map", str(path), "--mode", "at-strong", "--at", "1"
    )
    assert code == 1
    doc = one_doc(out)
    assert doc["holds"] is False
    assert doc["certificate"] == {"point": 1, "target": [0], "preimage": [1]}


def test_validate_space_and_scale(capsys, tmp_path):
    good = tmp_path / "space.json"
    good.write_text(json.dumps({"n": 2, "opens": [[], [0], [0, 1]]}))
    code, out = run_cli(capsys, "validate", "--space", str(good))
    assert code == 0
    doc = one_doc(out)
    js_validate(doc, VALIDATE_SCHEMA)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "opens": [[], [0], [1]]}))
    code, out = run_cli(capsys, "validate", "--space", str(bad))
    assert code == 1
    assert one_doc(out)["code"] == "MISSING_CARRIER"

    scale_doc = jsonio.scale_to_json(trivial_scale(sierpinski()))
    scale_path = tmp_path / "scale.json"
    scale_path.write_text(json.dumps(scale_doc))
    code, out = run_cli(capsys, "validate", "--scale", str(scale_path))
    assert code == 0


def test_classify(capsys, tmp_path):
    scale_path = tmp_path / "scale.json"
    scale_path.write_text(json.dumps(jsonio.scale_to_json(trivial_scale(sierpinski()))))
    code, out = run_cli(capsys, "classify", "--scale", str(scale_path))
    assert code == 0
    doc = one_doc(out)
    assert doc["is_F"] is True and doc["condition_F"] is True


def test_verify_confirmed_and_refuted(capsys):
    code, out = run_cli(
        capsys, "verify", "--property", "P4", "--max-n", "2", "--mode", "exhaustive"
    )
    assert code == 0
    doc = one_doc(out)
    js_validate(doc, VERIFY_SCHEMA)
    assert doc["verdict"] == "CONFIRMED_ON_SWEEP"
    assert doc["generated"] == doc["tested"] + doc["skipped"]

    code, out = run_cli(
        capsys,
        "verify", "--property", "PROBLEM3", "--max-n", "2",
        "--scale-budget", "10",
    )
    assert code == 1
    doc = one_doc(out)
    assert doc["verdict"] == "COUNTEREXAMPLE_FOUND"
    assert doc["violations"]


def test_verify_byte_identical_runs(capsys):
    argv = ["verify", "--property", "T1", "--max-n", "2", "--budget", "200",
            "--seed", "7"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_verify_unknown_property(capsys):
    code = main(["--quiet", "verify", "--property", "ZZZ"])
    assert code == 2


def test_verify_out_of_range_config_exits_2(capsys):
    code = main(["verify", "--property", "P4", "--max-n", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: max_points must be between 1 and 4\n"


@pytest.mark.parametrize(
    "prop, flag, message",
    [
        ("P4", "--map-budget", "map_budget must be None or >= 0"),
        ("PROBLEM1", "--map-budget", "map_budget must be None or >= 0"),
        ("P4", "--scale-budget", "scale_budget must be >= 0"),
        ("T1", "--budget", "sample_budget must be >= 0"),
        ("P3", "--max-violations", "max_violations must be >= 0"),
    ],
)
def test_verify_negative_budget_exits_2(capsys, prop, flag, message):
    code = main(["verify", "--property", prop, "--max-n", "2", flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_enumerate_streams(capsys):
    code = main(["--quiet", "enumerate", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4
    for doc in lines:
        assert doc["n"] == 2
    code = main(["--quiet", "enumerate", "--n", "9"])
    assert code == 2


def test_probe_set_outside_the_codomain_exits_2(tmp_path, fixture_file):
    """ex12's codomain is [0, 1]; a declared probe (1/2, 2) leaves it,
    whether it comes in the map document or in a --probes document."""
    doc = jsonio.interval_scaled_map_to_json(load_fixture("ex12"))
    line = LineSet.of(Interval(ExactNumber(Fraction(1, 2)), ExactNumber(2), False, False))
    outside = jsonio.sheetset_to_json(SheetSet((line,)))
    doc["probes"] = [outside]
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc))
    argv = ["--quiet", "check", "--map", str(path), "--mode", "global-strong"]
    assert main(argv) == 2
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"probes": [outside]}))
    argv = ["--quiet", "check", "--map", fixture_file("ex12"), "--mode",
            "global-strong", "--probes", str(probes)]
    assert main(argv) == 2


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--quiet", "gaps", "--fn", str(bad)]) == 2
    assert main(["--quiet", "check", "--map", str(bad), "--mode", "local-strong"]) == 2
    missing = str(tmp_path / "absent.json")
    assert main(["--quiet", "validate", "--space", missing]) == 2


def test_quiet_suppresses_stderr(capsys):
    main(["--quiet", "fixtures", "--name", "ex12"])
    captured = capsys.readouterr()
    assert captured.err == ""
    main(["fixtures", "--name", "ex12"])
    captured = capsys.readouterr()
    assert "fixture" in captured.err


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"map"', "null"])
def test_non_object_documents_exit_2(capsys, tmp_path, text):
    arr = tmp_path / "arr.json"
    arr.write_text(text)
    assert main(["--quiet", "check", "--map", str(arr), "--mode", "local-strong"]) == 2
    assert main(["--quiet", "gaps", "--fn", str(arr)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "JSON object" in err


def sheet_crossing_map():
    """[0, 2] -> two copies of [0, 1]: 0 on sheet 0 up to 1, then 1 on
    sheet 1, so the right limit at 1 lies on another sheet."""
    zero, one, two = (ExactNumber(k) for k in (0, 1, 2))
    unit = LineSet.of(Interval(zero, one, True, True))
    return PiecewiseAffineMap(
        Carrier.of(LineSet.of(Interval(zero, two, True, True))),
        Carrier.of(unit, unit),
        (
            AffinePiece(0, Interval(zero, one, True, True), 0, Fraction(0), Fraction(0)),
            AffinePiece(0, Interval(one, two, False, True), 1, Fraction(0), Fraction(1)),
        ),
    )


@pytest.mark.parametrize("threshold", [None, "1/2"])
def test_gaps_undefined_exits_2(capsys, tmp_path, threshold):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(jsonio.pam_to_json(sheet_crossing_map())))
    argv = ["gaps", "--fn", str(path)]
    if threshold is not None:
        argv += ["--threshold", threshold]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: one-sided limit crosses codomain sheets; gap undefined\n"


def test_gaps_negative_threshold_exits_2(capsys, fixture_file):
    assert main(["--quiet", "gaps", "--fn", fixture_file("ex17-f"), "--threshold=-1/10"]) == 2
    assert capsys.readouterr().err == "error: fuzzy-continuity level must be nonnegative\n"
