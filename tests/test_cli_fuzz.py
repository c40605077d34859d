"""The CLI exit-code contract under garbled input (0 = holds, 1 = claim
fails, 2 = bad input).

Every single-field mutation of a fixture document must come back as one
of those codes, never as a traceback.  A mutation can leave a document
well formed, and then 0 or 1 is a verdict on it; a malformed one exits
2 with a one-line error on stderr.  Zero denominators, rationals that
are not JSON strings and non-boolean flags are always malformed, and so
are floats and booleans where a document holds integers (sheets, and the
points, counts, indices and tables of a finite document).
"""

import copy
import json

import pytest

from scaletop import jsonio
from scaletop.cli import main
from scaletop.continuity import ScaledMap
from scaletop.finite_topology import sierpinski
from scaletop.fixtures import load_fixture
from scaletop.scales import trivial_scale

# One garble per kind of damage: a zero denominator, a container where a
# scalar goes, a float, a null, a stray string, an out-of-range index and
# a boolean where a number or string goes.
GARBLES = ("1/0", [], {}, 1.5, None, "x", -1, True)
RATIONAL_KEYS = ("a", "b", "slope", "intercept")
FLAG_KEYS = ("lo_closed", "hi_closed", "crossed")
# Where a finite document holds integers, or lists of them.
INT_KEYS = ("n", "opens", "tq", "assignment", "table")
SHEET_KEYS = ("sheet", "out_sheet")


def _paths(doc, path=()):
    """Every node's path, leaves and containers alike (the root too)."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


def _mutated(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


def _always_malformed(path, value) -> bool:
    if not path:
        return True
    if path[-1] in RATIONAL_KEYS and (value == "1/0" or not isinstance(value, str)):
        return True
    if path[-1] in SHEET_KEYS and isinstance(value, (bool, float)):
        return True
    return path[-1] in FLAG_KEYS and not isinstance(value, bool)


def _finite_malformed(path, value) -> bool:
    if not path:
        return True
    return isinstance(value, (bool, float)) and any(k in INT_KEYS for k in path)


def _run(capsys, *argv):
    code = main(["--quiet", *argv])
    return code, capsys.readouterr().err


def _garbles_keep_the_contract(tmp_path, capsys, base, commands, malformed_if):
    """Run every single-field garble of ``base`` through each command, the
    document's path last, and check the exit codes; returns how many runs
    had an always-malformed document."""
    doc_file = tmp_path / "doc.json"
    malformed = 0
    for path in _paths(base):
        for value in GARBLES:
            doc_file.write_text(json.dumps(_mutated(base, path, value)))
            for command in commands:
                case = (path, value, command)
                code, err = _run(capsys, *command, str(doc_file))
                assert code in (0, 1, 2), case
                if code == 2:
                    assert err.startswith("error: "), (case, err)
                    assert err.count("\n") == 1, (case, err)
                if malformed_if(path, value):
                    malformed += 1
                    assert code == 2, case
    return malformed


def test_garbled_map_documents_keep_the_exit_code_contract(tmp_path, capsys):
    base = jsonio.interval_scaled_map_to_json(load_fixture("ex12"))
    commands = [("check", "--mode", "global-strong", "--map")]
    assert _garbles_keep_the_contract(
        tmp_path, capsys, base, commands, _always_malformed
    ) > 50


def _finite_map_doc():
    t = trivial_scale(sierpinski())
    return jsonio.scaled_map_to_json(ScaledMap((0, 1), t, t))


def test_garbled_finite_map_documents_keep_the_exit_code_contract(tmp_path, capsys):
    commands = [
        ("check", "--mode", "global-strong", "--map"),
        ("check", "--mode", "at-strong", "--at", "0", "--map"),
    ]
    assert _garbles_keep_the_contract(
        tmp_path, capsys, _finite_map_doc(), commands, _finite_malformed
    ) > 50


def test_garbled_scale_documents_keep_the_exit_code_contract(tmp_path, capsys):
    commands = [("validate", "--scale"), ("classify", "--scale")]
    assert _garbles_keep_the_contract(
        tmp_path, capsys, _finite_map_doc()["domain"], commands, _finite_malformed
    ) > 20


def test_garbled_space_documents_keep_the_exit_code_contract(tmp_path, capsys):
    space = _finite_map_doc()["domain"]["space"]
    assert _garbles_keep_the_contract(
        tmp_path, capsys, space, [("validate", "--space")], _finite_malformed
    ) > 5


def _ex12_file(tmp_path):
    doc_file = tmp_path / "map.json"
    doc = jsonio.interval_scaled_map_to_json(load_fixture("ex12"))
    doc_file.write_text(json.dumps(doc))
    return doc_file


def test_probes_document_without_probes_key_is_bad_input(tmp_path, capsys):
    doc_file = _ex12_file(tmp_path)
    for probes in ({}, {"probes": 3}, {"probes": [{"sheets": "x"}]}):
        probe_file = tmp_path / "probes.json"
        probe_file.write_text(json.dumps(probes))
        code, err = _run(
            capsys,
            "check",
            "--map",
            str(doc_file),
            "--mode",
            "global-strong",
            "--probes",
            str(probe_file),
        )
        assert code == 2, probes
        assert err.startswith("error: malformed probes document"), err


def test_probes_on_a_finite_map_is_bad_input(tmp_path, capsys):
    """Declared probes belong to interval-world global checks; a finite
    map rejects the flag, whether or not its file exists."""
    doc_file = tmp_path / "map.json"
    doc_file.write_text(json.dumps(_finite_map_doc()))
    present = tmp_path / "probes.json"
    present.write_text(json.dumps({"probes": []}))
    for probe_file in (tmp_path / "missing.json", present):
        for mode in ("global-strong", "global-weak"):
            argv = ("check", "--map", str(doc_file), "--mode", mode, "--probes", str(probe_file))
            code, err = _run(capsys, *argv)
            assert code == 2, (probe_file, mode)
            assert err == "error: --probes applies to interval-world maps\n"


def test_zero_denominator_point_is_bad_input(tmp_path, capsys):
    doc_file = _ex12_file(tmp_path)
    argv = ("check", "--map", str(doc_file), "--mode", "at-strong", "--at", "0:1/0")
    code, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: cannot parse --at")


@pytest.mark.parametrize("value", ["1/0", "3/0", "-1/0"])
def test_parsers_reject_zero_denominators(value):
    with pytest.raises(ValueError):
        jsonio.exact_from_json({"a": value})
    with pytest.raises(ValueError):
        jsonio.exact_from_json({"a": "1", "b": value})


@pytest.mark.parametrize("value", [0.1, 1.5, 1, 0, True, False, None, [], {}])
def test_parsers_reject_rationals_that_are_not_strings(value):
    with pytest.raises(ValueError):
        jsonio.exact_from_json({"a": value})
    with pytest.raises(ValueError):
        jsonio.exact_from_json({"a": "1", "b": value})
    with pytest.raises(ValueError):
        jsonio.fraction_from_json(value)


@pytest.mark.parametrize("flag", [1, 0, 1.5, None, "true", [], {}])
def test_parsers_reject_non_boolean_flags(flag):
    doc = {"lo": "-inf", "hi": "+inf", "lo_closed": False, "hi_closed": False}
    for key in ("lo_closed", "hi_closed"):
        with pytest.raises(ValueError):
            jsonio.interval_from_json({**doc, key: flag})


@pytest.mark.parametrize("value", [False, True, 0.0, 1.5, "0", None, [], {}])
def test_parsers_reject_indices_that_are_not_integers(value):
    with pytest.raises(ValueError):
        jsonio.sheet_point_from_json({"sheet": value, "x": {"a": "0"}})
    with pytest.raises(ValueError):
        jsonio.ints_from_json([0, value])
