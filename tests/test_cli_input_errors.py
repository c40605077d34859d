"""Bad input exits 2 with one ``error:`` line and no traceback.

The CLI turns input errors into exit 2 in one place, ``main``; these tests
pin that boundary: unreadable files, stray keys in documents, the
``python -m scaletop.cli`` entry point and the exact stderr of every
input-error message a subcommand raises.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scaletop import jsonio
from scaletop.cli import main
from scaletop.continuity import ScaledMap
from scaletop.finite_topology import sierpinski
from scaletop.fixtures import FIXTURE_NAMES, load_fixture
from scaletop.scales import trivial_scale
from scaletop.verifier import PROPERTY_IDS, SEARCH_IDS

SRC = Path(__file__).resolve().parents[1] / "src"


def _finite_map_doc() -> dict:
    t = trivial_scale(sierpinski())
    return jsonio.scaled_map_to_json(ScaledMap((0, 1), t, t))


def _fixture_doc(name: str) -> dict:
    return jsonio.interval_scaled_map_to_json(load_fixture(name))


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, *argv):
    code = main(["--quiet", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _unreadable(tmp_path: Path) -> dict[str, str]:
    """A directory and a file that is not UTF-8, each where a JSON document
    is expected."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"type": "\xe9"}')
    directory = tmp_path / "a-directory"
    directory.mkdir()
    return {"directory": str(directory), "latin1": str(latin1)}


@pytest.mark.parametrize("which", ["directory", "latin1"])
@pytest.mark.parametrize("command", [
    ("check", "--mode", "local-strong", "--map"),
    ("gaps", "--fn"),
    ("validate", "--space"),
    ("validate", "--scale"),
    ("classify", "--scale"),
    ("check", "--mode", "global-strong", "--map", "{ex12}", "--probes"),
], ids=lambda command: " ".join(command))
def test_unreadable_input_files_exit_2(capsys, tmp_path, command, which):
    path = _unreadable(tmp_path)[which]
    ex12 = _write(tmp_path / "ex12.json", _fixture_doc("ex12"))
    argv = [arg.format(ex12=ex12) for arg in command]
    code, out, err = _run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err


def object_paths(doc, path=()):
    """The path of every JSON object in ``doc``, the root included."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from object_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from object_paths(value, path + (i,))


def with_stray_key(doc: dict, path: tuple) -> dict:
    out = copy.deepcopy(doc)
    node = out
    for step in path:
        node = node[step]
    node["stray"] = 0
    return out


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "finite"])
def test_a_stray_key_at_any_object_node_exits_2(capsys, tmp_path, name):
    """Every object a map document holds is decoded with exactly the keys its
    encoder writes: a stray key anywhere is malformed input, never dropped."""
    base = _finite_map_doc() if name == "finite" else _fixture_doc(name)
    doc_file = tmp_path / "map.json"
    for path in object_paths(base):
        _write(doc_file, with_stray_key(base, path))
        code, out, err = _run(capsys, "check", "--mode", "global-strong", "--map", str(doc_file))
        assert code == 2, path
        assert out == ""
        assert err.startswith("error: malformed map document: ") and err.endswith(
            "takes no key 'stray'\n"
        ), (path, err)


def test_a_misspelt_probes_key_exits_2(capsys, tmp_path):
    """Renamed ``probe``, ex12's declared family would be dropped and the
    global check run without it."""
    doc = _fixture_doc("ex12")
    doc["probe"] = doc.pop("probes")
    path = _write(tmp_path / "map.json", doc)
    code, out, err = _run(capsys, "check", "--mode", "global-strong", "--map", path)
    assert (code, out) == (2, "")
    assert err == (
        "error: malformed map document: an interval_scaled_map takes no key 'probe'\n"
    )


def test_a_space_document_with_a_stray_key_exits_2(capsys, tmp_path):
    """Sierpinski space with a stray ``open`` key beside ``opens``."""
    doc = {"n": 2, "opens": [[], [0], [0, 1]], "open": [[1]]}
    path = _write(tmp_path / "space.json", doc)
    code, out, err = _run(capsys, "validate", "--space", path)
    assert (code, out) == (2, "")
    assert err == "error: malformed space document: a space takes no key 'open'\n"
    del doc["open"]
    assert _run(capsys, "validate", "--space", _write(tmp_path / "space.json", doc))[0] == 0


def test_gaps_decodes_the_whole_scaled_map_document(capsys, tmp_path):
    """``gaps --fn`` on an interval_scaled_map document checks its other keys
    and its scales, as ``check --map`` does, not only its map."""
    base = _fixture_doc("ex17-f")
    stray = {**base, "stray": 1}
    bad_scale = {**base, "domain_scale": {"kind": "Nope"}}
    for doc in (stray, bad_scale, {**stray, "domain_scale": {"kind": "Nope"}}):
        path = _write(tmp_path / "map.json", doc)
        gaps = _run(capsys, "gaps", "--fn", path)
        check = _run(capsys, "check", "--mode", "local-strong", "--map", path)
        assert gaps[:2] == check[:2] == (2, "")
        assert gaps[2] == check[2] and gaps[2].startswith("error: malformed map document: ")
    assert _run(capsys, "gaps", "--fn", _write(tmp_path / "map.json", base))[0] == 0


@pytest.mark.parametrize("which", ["directory", "latin1"])
def test_module_entry_point_exits_2_without_a_traceback(tmp_path, which):
    """``python -m scaletop.cli`` goes through ``sys.exit(main())``."""
    path = _unreadable(tmp_path)[which]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "scaletop.cli", "--quiet", "check", "--mode",
         "local-strong", "--map", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot read {path}: ")


@pytest.fixture
def paths(tmp_path) -> dict[str, str]:
    """The path of each input document by name; ``absent`` is not written."""
    ex12 = _fixture_doc("ex12")
    garbled = copy.deepcopy(ex12)
    garbled["map"]["pieces"][0]["slope"] = "1/0"
    invalid_scale = jsonio.scale_to_json(trivial_scale(sierpinski()))
    invalid_scale["assignment"] = [[], []]
    out_of_range = copy.deepcopy(invalid_scale)
    out_of_range["assignment"] = [[0], [7]]
    docs = {
        "ex12": ex12,
        "ex17-f": _fixture_doc("ex17-f"),
        "finite": _finite_map_doc(),
        "garbled": garbled,
        "no-probes": {},
        "invalid-scale": invalid_scale,
        "out-of-range-scale": out_of_range,
        "float-space": {"n": 2.5, "opens": []},
        "list": [1, 2],
    }
    out = {name: _write(tmp_path / f"{name}.json", doc) for name, doc in docs.items()}
    out["bad-json"] = str(tmp_path / "bad.json")
    Path(out["bad-json"]).write_text("{not json")
    out["absent"] = str(tmp_path / "absent.json")
    return out


# Each input-error message the CLI prints, as (argv, stderr); ``{name}``
# stands for ``paths[name]``.
MESSAGES = [
    (["check", "--map", "{garbled}", "--mode", "local-strong"],
     "malformed map document: zero denominator in '1/0'"),
    (["check", "--map", "{ex12}", "--mode", "global-strong", "--probes", "{no-probes}"],
     "malformed probes document: 'probes'"),
    (["check", "--map", "{ex12}", "--mode", "at-strong", "--at", "0:1/0"],
     "cannot parse --at '0:1/0': Fraction(1, 0)"),
    (["check", "--map", "{finite}", "--mode", "at-strong", "--at", "x"],
     "cannot parse --at 'x': invalid literal for int() with base 10: 'x'"),
    (["gaps", "--fn", "{ex17-f}", "--threshold", "abc"],
     "cannot parse threshold: Invalid literal for Fraction: 'abc'"),
    (["classify", "--scale", "{invalid-scale}"],
     "cannot classify: invalid scale: SC2 ((0,),)"),
    (["validate", "--space", "{float-space}"],
     "malformed space document: expected a JSON integer, not 2.5"),
    (["validate", "--scale", "{out-of-range-scale}"],
     "malformed scale document: an assignment index is outside the tq list"),
    (["check", "--map", "{finite}", "--mode", "global-weak", "--probes", "{ex12}"],
     "--probes applies to interval-world maps"),
    (["verify", "--property", "ZZZ"],
     "unknown property 'ZZZ'; known: " + ", ".join(PROPERTY_IDS + SEARCH_IDS)),
    # Library ValueErrors pass through with their own text.
    (["check", "--map", "{ex12}", "--mode", "sideways-strong"],
     "locus must be 'at-point', 'local', or 'global'"),
    (["check", "--map", "{finite}", "--mode", "at-strong", "--at", "5"],
     "point 5 outside the domain carrier"),
    (["gaps", "--fn", "{ex17-f}", "--threshold=-1/10"],
     "fuzzy-continuity level must be nonnegative"),
    (["verify", "--property", "P4", "--max-n", "7"],
     "max_points must be between 1 and 4"),
    (["enumerate", "--n", "9"], "n must be between 1 and 4"),
    # Documents that cannot be read as a JSON object.
    (["check", "--map", "{list}", "--mode", "local-strong"],
     "{list} must hold a JSON object, not list"),
    (["gaps", "--fn", "{bad-json}"],
     "{bad-json} is not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (["validate", "--space", "{absent}"],
     "cannot read {absent}: [Errno 2] No such file or directory: '{absent}'"),
]


@pytest.mark.parametrize(
    "argv, message", MESSAGES, ids=[" ".join(argv) for argv, _ in MESSAGES]
)
def test_every_input_error_message(capsys, paths, argv, message):
    code, out, err = _run(capsys, *(arg.format_map(paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {message.format_map(paths)}\n"
