"""Round-trip tests for the JSON encodings of every public type."""

import json
from fractions import Fraction

import pytest

from scaletop import jsonio
from scaletop.cli import main
from scaletop.continuity import ScaledMap
from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.finite_topology import discrete_space, sierpinski
from scaletop.fixtures import FIXTURE_NAMES, load_fixture
from scaletop.interval_continuity import IntervalScaledMap
from scaletop.interval_scales import (
    BallScale,
    BallSupersetScale,
    EndClassScale,
    full_line_carrier,
)
from scaletop.intervals import Interval, LineSet, SheetPoint, SheetSet
from scaletop.pwmaps import identity_map
from scaletop.scales import trivial_scale

from test_cli_input_errors import object_paths, with_stray_key
from test_interval_scales import KINDS


def test_exact_number_roundtrip():
    x = ExactNumber(Fraction(3, 4), Fraction(-2, 7))
    doc = jsonio.exact_to_json(x)
    assert doc == {"a": "3/4", "b": "-2/7"}
    assert jsonio.exact_from_json(doc) == x
    assert jsonio.exact_from_json(json.loads(json.dumps(doc))) == x


def test_interval_roundtrip_with_sentinels():
    iv = Interval(None, SQRT2, False, False)
    doc = jsonio.interval_to_json(iv)
    assert doc["lo"] == "-inf"
    assert jsonio.interval_from_json(doc) == iv


def test_lineset_and_sheetset_roundtrip():
    ls = LineSet.of(
        Interval(ExactNumber(0), ExactNumber(1), True, False),
        Interval(ExactNumber(2), None, False, False),
    )
    assert jsonio.lineset_from_json(jsonio.lineset_to_json(ls)) == ls
    ss = SheetSet((ls, LineSet.empty()))
    assert jsonio.sheetset_from_json(jsonio.sheetset_to_json(ss)) == ss


def test_space_roundtrip_canonical_order():
    space = sierpinski()
    doc = jsonio.space_to_json(space)
    assert doc == {"n": 2, "opens": [[], [0], [0, 1]]}
    assert jsonio.space_from_json(doc) == space


def test_scale_roundtrip():
    scale = trivial_scale(discrete_space(2))
    doc = jsonio.scale_to_json(scale)
    back = jsonio.scale_from_json(doc)
    assert back == scale
    # Assignments reference declared sets by index.
    assert all(isinstance(i, int) for fam in doc["assignment"] for i in fam)


def test_scaled_map_roundtrip():
    t = trivial_scale(sierpinski())
    f = ScaledMap((0, 1), t, t)
    doc = jsonio.scaled_map_to_json(f)
    assert doc["type"] == "scaled_map"
    assert jsonio.scaled_map_from_json(doc) == f
    assert jsonio.any_map_from_json(doc) == f


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_roundtrip(name):
    m = load_fixture(name)
    doc = jsonio.interval_scaled_map_to_json(m)
    text = json.dumps(doc, sort_keys=True)
    back = jsonio.interval_scaled_map_from_json(json.loads(text))
    assert back == m
    assert jsonio.any_map_from_json(json.loads(text)) == m
    # Serialization is deterministic.
    assert text == json.dumps(
        jsonio.interval_scaled_map_to_json(load_fixture(name)), sort_keys=True
    )


# Every kind of the scale contract tests, and CQ_Oa, which they leave out.
EVERY_KIND = [scale for scale, _ in KINDS] + [
    BallScale(full_line_carrier(), a=ExactNumber(Fraction(1, 10)), strict=False)
]


def test_the_kind_list_holds_every_decoded_tag():
    assert {scale.tag for scale in EVERY_KIND} == {
        "Trivial", "Q_a", "Q_Oa", "CQ_a", "CQ_Oa", "BQ_Oa", "SymmetricIntervals",
        "RationalEnds", "IrrationalEnds", "MixedRationalIrrational",
        "ConnectedOpen", "TruncatedQ_a", "PStructure",
    }


@pytest.mark.parametrize("k", range(len(EVERY_KIND)), ids=lambda k: f"{k}-{EVERY_KIND[k].tag}")
def test_interval_scale_roundtrip(k):
    scale = EVERY_KIND[k]
    doc = json.loads(json.dumps(jsonio.interval_scale_to_json(scale)))
    back = jsonio.interval_scale_from_json(doc)
    assert back == scale and back.tag == scale.tag


@pytest.mark.parametrize("k", range(len(EVERY_KIND)), ids=lambda k: f"{k}-{EVERY_KIND[k].tag}")
def test_a_stray_key_in_any_object_of_a_scale_document_is_rejected(k):
    doc = jsonio.interval_scale_to_json(EVERY_KIND[k])
    for path in object_paths(doc):
        with pytest.raises(ValueError, match="takes no key 'stray'"):
            jsonio.interval_scale_from_json(with_stray_key(doc, path))


LINE_DOC = jsonio.sheetset_to_json(full_line_carrier())
ONE_DOC = jsonio.exact_to_json(ExactNumber(1))


@pytest.mark.parametrize("doc", [
    # A flag the kind does not take is not dropped.
    {"kind": "RationalEnds", "mode": "rational", "crossed": True},
    {"kind": "Q_a", "a": ONE_DOC, "closed_ball": False},
    {"kind": "Trivial", "table": []},
    {"kind": "CQ_a", "a": ONE_DOC, "strict": False},
    # An end-class mode must match its tag.
    {"kind": "RationalEnds", "mode": "irrational"},
    {"kind": "MixedRationalIrrational", "mode": "rational", "crossed": False},
], ids=lambda doc: "-".join(sorted(doc)))
def test_interval_scale_documents_hold_exactly_their_keys(doc):
    with pytest.raises(ValueError, match="takes no key|has mode"):
        jsonio.interval_scale_from_json({**doc, "carrier": LINE_DOC})


def test_misplaced_scale_flags_exit_2(capsys, tmp_path):
    """A map document whose scale carries a flag its kind does not take is
    malformed input, not a check under a scale it did not ask for."""
    line = full_line_carrier()
    pam = identity_map(line)
    for extra in ({"crossed": True}, {"closed_ball": False}):
        doc = jsonio.interval_scaled_map_to_json(IntervalScaledMap(
            pam, EndClassScale(line), BallSupersetScale(line, a=ExactNumber(1))
        ))
        doc["domain_scale" if "crossed" in extra else "codomain_scale"].update(extra)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        code = main(["--quiet", "check", "--map", str(path), "--mode", "global-weak"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: malformed map document"), err


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        jsonio.interval_scale_from_json(
            {"kind": "Nope", "carrier": {"sheets": [[]]}}
        )
    with pytest.raises(ValueError):
        jsonio.any_map_from_json({"type": "other"})
