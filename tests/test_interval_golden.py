"""Golden interval verdicts: the sha256 of ``[i, mode, holds, certificate]``
for every check the ``interval`` benchmark makes on a map (every
strength x locus x trivial-domain mode, the at-point modes at each
default probe point) over ``intervalgen.generate_maps(seed, 30)``.

``POOL_GOLDEN`` holds the same digest over ``generate_maps(seed, 150)``,
the larger pool that a change to the interval checkers is measured on.

``GAPS_GOLDEN`` holds the sha256 of what the benchmark records for each
of those maps that has a fuzzy level: the digest of f o f, the
``gaps()`` of f and of f o f, and the fuzzy verdict and its witnesses.

A change that is meant to leave interval verdicts, certificates and
gaps alone must leave these hashes alone.  Never regenerate them to make a change
pass; a differing hash means a verdict or a certificate changed.

Every failing verdict of the same checks must also replay through
``replay_interval_certificate``, which confirms it through the scale
predicates and the public, subset-checked preimage.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from scaletop import jsonio, pwmaps
from scaletop.interval_continuity import (
    iw_check_continuity,
    replay_interval_certificate,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import intervalgen  # noqa: E402
from workloads import _gap_doc, digest, interval_modes  # noqa: E402

MAPS = 30

GOLDEN = {
    0: "cc70bd53cafe462e162eebcf87c4e5ff436bf803c9943f6f80afab1bc5ee9f3d",
    7: "ce6eadacf4472bfae41a15df0c0931391f10691b1d96247ec0ce68ce05bdf8b9",
}

POOL_MAPS = 150

POOL_GOLDEN = {
    0: "568aaaa2381db83ec3cf012237fc75082cc6ce1f02c5df0c9612f2e9e3f37023",
    3: "c728b3255c3bdbc0d6c0e33a8ef99817724df38a9ab8b1a0c89647c9d80561a6",
    7: "b40d762f24c42b2f421ef686578964cebc949624f13ca2ad4ee640b851100d0e",
}

GAPS_GOLDEN = {
    0: "337edc4ec9d840013d7a98bc36d2e81bb470ee7a1b9b9fb6041898f06e241194",
    7: "41ce120fb03bccb61be2b023000fee2ae9be82e821c024cd843b41e1a5724dc1",
}


@functools.cache
def checks(seed: int, maps: int = MAPS) -> tuple:
    """(i, map, mode, verdict) for every check, made once per seed."""
    out = []
    for i, g in enumerate(intervalgen.generate_maps(seed, maps)):
        m = g.scaled
        for mode in interval_modes(m):
            out.append((i, m, mode, iw_check_continuity(m, mode)))
    return tuple(out)


def verdict_lines(seed: int, maps: int = MAPS) -> list:
    lines = []
    for i, _, mode, verdict in checks(seed, maps):
        cert = jsonio.certificate_to_json(verdict.certificate)
        lines.append([i, jsonio.mode_to_json(mode), verdict.holds, cert])
    return lines


def golden_digest(seed: int, maps: int = MAPS) -> str:
    doc = json.dumps(verdict_lines(seed, maps), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_interval_verdicts_match_golden(seed):
    assert golden_digest(seed) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(POOL_GOLDEN))
def test_pool_verdicts_match_golden(seed):
    assert golden_digest(seed, POOL_MAPS) == POOL_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_failing_golden_verdicts_replay(seed):
    failing = [(m, mode, v) for _, m, mode, v in checks(seed) if not v.holds]
    assert failing
    for m, mode, verdict in failing:
        assert replay_interval_certificate(m, mode, verdict.certificate), (
            jsonio.mode_to_json(mode),
            jsonio.certificate_to_json(verdict.certificate),
        )


def gap_lines(seed: int) -> list:
    """The benchmark's line per map with a fuzzy level (``IntervalWorkload``)."""
    lines = []
    for i, g in enumerate(intervalgen.generate_maps(seed, MAPS)):
        if g.fuzzy_level is None:
            continue
        f = g.scaled.pam
        ff = pwmaps.compose(f, f)
        fuzzy = pwmaps.is_a_fuzzy_continuous(f, g.fuzzy_level)
        lines.append([
            i,
            digest(jsonio.pam_to_json(ff)),
            _gap_doc(f.gaps()),
            _gap_doc(ff.gaps()),
            fuzzy.holds,
            _gap_doc(fuzzy.witnesses),
        ])
    return lines


@pytest.mark.parametrize("seed", sorted(GAPS_GOLDEN))
def test_gaps_match_golden(seed):
    doc = json.dumps(gap_lines(seed), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == GAPS_GOLDEN[seed]
