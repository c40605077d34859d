"""Golden interval verdicts: the sha256 of ``[i, mode, holds, certificate]``
for every check the ``interval`` benchmark makes on a map (every
strength x locus x trivial-domain mode, the at-point modes at each
default probe point) over ``intervalgen.generate_maps(seed, 30)``.

A change that is meant to leave interval verdicts and certificates alone
must leave these hashes alone.  Never regenerate them to make a change
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

from scaletop import jsonio
from scaletop.interval_continuity import (
    iw_check_continuity,
    replay_interval_certificate,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import intervalgen  # noqa: E402
from workloads import interval_modes  # noqa: E402

MAPS = 30

GOLDEN = {
    0: "cc70bd53cafe462e162eebcf87c4e5ff436bf803c9943f6f80afab1bc5ee9f3d",
    7: "ce6eadacf4472bfae41a15df0c0931391f10691b1d96247ec0ce68ce05bdf8b9",
}


@functools.cache
def checks(seed: int) -> tuple:
    """(i, map, mode, verdict) for every check, made once per seed."""
    out = []
    for i, g in enumerate(intervalgen.generate_maps(seed, MAPS)):
        m = g.scaled
        for mode in interval_modes(m):
            out.append((i, m, mode, iw_check_continuity(m, mode)))
    return tuple(out)


def verdict_lines(seed: int) -> list:
    lines = []
    for i, _, mode, verdict in checks(seed):
        cert = jsonio.certificate_to_json(verdict.certificate)
        lines.append([i, jsonio.mode_to_json(mode), verdict.holds, cert])
    return lines


def golden_digest(seed: int) -> str:
    doc = json.dumps(verdict_lines(seed), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_interval_verdicts_match_golden(seed):
    assert golden_digest(seed) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_failing_golden_verdicts_replay(seed):
    failing = [(m, mode, v) for _, m, mode, v in checks(seed) if not v.holds]
    assert failing
    for m, mode, verdict in failing:
        assert replay_interval_certificate(m, mode, verdict.certificate), (
            jsonio.mode_to_json(mode),
            jsonio.certificate_to_json(verdict.certificate),
        )
