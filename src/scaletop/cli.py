"""Command-line front end.

Subcommands: validate, classify, check, gaps, fixtures, verify,
enumerate.  Every invocation writes a single JSON document to stdout
(enumerate streams one document per line) and a short human summary to
stderr unless --quiet.  Exit codes: 0 when the run succeeds and the
checked claim holds, 1 when a claim fails or a counterexample is found
(a certificate is always on stdout in that case), 2 for malformed input
or usage errors.

Input errors are caught in one place, ``main``: a ``CliError`` or a
``ValueError`` prints ``error: <message>`` and exits 2.  The library
raises ``ValueError`` for bad input, and ``_load_json`` and ``_decode``
turn an unreadable file and a decoder's ``KeyError``, ``TypeError`` or
``ZeroDivisionError`` into a ``CliError`` naming what was read.  The
subcommands hold no ``try`` of their own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import jsonio
from .continuity import check_continuity, parse_mode
from .exactnum import ExactNumber
from .finite_topology import enumerate_topologies, validate_topology
from .fixtures import FIXTURE_NAMES, load_fixture
from .interval_continuity import IntervalScaledMap, iw_check_continuity
from .intervals import SheetPoint
from .pwmaps import is_a_fuzzy_continuous
from .scales import classify, validate_scale
from .verifier import (
    PROPERTY_IDS,
    SEARCH_IDS,
    SweepConfig,
    run_property,
    search_counterexample,
)

OK, CLAIM_FAILS, USAGE = 0, 1, 2


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _load_json(path: str) -> dict:
    """Every document the CLI reads is a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _decode(what: str, fn, *args):
    """``fn(*args)``, with a decoder's failure on malformed input reported
    as ``<what>: <reason>``."""
    try:
        return fn(*args)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{what}: {exc}") from exc


def _emit(doc: dict, quiet: bool, summary: str) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    if not quiet:
        print(summary, file=sys.stderr)


def _parse_point(text: str, interval_world: bool):
    if not interval_world:
        return int(text)
    if ":" in text:
        sheet_text, coord = text.split(":", 1)
        sheet = int(sheet_text)
    else:
        sheet, coord = 0, text
    return SheetPoint(sheet, ExactNumber.parse(coord))


def _with_probes(target: IntervalScaledMap, doc: dict) -> IntervalScaledMap:
    probes = tuple(jsonio.sheetset_from_json(p) for p in doc["probes"])
    return dataclasses.replace(target, probe_family=probes)


def _gap_list(gaps) -> list[dict]:
    return [
        {"point": jsonio.sheet_point_to_json(p), "gap": jsonio.exact_to_json(g)}
        for p, g in gaps
    ]


# -- subcommands ------------------------------------------------------------


def _emit_validation(kind: str, result, quiet: bool) -> int:
    payload = {
        "valid": result.ok,
        "code": result.code,
        "witness": result.witness,
        "message": result.message,
    }
    _emit(payload, quiet, f"{kind}: {'valid' if result.ok else result.code}")
    return OK if result.ok else CLAIM_FAILS


def _cmd_validate(args) -> int:
    if args.space:
        doc = _load_json(args.space)
        result = _decode(
            "malformed space document",
            lambda: validate_topology(*jsonio.topology_from_json(doc)),
        )
        return _emit_validation("space", result, args.quiet)
    doc = _load_json(args.scale)
    scale = _decode("malformed scale document", jsonio.scale_from_json, doc)
    return _emit_validation("scale", validate_scale(scale), args.quiet)


def _cmd_classify(args) -> int:
    doc = _load_json(args.scale)
    flags = _decode("cannot classify", lambda: classify(jsonio.scale_from_json(doc)))
    _emit(dataclasses.asdict(flags), args.quiet, "flags computed")
    return OK


def _cmd_check(args) -> int:
    doc = _load_json(args.map)
    target = _decode("malformed map document", jsonio.any_map_from_json, doc)
    interval_world = isinstance(target, IntervalScaledMap)
    if args.probes is not None and not interval_world:
        raise CliError("--probes applies to interval-world maps")
    at_point = None
    if args.at is not None:
        at_point = _decode(
            f"cannot parse --at {args.at!r}", _parse_point, args.at, interval_world
        )
    mode = parse_mode(args.mode, at_point=at_point, trivial_domain=args.trivial_domain)
    if args.probes is not None:
        probe_doc = _load_json(args.probes)
        target = _decode("malformed probes document", _with_probes, target, probe_doc)
    check = iw_check_continuity if interval_world else check_continuity
    verdict = check(target, mode)
    payload = {
        "holds": verdict.holds,
        "mode": jsonio.mode_to_json(mode),
        "certificate": jsonio.certificate_to_json(verdict.certificate),
    }
    _emit(payload, args.quiet, f"{mode.label()}: {'holds' if verdict.holds else 'fails'}")
    return OK if verdict.holds else CLAIM_FAILS


def _cmd_gaps(args) -> int:
    pam = _decode("malformed map document", jsonio.any_pam_from_json, _load_json(args.fn))
    gaps = pam.gaps()
    payload: dict = {"gaps": _gap_list(gaps)}
    code = OK
    summary = f"{len(gaps)} gap(s)"
    if args.threshold is not None:
        level = _decode(
            "cannot parse threshold", lambda: ExactNumber(Fraction(args.threshold))
        )
        verdict = is_a_fuzzy_continuous(pam, level)
        payload["threshold"] = jsonio.exact_to_json(level)
        payload["within_threshold"] = verdict.holds
        payload["witnesses"] = _gap_list(verdict.witnesses)
        code = OK if verdict.holds else CLAIM_FAILS
        summary += f"; threshold {args.threshold}: {'ok' if verdict.holds else 'exceeded'}"
    _emit(payload, args.quiet, summary)
    return code


def _cmd_fixtures(args) -> int:
    _emit(
        jsonio.interval_scaled_map_to_json(load_fixture(args.name)),
        args.quiet,
        f"fixture {args.name}",
    )
    return OK


def _cmd_verify(args) -> int:
    cfg = SweepConfig(
        max_points=args.max_n,
        scale_budget=args.scale_budget,
        map_budget=args.map_budget,
        seed=args.seed,
        mode=args.mode,
        sample_budget=args.budget,
        max_violations=args.max_violations,
    )
    if args.property in SEARCH_IDS:
        report = search_counterexample(args.property, cfg)
    elif args.property in PROPERTY_IDS:
        report = run_property(args.property, cfg)
    else:
        raise CliError(
            f"unknown property {args.property!r}; known: "
            + ", ".join(PROPERTY_IDS + SEARCH_IDS)
        )
    payload = report.to_json()
    _emit(
        payload,
        args.quiet,
        f"{args.property}: {report.verdict} "
        f"(tested {report.instances_tested}, skipped {report.hypothesis_skipped})",
    )
    return OK if report.verdict == "CONFIRMED_ON_SWEEP" else CLAIM_FAILS


def _cmd_enumerate(args) -> int:
    count = 0
    for space in enumerate_topologies(args.n):
        json.dump(jsonio.space_to_json(space), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        count += 1
    if not args.quiet:
        print(f"{count} topologies on {args.n} points", file=sys.stderr)
    return OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaletop",
        description=(
            "Exact tools for scaled topological spaces: validate and classify "
            "scales, check fuzzy continuity, compute jump gaps, and sweep "
            "verifiable statements over finite instances."
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the stderr summary"
    )
    # Accept --quiet after the subcommand as well; SUPPRESS keeps the
    # subparser from clobbering the top-level value when absent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("validate", help="validate a space or scale document")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--space", help="JSON file with a finite space")
    group.add_argument("--scale", help="JSON file with a scale")
    p.set_defaults(func=_cmd_validate)

    p = add_parser("classify", help="compute structure flags of a scale")
    p.add_argument("--scale", required=True)
    p.set_defaults(func=_cmd_classify)

    p = add_parser("check", help="run a continuity check on a map")
    p.add_argument("--map", required=True, help="scaled map JSON file")
    p.add_argument(
        "--mode",
        required=True,
        help="<locus>-<strength>, e.g. local-strong, global-weak, at-strong",
    )
    p.add_argument(
        "--at",
        help="point for at-point modes: an int, or [sheet:]coord with coord an"
        " exact number as printed, e.g. 1/2, 3*sqrt2 or 1/2-1/3*sqrt2",
    )
    p.add_argument(
        "--trivial-domain",
        action="store_true",
        help="replace the domain scale by the trivial scale",
    )
    p.add_argument("--probes", help="JSON file of extra global probes (interval maps)")
    p.set_defaults(func=_cmd_check)

    p = add_parser("gaps", help="list jump gaps of a piecewise-affine map")
    p.add_argument("--fn", required=True, help="map JSON file")
    p.add_argument("--threshold", help="rational bound, e.g. 1/10")
    p.set_defaults(func=_cmd_gaps)

    p = add_parser("fixtures", help="emit a built-in fixture as JSON")
    p.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    p.set_defaults(func=_cmd_fixtures)

    p = add_parser("verify", help="sweep a property over finite instances")
    p.add_argument("--property", required=True)
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.add_argument(
        "--mode", choices=("exhaustive", "sampled"), default="exhaustive"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20_000,
                   help="trial budget for sampled sweeps")
    p.add_argument("--scale-budget", type=int, default=12, dest="scale_budget")
    p.add_argument("--map-budget", type=int, default=None, dest="map_budget")
    p.add_argument("--max-violations", type=int, default=5, dest="max_violations")
    p.set_defaults(func=_cmd_verify)

    p = add_parser("enumerate", help="stream all topologies on n points")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else OK
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
