"""Command line interface.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input or
parse error (bad file, bad rational, Jacobi violation, unknown entry, ...).
`check` and the catalog read models through one parse memo keyed by the
document text and bounded in documents (`model.parsed`), so a document, or a
catalog entry, checked while the memo holds its text is the same Model, with
every result kept on it: a check repeated with the same selection prints the
report kept on the Model, and `catalog show` the outcomes kept on the entry.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import catalog
from .errors import BornlabError, format_rational
from .model import CHECK_ORDER, parsed, render_report, run_checks
from .structures import CirclePoint, integrability_report, verify_born_identities


def _cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError names the file itself; a decoding error does not
        print(f"error: {exc}" + ("" if isinstance(exc, OSError) else f": {args.file!r}"), file=sys.stderr)
        return 2
    only = None if args.checks is None else args.checks.split(",") if args.checks else ()
    try:
        model = parsed(text)
        report = run_checks(model, only=only)
    except BornlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report, args.format))
    return 0 if report.overall == "pass" else 1


def _cmd_catalog_list(args) -> int:
    width = max(len(name) for name, _ in catalog.list_entries())
    for name, summary in catalog.list_entries():
        print(f"{name.ljust(width)}  {summary}")
    return 0


def _cmd_catalog_show(args) -> int:
    try:
        entry = catalog.get_entry(args.name)
    except BornlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"name: {entry.name}")
    print(f"summary: {entry.summary}")
    model = entry.model
    print(f"dim: {model.algebra.n}")
    print("structures: " + "; ".join(d.label() for d in model.structures))
    tensors = sorted(model.forms) + sorted(model.metrics) + sorted(model.endos) + sorted(model.subspaces)
    print("tensors: " + ", ".join(tensors))
    print("provenance: " + entry.provenance)
    outcomes = catalog.verify_entry(entry)
    print("expectations:")
    for o in outcomes:
        mark = "ok" if o.ok else "MISMATCH"
        print(
            f"  {o.expectation.kind}:{o.expectation.target}"
            f"  expected={o.expectation.expected} actual={o.actual}  {mark}"
        )
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_catalog_export(args) -> int:
    try:
        sys.stdout.write(catalog.export_entry(args.name))
    except BornlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_family(args) -> int:
    try:
        entry = catalog.get_entry(args.name)
        point = CirclePoint.theta_pi() if args.theta_pi else CirclePoint.from_t(args.t)
        member = catalog.family_member(entry, point)
    except (BornlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    identities = verify_born_identities(member)
    integrable = integrability_report(member) is None
    print(f"family member of {args.name} at {point.label()}"
          f" (cos = {format_rational(point.cos)}, sin = {format_rational(point.sin)})")
    print(f"  born identities: PASS ({len(identities)} checks)")
    print(f"  integrable: {'PASS' if integrable else 'FAIL'}")
    return 0 if integrable else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and shared by every later one.

    Parsing keeps no state on the parsers: each call returns a fresh
    namespace, and the defaults are read from the parsers, never written.
    """
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Exact verification of Born, Kunneth and hypersymplectic structures on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run checks against a model file")
    p_check.add_argument("file")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--checks", help="comma-separated subset of: " + ",".join(CHECK_ORDER))
    p_check.set_defaults(func=_cmd_check)

    p_cat = sub.add_parser("catalog", help="browse the built-in examples")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    p_list = cat_sub.add_parser("list", help="list entries")
    p_list.set_defaults(func=_cmd_catalog_list)
    p_show = cat_sub.add_parser("show", help="entry details and expectation outcomes")
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_catalog_show)
    p_export = cat_sub.add_parser("export", help="emit an entry as a model file")
    p_export.add_argument("name")
    p_export.set_defaults(func=_cmd_catalog_export)

    p_family = sub.add_parser("family", help="build a circle-family Born structure")
    p_family.add_argument("name")
    group = p_family.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", help="rational circle parameter, e.g. 1/2")
    group.add_argument("--theta-pi", action="store_true", help="the point theta = pi")
    p_family.set_defaults(func=_cmd_family)
    return parser


def _attach_negative_t(argv: list[str]) -> list[str]:
    """argv with `--t` and a following negative value written as one `--t=VALUE`.

    argparse takes a token that starts with "-" for an option flag unless it
    reads as a negative number in its own sense, which "-3" does and "-3/7"
    does not, so `--t -3/7` would leave --t without its value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--t" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = "--t=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_negative_t(sys.argv[1:] if argv is None else list(argv)))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
