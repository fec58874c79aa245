"""Command-line front end: verify identities, enumerate families, export tables."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import NoReturn

from . import identities
from .lpi import LpiError, LpiSpec, language
from .partitions import SET_IDS, enum_set, stats
from .series import Series

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _load_ideal(path: str | None) -> LpiSpec | None:
    if path is None:
        return None
    try:
        return LpiSpec.from_json(Path(path).read_text(encoding="utf-8"))
    # UnicodeDecodeError: not UTF-8; RecursionError: JSON nested past the parser's depth
    except (LpiError, OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise identities.UsageError(f"cannot load ideal: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.identity == "all":
        ids = identities.registry_ids()
    elif args.identity in identities.REGISTRY:
        ids = [args.identity]
    else:
        # a prefix group takes the neg: controls it matches too
        ids = [
            i
            for i in identities.registry_ids(include_negative=True)
            if args.identity and i.startswith(args.identity)
        ]
        if not ids:
            print(f"unknown identity {args.identity!r}; try 'qident list'", file=sys.stderr)
            return EXIT_USAGE
    reports = identities.verify_group(ids, args.order, args.jobs)
    for report in reports:
        if args.json:
            print(json.dumps(report.to_dict()))
        else:
            print(report.render())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def _enum_members(args: argparse.Namespace, ideal: LpiSpec | None):
    if ideal is not None:
        return language(ideal, args.n)
    return enum_set(args.set, args.n)


def _cmd_enum(args: argparse.Namespace) -> int:
    ideal = _load_ideal(args.lpi_spec)
    if args.n < 0:
        raise identities.UsageError(f"n must be >= 0, got {args.n}")
    identities.check_enum_budget(args.set if ideal is None else None, args.n)
    members = sorted(_enum_members(args, ideal), key=lambda op: op.parts)
    header_printed = False
    for op in members:
        if args.json:
            doc: dict = {"parts": op.to_json()}
            if args.stats:
                doc.update(stats(op).to_dict())
            print(json.dumps(doc))
        elif args.stats:
            if not header_printed:
                print("parts\tsize\tlength\tr2mod4\tr0mod4\tover")
                header_printed = True
            st = stats(op)
            print(f"{op.render()}\t{st.size}\t{st.length}\t{st.r2mod4}\t{st.r0mod4}\t{st.over}")
        else:
            print(op.render())
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    ideal = _load_ideal(args.lpi_spec)
    try:
        series: Series = identities.named_series(args.series, args.order, ideal)
    except identities.UnknownIdentity:
        print(
            f"unknown series {args.series!r}; known: {', '.join(identities.series_names(ideal))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    rows = list(series.items())
    names = series.vars.names
    if args.format == "csv":
        row = ",".join(["%d"] * (len(names) + 1))
        lines = [",".join(names) + ",coeff"]
        lines += [row % (*mono, coeff) for mono, coeff in rows]
        lines.append("")
        sys.stdout.write("\n".join(lines))
    else:
        doc = {
            "series": args.series,
            "vars": list(names),
            "order": series.order,
            "terms": [{"exponents": list(m), "coeff": c} for m, c in rows],
        }
        print(json.dumps(doc))
    return EXIT_OK


def _cmd_list(args: argparse.Namespace) -> int:
    for identity in identities.registry_ids(include_negative=args.all):
        entry = identities.REGISTRY[identity]
        if args.json:
            print(
                json.dumps(
                    {
                        "id": entry.id,
                        "default_order": entry.default_order,
                        "description": entry.description,
                    }
                )
            )
        else:
            print(f"{entry.id:24s} N={entry.default_order:<3d} {entry.description}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qident",
        description="Exact coefficientwise verification of q-series and overpartition identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity, a prefix group, or all")
    p_verify.add_argument("identity", help="registry id, a prefix, or 'all'")
    p_verify.add_argument("--order", type=int, default=None, help="truncation order override")
    p_verify.add_argument("--json", action="store_true", help="one JSON report per line")
    p_verify.add_argument("--jobs", type=int, default=None, help="worker processes (default: one per core)")
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enum", help="list members of an overpartition family")
    source = p_enum.add_mutually_exclusive_group(required=True)
    source.add_argument("--set", choices=SET_IDS, default=None, help="family name")
    source.add_argument("--lpi-spec", default=None, help="custom ideal JSON; enumerates its language instead")
    p_enum.add_argument("--n", type=int, required=True, help="size to enumerate")
    p_enum.add_argument("--stats", action="store_true", help="include statistics columns")
    p_enum.add_argument("--json", action="store_true", help="one JSON object per member")
    p_enum.set_defaults(func=_cmd_enum)

    p_coeffs = sub.add_parser("coeffs", help="export the coefficient table of a named series")
    p_coeffs.add_argument(
        "--series", required=True, help="<id>-lhs|rhs, gf-<family>, f<k>, g<k> or h:<beta>"
    )
    p_coeffs.add_argument("--order", type=int, required=True, help="truncation order")
    p_coeffs.add_argument("--format", choices=("csv", "json"), default="csv")
    p_coeffs.add_argument("--lpi-spec", default=None, help="custom ideal JSON backing f/g series")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_list = sub.add_parser("list", help="print registry ids and descriptions")
    p_list.add_argument("--json", action="store_true")
    p_list.add_argument("--all", action="store_true", help="include negative controls")
    p_list.set_defaults(func=_cmd_list)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call, not at import, and reused.

    Parsing reads the parser and never changes it, also when it refuses a
    command line, so one parser serves every ``main`` call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except identities.UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except identities.UnknownIdentity as exc:
        print(f"unknown identity: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
