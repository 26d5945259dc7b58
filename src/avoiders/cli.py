"""Command-line interface.

Subcommands: ``count``, ``enumerate``, ``phi``, ``series``, ``verify``.
Every command accepts ``--json`` for machine-readable output, with counts and
series coefficients rendered as decimal strings since they outgrow 64-bit
integers quickly.  Exit codes: 0 on success, 1 when a verify check fails,
2 on usage or domain errors, 3 when an internal contract guard fails (a bug,
reported as one ``internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from typing import Iterator, Sequence

from .bijection import format_perm_list, parse_perm_list, phi, phi_inverse
from .enumeration import ClassDescriptor, _class_chunks, count_class
from .perms import format_perm, is_permutation, parse_perm
from .series import (
    PowerSeries,
    catalan_series,
    gf_full,
    gf_start_small,
    kotesovec_series,
)
from .verify import render_report, run_checks

SERIES_BUILDERS = {
    "catalan": catalan_series,
    "G": gf_start_small,
    "F": gf_full,
    "kotesovec": kotesovec_series,
}


def _parse_patterns(text: str) -> tuple[tuple[int, ...], ...]:
    # Comma-separated digit strings, e.g. "1243,2134"; fine for the pattern
    # lengths (<= 9) this tool deals in.
    patterns = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            pattern = tuple(int(ch) for ch in token)
        except ValueError:
            raise ValueError(f"pattern {token!r} is not a digit string") from None
        if not is_permutation(pattern):
            raise ValueError(f"pattern {token!r} is not a permutation of 1..{len(token)}")
        patterns.append(pattern)
    return tuple(patterns)


def _indexable(flag: str, value: int) -> int:
    # Past sys.maxsize a size cannot be a list or range length (OverflowError).
    if value > sys.maxsize:
        raise ValueError(f"{flag} must be <= {sys.maxsize}")
    return value


def _descriptor(args: argparse.Namespace) -> ClassDescriptor:
    return ClassDescriptor(
        n=_indexable("--n", args.n),
        patterns=_parse_patterns(args.patterns),
        start_small_only=args.start_small,
        k=args.k,
        j=args.j,
    )


def _add_class_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="permutation length")
    parser.add_argument(
        "--patterns",
        default="",
        help="comma-separated patterns as digit strings, e.g. 1243,2134",
    )
    parser.add_argument(
        "--start-small",
        action="store_true",
        help="keep only permutations not starting with their largest entry",
    )
    parser.add_argument("--k", type=int, default=None, help="exact key mid-123 count")
    parser.add_argument(
        "--j", type=int, default=None, help="exact position of the last mid-123 entry"
    )


@contextlib.contextmanager
def _uncapped_int_printing() -> Iterator[None]:
    # Counts and coefficients outgrow Python's int-to-str digit cap (C_n near
    # n = 7,150); it still guards int() on input.  0 is no cap (Python < 3.10.7).
    old_cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if old_cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old_cap:
            sys.set_int_max_str_digits(old_cap)


def cmd_count(args: argparse.Namespace) -> int:
    count = count_class(_descriptor(args))
    with _uncapped_int_printing():
        print(json.dumps({"count": str(count)}) if args.json else count)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Each member printed as ``json.dumps``/``format_perm`` would, by chunk
    # (``enumeration._class_chunks``): the head once per chunk, each head
    # length's format and each distinct tails tuple once per call, and one
    # write per chunk.
    chunks = _class_chunks(_descriptor(args))
    sep, start, end = (", ", "[", "]\n") if args.json else (" ", "", "\n")
    heads: dict[int, str] = {}  # formats by head length
    formatted: dict[tuple, list[str]] = {}
    for head, tails in chunks:
        lines = formatted.get(tails)
        if lines is None:
            line = sep.join(["%d"] * len(tails[0])) + end
            lines = formatted[tails] = [line % tail for tail in tails]
        size = len(head)
        form = heads.get(size)
        if form is None:
            form = heads[size] = start + ("%d" + sep) * size
        lead = form % head
        sys.stdout.write(lead + lead.join(lines))
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    if args.forward is not None:
        elements = phi(parse_perm(args.forward))
        if args.json:
            print(json.dumps({"elements": [list(p) for p in elements]}))
        else:
            print(format_perm_list(elements))
    else:
        perm = phi_inverse(parse_perm_list(args.inverse))
        if args.json:
            print(json.dumps({"permutation": list(perm)}))
        else:
            print(format_perm(perm))
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    series: PowerSeries = SERIES_BUILDERS[args.which](_indexable("--order", args.order))
    with _uncapped_int_printing():
        if args.json:
            print(json.dumps({"coefficients": [str(c) for c in series.coeffs]}))
        else:
            sys.stdout.writelines(f"{n}: {c}\n" for n, c in enumerate(series.coeffs))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("--max-n", args.max_n), ("--order", args.order)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0")
        _indexable(flag, value)
    results = run_checks(max_n=args.max_n, order=args.order, deep=args.deep)
    passed = all(r.passed for r in results)
    if args.json:
        payload = {
            "checks": [dataclasses.asdict(r) for r in results],
            "passed": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(results))
    return 0 if passed else 1


@functools.cache  # built once per process: parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avoiders",
        description="Count, enumerate, and verify {1243, 2134}-avoiding permutations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_count = subparsers.add_parser("count", help="size of an avoidance class")
    _add_class_arguments(p_count)
    p_count.set_defaults(handler=cmd_count)

    p_enum = subparsers.add_parser(
        "enumerate", help="stream an avoidance class, one permutation per line"
    )
    _add_class_arguments(p_enum)
    p_enum.set_defaults(handler=cmd_enumerate)

    p_phi = subparsers.add_parser(
        "phi", help="apply the bijection onto lists of start-small 123-avoiders"
    )
    direction = p_phi.add_mutually_exclusive_group(required=True)
    direction.add_argument(
        "--forward", metavar="PERM", help="permutation in one-line notation"
    )
    direction.add_argument(
        "--inverse", metavar="LIST", help="list of permutations joined by ' | '"
    )
    p_phi.set_defaults(handler=cmd_phi)

    p_series = subparsers.add_parser(
        "series", help="print exact series coefficients, one per line"
    )
    p_series.add_argument(
        "--which", choices=sorted(SERIES_BUILDERS), required=True
    )
    p_series.add_argument("--order", type=int, required=True)
    p_series.set_defaults(handler=cmd_series)

    p_verify = subparsers.add_parser(
        "verify", help="run the whole cross-verification battery"
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=8)
    p_verify.add_argument("--order", type=int, default=100)
    p_verify.add_argument(
        "--deep",
        action="store_true",
        help="sweep to n = 10 and compare enumeration with the series to n = 11",
    )
    p_verify.set_defaults(handler=cmd_verify)

    for sub in (p_count, p_enum, p_phi, p_series, p_verify):
        sub.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
