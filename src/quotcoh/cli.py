"""Command-line front end: the parser, the JSON output and main.

Exit codes: 0 on success; 1 on a golden-table mismatch or a failed
selftest, a table builder or selftest check that raises included; 2 on
invalid input or an unwritable output (--output file or stdout).  `main`
alone turns a command's KeyError, TypeError or ValueError, and an
argument the parser refuses, into exit 2, with {"error": message} on
stderr.  An integer flag or weight must be written as str(int) writes
it.  Output is deterministic for fixed input (sorted JSON keys, fixed
row ordering, no unseeded randomness).

Only argparse, json, os, sys and itertools load with this module: each
command imports the layers it calls, so a process compiles no layer its
command skips (see the package docstring).  This module keeps the parser,
main, the output and the handlers of `hilbert` and `k3`; the handler of
`tables` is in quotcoh.tables, and those of the other commands are in
quotcoh.commands, each imported only when one of its commands runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice


def _integer(text: str) -> int:
    """The integer text spells as str(int) does: no '+', blank, '_', leading
    zero or non-ASCII digit, the rule engine._json_key applies to JSON keys
    and commands._weight to the items of --weights."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if str(value) == text:
            return value
    raise argparse.ArgumentTypeError(f"cannot read {text!r} as an integer")


def _refuse(parser: argparse.ArgumentParser, message: str):
    """ArgumentParser.error of _Parser: a ValueError, which main reports as
    error JSON with exit 2, in place of argparse's usage text."""
    raise ValueError(message)


class _Parser(argparse.ArgumentParser):
    """The parser of the command and of each subcommand (argparse makes the
    subparsers of the parent's class); --help still prints and exits 0."""

    # a module function, not a def here: only argparse reads .error, and the
    # caller rule asks a method to be read as an attribute in the package
    error = _refuse


def _cmd_hilbert(args) -> tuple[int, dict]:
    from .hilbert import hilbert_report

    return 0, hilbert_report(args.p, args.m, conjectural_split=args.conjectural_split)


def _cmd_k3(args) -> tuple[int, dict]:
    from .k3 import k3_table, printed_row

    row = k3_table(args.p, args.kind)
    return 0, {
        **printed_row(row),
        "kind": row.spec.kind,
        "pushforward_verified": row.pushforward_verified,
    }


def _cmd_tables(args) -> tuple[int, dict]:
    from .tables import run_tables

    return run_tables(args)


def _cmd_elsewhere(args) -> tuple[int, dict]:
    """A command of quotcoh.commands, which only these commands compile."""
    from .commands import HANDLERS

    return HANDLERS[args.command](args)


# the ids of quotcoh.tables' tables, in its order, for `tables --which`
TABLE_IDS = ("k3-symplectic", "k3-nonsymplectic", "torsion2", "betti", "bb")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quotcoh",
        description="integral cohomology of prime-order cyclic quotients (exact arithmetic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", help="JSON input file ('-' for stdin)")
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("profile", help="Jordan profile of an order-p integer matrix")
    add_io(p)
    p.set_defaults(fn=_cmd_elsewhere)

    p = sub.add_parser("lattice", help="discriminant, divisors and signature of a Gram matrix")
    add_io(p)
    p.set_defaults(fn=_cmd_elsewhere)

    p = sub.add_parser("quotient", help="pushforward lattice or full quotient report")
    p.add_argument("action", choices=("pushforward", "report"))
    p.add_argument("--conjectural-split", action="store_true",
                   help="include the (unproven) conjectural odd-torsion split")
    add_io(p)
    p.set_defaults(fn=_cmd_elsewhere)

    p = sub.add_parser("toric", help="resolve an isolated cyclic quotient singularity")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,2")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_elsewhere)

    p = sub.add_parser("hilbert", help="quotient report for Hilbert schemes of K3 points")
    p.add_argument("--p", type=_integer, required=True, choices=(5, 7))
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--conjectural-split", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("k3", help="one row of the prime-order K3 quotient tables")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--kind", default="symplectic", choices=("symplectic", "non-symplectic"))
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_k3)

    p = sub.add_parser("tables", help="recompute tables and diff against golden data")
    p.add_argument("--which", default="all", choices=TABLE_IDS + ("all",))
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("selftest", help="randomized property suite")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--rounds", type=_integer, default=40)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_elsewhere)
    return parser


def _check_json_ints(payload) -> None:
    """ValueError if payload holds an int that json cannot write.

    Python refuses to turn an int of more than sys.get_int_max_str_digits()
    digits into text, and the encoder would fail on it partway through the
    output, so the payload is walked once before anything is written.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    bound = 10 ** limit
    # sums of counts near the input limit pass Python's 4300-digit limit
    message = f"cannot write the result as JSON: an integer has more than {limit} digits"
    stack = [payload]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            # a row of ints, such as a Gram matrix row, is bounded by its min and max
            if value and set(map(type, value)) == {int}:
                if not (-bound < min(value) and max(value) < bound):
                    raise ValueError(message)
            else:
                stack.extend(value)
        elif type(value) is int and not -bound < value < bound:
            raise ValueError(message)


def _write(fh, payload, text: bool) -> None:
    if text:
        from .tables import tables_text

        fh.write(tables_text(payload))
        return
    # the bytes of json.dump(payload, fh, sort_keys=True, indent=2), which
    # writes each encoder chunk, about one per number, on its own: for the
    # 9 MB of toric --p 1009 --weights 1,1008 that took 2.1 s on a 2-core
    # Xeon against 0.6 s for batches of 8192 chunks, and a batch is bounded
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    for batch in iter(lambda: "".join(islice(chunks, 8192)), ""):
        fh.write(batch)
    fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status, payload = args.fn(args)
        text = args.command == "tables" and args.format == "text"
        if not text:
            _check_json_ints(payload)
        output = getattr(args, "output", None)
        try:
            if output:
                with open(output, "w", encoding="utf-8") as fh:
                    _write(fh, payload, text)
            else:
                _write(sys.stdout, payload, text)
                sys.stdout.flush()
        except OSError as exc:
            if not output:
                # a closed stdout: send the interpreter's final flush to devnull
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise ValueError(f"cannot write output: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        # str(KeyError("n")) is the bare "'n'"
        message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        sys.stderr.write(json.dumps({"error": message}, sort_keys=True, indent=2) + "\n")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
