"""Command-line front end: JSON I/O and the golden-table regression runner.

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
command skips (see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice


def _integer(text: str) -> int:
    """The integer text spells as str(int) does: no '+', blank, '_', leading
    zero or non-ASCII digit, the rule engine._json_key applies to JSON keys."""
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


def _unique_keys(pairs: list) -> dict:
    """The pairs of one JSON object as a dict; a repeated key is a ValueError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _load_json(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            data = json.load(sys.stdin, object_pairs_hook=_unique_keys)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, repeated keys and integers past Python's digit limit
        raise ValueError(f"cannot read JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"JSON input must be an object, not {type(data).__name__}")
    return data


def _json_matrix(value, name: str):
    """An integer matrix from a JSON list of rows; a bool or float entry is an error."""
    from .engine import json_int
    from .intmat import IntMatrix

    return IntMatrix([[json_int(e, f"{name} entry") for e in row] for row in value])


def _golden(name: str) -> dict:
    from importlib import resources

    ref = resources.files("quotcoh").joinpath("golden", f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _lattice_payload(l) -> dict:
    from .lattices import discriminant, invariants

    inv = invariants(l)
    return {
        "rank": inv.rank,
        "signature": list(inv.signature),
        "discriminant": discriminant(l),
        "discriminant_group": list(inv.discriminant_group),
        "even": inv.even,
    }


def _cmd_profile(args) -> tuple[int, dict]:
    from .engine import json_int
    from .profiles import jordan_profile

    data = _load_json(args.input)
    action = _json_matrix(data["action"], "action")
    p = json_int(data["p"], "p")
    prof = jordan_profile(action, p)
    return 0, {
        "p": p,
        "counts": {str(q): c for q, c in prof.blocks},
        "dimension": prof.dimension(),
    }


def _cmd_lattice(args) -> tuple[int, dict]:
    from .lattices import Lattice

    l = Lattice(_json_matrix(_load_json(args.input)["gram"], "gram"))
    out = _lattice_payload(l)
    out["gram"] = l.gram.to_lists()
    return 0, out


def _cmd_quotient(args) -> tuple[int, dict]:
    from .engine import GradedInvariants, json_int, quotient_report
    from .lattices import GLattice, pushforward_quotient_lattice

    data = _load_json(args.input)
    if args.action == "pushforward":
        allow_trivial = data.get("allow_trivial", False)
        if not isinstance(allow_trivial, bool):
            raise ValueError(f"allow_trivial must be true or false, not {allow_trivial!r}")
        gl = GLattice(
            gram=_json_matrix(data["gram"], "gram"),
            action=_json_matrix(data["action"], "action"),
            p=json_int(data["p"], "p"),
            allow_trivial=allow_trivial,
        )
        pushed = pushforward_quotient_lattice(gl)
        out = _lattice_payload(pushed)
        out["gram"] = pushed.gram.to_lists()
        return 0, out
    inv = GradedInvariants.from_json(data)
    return 0, quotient_report(inv, conjectural_split=args.conjectural_split).to_json()


def _cmd_toric(args) -> tuple[int, dict]:
    from .toric import (
        CyclicSingularity,
        hj_resolution,
        is_regular,
        quotient_fan,
        resolve,
        surface_chain,
    )

    try:
        weights = tuple(_integer(item) for item in args.weights.split(","))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--weights: {exc}") from None
    sing = CyclicSingularity(p=args.p, weights=weights)
    fan = quotient_fan(sing)
    resolved = resolve(fan)
    original_rays = set(fan.rays())
    added = sorted(r for r in resolved.rays() if r not in original_rays)
    out: dict = {
        "p": sing.p,
        "weights": list(weights),
        "rays_added": [list(r) for r in added],
        "maximal_cones": len(resolved.maximal),
        "regular": all(is_regular(c) for c in resolved.maximal),
    }
    if len(weights) == 2:
        a = (weights[1] * pow(weights[0], -1, sing.p)) % sing.p
        hj = hj_resolution(sing.p, a)
        chain = surface_chain(resolved, fan)
        if chain not in (hj.chain, hj.chain[::-1]):
            raise RuntimeError(
                f"resolution chain {chain} disagrees with the continued fraction {hj.chain}"
            )
        out["chain"] = list(hj.chain)
        out["exceptional_gram"] = hj.exceptional_gram.to_lists()
        out["det"] = sing.p  # |det| of the Gram, checked by hj_resolution's continuant
    return 0, out


def _cmd_hilbert(args) -> tuple[int, dict]:
    from .hilbert import hilbert_report

    return 0, hilbert_report(args.p, args.m, conjectural_split=args.conjectural_split)


def _cmd_k3(args) -> tuple[int, dict]:
    from .k3 import k3_table

    row = k3_table(args.p, args.kind)
    return 0, {
        **_k3_row(row),
        "kind": row.spec.kind,
        "pushforward_verified": row.pushforward_verified,
    }


def _k3_row(row) -> dict:
    """A K3 table row as the `k3` command and the tables print it (key order matters for text)."""
    return {
        "p": row.spec.p,
        "lattice": row.spec.lattice_name,
        "rank": row.invariants.rank,
        "signature": list(row.invariants.signature),
        "discriminant_group": list(row.invariants.discriminant_group),
        "singular_points": row.n_sing,
        "l_plus_2": row.spec.l_plus_2,
        "l_p_2": row.spec.l_p_2,
    }


def _rows_k3(kind: str) -> list[dict]:
    from .k3 import K3_TABLE, k3_table

    return [_k3_row(k3_table(spec.p, spec.kind)) for spec in K3_TABLE if spec.kind == kind]


# the (p, m) of the torsion and Betti tables' rows, in order
_REPORT_ROWS = ((5, 2), (7, 2), (5, 3), (7, 3))


def _rows_torsion2() -> list[dict]:
    from .hilbert import hilbert_invariants, hilbert_quotient_report

    rows = []
    for p, m in _REPORT_ROWS:
        degrees = hilbert_invariants(p, m).degrees
        report = hilbert_quotient_report(p, m)
        rows.append(
            {
                "p": p,
                "m": m,
                "l_plus_even": {str(k): degrees[k].l_plus for k in range(2, 2 * m + 1, 2)
                                if degrees[k].l_plus},
                "eta": report.eta,
                # the mirror partners k > n/2 repeat these
                "odd_torsion_pairs": {str(k): v for k, v in report.odd_torsion_pairs.items()
                                      if k <= m},
            }
        )
    return rows


def _rows_betti() -> list[dict]:
    from .hilbert import betti_table

    rows = []
    for p, m in _REPORT_ROWS:
        table = betti_table(p, m)
        rows.append(
            {"p": p, "m": m, "b2": table.b2, "b4": table.b4, "b6": table.b6,
             "singular_points": table.n_sing}
        )
    return rows


def _rows_bb() -> list[dict]:
    from .hilbert import bb_quotient
    from .lattices import invariants

    rows = []
    for p, max_m in ((5, 4), (7, 6)):
        for m in range(2, max_m + 1):
            lattice, fujiki = bb_quotient(p, m)
            inv = invariants(lattice)
            rows.append(
                {
                    "p": p,
                    "m": m,
                    "rank": inv.rank,
                    "signature": list(inv.signature),
                    "discriminant_group": list(inv.discriminant_group),
                    "fujiki": fujiki.numerator if fujiki.denominator == 1 else str(fujiki),
                }
            )
    return rows


_TABLES = {
    "k3-symplectic": ("k3_symplectic", lambda: _rows_k3("symplectic")),
    "k3-nonsymplectic": ("k3_nonsymplectic", lambda: _rows_k3("non-symplectic")),
    "torsion2": ("torsion2", _rows_torsion2),
    "betti": ("betti", _rows_betti),
    "bb": ("bb", _rows_bb),
}

def _cmd_tables(args) -> tuple[int, dict]:
    which = list(_TABLES) if args.which == "all" else [args.which]
    results = {}
    status = 0
    for table_id in which:
        golden_name, builder = _TABLES[table_id]
        expected_rows = _golden(golden_name)["rows"]
        try:
            computed_rows = builder()
        except Exception as exc:
            # a table that cannot be rebuilt fails its golden check; the input was fine
            computed_rows = []
            diffs = [{"key": "error", "computed": f"{type(exc).__name__}: {exc}"}]
        else:
            # every key a builder emits is compared; golden-only keys are notes
            diffs = [
                {"row": {k: want[k] for k in ("p", "m") if k in want},
                 "key": key, "expected": want.get(key), "computed": value}
                for want, got in zip(expected_rows, computed_rows)
                for key, value in got.items()
                if want.get(key) != value
            ]
            if len(expected_rows) != len(computed_rows):
                diffs.append({"key": "row count", "expected": len(expected_rows),
                              "computed": len(computed_rows)})
        results[table_id] = {
            "rows": len(computed_rows),
            "match": not diffs,
            "diffs": diffs,
            "computed": computed_rows,
        }
        if diffs:
            status = 1
    return status, {"tables": results, "all_match": status == 0}


def _cmd_selftest(args) -> tuple[int, dict]:
    from .selftest import run_selftest

    if args.rounds < 1:
        raise ValueError(f"--rounds must be at least 1, got {args.rounds}")
    results = run_selftest(seed=args.seed, rounds=args.rounds)
    payload = {
        "seed": args.seed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return (0 if payload["all_passed"] else 1), payload


def _tables_text(payload: dict) -> str:
    lines = []
    for table_id, result in payload["tables"].items():
        lines.append(f"== {table_id} ==")
        for row in result["computed"]:
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        lines.append("match" if result["match"] else f"MISMATCH: {result['diffs']}")
    lines.append("all tables match" if payload["all_match"] else "GOLDEN MISMATCH")
    return "\n".join(lines) + "\n"


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
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("lattice", help="discriminant, divisors and signature of a Gram matrix")
    add_io(p)
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("quotient", help="pushforward lattice or full quotient report")
    p.add_argument("action", choices=("pushforward", "report"))
    p.add_argument("--conjectural-split", action="store_true",
                   help="include the (unproven) conjectural odd-torsion split")
    add_io(p)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("toric", help="resolve an isolated cyclic quotient singularity")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,2")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_toric)

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
    p.add_argument("--which", default="all", choices=tuple(_TABLES) + ("all",))
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("selftest", help="randomized property suite")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--rounds", type=_integer, default=40)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_selftest)
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
        fh.write(_tables_text(payload))
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
