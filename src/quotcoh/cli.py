"""Command-line front end: JSON I/O and the golden-table regression runner.

Exit codes: 0 on success, 1 on a golden-table mismatch or failed selftest,
2 on invalid input or an --output path that cannot be written.  Output is
deterministic for fixed input (sorted JSON keys, fixed row ordering, no
unseeded randomness).

Only argparse, json and sys load with this module: each command imports
the layers it calls, so a process compiles no layer its command skips
(see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice


class InputError(Exception):
    pass


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
        raise InputError(f"cannot read JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"JSON input must be an object, not {type(data).__name__}")
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
    try:
        action = _json_matrix(data["action"], "action")
        p = json_int(data["p"], "p")
        prof = jordan_profile(action, p)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return 0, {
        "p": p,
        "counts": {str(q): c for q, c in prof.blocks},
        "dimension": prof.dimension(),
    }


def _cmd_lattice(args) -> tuple[int, dict]:
    from .lattices import Lattice

    data = _load_json(args.input)
    try:
        l = Lattice(_json_matrix(data["gram"], "gram"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    out = _lattice_payload(l)
    out["gram"] = l.gram.to_lists()
    return 0, out


def _cmd_quotient(args) -> tuple[int, dict]:
    from .engine import GradedInvariants, json_int, quotient_report
    from .lattices import GLattice, pushforward_quotient_lattice

    data = _load_json(args.input)
    try:
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
        report = quotient_report(inv, conjectural_split=args.conjectural_split)
        return 0, report.to_json()
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


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
        weights = tuple(int(w) for w in args.weights.split(","))
        sing = CyclicSingularity(p=args.p, weights=weights)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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

    try:
        return 0, hilbert_report(args.p, args.m, conjectural_split=args.conjectural_split)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_k3(args) -> tuple[int, dict]:
    from .hilbert import k3_table

    try:
        row = k3_table(args.p, args.kind)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
    from .hilbert import K3_TABLE, k3_table

    return [_k3_row(k3_table(spec.p, spec.kind)) for spec in K3_TABLE if spec.kind == kind]


def _rows_torsion2() -> list[dict]:
    from .hilbert import hilbert_report

    rows = []
    for p, m in ((5, 2), (7, 2), (5, 3), (7, 3)):
        rep = hilbert_report(p, m)
        inv = rep["invariants"]
        l_plus_even = {
            str(d["k"]): d["l_plus"]
            for d in inv["degrees"]
            if d["k"] % 2 == 0 and 0 < d["k"] <= 2 * m and d["l_plus"]
        }
        pairs = {
            k: v for k, v in rep["report"]["odd_torsion_pairs"].items()
            if int(k) <= m  # the mirror partners k > n/2 repeat these
        }
        rows.append(
            {
                "p": p,
                "m": m,
                "l_plus_even": l_plus_even,
                "eta": rep["eta"],
                "odd_torsion_pairs": pairs,
            }
        )
    return rows


def _rows_betti() -> list[dict]:
    from .hilbert import betti_table

    rows = []
    for p, m in ((5, 2), (7, 2), (5, 3), (7, 3)):
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

_COMPARED_KEYS = {
    "k3-symplectic": ("p", "rank", "signature", "discriminant_group", "singular_points", "l_plus_2", "l_p_2"),
    "k3-nonsymplectic": ("p", "rank", "signature", "discriminant_group", "singular_points", "l_plus_2", "l_p_2"),
    "torsion2": ("p", "m", "l_plus_even", "eta", "odd_torsion_pairs"),
    "betti": ("p", "m", "b2", "b4", "b6", "singular_points"),
    "bb": ("p", "m", "rank", "signature", "discriminant_group", "fujiki"),
}


def _cmd_tables(args) -> tuple[int, dict]:
    which = list(_TABLES) if args.which == "all" else [args.which]
    results = {}
    status = 0
    for table_id in which:
        if table_id not in _TABLES:
            raise InputError(f"unknown table {table_id!r}")
        golden_name, builder = _TABLES[table_id]
        expected_rows = _golden(golden_name)["rows"]
        computed_rows = builder()
        keys = _COMPARED_KEYS[table_id]
        diffs = []
        for want, got in zip(expected_rows, computed_rows):
            for key in keys:
                if want.get(key) != got.get(key):
                    diffs.append(
                        {"row": {k: want.get(k) for k in ("p", "m") if k in want},
                         "key": key, "expected": want.get(key), "computed": got.get(key)}
                    )
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
        raise InputError(f"--rounds must be at least 1, got {args.rounds}")
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
    parser = argparse.ArgumentParser(
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
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,2")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_toric)

    p = sub.add_parser("hilbert", help="quotient report for Hilbert schemes of K3 points")
    p.add_argument("--p", type=int, required=True, choices=(5, 7))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--conjectural-split", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("k3", help="one row of the prime-order K3 quotient tables")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kind", default="symplectic", choices=("symplectic", "non-symplectic"))
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_k3)

    p = sub.add_parser("tables", help="recompute tables and diff against golden data")
    p.add_argument("--which", default="all", choices=tuple(_TABLES) + ("all",))
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("selftest", help="randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=40)
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
    stack = [payload]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            # a row of ints, such as a Gram matrix row, is bounded by its min and max
            if value and set(map(type, value)) == {int}:
                if not (-bound < min(value) and max(value) < bound):
                    raise ValueError(f"an integer has more than {limit} digits")
            else:
                stack.extend(value)
        elif type(value) is int and not -bound < value < bound:
            raise ValueError(f"an integer has more than {limit} digits")


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, payload = args.fn(args)
        text = args.command == "tables" and args.format == "text"
        if not text:
            try:
                _check_json_ints(payload)
            except ValueError as exc:
                # sums of counts near the input limit pass Python's 4300-digit limit
                raise InputError(f"cannot write the result as JSON: {exc}") from exc
        output = getattr(args, "output", None)
        if output:
            try:
                with open(output, "w", encoding="utf-8") as fh:
                    _write(fh, payload, text)
            except OSError as exc:
                raise InputError(f"cannot write output: {exc}") from exc
        else:
            _write(sys.stdout, payload, text)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}, sort_keys=True, indent=2) + "\n")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
