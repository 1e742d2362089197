"""The `tables` command: rebuild the paper's tables and diff them against golden data.

Each table's rows are rebuilt from the layers and compared, key by key,
with the golden rows shipped in quotcoh/golden.  cli imports this module
only when `tables` runs, so the `hilbert` and `k3` processes never compile
it.  Nothing here imports quotcoh.cli: run as `python -m quotcoh.cli`,
that module is __main__, and importing it would compile it a second time.
"""

from __future__ import annotations

import json


def _golden(name: str) -> dict:
    from importlib import resources

    ref = resources.files("quotcoh").joinpath("golden", f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _rows_k3(kind: str) -> list[dict]:
    from .k3 import K3_TABLE, k3_table, printed_row

    return [printed_row(k3_table(spec.p, spec.kind)) for spec in K3_TABLE if spec.kind == kind]


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


# table id -> (golden file name, row builder), in the order `--which all` runs
# them; cli.TABLE_IDS, the parser's choices, lists the same ids
_TABLES = {
    "k3-symplectic": ("k3_symplectic", lambda: _rows_k3("symplectic")),
    "k3-nonsymplectic": ("k3_nonsymplectic", lambda: _rows_k3("non-symplectic")),
    "torsion2": ("torsion2", _rows_torsion2),
    "betti": ("betti", _rows_betti),
    "bb": ("bb", _rows_bb),
}


def run_tables(args) -> tuple[int, dict]:
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


def tables_text(payload: dict) -> str:
    """The payload of run_tables as `tables --format text` prints it."""
    lines = []
    for table_id, result in payload["tables"].items():
        lines.append(f"== {table_id} ==")
        for row in result["computed"]:
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        lines.append("match" if result["match"] else f"MISMATCH: {result['diffs']}")
    lines.append("all tables match" if payload["all_match"] else "GOLDEN MISMATCH")
    return "\n".join(lines) + "\n"
