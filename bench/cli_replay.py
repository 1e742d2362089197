"""Replay one `quotcoh.cli` command in a fresh interpreter, with spans.

    python bench/cli_replay.py --spans FILE -- hilbert --p 7 --m 3

Run by `run.py --trace 1` for the paper-tables-cli workload, once per op,
so every replay starts with cold caches exactly as the CLI does.  Before
the command itself it calls the layers the command is built from: for
`hilbert` it warms `sym_power(k3_h2_profile(p), k)` for k <= m, so the
`hilbert.graded_profile` span that follows is the assembly only.  The
command's stdout is written unchanged (the caller checks its hash) and
the spans go to FILE as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402

# (p, m) pairs whose quotient reports `tables` builds, and its bb rows
TABLE_REPORTS = ((5, 2), (7, 2), (5, 3), (7, 3))
TABLE_BB = tuple((5, m) for m in range(2, 5)) + tuple((7, m) for m in range(2, 7))


def warm_hilbert(tr: Tracer, p: int, m: int) -> None:
    from quotcoh.engine import quotient_report
    from quotcoh.hilbert import hilbert_invariants, k3_h2_profile
    from quotcoh.profiles import sym_power

    h2 = k3_h2_profile(p)
    for k in range(1, m + 1):
        with tr.span("profiles.sym_power"):
            sym_power(h2, k)
    with tr.span("hilbert.graded_profile"):
        inv = hilbert_invariants(p, m)
    with tr.span("engine.quotient_report"):
        quotient_report(inv)


def bb(tr: Tracer, p: int, m: int) -> None:
    from quotcoh.hilbert import bb_quotient

    with tr.span("hilbert.bb_quotient"):
        bb_quotient(p, m)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    tr = Tracer()
    with tr.span("cli.import") as record:
        record["start"] = T0
        from quotcoh import cli
    args = cli.build_parser().parse_args(argv)
    if args.command == "hilbert":
        warm_hilbert(tr, args.p, args.m)
        bb(tr, args.p, args.m)
    elif args.command == "tables":
        for p, m in TABLE_REPORTS:
            warm_hilbert(tr, p, m)
        for p, m in TABLE_BB:
            bb(tr, p, m)
    with tr.span("cli.command"):
        status, payload = args.fn(args)
    with tr.span("cli.serialize"):
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    Path(opts.spans).write_text(json.dumps(tr.spans), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
