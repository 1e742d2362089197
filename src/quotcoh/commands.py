"""The handlers of the commands that no paper table runs.

profile, lattice, quotient, toric and selftest read their input here, JSON
or the --weights flag, call their layers and return (status, payload) to
cli.main, which writes it.  cli imports this module only when one of these
commands runs, so a process that prints the paper's tables (hilbert, k3 or
tables) never compiles it.  Nothing here imports quotcoh.cli: run as
`python -m quotcoh.cli`, that module is __main__, and importing it would
compile it a second time.
"""

from __future__ import annotations

import json
import sys


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


def _lattice_payload(l) -> dict:
    from .lattices import discriminant, invariants

    inv = invariants(l)
    return {
        "rank": inv.rank,
        "signature": list(inv.signature),
        "discriminant": discriminant(l),
        "discriminant_group": list(inv.discriminant_group),
        "even": inv.even,
        "gram": l.gram.to_lists(),
    }


def _weight(text: str) -> int:
    """One --weights item, spelled as str(int) writes it: the rule of cli's
    integer flags, which engine._json_key applies to JSON keys."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"--weights: cannot read {text!r} as an integer")
    return value


def _profile(args) -> tuple[int, dict]:
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


def _lattice(args) -> tuple[int, dict]:
    from .lattices import Lattice

    return 0, _lattice_payload(Lattice(_json_matrix(_load_json(args.input)["gram"], "gram")))


def _quotient(args) -> tuple[int, dict]:
    from .engine import GradedInvariants, json_int, quotient_report

    data = _load_json(args.input)
    if args.action == "pushforward":
        from .lattices import GLattice, pushforward_quotient_lattice

        allow_trivial = data.get("allow_trivial", False)
        if not isinstance(allow_trivial, bool):
            raise ValueError(f"allow_trivial must be true or false, not {allow_trivial!r}")
        gl = GLattice(
            gram=_json_matrix(data["gram"], "gram"),
            action=_json_matrix(data["action"], "action"),
            p=json_int(data["p"], "p"),
            allow_trivial=allow_trivial,
        )
        return 0, _lattice_payload(pushforward_quotient_lattice(gl))
    inv = GradedInvariants.from_json(data)
    return 0, quotient_report(inv, conjectural_split=args.conjectural_split).to_json()


def _toric(args) -> tuple[int, dict]:
    from .toric import (
        CyclicSingularity,
        hj_resolution,
        is_regular,
        quotient_fan,
        resolve,
        surface_chain,
    )

    weights = tuple(_weight(item) for item in args.weights.split(","))
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


def _selftest(args) -> tuple[int, dict]:
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


# the handler of each command of this module, by the name cli's parser gives it
HANDLERS = {
    "profile": _profile,
    "lattice": _lattice,
    "quotient": _quotient,
    "toric": _toric,
    "selftest": _selftest,
}
