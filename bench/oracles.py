"""Correctness checks that do not use the code under test.

Each `check_*` function takes a workload's answer as plain data (ints,
lists, parsed JSON) and returns a list of failure messages; an empty list
means the answer passed.  The references are the golden tables shipped
with the package (read-only), closed forms, and small exact routines
written here: a Bareiss determinant, rational solving, continued
fractions and Goettsche's generating function.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path


def det(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_rational(columns: list[tuple[int, ...]], b: tuple[int, ...]) -> list[Fraction] | None:
    """x with sum x_j * columns[j] = b for n independent columns in Q^n."""
    n = len(b)
    a = [[Fraction(col[i]) for col in columns] + [Fraction(b[i])] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


def continued_fraction(p: int, a: int) -> list[int]:
    """b_i >= 2 with p/a = b_1 - 1/(b_2 - 1/(...))."""
    out = []
    num, den = p, a
    while den:
        b = -(-num // den)
        out.append(b)
        num, den = den, b * den - num
    return out


def goettsche_betti(m: int) -> list[int]:
    """Betti numbers b_0..b_4m of the m-point Hilbert scheme of a K3 surface.

    Coefficient of q^m in prod_r 1 / ((1 - t^(2r-2) q^r) (1 - t^(2r) q^r)^22 (1 - t^(2r+2) q^r)).
    """
    series = {0: {0: 1}}  # q-degree -> {t-degree: coefficient}
    for r in range(1, m + 1):
        for t_step, mult in ((2 * r - 2, 1), (2 * r, 22), (2 * r + 2, 1)):
            nxt: dict[int, dict[int, int]] = {}
            for qd, poly in series.items():
                for j in range(0, (m - qd) // r + 1):
                    c = comb(mult + j - 1, j)
                    row = nxt.setdefault(qd + r * j, {})
                    for td, v in poly.items():
                        row[td + t_step * j] = row.get(td + t_step * j, 0) + v * c
            series = nxt
    top = series.get(m, {})
    return [top.get(k, 0) for k in range(4 * m + 1)]


def fujiki(p: int, m: int) -> int:
    """The closed form p^(m-1) (2m)! / (m! 2^m)."""
    return p ** (m - 1) * factorial(2 * m) // (factorial(m) * 2 ** m)


def bb_target(p: int, m: int) -> tuple[int, list[int], int]:
    """(rank, signature, |det|) of U(5)+U^2+(-10(m-1)) resp. U+Lambda7+(-14(m-1))."""
    if p == 5:
        return 7, [3, 4], 25 * 10 * (m - 1)
    return 5, [3, 2], 7 * 14 * (m - 1)


# --- the paper's tables through the CLI -----------------------------------

COMPARED_KEYS = {
    "k3-symplectic": ("p", "rank", "signature", "discriminant_group", "singular_points", "l_plus_2", "l_p_2"),
    "k3-nonsymplectic": ("p", "rank", "signature", "discriminant_group", "singular_points", "l_plus_2", "l_p_2"),
    "torsion2": ("p", "m", "l_plus_even", "eta", "odd_torsion_pairs"),
    "betti": ("p", "m", "b2", "b4", "b6", "singular_points"),
    "bb": ("p", "m", "rank", "signature", "discriminant_group", "fujiki"),
}
GOLDEN_FILES = {
    "k3-symplectic": "k3_symplectic", "k3-nonsymplectic": "k3_nonsymplectic",
    "torsion2": "torsion2", "betti": "betti", "bb": "bb",
}


def load_golden(src: Path) -> dict[str, list[dict]]:
    """Golden rows by table id, read from the package's data files."""
    out = {}
    for table_id, name in GOLDEN_FILES.items():
        path = src / "quotcoh" / "golden" / f"{name}.json"
        out[table_id] = json.loads(path.read_text(encoding="utf-8"))["rows"]
    return out


def _golden_row(rows: list[dict], **key) -> dict | None:
    return next((r for r in rows if all(r.get(k) == v for k, v in key.items())), None)


def check_hilbert(p: int, m: int, out: dict, golden: dict) -> list[str]:
    errs = []
    if (out.get("p"), out.get("m")) != (p, m):
        errs.append(f"echoes p={out.get('p')} m={out.get('m')}")
    if out.get("fujiki_constant") != fujiki(p, m):
        errs.append(f"fujiki {out.get('fujiki_constant')} != {fujiki(p, m)}")
    bb = out.get("bb_lattice", {})
    rank, sig, disc = bb_target(p, m)
    if bb.get("rank") != rank or bb.get("signature") != sig:
        errs.append(f"bb rank/signature {bb.get('rank')}/{bb.get('signature')} != {rank}/{sig}")
    gram = bb.get("gram", [])
    if abs(det(gram)) != disc:
        errs.append(f"bb |det| {abs(det(gram))} != {disc}")
    if prod(bb.get("discriminant_group", [])) != disc:
        errs.append("bb discriminant group order differs from |det|")
    row = _golden_row(golden["bb"], p=p, m=m)
    if row is None or bb.get("discriminant_group") != row["discriminant_group"]:
        errs.append("bb discriminant group differs from the golden row")
    betti = goettsche_betti(m)
    degrees = out.get("invariants", {}).get("degrees", [])
    if [d.get("rank") for d in degrees] != betti:
        errs.append("degree ranks differ from Goettsche's Betti numbers")
    for d in degrees:
        if d["rank"] != d["l_plus"] + (p - 1) * d["l_minus"] + p * d["l_pf"]:
            errs.append(f"degree {d['k']}: rank != l_plus + (p-1) l_minus + p l_pf")
    if m in (2, 3):
        t_row = _golden_row(golden["torsion2"], p=p, m=m)
        b_row = _golden_row(golden["betti"], p=p, m=m)
        eta = out.get("eta")
        l_plus_even = {
            str(d["k"]): d["l_plus"] for d in degrees
            if d["k"] % 2 == 0 and 0 < d["k"] <= 2 * m and d["l_plus"]
        }
        pairs = {k: v for k, v in out.get("report", {}).get("odd_torsion_pairs", {}).items() if int(k) <= m}
        if (eta, l_plus_even, pairs) != (t_row["eta"], t_row["l_plus_even"], t_row["odd_torsion_pairs"]):
            errs.append("eta / l_plus_even / odd torsion pairs differ from the golden row")
        qb = out.get("betti") or []
        got = (qb[2:3], qb[4:5], qb[6:7] if m == 3 else [None], eta)
        want = ([b_row["b2"]], [b_row["b4"]], [b_row["b6"]], b_row["singular_points"])
        if got != want:
            errs.append(f"quotient Betti numbers {got} differ from the golden row {want}")
    return errs


def check_tables(out: dict, golden: dict) -> list[str]:
    errs = []
    if out.get("all_match") is not True:
        errs.append("all_match is not true")
    tables = out.get("tables", {})
    for table_id, keys in COMPARED_KEYS.items():
        computed = tables.get(table_id, {}).get("computed", [])
        want = golden[table_id]
        if len(computed) != len(want):
            errs.append(f"{table_id}: {len(computed)} rows, golden has {len(want)}")
        for w, g in zip(want, computed):
            bad = [k for k in keys if w.get(k) != g.get(k)]
            if bad:
                errs.append(f"{table_id} p={w.get('p')} m={w.get('m')}: {bad} differ from golden")
        if table_id == "bb":
            for g in computed:
                if g.get("fujiki") != fujiki(g.get("p", 0), g.get("m", 0)):
                    errs.append(f"bb p={g.get('p')} m={g.get('m')}: fujiki differs from the closed form")
    return errs


def check_k3(p: int, kind: str, out: dict, golden: dict) -> list[str]:
    table = "k3-symplectic" if kind == "symplectic" else "k3-nonsymplectic"
    row = _golden_row(golden[table], p=p)
    errs = []
    if row is None:
        return [f"no golden row for p={p} {kind}"]
    keys = ("lattice",) + COMPARED_KEYS[table]
    bad = [k for k in keys if out.get(k) != row.get(k)]
    if bad or out.get("kind") != kind:
        errs.append(f"{bad or ['kind']} differ from the golden row")
    if out.get("l_plus_2", 0) + p * out.get("l_p_2", 0) != 22:
        errs.append("l_plus_2 + p * l_p_2 != 22")
    if out.get("pushforward_verified") != (True if (p, kind) == (2, "symplectic") else None):
        errs.append("pushforward_verified is wrong")
    return errs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(argv: tuple[str, ...], stdout: bytes, expected_sha: str | None, golden: dict) -> list[str]:
    """Checks one CLI op's stdout: its hash at the parent commit, then its content."""
    errs = []
    if expected_sha is None:
        errs.append("no recorded hash for this op")
    elif sha256(stdout) != expected_sha:
        errs.append("stdout differs from the recorded SHA-256")
    try:
        out = json.loads(stdout)
    except ValueError:
        return errs + ["stdout is not JSON"]
    cmd, args = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if cmd == "hilbert":
        errs += check_hilbert(int(args["--p"]), int(args["--m"]), out, golden)
    elif cmd == "tables":
        errs += check_tables(out, golden)
    elif cmd == "k3":
        errs += check_k3(int(args["--p"]), args["--kind"], out, golden)
    else:
        errs.append(f"no check for command {cmd!r}")
    return errs


# --- G-lattices --------------------------------------------------------------

def check_lattice(inp, ans: dict) -> list[str]:
    """`inp` is a gen.LatticeInput; `ans` holds the op's answers as plain data:
    bns (l_plus, l_minus, l_p), h1 and h2 divisors, push_gram, src_inv and
    push_inv as (rank, signature, discriminant group), profile {size: count}."""
    p, lp, lm, lf = inp.p, inp.l_plus, inp.l_minus, inp.l_p
    errs = []
    if tuple(ans["bns"]) != (lp, lm, lf):
        errs.append(f"bns {tuple(ans['bns'])} != built ({lp}, {lm}, {lf})")
    if tuple(ans["h1"]) != (p,) * lm:
        errs.append(f"H^1 divisors {ans['h1']} != (Z/{p})^{lm}")
    if tuple(ans["h2"]) != (p,) * lp:
        errs.append(f"H^2 divisors {ans['h2']} != (Z/{p})^{lp}")
    push_gram = ans["push_gram"]
    if len(push_gram) != lp + lf:
        errs.append(f"pushforward rank {len(push_gram)} != l_plus + l_p = {lp + lf}")
    for name, gram in (("src", inp.gram), ("push", push_gram)):
        rank, sig, disc = ans[f"{name}_inv"]
        if rank != len(gram) or sum(sig) != len(gram):
            errs.append(f"{name}: rank/signature {rank}/{sig} do not match the Gram size {len(gram)}")
        if prod(disc) != abs(det(gram)):
            errs.append(f"{name}: discriminant group order {prod(disc)} != |det| {abs(det(gram))}")
    want = {1: lp, p - 1: lm, p: lf} if p > 2 else {1: lp + lm, 2: lf}
    if {q: c for q, c in ans["profile"].items() if c} != {q: c for q, c in want.items() if c}:
        errs.append(f"Jordan profile {ans['profile']} != {want}")
    return errs


# --- cyclic quotient singularities ----------------------------------------

def check_toric(p: int, weights: tuple[int, ...], ans: dict) -> list[str]:
    """`ans` holds the original cone's rays, the resolved maximal cones (lists
    of rays), and for surfaces the resolved chain and the HJ chain."""
    errs = []
    orig = [tuple(r) for r in ans["original"]]
    if abs(det([list(r) for r in orig])) != p:
        errs.append(f"original cone has |det| {abs(det([list(r) for r in orig]))}, not {p}")
    for cone in ans["cones"]:
        if abs(det([list(r) for r in cone])) != 1:
            errs.append(f"cone {cone} is not regular")
            break
    added = sorted({tuple(r) for cone in ans["cones"] for r in cone} - set(orig))
    for r in added:
        x = solve_rational(orig, r)
        if x is None or any(c < 0 for c in x):
            errs.append(f"added ray {r} is not a non-negative combination of the original rays")
            break
    if len(weights) == 2:
        a = weights[1] * pow(weights[0], -1, p) % p
        cf = tuple(-b for b in continued_fraction(p, a))
        if tuple(ans["hj_chain"]) != cf:
            errs.append(f"HJ chain {ans['hj_chain']} != continued fraction {cf}")
        if tuple(ans["chain"]) not in (cf, cf[::-1]):
            errs.append(f"resolved chain {ans['chain']} != continued fraction {cf}")
        if len(added) != len(cf):
            errs.append(f"{len(added)} rays added, continued fraction has {len(cf)} terms")
    return errs
