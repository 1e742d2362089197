"""Tests of the benchmark itself: seeded generators and the correctness checks.

Every check is fed a correct answer computed by the package, then a
deliberately perturbed copy, and must reject the copy, so no check can
pass vacuously.
"""

import copy
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
from run import LatticeScan, ToricResolve  # noqa: E402
from spans import Tracer  # noqa: E402

GOLDEN = oracles.load_golden(HERE.parent / "src")
HASHES = json.loads((HERE / "cli_sha256.json").read_text(encoding="utf-8"))


# --- generators -----------------------------------------------------------------

def test_glattice_is_deterministic_and_seeded():
    a = gen.glattice(random.Random(5), 3, 1, 1, 1)
    b = gen.glattice(random.Random(5), 3, 1, 1, 1)
    c = gen.glattice(random.Random(6), 3, 1, 1, 1)
    assert (a.gram, a.action) == (b.gram, b.action)
    assert (a.gram, a.action) != (c.gram, c.action)


@pytest.mark.parametrize("rung", [(2, 2, 2, 2), (5, 2, 1, 2), (7, 1, 1, 1)])
def test_glattice_is_an_order_p_isometry(rung):
    inp = gen.glattice(random.Random(1), *rung)
    p, n = inp.p, inp.rank
    assert n == inp.l_plus + (p - 1) * inp.l_minus + p * inp.l_p
    power = gen.identity(n)
    for _ in range(p):
        power = gen.matmul(power, inp.action)
    assert power == gen.identity(n)
    assert gen.matmul(gen.matmul(gen.transpose(inp.action), inp.gram), inp.action) == inp.gram
    fixed = gen.matmul(inp.action, inp.invariant_basis)
    assert fixed == inp.invariant_basis


def test_seeded_basis_is_deterministic_and_keeps_the_lattice():
    inp = gen.glattice(random.Random(1), 5, 2, 1, 2)
    a = gen.in_seeded_basis(inp, random.Random(8))
    assert a == gen.in_seeded_basis(inp, random.Random(8))
    assert a != gen.in_seeded_basis(inp, random.Random(9))
    assert oracles.det(a.gram) == oracles.det(inp.gram)
    assert a.rank == inp.rank
    assert gen.matmul(gen.matmul(gen.transpose(a.action), a.gram), a.action) == a.gram
    assert gen.matmul(a.action, a.invariant_basis) == a.invariant_basis


def test_ladder_spans_the_stated_ranks():
    ranks = [l + (p - 1) * m + p * f for p, l, m, f in gen.LATTICE_LADDER]
    assert min(ranks) == 8 and max(ranks) == 48
    assert {p for p, *_ in gen.LATTICE_LADDER} == {2, 3, 5, 7, 11, 13}


def test_toric_pass_is_deterministic_and_a_relabelling():
    assert gen.toric_pass(3) == gen.toric_pass(3)
    assert gen.toric_pass(3) != gen.toric_pass(4)
    catalogue = gen.toric_catalogue()
    assert len(catalogue) == sum(count for _, _, count in gen.TORIC_RANGES.values())

    def canon(p, w):
        # the singularity up to a change of generator and weight order
        return p, min(tuple(sorted(k * a % p for a in w)) for k in range(1, p))

    assert sorted(canon(*s) for s in gen.toric_pass(3)) == sorted(canon(*s) for s in catalogue)


def test_cli_pass_is_a_seeded_order_of_all_ops():
    a = gen.cli_pass(random.Random(1))
    assert a == gen.cli_pass(random.Random(1))
    assert a != gen.cli_pass(random.Random(2))
    assert len(gen.CLI_OPS) == 19
    for i, op in enumerate(gen.CLI_OPS):
        assert a.count(i) == gen.cli_runs(op)
    assert set(HASHES) == {gen.op_key(op) for op in gen.CLI_OPS}


# --- oracles ------------------------------------------------------------------------

def test_oracle_closed_forms():
    assert oracles.goettsche_betti(1) == [1, 0, 22, 0, 1]
    assert oracles.goettsche_betti(2) == [1, 0, 23, 0, 276, 0, 23, 0, 1]
    assert oracles.goettsche_betti(3)[4] == 299
    assert oracles.continued_fraction(5, 2) == [3, 2]
    assert oracles.continued_fraction(7, 6) == [2] * 6
    assert [oracles.fujiki(r["p"], r["m"]) for r in GOLDEN["bb"]] == [r["fujiki"] for r in GOLDEN["bb"]]
    assert oracles.det([[2, 1], [1, 2]]) == 3 and oracles.det([[0, 1], [1, 0]]) == -1


def cli_stdout(*argv) -> bytes:
    from quotcoh.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode()


def perturbed(out: dict, edit) -> bytes:
    out = copy.deepcopy(out)
    edit(out)
    return json.dumps(out, sort_keys=True, indent=2).encode() + b"\n"


CLI_CASES = {
    ("hilbert", "--p", "5", "--m", "2"): [
        lambda o: o.update(fujiki_constant=o["fujiki_constant"] + 1),
        lambda o: o["bb_lattice"]["gram"][-1].__setitem__(-1, o["bb_lattice"]["gram"][-1][-1] - 1),
        lambda o: o["bb_lattice"].update(signature=[4, 3]),
        lambda o: o["bb_lattice"].update(discriminant_group=[5, 50]),
        lambda o: o["invariants"]["degrees"][2].update(rank=22),
        lambda o: o["invariants"]["degrees"][4].update(l_plus=o["invariants"]["degrees"][4]["l_plus"] + 5),
        lambda o: o.update(eta=o["eta"] + 1),
        lambda o: o["report"]["odd_torsion_pairs"].update({"1": 0}),
        lambda o: o["betti"].__setitem__(2, 8),
    ],
    ("tables", "--which", "all"): [
        lambda o: o.update(all_match=False),
        lambda o: o["tables"]["bb"]["computed"][0].update(fujiki=16),
        lambda o: o["tables"]["betti"]["computed"][1].update(b4=1),
        lambda o: o["tables"]["k3-symplectic"]["computed"].pop(),
    ],
    ("k3", "--p", "2", "--kind", "symplectic"): [
        lambda o: o.update(singular_points=7),
        lambda o: o.update(pushforward_verified=None),
        lambda o: o.update(l_p_2=9),
        lambda o: o.update(kind="non-symplectic"),
    ],
}


@pytest.mark.parametrize("argv", list(CLI_CASES), ids=gen.op_key)
def test_cli_check_accepts_the_answer_and_rejects_perturbations(argv):
    stdout = cli_stdout(*argv)
    assert oracles.check_cli(argv, stdout, HASHES[gen.op_key(argv)], GOLDEN) == []
    assert oracles.check_cli(argv, stdout + b" ", HASHES[gen.op_key(argv)], GOLDEN) != []
    out = json.loads(stdout)
    for edit in CLI_CASES[argv]:
        bad = perturbed(out, edit)
        # hash the perturbed bytes, so only the content checks can catch it
        assert oracles.check_cli(argv, bad, oracles.sha256(bad), GOLDEN) != [], edit


def lattice_answer(inp):
    from quotcoh.intmat import IntMatrix
    from quotcoh.lattices import GLattice

    gl = GLattice(gram=IntMatrix(inp.gram), action=IntMatrix(inp.action), p=inp.p)
    return LatticeScan().run((inp, gl))


@pytest.mark.parametrize("rung", [(2, 2, 1, 1), (5, 2, 1, 1)])
def test_lattice_check_accepts_the_answer_and_rejects_perturbations(rung):
    inp = gen.glattice(random.Random(2), *rung)
    ans = lattice_answer(inp)
    assert oracles.check_lattice(inp, ans) == []
    p = inp.p
    edits = [
        ("bns", (ans["bns"][0] + 1,) + ans["bns"][1:]),
        ("h1", ans["h1"] + (p,)),
        ("h2", ()),
        ("push_gram", ans["push_gram"][:-1]),
        ("push_gram", [[2 * e for e in row] for row in ans["push_gram"]]),
        ("src_inv", (ans["src_inv"][0], ans["src_inv"][1], ans["src_inv"][2] + (p,))),
        ("push_inv", (ans["push_inv"][0] + 1,) + ans["push_inv"][1:]),
        ("profile", {**ans["profile"], 1: ans["profile"].get(1, 0) + 1}),
    ]
    for key, value in edits:
        assert oracles.check_lattice(inp, {**ans, key: value}) != [], key


def toric_answer(p, weights):
    from quotcoh.toric import CyclicSingularity

    return ToricResolve().run(CyclicSingularity(p=p, weights=weights))


@pytest.mark.parametrize("p,weights", [(7, (1, 3)), (11, (2, 9)), (7, (1, 2, 4)), (5, (1, 2, 3, 4))])
def test_toric_check_accepts_the_answer_and_rejects_perturbations(p, weights):
    ans = toric_answer(p, weights)
    assert oracles.check_toric(p, weights, ans) == []
    n = len(weights)
    cone = ans["cones"][0]
    doubled = [tuple(2 * x for x in cone[0])] + list(cone[1:])
    negative = [tuple(-x for x in cone[0])] + list(cone[1:])
    edits = [
        {"original": [tuple(2 * x for x in ans["original"][0])] + ans["original"][1:]},
        {"cones": [doubled] + ans["cones"][1:]},
        {"cones": [negative] + ans["cones"][1:]},
    ]
    if n == 2:
        edits += [{"chain": ans["chain"][:-1]}, {"hj_chain": tuple(b - 1 for b in ans["hj_chain"])},
                  {"cones": ans["cones"][:1]}]
    for edit in edits:
        assert oracles.check_toric(p, weights, {**ans, **edit}) != [], edit


def test_tracer_records_parents_and_ops():
    tr = Tracer()
    with tr.span("op", 7):
        with tr.span("lattices.invariants"):
            pass
        tr.adopt([{"id": 0, "name": "cli.import", "start": 0.0, "end": 1.0, "parent": None, "op": None}],
                 parent=0, op=7)
    assert [(s["name"], s["parent"], s["op"]) for s in tr.spans] == [
        ("op", None, 7), ("lattices.invariants", 0, 7), ("cli.import", 0, 7)]
    assert tr.calls("lattices") == 1 and tr.calls("cli") == 1
    assert tr.busy("cli.import") == 1.0
