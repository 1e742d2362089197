import ast
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from quotcoh.cli import main
from quotcoh.engine import MAX_JSON_N


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


HERE = pathlib.Path(__file__).resolve().parent
# case -> {"input": payload, "stdout": ...} of `quotient pushforward`: the Nikulin
# involution and 20 seeded random G-lattices at p = 2, 3, 5, 7, 11, recorded with
# the image basis read as d_i times the columns of u^-1
_PUSHFORWARD = json.loads((HERE / "data" / "pushforward_stdout.json").read_text())
# paper op ("hilbert --p 5 --m 2", ...) -> SHA-256 of its stdout, shared with the benchmark
_PAPER_SHA256 = json.loads((HERE.parent / "bench" / "cli_sha256.json").read_text())


class TestPaperStdout:
    @pytest.mark.parametrize("op", sorted(_PAPER_SHA256))
    def test_stdout_matches_the_recorded_sha256(self, capsys, op):
        status, out, _ = run(capsys, *op.split())
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PAPER_SHA256[op]


class TestToricCommand:
    def test_5_2(self, capsys):
        status, out, _ = run(capsys, "toric", "--p", "5", "--weights", "1,2")
        assert status == 0
        data = json.loads(out)
        assert data["chain"] == [-3, -2]
        assert data["det"] == 5
        assert data["regular"] is True
        assert len(data["rays_added"]) == 2

    def test_three_dimensional(self, capsys):
        status, out, _ = run(capsys, "toric", "--p", "3", "--weights", "1,1,2")
        assert status == 0
        data = json.loads(out)
        assert data["regular"] is True
        assert "chain" not in data

    def test_bad_weights(self, capsys):
        status, _, err = run(capsys, "toric", "--p", "4", "--weights", "1,1")
        assert status == 2
        assert "error" in json.loads(err)


class TestProfileCommand:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"p": 5, "action": [[1, 0], [0, 1]]}))
        status, out, _ = run(capsys, "profile", "--input", str(path))
        assert status == 0
        assert json.loads(out)["counts"] == {"1": 2}

    def test_rejects_non_order_p(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"p": 5, "action": [[2]]}))
        status, _, err = run(capsys, "profile", "--input", str(path))
        assert status == 2

    def test_huge_prime_is_rejected_quickly(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"p": 2147483647, "action": [[0, 1], [1, 0]]}))
        start = time.perf_counter()
        status, _, err = run(capsys, "profile", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert status == 2
        assert "error" in json.loads(err)


class TestMalformedInput:
    """Wrongly typed JSON is invalid input: exit 2 with an error JSON, no traceback."""

    @pytest.mark.parametrize("argv, payload", [
        (("profile",), {"p": 5, "action": 3}),
        (("profile",), {"p": 5, "action": [[1.5]]}),
        (("profile",), [1, 2]),
        (("lattice",), [1, 2]),
        (("lattice",), {"gram": 3}),
        (("lattice",), "gram"),
        (("quotient", "pushforward"), {"p": 5, "gram": [[2]], "action": 7}),
        (("quotient", "report"), [{"p": 5}]),
    ])
    def test_exit_2(self, capsys, monkeypatch, argv, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        status, out, err = run(capsys, *argv, "--input", "-")
        assert status == 2
        assert out == ""
        message = json.loads(err)["error"]
        if not isinstance(payload, dict):
            assert message.startswith("JSON input must be an object")

    @pytest.mark.parametrize("gram, shape", [([[1, 2]], "1x2"), ([[1, 2], [2, 1], [3, 3]], "3x2")])
    def test_non_square_gram_names_its_shape(self, capsys, monkeypatch, gram, shape):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"gram": gram})))
        status, out, err = run(capsys, "lattice", "--input", "-")
        assert (status, out) == (2, "")
        assert json.loads(err) == {"error": f"Gram matrix must be square, got {shape}"}

    @pytest.mark.parametrize("argv, payload, key", [
        (("quotient", "report"), {"p": 3, "eta": 2, "degrees": []}, "n"),
        (("profile",), {"action": [[1]]}, "p"),
        (("lattice",), {"Gram": [[2]]}, "gram"),
    ])
    def test_missing_key_is_named(self, capsys, monkeypatch, argv, payload, key):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        status, out, err = run(capsys, *argv, "--input", "-")
        assert (status, out) == (2, "")
        assert json.loads(err) == {"error": f"missing key '{key}'"}

    @pytest.mark.parametrize("weights, item", [("1,,2", ""), ("1.0,2", "1.0"), ("a,b", "a"), ("1,2,", "")])
    def test_unreadable_weight_is_named(self, capsys, weights, item):
        status, out, err = run(capsys, "toric", "--p", "5", "--weights", weights)
        assert (status, out) == (2, "")
        assert json.loads(err) == {"error": f"--weights: cannot read {item!r} as an integer"}

    @pytest.mark.parametrize("argv, message", [
        (("toric", "--p", "1_3", "--weights", "11,2"), "argument --p: cannot read '1_3' as an integer"),
        (("toric", "--p", "13", "--weights", "1_1, 2"), "--weights: cannot read '1_1' as an integer"),
        (("toric", "--p", "13", "--weights", "11, 2"), "--weights: cannot read ' 2' as an integer"),
        (("k3", "--p", " 7"), "argument --p: cannot read ' 7' as an integer"),
        (("hilbert", "--p", "5", "--m", "\u0662"), "argument --m: cannot read '\u0662' as an integer"),
        (("selftest", "--rounds", "+3"), "argument --rounds: cannot read '+3' as an integer"),
        (("k3", "--p", "07"), "argument --p: cannot read '07' as an integer"),
    ])
    def test_integer_must_be_canonical(self, capsys, argv, message):
        # int() reads each of these; only the spelling str(int) writes is accepted
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert json.loads(err) == {"error": message}

    def test_canonical_integers_are_read(self, capsys):
        status, out, _ = run(capsys, "toric", "--p", "13", "--weights", "11,2")
        assert status == 0
        assert (json.loads(out)["p"], json.loads(out)["weights"]) == (13, [11, 2])

    @pytest.mark.parametrize("argv, message", [
        (("toric", "--p", "abc", "--weights", "1,2"), "argument --p: cannot read 'abc' as an integer"),
        (("toric", "--p", "5"), "the following arguments are required: --weights"),
        (("hilbert", "--p", "9", "--m", "2"), "argument --p: invalid choice: "),
        (("k3", "--p", "7", "--bogus"), "unrecognized arguments: --bogus"),
    ])
    def test_parser_errors_are_error_json(self, capsys, argv, message):
        # a prefix, as Python versions quote an invalid choice differently
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        error = json.loads(err)
        assert list(error) == ["error"] and error["error"].startswith(message)

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["toric", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quotcoh toric")

    @pytest.mark.parametrize("argv, payload", [
        (("profile",), {"p": 5.9, "action": [[0, 1], [1, 0]]}),
        (("profile",), {"p": True, "action": [[1]]}),
        (("profile",), {"p": "5", "action": [[1]]}),
        (("profile",), {"p": 5, "action": [[True, False], [False, True]]}),
        (("lattice",), {"gram": [[2.0, 1], [1, 2]]}),
        (("quotient", "pushforward"), {"p": 2.9, "gram": [[2, 1], [1, 2]], "action": [[0, 1], [1, 0]]}),
        (("quotient", "pushforward"),
         {"p": 3, "gram": [[2, 1], [1, 2]], "action": [[1, 0], [0, 1]], "allow_trivial": "yes"}),
        (("quotient", "report"), {"p": 5, "n": 1.9, "eta": 2, "degrees": []}),
        (("quotient", "report"), {"p": 5, "n": 10**30, "eta": 2, "degrees": []}),
        (("quotient", "report"), {"p": 5, "n": 10**7, "eta": 2, "degrees": []}),
        (("quotient", "report"), {"p": 5, "n": True, "eta": 2, "degrees": []}),
        (("quotient", "report"), {"p": 5, "n": 1, "eta": 2.0, "degrees": []}),
        (("quotient", "report"),
         {"p": 5, "n": 1, "eta": 2, "degrees": [{"k": 0.0, "rank": 1, "l_plus": 1}]}),
        (("quotient", "report"),
         {"p": 5, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 1.5, "l_plus": 1}]}),
        (("quotient", "report"),
         {"p": 5, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 1, "l_plus": 1, "l_qt": [1]}]}),
        (("quotient", "report"),
         {"p": 5, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 1, "l_qt": {"2": 0.5}}]}),
        (("quotient", "report"), {"p": 5, "n": 1, "eta": 2, "degrees": [[0]]}),
        # other spellings of the key "3": int() read {"3": 2, "03": 0} as {3: 0}, dropping the torsion
        *((("quotient", "report"),
           {"p": 3, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 1, "l_plus": 1},
                                                  {"k": 1, "rank": 0, "l_qt": {"3": 2, key: 0}},
                                                  {"k": 2, "rank": 1, "l_plus": 1}]})
          for key in ("03", " 3", "+3")),
    ])
    def test_non_integers_and_huge_n_exit_2(self, capsys, monkeypatch, argv, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        start = time.perf_counter()
        status, out, err = run(capsys, *argv, "--input", "-")
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("text", [
        '{"p": 5, "action": [[1' + "0" * 5000 + "]]}",  # past Python's int digit limit
        "[" * 100000 + "]" * 100000,
    ])
    def test_unparseable_json_exits_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        status, out, err = run(capsys, "profile", "--input", "-")
        assert (status, out) == (2, "")
        assert json.loads(err)["error"].startswith("cannot read JSON input")

    @pytest.mark.parametrize("argv, text", [
        (("profile",), '{"p": 3, "action": [[0, 1], [1, 0]], "p": 2}'),
        (("lattice",), '{"gram": [[2]], "gram": [[4]]}'),
        (("quotient", "report"),
         '{"p": 3, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 1, "l_plus": 1, "k": 2}]}'),
    ])
    def test_repeated_key_exits_2(self, capsys, monkeypatch, argv, text):
        # json.load keeps the last value of a repeated key; the CLI refuses to guess
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        status, out, err = run(capsys, *argv, "--input", "-")
        assert (status, out) == (2, "")
        assert json.loads(err)["error"].startswith("cannot read JSON input: duplicate key")

    def test_prime_beyond_trial_division_is_answered_quickly(self, capsys, monkeypatch):
        # p is past trial division and p^2 past int64: primality is Miller-Rabin
        # and the mod-p kernel runs on Python ints, so the answer comes at once
        payload = {"p": 1000000000000000003, "action": [[1]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        start = time.perf_counter()
        status, out, err = run(capsys, "profile", "--input", "-")
        assert time.perf_counter() - start < 1.0
        assert status == 0, err
        assert json.loads(out)["counts"] == {"1": 1}


def _fresh_cli(argv, payload=None):
    """(wall seconds, process) of one `quotcoh.cli` run in a fresh interpreter.

    The timeout turns work that grows with p into a failure instead of a hang.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "quotcoh.cli", *argv],
                          input=None if payload is None else json.dumps(payload),
                          capture_output=True, text=True, timeout=10)
    return time.perf_counter() - start, proc


class TestLargePrimesInFreshProcesses:
    def test_toric_surface_is_bounded_by_its_output(self):
        # stdout recorded with the stellar resolve, which took 5.1-5.6 s and 179 MB on a 2-core Xeon
        wall, proc = _fresh_cli(["toric", "--p", "1000003", "--weights", "1,2"])
        assert proc.returncode == 0, proc.stderr
        assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
                == "fc6f905d9694fd86e0a27be8b792af74952e9ea92d4001bb1f92ab5e2c96e797")
        assert wall < 2.0

    def test_infinite_order_isometry_is_refused(self):
        # a Pell unit of diag(1, -2): its p-th power over Z would have about p digits
        payload = {"p": 1000000007, "gram": [[1, 0], [0, -2]], "action": [[3, 4], [2, 3]]}
        _, proc = _fresh_cli(["quotient", "pushforward", "--input", "-"], payload)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["error"] == "action does not have order dividing 1000000007"

    def test_order_two_swap_is_refused_at_a_mersenne_prime(self):
        _, proc = _fresh_cli(["profile", "--input", "-"], {"p": 2147483647, "action": [[0, 1], [1, 0]]})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "not of order dividing p" in json.loads(proc.stderr)["error"]


class TestLatticeCommand:
    def test_hyperbolic_plane(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"gram": [[0, 1], [1, 0]]}))
        status, out, _ = run(capsys, "lattice", "--input", str(path))
        data = json.loads(out)
        assert status == 0
        assert data["discriminant"] == 1
        assert data["signature"] == [1, 1]
        assert data["discriminant_group"] == []


class TestQuotientCommand:
    @pytest.mark.parametrize("case", sorted(_PUSHFORWARD))
    def test_pushforward_stdout_pinned(self, capsys, tmp_path, case):
        path = tmp_path / "gl.json"
        path.write_text(json.dumps(_PUSHFORWARD[case]["input"]))
        status, out, _ = run(capsys, "quotient", "pushforward", "--input", str(path))
        assert status == 0
        assert out == _PUSHFORWARD[case]["stdout"]

    def test_report_refuses_torsion_blocks_larger_than_p(self, capsys, monkeypatch):
        # refused when the invariants are read, before the torsion-free check
        payload = {"p": 3, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 1, "l_plus": 1},
                                                         {"k": 1, "rank": 0, "l_qt": {"9": 1}},
                                                         {"k": 2, "rank": 1, "l_plus": 1}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        status, out, err = run(capsys, "quotient", "report", "--input", "-")
        assert (status, out) == (2, "")
        assert json.loads(err) == {"error": "degree 1: torsion block of size 9 > p = 3"}

    def test_report_refuses_unconnected_ends(self, capsys, monkeypatch):
        # rank 0 in degree 0: invariants of no closed connected oriented manifold
        payload = {"p": 5, "n": 1, "eta": 2, "degrees": [{"k": 0, "rank": 0},
                                                         {"k": 1, "rank": 0},
                                                         {"k": 2, "rank": 1, "l_plus": 1}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        status, out, err = run(capsys, "quotient", "report", "--input", "-")
        assert (status, out) == (2, "")
        assert json.loads(err) == {
            "error": "connected oriented space needs rank = l_plus = 1 at both ends"}

    def test_pushforward_trivial(self, capsys, tmp_path):
        path = tmp_path / "gl.json"
        path.write_text(
            json.dumps(
                {
                    "p": 5,
                    "gram": [[0, 1], [1, 0]],
                    "action": [[1, 0], [0, 1]],
                    "allow_trivial": True,
                }
            )
        )
        status, out, _ = run(capsys, "quotient", "pushforward", "--input", str(path))
        assert status == 0
        assert json.loads(out)["gram"] == [[0, 5], [5, 0]]

    @pytest.mark.parametrize("p, want", [
        (3, {"discriminant": 27, "discriminant_group": [3, 9], "even": True,
             "gram": [[6, 3], [3, 6]], "rank": 2, "signature": [2, 0]}),
        (1000000007, {"discriminant": 3000000042000000147,
                      "discriminant_group": [1000000007, 3000000021], "even": True,
                      "gram": [[2000000014, 1000000007], [1000000007, 2000000014]],
                      "rank": 2, "signature": [2, 0]}),
    ])
    def test_pushforward_trivial_action_is_bounded_in_p(self, capsys, monkeypatch, p, want):
        payload = {"p": p, "gram": [[2, 1], [1, 2]], "action": [[1, 0], [0, 1]], "allow_trivial": True}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        start = time.perf_counter()
        status, out, _ = run(capsys, "quotient", "pushforward", "--input", "-")
        assert time.perf_counter() - start < 1.0
        assert status == 0
        assert json.loads(out) == want

    def test_report(self, capsys, tmp_path):
        inv = {
            "p": 5,
            "n": 2,
            "eta": 4,
            "degrees": [
                {"k": 0, "rank": 1, "l_plus": 1},
                {"k": 1, "rank": 0},
                {"k": 2, "rank": 22, "l_plus": 2, "l_pf": 4},
                {"k": 3, "rank": 0},
                {"k": 4, "rank": 1, "l_plus": 1},
            ],
        }
        path = tmp_path / "inv.json"
        path.write_text(json.dumps(inv))
        status, out, _ = run(capsys, "quotient", "report", "--input", str(path))
        assert status == 0
        data = json.loads(out)
        assert data["degenerate"] is True
        assert data["odd_torsion_pairs"] == {"1": 2}

    @pytest.mark.parametrize("top", [
        [{"k": -1, "rank": 1, "l_plus": 1}],  # negative index into the top degree
        [{"k": 2, "rank": 1, "l_plus": 1}, {"k": 0, "rank": 1, "l_plus": 1}],  # degree 0 twice
    ])
    def test_report_rejects_bad_degree_index(self, capsys, tmp_path, top):
        inv = {
            "p": 5, "n": 1, "eta": 2,
            "degrees": [{"k": 0, "rank": 1, "l_plus": 1}, {"k": 1, "rank": 0}, *top],
        }
        path = tmp_path / "inv.json"
        path.write_text(json.dumps(inv))
        status, out, err = run(capsys, "quotient", "report", "--input", str(path))
        assert status == 2
        assert out == ""
        assert "error" in json.loads(err)

    def test_report_at_the_largest_n_is_linear(self, capsys, tmp_path):
        # the sums behind u and d_p are prefix sums; recomputed per degree
        # they took 2.3 s here
        n = MAX_JSON_N
        degrees = [{"k": k, "rank": 1 if k % 2 == 0 else 0, "l_plus": 1 if k % 2 == 0 else 0}
                   for k in range(2 * n + 1)]
        path = tmp_path / "inv.json"
        path.write_text(json.dumps({"p": 5, "n": n, "eta": n + 1, "degrees": degrees}))
        t0 = time.perf_counter()
        status, out, _ = run(capsys, "quotient", "report", "--input", str(path))
        elapsed = time.perf_counter() - t0
        assert status == 0
        data = json.loads(out)
        assert data["degenerate"] is True
        assert set(data["u"].values()) == {0} and len(data["u"]) == 2 * n - 2
        assert data["d_p_pairs"]["1"] == 1 + (n - 1) + 2
        assert elapsed < 1.0

    def test_result_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        # every count is within 4300 digits, but 2 l_+^2 in d_p is not
        huge = 9 * 10 ** 4299
        inv = {
            "p": 3, "n": 2, "eta": huge + 2,
            "degrees": [
                {"k": 0, "rank": 1, "l_plus": 1},
                {"k": 1, "rank": 0},
                {"k": 2, "rank": huge, "l_plus": huge},
                {"k": 3, "rank": 0},
                {"k": 4, "rank": 1, "l_plus": 1},
            ],
        }
        path = tmp_path / "inv.json"
        path.write_text(json.dumps(inv))
        status, out, err = run(capsys, "quotient", "report", "--input", str(path))
        assert status == 2
        assert out == ""
        assert "cannot write the result as JSON" in json.loads(err)["error"]

    @pytest.mark.parametrize("payload, fits", [
        ({"gram": [[0, 1], [1, 10 ** 4300]]}, False),
        ({"gram": [[0, 1], [1, 10 ** 4300 - 1]]}, True),
        ([[-(10 ** 4300)]], False),
        ([-(10 ** 4300 - 1), "x", None, True, 1.5], True),
        ({"a": [1, "x", {"b": (2, 10 ** 4300)}]}, False),
        ({"a": {"b": 10 ** 4300}}, False),
        (10 ** 4300, False),
    ], ids=["row", "row-at-limit", "negative", "mixed-list", "nested-tuple", "nested-dict", "bare"])
    def test_digit_check_walks_the_payload(self, payload, fits):
        from quotcoh.cli import _check_json_ints

        if fits:
            _check_json_ints(payload)
            json.dumps(payload)
        else:
            with pytest.raises(ValueError, match="more than 4300 digits"):
                _check_json_ints(payload)
            with pytest.raises(ValueError):
                json.dumps(payload)


class TestHilbertCommand:
    def test_p7_m2(self, capsys):
        status, out, _ = run(capsys, "hilbert", "--p", "7", "--m", "2")
        assert status == 0
        data = json.loads(out)
        assert data["eta"] == 9
        assert data["t3_plus_t7"] == 7
        assert data["t5"] == 3

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "hilbert", "--p", "5", "--m", "2")
        _, out2, _ = run(capsys, "hilbert", "--p", "5", "--m", "2")
        assert out1 == out2

    def test_out_of_range(self, capsys):
        status, _, err = run(capsys, "hilbert", "--p", "5", "--m", "9")
        assert status == 2

    def test_conjectural_split_is_opt_in(self, capsys):
        _, out_plain, _ = run(capsys, "hilbert", "--p", "5", "--m", "2")
        assert json.loads(out_plain)["report"]["conjectural_odd_torsion"] is None
        _, out_flagged, _ = run(capsys, "hilbert", "--p", "5", "--m", "2", "--conjectural-split")
        split = json.loads(out_flagged)["report"]["conjectural_odd_torsion"]
        # s_k sits in degree 2n - 2k + 1, so t^7 = t^(2n-1) = 1, the torsion of pi_1 = 0
        assert split == {"3": 10, "5": 4, "7": 1}


class TestK3Command:
    def test_symplectic_row(self, capsys):
        status, out, _ = run(capsys, "k3", "--p", "7", "--kind", "symplectic")
        assert status == 0
        data = json.loads(out)
        assert data["singular_points"] == 3
        assert data["rank"] == 4

    def test_unknown_row(self, capsys):
        status, _, _ = run(capsys, "k3", "--p", "13")
        assert status == 2

    def test_row_is_the_tables_row(self, capsys):
        for which, kind in (("k3-symplectic", "symplectic"), ("k3-nonsymplectic", "non-symplectic")):
            _, out, _ = run(capsys, "tables", "--which", which)
            for row in json.loads(out)["tables"][which]["computed"]:
                _, out, _ = run(capsys, "k3", "--p", str(row["p"]), "--kind", kind)
                data = json.loads(out)
                assert data.pop("kind") == kind
                verified = data.pop("pushforward_verified")
                assert verified == (True if (row["p"], kind) == (2, "symplectic") else None)
                assert data == row


class TestTablesCommand:
    def test_all_tables_match_golden(self, capsys):
        status, out, _ = run(capsys, "tables", "--which", "all")
        assert status == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert set(data["tables"]) == {
            "k3-symplectic", "k3-nonsymplectic", "torsion2", "betti", "bb",
        }

    def test_single_table(self, capsys):
        status, out, _ = run(capsys, "tables", "--which", "betti")
        assert status == 0
        assert json.loads(out)["tables"]["betti"]["match"] is True

    def test_text_format(self, capsys):
        status, out, _ = run(capsys, "tables", "--which", "betti", "--format", "text")
        assert status == 0
        assert "all tables match" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        status, out, _ = run(capsys, "tables", "--which", "betti", "--output", str(path))
        assert status == 0
        assert out == ""
        assert json.loads(path.read_text())["all_match"] is True

    def test_perturbed_golden_is_a_mismatch(self, capsys, monkeypatch):
        from quotcoh import tables

        golden = tables._golden

        def perturbed(name):
            data = golden(name)
            if name == "betti":
                data["rows"][0]["b4"] += 1
            elif name == "k3_symplectic":
                data["rows"][1]["lattice"] = "U(3) + U^2"
            elif name == "torsion2":
                data["rows"].pop()
            return data

        monkeypatch.setattr(tables, "_golden", perturbed)
        status, out, err = run(capsys, "tables", "--which", "all")
        assert status == 1
        assert err == ""
        data = json.loads(out)
        assert data["all_match"] is False
        assert {t: r["diffs"] for t, r in data["tables"].items() if not r["match"]} == {
            "betti": [{"row": {"p": 5, "m": 2}, "key": "b4", "expected": 61, "computed": 60}],
            "k3-symplectic": [{"row": {"p": 3}, "key": "lattice", "expected": "U(3) + U^2",
                               "computed": "U(3) + U^2 + A2(-1)^2"}],
            "torsion2": [{"key": "row count", "expected": 3, "computed": 4}],
        }
        status, out, _ = run(capsys, "tables", "--which", "all", "--format", "text")
        assert status == 1
        assert out.endswith("GOLDEN MISMATCH\n")

    def test_builder_that_raises_is_a_mismatch(self, capsys, monkeypatch):
        # a glue vector of order 3 pairs non-integrally with the 5-scaled base
        from quotcoh import hilbert

        monkeypatch.setitem(hilbert._BB_DATA[5], "glue", [{0: Fraction(1, 3)}])
        status, out, err = run(capsys, "tables", "--which", "bb")
        assert status == 1
        assert err == ""
        data = json.loads(out)
        assert data["all_match"] is False
        table = data["tables"]["bb"]
        assert (table["match"], table["rows"], table["computed"]) == (False, 0, [])
        (diff,) = table["diffs"]
        assert diff["key"] == "error"
        assert diff["computed"].startswith("ValueError: glue vector 0 pairs non-integrally")
        status, out, _ = run(capsys, "tables", "--which", "bb", "--format", "text")
        assert status == 1
        assert out.endswith("GOLDEN MISMATCH\n")


class TestBenchReplay:
    """bench/cli_replay.py, the benchmark's traced replay of one paper command."""

    @pytest.mark.parametrize("argv", [["hilbert", "--p", "7", "--m", "3"], ["tables", "--which", "all"]])
    def test_replay_prints_the_cli_stdout_and_traces_sym_power(self, argv, tmp_path):
        root = HERE.parent
        path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        spans = tmp_path / "spans.json"
        replay = subprocess.run(
            [sys.executable, str(root / "bench" / "cli_replay.py"), "--spans", str(spans), "--", *argv],
            capture_output=True, env=env, timeout=60)
        direct = subprocess.run([sys.executable, "-m", "quotcoh", *argv],
                                capture_output=True, env=env, timeout=60)
        assert replay.returncode == 0, replay.stderr
        assert direct.returncode == 0, direct.stderr
        assert replay.stdout == direct.stdout
        assert "profiles.sym_power" in {span["name"] for span in json.loads(spans.read_text())}


class TestBenchContract:
    """What bench/run.py and bench/cli_replay.py take from the package, in process.

    The benchmark imports its names inside its functions and calls a command's
    handler without main, so a moved name or handler fails only there, or
    only under --trace 1; these tests fail first.
    """

    def test_every_name_the_benchmark_imports_resolves(self):
        import importlib

        # (module, name) of every `from quotcoh... import name` in the two scripts
        found = set()
        for script in ("run.py", "cli_replay.py"):
            tree = ast.parse((HERE.parent / "bench" / script).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quotcoh":
                    found.update((node.module, alias.name) for alias in node.names)
        # the layers the workloads time, and the replay's cli
        assert {("quotcoh.intmat", "rank_mod_p"), ("quotcoh.lattices", "group_cohomology"),
                ("quotcoh.profiles", "sym_power"), ("quotcoh", "cli")} <= found
        for module, name in sorted(found):
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"

    @pytest.mark.parametrize("op", ["hilbert --p 5 --m 3", "k3 --p 7 --kind symplectic",
                                    "tables --which all"])
    def test_a_parsed_paper_command_runs_without_main(self, op):
        # cli_replay.py runs build_parser().parse_args(argv).fn(args) and writes the
        # payload as json.dumps(payload, sort_keys=True, indent=2) + "\n"
        from quotcoh import cli

        args = cli.build_parser().parse_args(op.split())
        status, payload = args.fn(args)
        assert status == 0
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == _PAPER_SHA256[op]

    def test_each_command_reaches_its_handler(self):
        # the parser names the moved handlers by command and the tables by id, so
        # that building it compiles neither quotcoh.commands nor quotcoh.tables
        import argparse

        from quotcoh import cli, commands, tables

        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        moved = {name for name, parser in sub.choices.items()
                 if parser.get_default("fn") is cli._cmd_elsewhere}
        assert moved == set(commands.HANDLERS)
        assert cli.TABLE_IDS == tuple(tables._TABLES)


class TestProcessLevel:
    def test_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "quotcoh.cli", "toric", "--p", "7", "--weights", "1,3"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["det"] == 7

    @pytest.mark.parametrize("argv", [
        ["toric", "--p", "5", "--weights", "1,2"],
        ["tables", "--which", "betti"],
    ])
    def test_unwritable_output_exits_2(self, argv, tmp_path):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            proc = subprocess.run(
                [sys.executable, "-m", "quotcoh.cli", *argv, "--output", str(target)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            assert "cannot write output" in json.loads(proc.stderr)["error"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["k3", "--p", "7"],  # fits the stdout buffer: the closed pipe shows at the flush
        ["toric", "--p", "101", "--weights", "1,100"],  # more than the pipe buffer
        ["tables", "--which", "betti", "--format", "text"],
    ])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_2(self, argv, unbuffered):
        # buffered, a closed pipe shows first at a flush, and once more at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with subprocess.Popen([sys.executable, "-m", "quotcoh.cli", *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2, err
        assert "Traceback" not in err
        assert "Exception ignored" not in err
        assert json.loads(err)["error"].startswith("cannot write output: ")

    def test_python_dash_m_quotcoh_is_the_cli(self):
        by_package, by_module = (
            subprocess.run([sys.executable, "-m", name, "tables", "--which", "all"],
                           capture_output=True, check=True)
            for name in ("quotcoh", "quotcoh.cli")
        )
        assert by_package.stdout == by_module.stdout
        assert json.loads(by_package.stdout)

    def test_a_copy_outside_the_checkout_prints_the_same_bytes(self, tmp_path):
        # the package directory alone, golden/*.json included, as an install lays it out
        shutil.copytree(HERE.parent / "src" / "quotcoh", tmp_path / "quotcoh",
                        ignore=shutil.ignore_patterns("__pycache__"))
        elsewhere = tmp_path / "cwd"
        elsewhere.mkdir()
        where = "import quotcoh, sys; print(quotcoh.__file__, file=sys.stderr)"
        for argv in (["tables", "--which", "all"], ["selftest", "--seed", "0"]):
            outputs = []
            for root in (tmp_path, HERE.parent / "src"):
                env = {**os.environ, "PYTHONPATH": str(root), "PYTHONDONTWRITEBYTECODE": "1"}
                found = subprocess.run([sys.executable, "-c", where], cwd=elsewhere, env=env,
                                       capture_output=True, text=True, check=True)
                assert found.stderr.strip() == str(root / "quotcoh" / "__init__.py")
                outputs.append(subprocess.run([sys.executable, "-m", "quotcoh", *argv],
                                              cwd=elsewhere, env=env, capture_output=True))
            copy, checkout = outputs
            assert copy.returncode == checkout.returncode == 0, copy.stderr
            assert copy.stdout == checkout.stdout
            assert json.loads(copy.stdout)

    def test_paper_command_leaves_numpy_unloaded(self):
        # hilbert builds no matrix; profile reduces one mod p, on Python ints
        script = (
            "import sys\n"
            "from quotcoh.cli import main\n"
            "status = main(['hilbert', '--p', '7', '--m', '6'])\n"
            "print('numpy' in sys.modules, status, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        assert proc.stderr.split() == ["False", "0"]
        assert json.loads(proc.stdout)

        proc = subprocess.run(
            [sys.executable, "-m", "quotcoh.cli", "profile", "--input", "-"],
            input=json.dumps({"p": 3, "action": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}),
            capture_output=True, text=True, check=True,
        )
        assert json.loads(proc.stdout)["counts"] == {"3": 1}

    # the package modules each command compiles, with cli itself run as __main__
    _K3_LAYERS = {"quotcoh", "quotcoh.intmat", "quotcoh.lattices", "quotcoh.k3"}
    _HILBERT_LAYERS = _K3_LAYERS | {"quotcoh.engine", "quotcoh.hilbert"}
    _INPUT_LAYERS = {"quotcoh", "quotcoh.commands", "quotcoh.engine", "quotcoh.intmat"}
    _LAYERS = {
        "k3": _K3_LAYERS,
        "hilbert": _HILBERT_LAYERS,
        "tables": _HILBERT_LAYERS | {"quotcoh.tables"},
        "toric": {"quotcoh", "quotcoh.commands", "quotcoh.intmat", "quotcoh.toric"},
        "profile": _INPUT_LAYERS | {"quotcoh.profiles"},
        "lattice": _INPUT_LAYERS | {"quotcoh.lattices"},
        "quotient pushforward": _INPUT_LAYERS | {"quotcoh.lattices"},
        "quotient report": _INPUT_LAYERS,
        "selftest": _INPUT_LAYERS | {"quotcoh.lattices", "quotcoh.profiles", "quotcoh.toric",
                                     "quotcoh.selftest"},
    }

    @staticmethod
    def package_modules(argv, payload=None):
        """The quotcoh modules a fresh `python -m quotcoh.cli` process imports for argv."""
        # -X importtime writes one stderr line per module the process imports
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "quotcoh.cli", *argv],
                              input=None if payload is None else json.dumps(payload),
                              capture_output=True, text=True, check=True)
        loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert json.loads(proc.stdout)
        # cli runs as __main__; a module that imported quotcoh.cli would compile it again
        assert "quotcoh.cli" not in loaded
        # the records are plain classes: dataclasses, and the inspect it imports, stay unloaded
        assert not loaded & {"numpy", "dataclasses", "inspect"}
        return loaded, {name for name in loaded if name.split(".")[0] == "quotcoh"}

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--p", "7", "--m", "6"],
        ["k3", "--p", "2"],
        ["tables", "--which", "bb"],
        ["toric", "--p", "5", "--weights", "1,2,3"],
        ["tables", "--which", "all"],
        ["k3", "--p", "19", "--kind", "non-symplectic"],
    ])
    def test_paper_commands_load_only_their_layers(self, argv):
        loaded, package = self.package_modules(argv)
        assert package == self._LAYERS[argv[0]]
        if argv[0] != "toric":
            # the paper's tables read no JSON input
            assert "quotcoh.commands" not in package
        if argv[0] == "k3":
            # no Fraction on the K3 rows: fractions, and the decimal it imports, stay unloaded
            assert not loaded & {"fractions", "decimal"}

    @pytest.mark.parametrize("argv", [
        ["tables", "--which", "all"],
        ["k3", "--p", "7"],
        ["hilbert", "--p", "7", "--m", "6"],
    ])
    def test_paper_tables_take_no_mod_p_rank(self, capsys, monkeypatch, argv):
        # neither the summand counts nor a Jordan profile: the same stdout with both refused
        from quotcoh import lattices, profiles

        status, out, _ = run(capsys, *argv)
        assert status == 0

        def refuse(*args):
            raise AssertionError("a paper table took a mod-p rank")

        monkeypatch.setattr(lattices, "_module_analysis", refuse)
        monkeypatch.setattr(profiles, "_profile_from_rows", refuse)
        assert run(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("argv, payload", [
        (["profile"], {"p": 3, "action": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}),
        (["lattice"], {"gram": [[2, 1], [1, 2]]}),
        (["quotient", "pushforward"], {"p": 2, "gram": [[2, 1], [1, 2]], "action": [[0, 1], [1, 0]]}),
        (["quotient", "report"], {"p": 5, "n": 2, "eta": 4, "degrees": [
            {"k": 0, "rank": 1, "l_plus": 1}, {"k": 1, "rank": 0},
            {"k": 2, "rank": 22, "l_plus": 2, "l_pf": 4}, {"k": 3, "rank": 0},
            {"k": 4, "rank": 1, "l_plus": 1}]}),
        (["selftest", "--rounds", "1"], None),
    ], ids=["profile", "lattice", "pushforward", "report", "selftest"])
    def test_other_commands_load_only_their_layers(self, argv, payload):
        if payload is not None:
            argv = [*argv, "--input", "-"]
        _, package = self.package_modules(argv, payload)
        assert package == self._LAYERS[" ".join(argv[:2]) if argv[0] == "quotient" else argv[0]]
        assert "quotcoh.tables" not in package

    @pytest.mark.parametrize("argv, payload", [
        (["profile"], {"p": 3, "action": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}),
        (["quotient", "pushforward"], {"p": 2, "gram": [[2, 1], [1, 2]], "action": [[0, 1], [1, 0]]}),
    ])
    def test_matrix_commands_never_load_numpy(self, argv, payload):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "quotcoh.cli", *argv, "--input", "-"],
                              input=json.dumps(payload), capture_output=True, text=True, check=True)
        loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert ("quotcoh.profiles" if argv == ["profile"] else "quotcoh.lattices") in loaded
        assert not {name for name in loaded if name.split(".")[0] == "numpy"}
        assert json.loads(proc.stdout)


class TestLazyPackage:
    def test_every_export_is_its_submodules_object(self):
        import importlib

        import quotcoh

        assert len(set(quotcoh.__all__)) == len(quotcoh.__all__)
        for name in quotcoh.__all__:
            module = importlib.import_module(f"quotcoh.{quotcoh._EXPORTS[name]}")
            assert getattr(quotcoh, name) is getattr(module, name)

    def test_star_import_binds_all(self):
        import quotcoh

        namespace: dict = {}
        exec("from quotcoh import *", namespace)
        assert {name: namespace[name] for name in quotcoh.__all__} == {
            name: getattr(quotcoh, name) for name in quotcoh.__all__
        }

    def test_submodules_resolve(self):
        import importlib

        import quotcoh

        for name in ("toric", "selftest", "cli"):
            assert getattr(quotcoh, name) is importlib.import_module(f"quotcoh.{name}")
        assert {"toric", "IntMatrix", "__version__"} <= set(dir(quotcoh))

    def test_unknown_attribute_raises(self):
        import quotcoh

        with pytest.raises(AttributeError, match="no attribute 'smith_normal_form'"):
            quotcoh.smith_normal_form
        with pytest.raises(ImportError):
            exec("from quotcoh import no_such_name", {})

    def test_bare_import_loads_no_layer(self):
        script = (
            "import sys, quotcoh\n"
            "print(*sorted(m for m in sys.modules if m.startswith('quotcoh.')), file=sys.stderr)\n"
            "quotcoh.toric\n"
            "print('quotcoh.toric' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True)
        assert proc.stderr.split() == ["True"]

    def test_no_layer_imports_a_name_it_never_uses(self):
        # an unused import still costs every process that loads the layer
        unused = []
        for path in sorted((HERE.parent / "src" / "quotcoh").glob("*.py")):
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        if name not in used:
                            unused.append(f"{path.name}:{node.lineno} {name}")
        assert unused == []

    def test_every_definition_has_a_caller_outside_the_tests(self):
        # a top-level function or class of the package is referenced outside its own
        # body, in the package or the benchmark's modules, or is exported; a method is
        # read as an attribute there; dunders are exempt.  Test oracles live in tests/.
        import quotcoh

        src = sorted((HERE.parent / "src" / "quotcoh").glob("*.py"))
        bench = [p for p in sorted((HERE.parent / "bench").glob("*.py"))
                 if not p.name.startswith("test_")]
        trees = {path: ast.parse(path.read_text()) for path in src + bench}
        refs = []  # (node, name, read as an attribute)
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs.append((node, node.id, False))
                elif isinstance(node, ast.Attribute):
                    refs.append((node, node.attr, True))
                elif isinstance(node, ast.alias):
                    refs.append((node, (node.asname or node.name).rpartition(".")[2], False))

        def referenced(defn, attribute_only):
            own = {id(node) for node in ast.walk(defn)}
            return any(name == defn.name and id(node) not in own and (attr or not attribute_only)
                       for node, name, attr in refs)

        def dunder(name):
            return name.startswith("__") and name.endswith("__")

        uncalled = []
        for path in src:
            for top in trees[path].body:
                if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if not (dunder(top.name) or top.name in quotcoh._EXPORTS
                        or referenced(top, attribute_only=False)):
                    uncalled.append(f"{path.name}:{top.lineno} {top.name}")
                for method in top.body if isinstance(top, ast.ClassDef) else ():
                    if (isinstance(method, ast.FunctionDef) and not dunder(method.name)
                            and not referenced(method, attribute_only=True)):
                        uncalled.append(f"{path.name}:{method.lineno} {top.name}.{method.name}")
        assert uncalled == []


class TestSelftestCommand:
    def test_small_rounds(self, capsys):
        status, out, _ = run(capsys, "selftest", "--seed", "3", "--rounds", "5")
        assert status == 0
        data = json.loads(out)
        assert data["all_passed"] is True

    def test_seeded_determinism(self, capsys):
        _, out1, _ = run(capsys, "selftest", "--seed", "1", "--rounds", "4")
        _, out2, _ = run(capsys, "selftest", "--seed", "1", "--rounds", "4")
        assert out1 == out2

    def test_check_that_raises_fails_the_selftest(self, capsys, monkeypatch):
        from quotcoh import selftest

        def broken(rng, rounds):
            raise ValueError("boom")

        monkeypatch.setattr(selftest, "SUITES", selftest.SUITES[:1] + (("broken", broken),))
        status, out, err = run(capsys, "selftest", "--rounds", "2")
        assert status == 1
        assert err == ""
        data = json.loads(out)
        assert data["all_passed"] is False
        assert [c["passed"] for c in data["checks"]] == [True, False]
        assert data["checks"][1] == {"name": "broken", "passed": False, "detail": "ValueError: boom"}

    @pytest.mark.parametrize("rounds", ["-1", "0"])
    def test_rejects_rounds_below_one(self, capsys, rounds):
        status, out, err = run(capsys, "selftest", "--rounds", rounds)
        assert status == 2
        assert out == ""
        assert "error" in json.loads(err)
