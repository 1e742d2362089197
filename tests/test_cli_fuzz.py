"""Any JSON into the JSON-reading commands: exit 0 or 2, never a traceback.

`profile`, `lattice`, `quotient pushforward` and `quotient report` read
a JSON object.  Each example writes one JSON text to a file and runs the
command in process; the call must return 0, or 2 with an error object on
stderr, and must finish within the per-example deadline.  The texts mix
arbitrary JSON with objects that carry the command's own keys, so the
values reach the validation behind the key lookup: huge integers (past
Python's 4300-digit limit too), floats, NaN, bools, strings, deep nesting
and wrongly shaped matrices and degree tables.
"""

import json
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quotcoh.cli import main

FUZZ = settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True,
                database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class Raw(str):
    """JSON text that goes into the file as it is."""


def int_text(value: int) -> str:
    """Decimal digits of any int; str() stops at 4300 digits."""
    if abs(value) < 10 ** 4000:
        return str(value)
    high, low = divmod(abs(value), 10 ** 4000)
    return "-" * (value < 0) + int_text(high) + str(low).zfill(4000)


def to_text(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int_text(value)
    if isinstance(value, list):
        return "[" + ", ".join(to_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_text(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


huge_ints = st.integers(1, 6000).map(lambda digits: Raw("-" * (digits % 2) + "7" * digits))
deep = st.integers(1, 3000).map(lambda depth: Raw("[" * depth + "]" * depth))
scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-3, 30)
    | st.floats() | st.text(max_size=8) | huge_ints
)
any_json = st.recursive(
    scalars | deep,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-2, 12) | scalars
matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
) | any_json
degree_entries = st.fixed_dictionaries(
    {"k": st.integers(-1, 9) | scalars},
    optional={key: small for key in ("rank", "l_plus", "l_minus", "l_pf")}
    | {"l_qt": st.dictionaries(st.text("0123456789x", max_size=3), small, max_size=2) | any_json},
)


@st.composite
def consistent_reports(draw):
    """Report inputs that pass the rank equations, so that they reach the
    report itself, with counts about the 4300-digit limit, so that sums of
    them pass it."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 5))
    few = st.sampled_from((0, 0, 0, 1, 2))
    counts = few | st.integers(10 ** 4299, 10 ** 4300)
    degrees = []
    for k in range(2 * n + 1):
        if k in (0, 2 * n):
            l_plus, l_minus, l_pf = 1, 0, 0
        else:
            l_plus, l_minus, l_pf = draw(counts), draw(few), draw(few)
        degrees.append({"k": k, "rank": l_plus + (p - 1) * l_minus + p * l_pf,
                        "l_plus": l_plus, "l_minus": l_minus, "l_pf": l_pf})
    lefschetz = sum((-1) ** d["k"] * (d["l_plus"] - d["l_minus"]) for d in degrees)
    eta = draw(st.just(lefschetz) | counts)
    return {"p": p, "n": n, "eta": eta, "degrees": degrees}


def shaped(required: dict, optional: dict | None = None):
    return st.fixed_dictionaries(required, optional=optional or {}) | any_json


PAYLOADS = {
    ("profile",): shaped({"p": small, "action": matrices}),
    ("lattice",): shaped({"gram": matrices}),
    ("quotient", "pushforward"): shaped(
        {"p": small, "gram": matrices, "action": matrices},
        {"allow_trivial": st.booleans() | scalars},
    ),
    ("quotient", "report"): shaped(
        {"p": small, "n": st.integers(-1, 6) | scalars, "eta": small,
         "degrees": st.lists(degree_entries, max_size=12) | any_json},
    ) | consistent_reports(),
}


def run_one(tmp_path_factory, capsys, command, payload) -> None:
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(to_text(payload), encoding="utf-8")
    status = main([*command, "--input", str(path)])
    out, err = capsys.readouterr()
    assert status in (0, 2), (status, out, err)
    if status == 2:
        assert out == ""
        assert set(json.loads(err)) == {"error"}
    else:
        assert isinstance(json.loads(out), dict)


def fuzz(command):
    @FUZZ
    @given(payload=PAYLOADS[command])
    def test(tmp_path_factory, capsys, payload):
        run_one(tmp_path_factory, capsys, command, payload)

    return test


test_profile_any_json = fuzz(("profile",))
test_lattice_any_json = fuzz(("lattice",))
test_quotient_pushforward_any_json = fuzz(("quotient", "pushforward"))
test_quotient_report_any_json = fuzz(("quotient", "report"))
