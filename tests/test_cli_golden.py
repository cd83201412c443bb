"""Golden CLI reports: every command's stdout and exit code stay byte-identical.

Each case runs ``qsing.cli.main`` in-process and records the sha256 of what
it printed on stdout (empty for error exits) and its exit code.  The table in
``cli_golden.json`` holds the recorded values; ``enumerate --out`` cases
hash the files written to the directory instead of stdout.

Regenerate the table (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qsing.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

# inline settings; "@name" in a case's arguments stands for a file holding one
SETTINGS = {
    "dim2_1": {"dims": [2, 1], "arrows": [[1, 2], [2, 0]]},
    "dim2_loops": {"dims": [2], "arrows": [[2]]},
    "dim3_loops": {"dims": [3], "arrows": [[2]]},
    "marked2": {"dims": [2], "arrows": [[1]], "marked_loops": [1]},
    "not_simple": {"dims": [2, 1], "arrows": [[0, 1], [1, 0]]},
    "triangle": {"dims": [1, 1, 1], "arrows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
    "big": {"dims": [3, 3, 3], "arrows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
    "kronecker": {"dims": [1, 1], "arrows": [[0, 2], [0, 0]]},
    "complete3": {"dims": [1, 1, 1], "arrows": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
    "zero_dim": {"dims": [0, 1], "arrows": [[0, 1], [1, 0]]},
    "mark_dim1": {"dims": [1], "arrows": [[0]], "marked_loops": [1]},
    "float_dim": {"dims": [2.9], "arrows": [[1]]},
    "bool_dim": {"dims": [True, 1], "arrows": [[0, 1], [1, 0]]},
    "empty": {"dims": [], "arrows": []},
    "complete4": {"dims": [1] * 4, "arrows": [[int(i != j) for j in range(4)] for i in range(4)]},
}
FIXTURES = sorted(p.stem for p in (REPO / "fixtures").glob("*.json"))
ALL_ONES = [
    "conifold", "dim4_cycle_pair", "dim4_double_triangle", "dim4_two_vertex",
    "quantum_plane_azumaya", "quantum_plane_ramified",
]


def _cases() -> list[list[str]]:
    cases = []
    for name in FIXTURES:
        f = f"fixtures/{name}.json"
        cases += [["reduce", f], ["reduce", f, "--strict"], ["classify", f], ["dim", f], ["strata", f]]
        cases += [["classify", f, "--dimx", x] for x in ("0", "2")]
    for name in ("dim2_1", "dim2_loops", "dim3_loops", "marked2", "not_simple", "triangle", "big"):
        cases += [["reduce", f"@{name}"], ["classify", f"@{name}"], ["dim", f"@{name}"], ["strata", f"@{name}"]]
    cases += [
        ["local", "fixtures/conifold.json", "--tau", "[[1,[1,0]],[1,[0,1]]]"],
        ["local", "fixtures/conifold.json", "--tau", "[[1,[1,1]]]"],
        ["local", "fixtures/dim4_cycle_pair.json", "--tau", "[[1,[1,1,0]],[1,[0,0,1]]]"],
        ["local", "fixtures/dim4_cycle_pair.json", "--tau", "[[1,[1,0,0]],[1,[0,1,0]],[1,[0,0,1]]]"],
        ["local", "@dim2_1", "--tau", "[[2,[1,0]],[1,[0,1]]]"],
        ["local", "@dim2_1", "--tau", "[[1,[2,1]]]"],
        ["local", "@dim2_1", "--tau", "[[1,[1,0]],[1,[1,1]]]"],
        ["local", "@marked2", "--tau", "[[1,[2]]]"],
    ]
    for name in ALL_ONES:
        f = f"fixtures/{name}.json"
        cases += [["toric", "invariants", f], ["toric", "relations", f]]
    cases += [
        ["toric", "relations", "fixtures/conifold.json", "--degree-bound", "2"],
        ["toric", "relations", "@complete3", "--degree-bound", "3"],
        ["toric", "invariants", "@complete3"],
    ]
    for name, thetas in (
        ("fixtures/conifold.json", ("-1,1", "1,-1", "0,0", "-2,2")),
        ("@kronecker", ("-1,1", "-2,2", "1,-1")),
        ("fixtures/dim4_cycle_pair.json", ("-2,1,1", "1,1,-2", "0,0,0")),
        ("@complete3", ("-1,0,1",)),
    ):
        for theta in thetas:
            cases += [
                ["toric", "charts", name, f"--theta={theta}"],
                ["toric", "fiber", name, f"--theta={theta}"],
            ]
    for support in ("0", "0,1", "0,2", "1,3", "0,1,2,3", ""):
        for theta in ("-1,1", "1,-1", "0,0"):
            cases.append(["toric", "semistable", "fixtures/conifold.json", f"--theta={theta}", "--support", support])
    cases += [
        ["toric", "semistable", "fixtures/dim4_cycle_pair.json", "--theta=-2,1,1", "--support", "0,2,4"],
        ["toric", "semistable", "fixtures/dim4_cycle_pair.json", "--theta=1,1,-2", "--support", "1,3,5"],
    ]
    cases += [["enumerate", "--dim", d] for d in ("2", "3", "4", "5", "6")]
    cases += [["enumerate", "--dim", "4", "--budget", "100"], ["enumerate", "--dim", "5", "--out", "@DIR"]]
    cases += [
        ["conifold-verify", "--triples", "3", "--points", "3"],
        ["conifold-verify", "--seed", "7", "--triples", "5", "--points", "4"],
        ["selftest"],
    ]
    # error exits whose behaviour the refactor keeps
    cases += [
        ["dim", "fixtures/absent.json"],
        ["dim", "@BADJSON"],
        ["toric", "charts", "fixtures/conifold.json", "--theta=a,b"],
        ["toric", "charts", "fixtures/conifold.json", "--theta=1,1,1"],
        ["toric", "semistable", "fixtures/conifold.json", "--theta=-1,1"],
        ["toric", "semistable", "fixtures/conifold.json", "--theta=-1,1", "--support", "9"],
        ["toric", "invariants", "fixtures/quantum_plane_origin.json"],
        ["toric", "relations", "fixtures/conifold.json", "--degree-bound", "-2"],
        ["classify", "fixtures/conifold.json", "--dimx", "-1"],
        ["local", "fixtures/conifold.json", "--tau", "[[2,[1,0]]]"],
        ["local", "fixtures/conifold.json", "--tau", "not json"],
        ["local", "fixtures/quantum_plane_origin.json", "--tau", "[[1,[2]]]"],
        ["enumerate", "--dim", "1"],
        ["conifold-verify", "--triples", "-3"],
        ["conifold-verify", "--points", "0"],
        ["frobnicate"],
    ]
    cases += [[cmd, f"@{name}"] for name in ("zero_dim", "mark_dim1", "float_dim", "bool_dim", "empty")
              for cmd in ("classify", "reduce")]
    return cases


CASES = _cases()

# reports on a larger input than the table's: the complete 4-vertex quiver
# has 2^12 arrow supports, 20 invariant generators and 61 relations up to
# degree 4.  Recorded before King's test, the central fiber and the
# relations moved to arrow bitmasks; re-recorded when the toric options
# joined the input digest, with every other byte unchanged.
LARGE = {
    "toric fiber @complete4 --theta=1,1,1,-3":
        "b43b4e5b31d1a46beeef272f097815913a9ddeb05c09b6281136ad00ab04299a",
    "toric relations @complete4 --degree-bound 4":
        "78e01b6880047029b8719da9369de3f074df8085dc0c5038b2f1acd26311b073",
}


def case_id(args: list[str]) -> str:
    return " ".join(args)


def run_case(args: list[str], tmp: Path) -> tuple[int, str]:
    """Exit code and sha256 of stdout (of the written files for ``@DIR``)."""
    out_dir = tmp / "out"
    resolved = []
    for a in args:
        if a == "@DIR":
            resolved.append(str(out_dir))
        elif a == "@BADJSON":
            path = tmp / "bad.json"
            path.write_text("{not json")
            resolved.append(str(path))
        elif a.startswith("@"):
            path = tmp / f"{a[1:]}.json"
            path.write_text(json.dumps(SETTINGS[a[1:]], sort_keys=True))
            resolved.append(str(path))
        elif a.startswith("fixtures/"):
            resolved.append(str(REPO / a))
        else:
            resolved.append(a)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(resolved)
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(buf.getvalue().encode())
    if "@DIR" in args:
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return code, digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(a) for a in CASES)


@pytest.mark.parametrize("args", CASES, ids=case_id)
def test_report_matches_golden(args, golden, tmp_path):
    code, digest = run_case(args, tmp_path)
    assert {"exit": code, "sha256": digest} == golden[case_id(args)]


@pytest.mark.parametrize("case", sorted(LARGE))
def test_large_toric_report_unchanged(case, tmp_path):
    assert run_case(case.split(), tmp_path) == (0, LARGE[case])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    table = {}
    for args in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, digest = run_case(args, Path(tmp))
        table[case_id(args)] = {"exit": code, "sha256": digest}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {GOLDEN}")
