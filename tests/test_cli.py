"""End-to-end CLI behaviour: formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from qsing.classification import census_report, classify_report, dim_report, selftest
from qsing.cli import main
from qsing.conifold import verification_battery
from qsing.core import MarkedQuiverSetting
from qsing.local_structure import DecompositionType, local_report, strata_report
from qsing.reduction import reduce_setting
from qsing.toric import THETA_ACTIONS, toric_report

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def run_cli(args, capsys) -> tuple[int, dict]:
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else {}


def with_setting_file(args, setting, tmp_path) -> list[str]:
    """``args`` with "SETTING" replaced by a temporary file holding ``setting``."""
    path = tmp_path / "setting.json"
    path.write_text(json.dumps(setting))
    return [str(path) if a == "SETTING" else a for a in args]


class TestBasicCommands:
    def test_dim_conifold(self, capsys):
        code, report = run_cli(["dim", str(FIXTURES / "conifold.json")], capsys)
        assert code == 0
        assert report["result"]["expected_dim"] == 3
        assert report["schema_version"] == 1

    def test_classify_with_defect(self, capsys):
        code, report = run_cli(
            ["classify", str(FIXTURES / "quantum_plane_origin.json"), "--dimx", "2"],
            capsys,
        )
        assert code == 0
        assert report["result"]["defect"] == 1
        assert report["result"]["smooth"] is True

    def test_reduce_round_trips_setting(self, capsys, tmp_path):
        setting = {"dims": [1], "arrows": [[3]], "marked_loops": [0]}
        path = tmp_path / "loops.json"
        path.write_text(json.dumps(setting))
        code, report = run_cli(["reduce", str(path)], capsys)
        assert code == 0
        assert report["result"]["z"] == 3
        assert report["result"]["reduced"] == {
            "dims": [1],
            "arrows": [[0]],
            "marked_loops": [0],
        }
        assert len(report["result"]["trace"]) == 3

    def test_local_and_strata(self, capsys):
        code, report = run_cli(
            [
                "local",
                str(FIXTURES / "conifold.json"),
                "--tau",
                "[[1,[1,0]],[1,[0,1]]]",
            ],
            capsys,
        )
        assert code == 0
        assert report["result"]["local_setting"]["dims"] == [1, 1]
        assert report["result"]["classification"]["smooth"] is False

        code, report = run_cli(["strata", str(FIXTURES / "conifold.json")], capsys)
        assert code == 0
        assert len(report["result"]["strata"]) == 2

    def test_selftest_passes(self, capsys):
        code, report = run_cli(["selftest"], capsys)
        assert code == 0
        assert report["result"]["all_passed"] is True

    def test_conifold_verify_passes(self, capsys):
        code, report = run_cli(
            ["conifold-verify", "--triples", "20", "--points", "10"], capsys
        )
        assert code == 0
        assert report["result"]["all_passed"] is True
        names = {c["check"] for c in report["result"]["checks"]}
        assert any("jacobian" in n for n in names)


class TestToricCommands:
    def test_invariants(self, capsys):
        code, report = run_cli(
            ["toric", "invariants", str(FIXTURES / "conifold.json")], capsys
        )
        assert code == 0
        assert len(report["result"]["generators"]) == 4
        assert len(report["result"]["arrow_legend"]) == 4

    def test_relations(self, capsys):
        code, report = run_cli(
            ["toric", "relations", str(FIXTURES / "conifold.json")], capsys
        )
        assert code == 0
        assert len(report["result"]["relations"]) == 1

    def test_semistable(self, capsys):
        code, report = run_cli(
            [
                "toric",
                "semistable",
                str(FIXTURES / "conifold.json"),
                "--theta=-1,1",
                "--support",
                "0",
            ],
            capsys,
        )
        assert code == 0
        assert report["result"]["verdict"]["stable"] is True
        assert report["result"]["verdicts_agree"] is True

    def test_charts_and_fiber(self, capsys):
        code, report = run_cli(
            ["toric", "charts", str(FIXTURES / "conifold.json"), "--theta=-1,1"],
            capsys,
        )
        assert code == 0
        assert len(report["result"]["charts"]) == 2
        assert all(c["smooth"] for c in report["result"]["charts"])

        code, report = run_cli(
            ["toric", "fiber", str(FIXTURES / "conifold.json"), "--theta=-1,1"],
            capsys,
        )
        assert code == 0
        assert report["result"]["max_orbit_space_dim"] == 1
        stable = [s for s in report["result"]["strata"] if s["stable"]]
        assert len(stable) == 3

    def test_charts_kronecker_doubled_theta_smooth(self, capsys, tmp_path):
        # theta = (-2, 2) gives the same P^1 as (-1, 1); its middle chart has units
        kronecker = {"dims": [1, 1], "arrows": [[0, 2], [0, 0]]}
        args = with_setting_file(
            ["toric", "charts", "SETTING", "--theta=-2,2"], kronecker, tmp_path
        )
        code, report = run_cli(args, capsys)
        assert code == 0
        charts = report["result"]["charts"]
        assert len(charts) == 3 and all(c["smooth"] for c in charts)


class TestEnumerateCommand:
    def test_dim3_writes_files(self, capsys, tmp_path):
        out = tmp_path / "found"
        code = main(["enumerate", "--dim", "3", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        files = sorted(out.glob("setting_*.json"))
        assert len(files) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["result"]["setting_count"] == 1
        assert summary["result"]["type_count"] == 1
        assert summary["result"]["type_count_matches"] is True

    def test_dim4_count(self, capsys):
        code, report = run_cli(["enumerate", "--dim", "4"], capsys)
        assert code == 0
        assert report["result"]["setting_count"] == 3
        assert report["result"]["type_count"] == 3


class TestReportContract:
    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            code = main(
                ["classify", str(FIXTURES / "conifold.json"), "--out", str(target)]
            )
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "first, second",
        [
            (["local", "--tau", "[[1,[1,0]],[1,[0,1]]]"], ["local", "--tau", "[[1,[1,1]]]"]),
            (["classify"], ["classify", "--dimx", "3"]),
            (["toric", "relations", "--degree-bound", "2"], ["toric", "relations"]),
            (["toric", "charts", "--theta=-1,1"], ["toric", "charts", "--theta=1,-1"]),
            (["toric", "invariants"], ["toric", "relations"]),
        ],
        ids=["tau", "dimx", "degree-bound", "theta", "action"],
    )
    def test_digest_tells_apart_options_that_select_the_result(self, first, second, capsys):
        conifold = str(FIXTURES / "conifold.json")
        digests = set()
        for args in (first, second):
            at = 2 if args[0] == "toric" else 1
            code, report = run_cli([*args[:at], conifold, *args[at:]], capsys)
            assert code == 0
            digests.add(report["input_digest"])
        assert len(digests) == 2

    @pytest.mark.parametrize("args", [["dim"], ["strata"], ["reduce"], ["reduce", "--strict"]])
    def test_digest_of_an_optionless_command_is_the_file_sha256(self, args, capsys):
        path = FIXTURES / "conifold.json"
        _, report = run_cli([*args, str(path)], capsys)
        assert report["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_timings_excluded_by_default(self, capsys):
        _, report = run_cli(["dim", str(FIXTURES / "conifold.json")], capsys)
        assert "timings" not in report
        _, report = run_cli(
            ["dim", str(FIXTURES / "conifold.json"), "--timings"], capsys
        )
        assert "timings" in report

    def test_fixture_round_trip(self):
        for path in FIXTURES.glob("*.json"):
            data = json.loads(path.read_text())
            setting = MarkedQuiverSetting.from_json(data)
            assert json.loads(json.dumps(setting.to_json())) == setting.to_json()
            assert MarkedQuiverSetting.from_json(setting.to_json()) == setting

    def test_bad_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as info:
            main(["dim", str(bad)])
        assert info.value.code == 2

    def test_missing_file_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["dim", str(tmp_path / "absent.json")])
        assert info.value.code == 2

    def test_malformed_theta_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "toric",
                    "charts",
                    str(FIXTURES / "conifold.json"),
                    "--theta=a,b",
                ]
            )
        assert info.value.code == 2

    def test_unknown_command_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_domain_error_exit_one(self, capsys, tmp_path):
        # toric ops reject non-all-ones settings with a domain error
        setting = {"dims": [2], "arrows": [[2]], "marked_loops": [0]}
        path = tmp_path / "dim2.json"
        path.write_text(json.dumps(setting))
        code = main(["toric", "invariants", str(path)])
        capsys.readouterr()
        assert code == 1


CONIFOLD = str(FIXTURES / "conifold.json")
# settings that validate() rejects: a dimension-0 vertex, a marked loop at a
# dimension-1 vertex; "SETTING" in the arguments stands for their file
ZERO_DIM = {"dims": [0, 1], "arrows": [[0, 1], [1, 0]]}
MARK_AT_DIM_ONE = {"dims": [1], "arrows": [[0]], "marked_loops": [1]}
# settings that from_json rejects: a non-integer dimension, a boolean one
FLOAT_DIM = {"dims": [2.9], "arrows": [[1]]}
BOOL_DIM = {"dims": [True, 1], "arrows": [[0, 1], [1, 0]]}
EMPTY = {"dims": [], "arrows": []}


@pytest.mark.parametrize(
    "args, setting",
    [
        (["toric", "charts", CONIFOLD, "--theta=1,1"], None),
        (["toric", "semistable", CONIFOLD, "--theta=-1,1", "--support", "9"], None),
        (["classify", CONIFOLD, "--dimx", "-1"], None),
        (["local", CONIFOLD, "--tau", "[[2,[1,0]]]"], None),
        (["dim", "SETTING"], ZERO_DIM),
        (["classify", "SETTING"], MARK_AT_DIM_ONE),
        (["conifold-verify", "--triples", "-3"], None),
        (["conifold-verify", "--points", "0"], None),
        (["toric", "relations", CONIFOLD, "--degree-bound", "-2"], None),
        (["classify", "SETTING"], FLOAT_DIM),
        (["classify", "SETTING"], BOOL_DIM),
        (["classify", "SETTING"], EMPTY),
        (["reduce", "SETTING"], EMPTY),
        (["toric", "charts", CONIFOLD], None),
        (["toric", "fiber", CONIFOLD], None),
        (["toric", "semistable", CONIFOLD, "--support", "0"], None),
        (["enumerate", "--dim", "3", "--budget", "-1"], None),
        (["toric", "fiber", CONIFOLD, "--theta=-1,1", "--budget", "-1"], None),
        (["enumerate", "--dim", "4", "--budget", "nan"], None),
        (["toric", "charts", CONIFOLD, "--theta=-1,1", "--budget", "nan"], None),
        # a summand longer than the setting, one that is not simple, negative entries
        (["local", CONIFOLD, "--tau", "[[1,[1,0,5]]]"], None),
        (["local", CONIFOLD, "--tau", "[[1,[0,0]],[1,[1,1]]]"], None),
        (["local", CONIFOLD, "--tau", "[[1,[2,-1]],[1,[-1,2]]]"], None),
        (["local", CONIFOLD, "--tau", "[[1,[1.5,0]],[1,[0,1]]]"], None),
    ],
    ids=[
        "theta", "support", "dimx", "tau", "zero-dim", "mark-at-dim-1",
        "triples", "points", "degree-bound", "float-dim", "bool-dim", "empty",
        "empty-reduce", "charts-without-theta", "fiber-without-theta",
        "semistable-without-theta", "negative-budget", "toric-negative-budget",
        "nan-budget", "toric-nan-budget", "tau-length",
        "tau-not-simple", "tau-negative", "tau-float",
    ],
)
def test_bad_input_exits_two_without_traceback(args, setting, tmp_path):
    if setting is not None:
        args = with_setting_file(args, setting, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "qsing.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("qsing: ") and proc.stderr.count("\n") == 1


def _setting(name: str):
    return MarkedQuiverSetting.from_json(json.loads((FIXTURES / name).read_text()))


@pytest.mark.parametrize(
    "args, report",
    [
        (["reduce", CONIFOLD, "--strict"], lambda: reduce_setting(_setting("conifold.json"), strict=True).to_json()),
        (["classify", CONIFOLD, "--dimx", "2"], lambda: classify_report(_setting("conifold.json"), 2)),
        (["dim", CONIFOLD], lambda: dim_report(_setting("conifold.json"))),
        (
            ["local", CONIFOLD, "--tau", "[[1,[1,0]],[1,[0,1]]]"],
            lambda: local_report(
                _setting("conifold.json"), DecompositionType.make([(1, (1, 0)), (1, (0, 1))])
            ),
        ),
        (["strata", CONIFOLD], lambda: strata_report(_setting("conifold.json"))),
        (["enumerate", "--dim", "4"], lambda: census_report(4)[0]),
        (["toric", "invariants", CONIFOLD], lambda: toric_report(_setting("conifold.json"), "invariants")),
        (["toric", "relations", CONIFOLD], lambda: toric_report(_setting("conifold.json"), "relations")),
        (
            ["toric", "charts", CONIFOLD, "--theta=-1,1"],
            lambda: toric_report(_setting("conifold.json"), "charts", theta=(-1, 1)),
        ),
        (
            ["toric", "semistable", CONIFOLD, "--theta=-1,1", "--support", "0,1"],
            lambda: toric_report(
                _setting("conifold.json"), "semistable", theta=(-1, 1), support=(0, 1)
            ),
        ),
        (
            ["toric", "fiber", CONIFOLD, "--theta=1,-1"],
            lambda: toric_report(_setting("conifold.json"), "fiber", theta=(1, -1)),
        ),
        (
            ["conifold-verify", "--seed", "3", "--triples", "4", "--points", "2"],
            lambda: verification_battery(3, 4, 2),
        ),
        (["selftest"], selftest),
    ],
    ids=[
        "reduce", "classify", "dim", "local", "strata", "enumerate", "toric-invariants",
        "toric-relations", "toric-charts", "toric-semistable", "toric-fiber", "conifold-verify", "selftest",
    ],
)
def test_result_is_the_library_report(args, report, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out["result"] == json.loads(json.dumps(report()))


COMPLETE_4 = {"dims": [1] * 4, "arrows": [[int(i != j) for j in range(4)] for i in range(4)]}
COMPLETE_5 = {"dims": [1] * 5, "arrows": [[int(i != j) for j in range(5)] for i in range(5)]}
COMPLETE_11 = {"dims": [1] * 11, "arrows": [[int(i != j) for j in range(11)] for i in range(11)]}


class TestToricBudget:
    @staticmethod
    def assert_exits_one_with_one_line(args):
        proc = subprocess.run(
            [sys.executable, "-m", "qsing.cli", *args], capture_output=True, text=True, cwd=REPO
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("qsing: ") and proc.stderr.count("\n") == 1

    def test_exhausted_budget_exits_one(self, tmp_path):
        # the complete 5-vertex fiber visits 2^20 supports, far more than a
        # budget of 0 s allows
        args = with_setting_file(
            ["toric", "fiber", "SETTING", "--theta=1,1,1,1,-4", "--budget", "0"],
            COMPLETE_5,
            tmp_path,
        )
        self.assert_exits_one_with_one_line(args)

    def test_exhausted_budget_stops_the_relations(self, tmp_path):
        # the 20 invariant generators of the complete 4-vertex quiver have
        # 53,129 nonconstant monomials up to degree 5, whose relations take
        # several times 0.05 s
        args = with_setting_file(
            ["toric", "relations", "SETTING", "--degree-bound", "5", "--budget", "0.05"],
            COMPLETE_4,
            tmp_path,
        )
        self.assert_exits_one_with_one_line(args)

    def test_exhausted_budget_stops_the_cycle_walk(self, tmp_path):
        # the complete 11-vertex quiver has 10,976,173 simple cycles, nearly
        # all through vertex 0, so only a check inside one least vertex's
        # walk can stop it in time; never run this without a budget, its
        # report would be about 10 GB
        args = with_setting_file(
            ["toric", "invariants", "SETTING", "--budget", "0.05"], COMPLETE_11, tmp_path
        )
        start = time.monotonic()
        self.assert_exits_one_with_one_line(args)
        assert time.monotonic() - start < 5

    @pytest.mark.parametrize(
        "args",
        [
            ["enumerate", "--dim", "4", "--budget", "nan"],
            ["toric", "charts", CONIFOLD, "--theta=-1,1", "--budget", "nan"],
        ],
        ids=["enumerate", "toric-charts"],
    )
    def test_nan_budget_exits_two(self, args, capsys):
        # NaN is no budget: it would make a deadline that is never past
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qsing: budget must be >= 0 seconds\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["toric", "invariants", CONIFOLD],
            ["toric", "charts", CONIFOLD, "--theta=-1,1"],
            ["toric", "semistable", CONIFOLD, "--theta=-1,1", "--support", "0"],
            ["toric", "fiber", CONIFOLD, "--theta=1,-1"],
        ],
        ids=["invariants", "charts", "semistable", "fiber"],
    )
    def test_ample_budget_leaves_the_report_unchanged(self, args, capsys):
        # the budget is not folded into the input digest
        assert run_cli(args + ["--budget", "60"], capsys) == run_cli(args, capsys)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsing.cli", "dim", str(FIXTURES / "conifold.json")],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["expected_dim"] == 3


# small JSON values of every kind, and dicts shaped like a setting whose
# entries are small integers or, in the second shape, any JSON values
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["dims", "arrows", "marked_loops", "x"]), children, max_size=3),
    max_leaves=12,
)


def _setting_like(k: int, dims, entries):
    row = st.lists(entries, min_size=k, max_size=k)
    return st.fixed_dictionaries(
        {"dims": st.lists(dims, min_size=k, max_size=k), "arrows": st.lists(row, min_size=k, max_size=k)},
        optional={"marked_loops": row},
    )


SETTING_FILES = (
    JSON_VALUES
    | st.integers(0, 3).flatmap(lambda k: _setting_like(k, st.integers(0, 3), st.integers(0, 2)))
    | st.integers(0, 3).flatmap(lambda k: _setting_like(k, JSON_VALUES, JSON_VALUES))
)


def either(first, second):
    """``first`` or ``second``, each half the time however many branches they hold."""
    return st.booleans().flatmap(lambda pick: first if pick else second)


def fuzzed_settings(k: int):
    """A fuzzed setting file, or an all-ones setting on k vertices.

    The all-ones settings have at most one arrow per slot, which keeps the
    central fiber, one King test per arrow subset, small.
    """
    arrows = st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k)
    all_ones = st.fixed_dictionaries({"dims": st.just([1] * k), "arrows": arrows})
    return either(all_ones, SETTING_FILES)


def option_strings(lists):
    """Half the time ``lists`` comma-joined, else None or a string that is
    nearly a list of ints."""
    return either(
        lists.map(lambda xs: ",".join(map(str, xs))),
        st.none() | st.text(alphabet="-0123456789, .x", max_size=6),
    )


def theta_strings(k: int):
    """``--theta`` values, half of them with theta . (1, ..., 1) = 0 on k vertices."""
    balanced = st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1).map(
        lambda head: head + [-sum(head)]
    )
    return option_strings(either(balanced, st.lists(st.integers(-3, 3), max_size=4)))


SUPPORT_STRINGS = option_strings(st.lists(st.integers(-1, 9), max_size=5))


def tau_values(k: int):
    """A decomposition of (1, ..., 1) on k vertices into blocks, or any small
    JSON value, or a list of (multiplicity, 0/1 vector of length k)."""
    partitions = st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(
        lambda block: [[1, [int(b == c) for b in block]] for c in sorted(set(block))]
    )
    summand = st.tuples(st.integers(0, 2), st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return either(partitions, JSON_VALUES | st.lists(summand, min_size=1, max_size=3))


def run_fuzzed(args, data, tmp_path_factory) -> int:
    """The exit code of ``args`` with "SETTING" as a file holding ``data``."""
    args = with_setting_file(args, data, tmp_path_factory.getbasetemp())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(args)
        except SystemExit as exc:
            return exc.code


class TestFuzzedSettingFiles:
    @given(command=st.sampled_from(["classify", "dim", "reduce"]), data=SETTING_FILES)
    @hyp_settings(max_examples=300, deadline=None)
    def test_any_json_exits_cleanly(self, command, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzzed-setting.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([command, str(path)])
            except SystemExit as exc:
                assert exc.code in (0, 1, 2)
            else:
                assert code == 0

    @given(k=st.integers(1, 3), data=st.data())
    @hyp_settings(max_examples=150, deadline=None)
    def test_strata_exits_cleanly(self, k, data, tmp_path_factory):
        setting = data.draw(fuzzed_settings(k))
        assert run_fuzzed(["strata", "SETTING"], setting, tmp_path_factory) in (0, 1, 2)

    @given(k=st.integers(1, 3), data=st.data())
    @hyp_settings(max_examples=200, deadline=None)
    def test_local_tau_exits_cleanly(self, k, data, tmp_path_factory):
        setting = data.draw(fuzzed_settings(k))
        args = ["local", "SETTING", f"--tau={json.dumps(data.draw(tau_values(k)))}"]
        assert run_fuzzed(args, setting, tmp_path_factory) in (0, 1, 2)

    @given(
        action=st.sampled_from(["invariants", "relations", *THETA_ACTIONS]),
        k=st.integers(1, 3),
        data=st.data(),
    )
    @hyp_settings(max_examples=300, deadline=None)
    def test_toric_options_exit_cleanly(self, action, k, data, tmp_path_factory):
        setting = data.draw(fuzzed_settings(k))
        args = ["toric", action, "SETTING"]
        for flag, values in (("theta", theta_strings(k)), ("support", SUPPORT_STRINGS)):
            raw = data.draw(values)
            args += [] if raw is None else [f"--{flag}={raw}"]
        assert run_fuzzed(args, setting, tmp_path_factory) in (0, 1, 2)
