import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rimhooks import Partition, Rpp, Tableau, cli, enumeration, series
from rimhooks.cli import run
from rimhooks.verify import READS, VerifyConfig

RUNNING = "0 1 2 3\n1 2 2\n1\n"
STAIRCASE = "0 0 0\n0 0 0\n1 1 1\n"


def invoke(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_text(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["info", "--shape", "4,3,1"])
        assert code == 0
        assert "outer corners: (3,1) (2,3) (1,4)" in out

    def test_json(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["info", "--shape", "4,3,1", "--format", "json"]
        )
        obj = json.loads(out)
        assert obj["hook_lengths"]["(1,2)"] == 4
        assert obj["revlex_rank"]["(1,4)"] == 1


class TestRimhooks:
    def test_listing(self, capsys, monkeypatch, tmp_path):
        svg = tmp_path / "hooks.svg"
        code, out, _ = invoke(
            capsys, monkeypatch, ["rimhooks", "--shape", "2,2", "--svg", str(svg)]
        )
        assert code == 0
        assert out.count("anchor") == 4
        assert svg.read_text().startswith("<svg")

    def test_svg_is_one_document_with_a_group_per_hook(self, capsys, monkeypatch, tmp_path):
        svg = tmp_path / "hooks.svg"
        code, _, _ = invoke(
            capsys, monkeypatch, ["rimhooks", "--shape", "4,3,1", "--svg", str(svg)]
        )
        assert code == 0
        ns = "{http://www.w3.org/2000/svg}"
        root = ElementTree.parse(svg).getroot()
        groups = root.findall(f"{ns}g")
        hooks = Partition((4, 3, 1)).rim_hooks()
        assert root.tag == f"{ns}svg" and len(groups) == len(hooks) == 8
        # each group draws the whole diagram with its hook filled
        for group, hook in zip(groups, hooks):
            rects = group.findall(f"{ns}rect")
            assert len(rects) == 8
            assert sum(rect.get("fill") != "white" for rect in rects) == len(hook)


class TestValidate:
    def test_valid(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["validate"], stdin=RUNNING)
        assert code == 0 and "size 12" in out

    def test_invalid(self, capsys, monkeypatch):
        code, out, err = invoke(capsys, monkeypatch, ["validate"], stdin="1 0\n")
        assert code == 1
        assert "(1,2)" in err

    @pytest.mark.parametrize("command", ["validate", "rsk-inv"])
    def test_json_under_text_format(self, capsys, monkeypatch, command):
        code, out, err = invoke(
            capsys, monkeypatch, [command], stdin=json.dumps({"shape": [2], "rows": [[0, 1]]})
        )
        assert code == 1 and out == ""
        assert "looks like JSON" in err and "--format json" in err

    def test_a_shape_mismatch_names_the_empty_shape(self, capsys, monkeypatch):
        code, out, err = invoke(capsys, monkeypatch, ["validate", "--shape", "2,1"], stdin="\n")
        assert (code, out) == (1, "")
        assert 'input has shape "", expected 2,1' in err

    def test_invalid_json_format(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["validate", "--format", "json"],
            stdin=json.dumps({"shape": [2], "rows": [[1, 0]]}),
        )
        assert code == 1
        assert "error" in json.loads(out)


class TestTraceAndCandidates:
    def test_all_traces(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["trace"], stdin=RUNNING)
        assert code == 0
        assert "0: 2" in out.splitlines()

    def test_single_trace(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["trace", "--k", "3"], stdin=RUNNING)
        assert out.strip() == "3"

    def test_candidates(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["candidates"], stdin=RUNNING)
        assert out.split() == ["(1,4)", "(1,2)", "(2,2)", "(3,1)"]


class TestInsert:
    def test_success(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["insert", "--hook", "(1,3)"], stdin=STAIRCASE
        )
        assert code == 0
        assert out.strip().splitlines() == ["0 0 1", "0 1 1", "1 1 1"]

    def test_failure_exits_one(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["insert", "--hook", "(1,1)", "--format", "json"],
            stdin=json.dumps(
                {"shape": [3, 3, 3], "rows": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}
            ),
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["inserted"] is False and "witness" in obj
        assert "does not insert" in obj["error"]

    def test_failure_text_goes_to_stderr(self, capsys, monkeypatch):
        code, out, err = invoke(
            capsys, monkeypatch, ["insert", "--hook", "(1,1)"], stdin="0 0 0\n1 1 1\n2 2 2\n"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: rim-hook (1,1) of 3,3,3 does not insert")


class TestFactorizeBuild:
    def test_factorize_golden(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["factorize"], stdin=RUNNING)
        assert code == 0
        assert out.splitlines()[:4] == ["(1,4)", "(1,3)", "(2,2)", "(1,1)"]

    def test_factorize_paths_json(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["factorize", "--paths", "--format", "json"],
            stdin=json.dumps(
                {"shape": [4, 3, 1], "rows": [[0, 1, 2, 3], [1, 2, 2], [1]]}
            ),
        )
        obj = json.loads(out)
        assert obj["anchors"] == ["(1,4)", "(1,3)", "(2,2)", "(1,1)"]
        assert len(obj["paths"]) == 4

    def test_build_empty(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["build"], stdin="0 0\n0 0\n")
        assert code == 0
        assert out.strip().splitlines() == ["0 0", "0 0"]

    def test_build_inverts_factorize(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["build"], stdin="1 0 1 1\n0 1 0\n0\n"
        )
        assert out.strip() == RUNNING.strip()


class TestPeelingCommands:
    def test_xi(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["xi"], stdin="1 1 4\n2 3 4\n4 4 4\n"
        )
        assert out.strip().splitlines() == ["1 1 2", "0 1 0", "3 0 0"]

    def test_zeta(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["zeta", "--corner", "(3,3)"],
            stdin="1 1 4\n2 3 4\n4 4 4\n",
        )
        assert out.strip().splitlines() == ["0 1 4", "2 3 4", "4 4"]

    def test_xi_on_a_large_square_with_large_entries(self, capsys, monkeypatch):
        # 10^4 cells peel one corner at a time without any recursion limit;
        # entries climb to 999901
        n = 100
        rows = [[(i + j) * 5050 + (i * j) % 7 for j in range(n)] for i in range(n)]
        pi = Rpp(Partition((n,) * n), rows)
        code, out, _ = invoke(
            capsys, monkeypatch, ["xi", "--format", "json"], stdin=json.dumps(pi.to_json_obj())
        )
        assert code == 0
        assert Tableau.from_json_obj(json.loads(out)).weighted_size == pi.size

    def test_zeta_bad_corner(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys, monkeypatch, ["zeta", "--corner", "(1,1)"],
            stdin="0 0\n0 0\n",
        )
        assert code == 1 and err == "error: (1,1) is not an outer corner of 2,2\n"

    @pytest.mark.parametrize("corner", ["(1,2)", "(2,3)", "(3,1)", "(0,3)", "(-1,3)", "(9,9)"])
    def test_zeta_corner_off_the_rim(self, capsys, monkeypatch, corner):
        code, _, err = invoke(
            capsys, monkeypatch, ["zeta", "--corner", corner],
            stdin="0 0 0\n0 0\n",
        )
        assert code == 1 and err == f"error: {corner} is not an outer corner of 3,2\n"


class TestClassicalCommands:
    def test_hg_roundtrip(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["hg"], stdin="0 1\n1 1\n")
        assert out.strip().splitlines() == ["1 0", "0 0"]
        code, out, _ = invoke(capsys, monkeypatch, ["hg-inv"], stdin=out)
        assert out.strip().splitlines() == ["0 1", "1 1"]

    def test_rsk(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["rsk"], stdin="1 1 2\n0 1 0\n3 0 0\n"
        )
        first, second = out.strip().split("\n\n")
        assert first.splitlines() == ["1 1 1 1", "2 2 3", "3"]
        assert second.splitlines() == ["1 1 1 1", "2 3 3", "3"]

    def test_rsk_inv(self, capsys, monkeypatch):
        pair_text = "1 1 1 1\n2 2 3\n3\n\n1 1 1 1\n2 3 3\n3\n"
        code, out, _ = invoke(
            capsys, monkeypatch, ["rsk-inv", "--shape", "3,3,3"], stdin=pair_text
        )
        assert out.strip().splitlines() == ["1 1 2", "0 1 0", "3 0 0"]

    def test_diag(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["diag", "--k", "0"], stdin="1 1 4\n2 3 4\n4 4 4\n"
        )
        assert out.strip() == "4,3,1"

    def test_rsk_perm_input(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["rsk", "--perm", "3,1,2"])
        assert code == 0
        first, second = out.strip().split("\n\n")
        assert first.splitlines() == ["1 2", "3"]
        assert second.splitlines() == ["1 3", "2"]

    @pytest.mark.parametrize(
        "argv", [["build"], ["hg-inv"], ["rsk"], ["gk", "--k", "0", "--r", "1", "--kind", "weak"]]
    )
    def test_perm_is_checked_against_the_shape(self, capsys, monkeypatch, argv):
        code, out, err = invoke(capsys, monkeypatch, [*argv, "--shape", "2,1", "--perm", "3,1,2"])
        assert (code, out) == (1, "")
        assert err.strip() == "error: input has shape 3,3,3, expected 2,1"
        code, out, _ = invoke(capsys, monkeypatch, ["build", "--shape", "3,3,3", "--perm", "3,1,2"])
        assert code == 0 and out.splitlines() == ["0 1 1", "0 1 1", "1 2 2"]

    @pytest.mark.parametrize("word", ["", " "])
    def test_blank_perm_is_the_empty_permutation(self, capsys, monkeypatch, word):
        # like --shape '', which is the empty partition
        code, out, _ = invoke(capsys, monkeypatch, ["build", "--perm", word])
        assert code == 0 and out.strip() == ""

    def test_gk(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["gk", "--k", "0", "--r", "4", "--kind", "strict"],
            stdin="1 1 2\n0 1 0\n3 0 0\n",
        )
        assert out.strip() == "8"

    def test_gk_many_chains_through_one_cell(self, capsys, monkeypatch):
        code, out, err = invoke(
            capsys,
            monkeypatch,
            ["gk", "--k", "0", "--r", "1100", "--kind", "strict"],
            stdin="2000\n",
        )
        assert (code, out.strip(), err) == (0, "1100", "")

    def test_gk_family_past_every_entry(self, capsys, monkeypatch):
        # the flow stops once it covers the rectangle, so r needs no ceiling
        code, out, err = invoke(
            capsys,
            monkeypatch,
            ["gk", "--k", "0", "--r", str(10**21), "--kind", "weak"],
            stdin="1 1 2\n0 1 0\n3 0 0\n",
        )
        assert (code, out.strip(), err) == (0, "8", "")


class TestSeriesCommand:
    def test_hook_product(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["series", "hook-product", "--shape", "2,2", "--degree", "4"],
        )
        assert out.strip() == "1 + 1*q + 3*q^2 + 4*q^3 + 7*q^4"

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("which", ["hook-product", "rpp", "trace-product", "trace"])
    def test_prints_what_tests_data_series_pins(self, capsys, monkeypatch, which, fmt, suffix):
        # a series is printed, never read back: the pinned files are its round trip
        pinned = os.path.join(os.path.dirname(__file__), "data", "series", f"{which}.{suffix}")
        argv = ["series", which, "--shape", "3,2", "--degree", "6", "--format", fmt]
        code, out, err = invoke(capsys, monkeypatch, argv)
        with open(pinned) as f:
            assert (code, out, err) == (0, f.read(), "")

    def test_a_series_is_looked_up_when_called(self, capsys, monkeypatch):
        # a tracer that rebinds the module's names sees the call
        calls = []

        def traced(shape, degree):
            calls.append((shape, degree))
            return series.TruncatedSeries((7,))

        monkeypatch.setattr(cli, "hook_product", traced)
        code, out, _ = invoke(
            capsys, monkeypatch, ["series", "hook-product", "--shape", "2,2", "--degree", "4"]
        )
        assert (code, out, calls) == (0, "7\n", [(Partition((2, 2)), 4)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "rpp", "--shape", "3,2", "--degree"],
            ["enumerate", "tableaux", "--shape", "3,2", "--bound"],
            ["verify", "stanley", "--degree"],
        ],
    )
    def test_a_bound_at_the_ceiling_is_refused_before_any_table(self, capsys, monkeypatch, argv):
        # a nonempty shape has more fillings than the bound, so neither the count
        # table nor a coefficient list of bound + 1 entries (80 MB here) is made
        def no_table(shape, bound):
            raise AssertionError(f"a count table of {bound + 1} entries")

        monkeypatch.setattr(enumeration, "_counts_by_size", no_table)
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, monkeypatch, [*argv, "10000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert "would yield more than 10000000 items, over the ceiling 10000000" in err
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["series", "hook-product", "--shape", "3,2", "--degree"],
                "coefficients of the hook product of 3,2 would yield 10000001 items",
            ),
            (
                ["series", "trace-product", "--shape", "3,2", "--degree"],
                "hook tableaux of 3,2 for its trace product would yield more than 10000000 items",
            ),
            (
                ["series", "hook-product", "--shape", "", "--degree"],
                'coefficients of the hook product of "" would yield 10000001 items',
            ),
            (
                ["series", "rpp", "--shape", "", "--degree"],
                'fillings of "" would need a count table of 10000001 entries',
            ),
            (
                ["series", "trace", "--shape", "", "--degree"],
                'fillings of "" would need a count table of 10000001 entries',
            ),
            (
                ["enumerate", "rpps", "--shape", "", "--bound"],
                'fillings of "" would need a count table of 10000001 entries',
            ),
        ],
    )
    def test_a_degree_at_the_ceiling_is_refused_before_any_coefficient(
        self, capsys, monkeypatch, argv, message
    ):
        # the hook product has degree + 1 coefficients whatever the shape; the empty
        # shape has one filling, but counting it by size takes a table as long; the
        # trace product has a term per hook tableau of weighted size up to the degree
        def no_table(shape, bound):
            raise AssertionError(f"a count table of {bound + 1} entries")

        def no_product(self, monomial):
            raise AssertionError("a trace product multiplied out")

        monkeypatch.setattr(enumeration, "_counts_by_size", no_table)
        monkeypatch.setattr(series, "_counts_by_size", no_table)
        monkeypatch.setattr(series.MultiTraceSeries, "times_geometric", no_product)
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, monkeypatch, [*argv, "10000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert f"{message}, over the ceiling 10000000" in err
        assert peak < 1_000_000


#: a small value of each `VerifyConfig` field but `seed`, as the verify flag that sets it
VERIFY_FLAGS = {
    "shapes": ["--shape", "2,1"],
    "size_bound": ["--size-bound", "2"],
    "weight_bound": ["--weight-bound", "2"],
    "path_size_bound": ["--path-size-bound", "2"],
    "stanley_degree": ["--degree", "3"],
    "trace_degree": ["--trace-degree", "3"],
    "sample": ["--sample", "2"],
}


class TestVerifyCommand:
    def test_stanley_single_shape(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["verify", "stanley", "--shape", "4,3,1", "--degree", "10"],
        )
        assert code == 0
        assert out.startswith("PASS stanley")
        assert "[1, 3, 7, 14, 27, 47, 79, 126, 196, 294, 432]" in out

    def test_json_output(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["verify", "golden", "--format", "json"],
        )
        results = json.loads(out)
        assert code == 0 and all(r["passed"] for r in results)

    def test_flags_set_their_config_fields(self, capsys, monkeypatch):
        from rimhooks.verify import VerifyConfig

        seen = []

        def capture(names, config, jobs):
            seen.append(config)
            return []

        monkeypatch.setattr(cli, "run_suites", capture)
        flags = ["--size-bound", "1", "--weight-bound", "2", "--path-size-bound", "3",
                 "--degree", "4", "--trace-degree", "5", "--sample", "6", "--seed", "7"]
        invoke(capsys, monkeypatch, ["verify", "all", "--shape", "2,1", "--shape", "3", *flags])
        invoke(capsys, monkeypatch, ["verify", "stanley"])
        assert seen == [
            VerifyConfig(((2, 1), (3,)), 1, 2, 3, 4, 5, sample=6, seed=7),
            VerifyConfig(),
        ]

    # stanley and gansner pass on this shape; bijection is then refused
    SIX_BY_SIX = ["verify", "all", "--shape", "6,6,6,6,6,6", "--size-bound", "31",
                  "--weight-bound", "31"]
    CEILING = "enumerating fillings of 6,6,6,6,6,6 would yield 10399394 items, over the ceiling 10000000"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_the_suites_that_ended_are_printed_before_an_error(self, monkeypatch, jobs):
        # under --jobs the refusal comes back from a worker, pickled
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        with redirect_stdout(both), redirect_stderr(both):
            code = run([*self.SIX_BY_SIX, "--jobs", jobs])
        lines = both.getvalue().splitlines()
        assert code == 1
        assert [line.split(":")[0] for line in lines[:3]] == ["PASS stanley", *["PASS gansner"] * 2]
        assert lines[3:] == [f"error: {self.CEILING}"]

    def test_json_prints_the_results_that_ended_then_the_error(self, capsys, monkeypatch, tmp_path):
        # the results go to --out, and the error object where it always goes
        target = tmp_path / "results.json"
        code, out, err = invoke(
            capsys, monkeypatch, [*self.SIX_BY_SIX, "--format", "json", "--out", str(target)]
        )
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": self.CEILING}
        results = json.loads(target.read_text())
        assert [(r["suite"], r["passed"]) for r in results] == [
            ("stanley", True), ("gansner", True), ("gansner", True)
        ]

    @pytest.mark.parametrize("suite", ["golden", "gk", "syt", "rsk-thm", "involution"])
    def test_a_fixed_instance_suite_refuses_the_shape_and_the_bounds(
        self, capsys, monkeypatch, tmp_path, suite
    ):
        given = [["--shape", "2,1"], ["--size-bound", "3"], ["--weight-bound", "2"],
                 ["--path-size-bound", "1"], ["--degree", "4"], ["--trace-degree", "5"]]
        for flag in given:
            with pytest.raises(SystemExit) as err:
                run(["verify", suite, *flag, "--format", "json"])
            out, message = capsys.readouterr()
            assert (err.value.code, out) == (2, "")
            assert f"suite {suite} runs a fixed instance and takes no {flag[0]}\n" in message
        # the flags it reads, or that say how to run it, stay accepted
        target = tmp_path / "results.json"
        argv = ["verify", suite, "--seed", "3", "--jobs", "1", "--format", "json"]
        argv += ["--sample", "2"] if suite == "gk" else []
        assert invoke(capsys, monkeypatch, [*argv, "--out", str(target)]) == (0, "", "")
        assert {r["suite"] for r in json.loads(target.read_text())} == {suite}

    @pytest.mark.parametrize("suite", READS)
    def test_a_suite_refuses_each_flag_it_does_not_read(self, capsys, monkeypatch, tmp_path, suite):
        assert READS[suite] <= set(VERIFY_FLAGS)
        assert set(VERIFY_FLAGS) == {f.name for f in dataclasses.fields(VerifyConfig)} - {"seed"}
        for field, flag in VERIFY_FLAGS.items():
            if field in READS[suite]:
                continue
            with pytest.raises(SystemExit) as err:
                run(["verify", suite, *flag])
            out, message = capsys.readouterr()
            assert (err.value.code, out) == (2, "")
            assert message.endswith(f" takes no {flag[0]}\n")
            assert f"error: suite {suite} " in message
        # every flag it reads at once, with the ones that say how to run it
        target = tmp_path / "results.json"
        argv = ["verify", suite, *(arg for field in READS[suite] for arg in VERIFY_FLAGS[field])]
        argv += ["--seed", "3", "--jobs", "1", "--format", "json", "--out", str(target)]
        assert invoke(capsys, monkeypatch, argv) == (0, "", "")
        results = json.loads(target.read_text())
        assert results and {r["suite"] for r in results} == {suite}

    def test_unknown_suite_is_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run(["verify", "nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            run(["verify", "golden", "--jobs", jobs])
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("sample", ["0", "-1", "two"])
    def test_sample_below_one_is_usage_error(self, capsys, sample):
        # a sample of 0 would check nothing and still print PASS
        with pytest.raises(SystemExit) as err:
            run(["verify", "bijection", "--sample", sample])
        assert err.value.code == 2
        assert "--sample" in capsys.readouterr().err


class TestEnumerateCommand:
    def test_ndjson(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["enumerate", "rpps", "--shape", "1", "--bound", "2"],
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines == [
            {"shape": [1], "rows": [[0]]},
            {"shape": [1], "rows": [[1]]},
            {"shape": [1], "rows": [[2]]},
        ]

    def test_budget_error(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys,
            monkeypatch,
            ["enumerate", "rpps", "--shape", "3,3,3", "--bound", "40", "--ceiling", "5"],
        )
        assert code == 1 and "ceiling" in err

    def test_large_square_at_bound_zero(self, capsys, monkeypatch):
        square = ",".join(["40"] * 40)
        code, out, err = invoke(
            capsys, monkeypatch, ["enumerate", "rpps", "--shape", square, "--bound", "0"]
        )
        assert code == 0 and err == ""
        assert out.splitlines() == [json.dumps(Rpp.zero(Partition((40,) * 40)).to_json_obj())]


@pytest.mark.parametrize(
    "argv, stdin, pinned",
    [
        (["rimhooks", "--shape", "4,3,1"], "", "rimhooks-4,3,1.svg"),
        (["render", "--highlight", "(1,4)", "(1,3)"], RUNNING, "render-running-example.svg"),
    ],
    ids=["rimhooks", "render"],
)
def test_writes_the_svg_that_tests_data_svg_pins(
    capsys, monkeypatch, tmp_path, argv, stdin, pinned
):
    target = tmp_path / "out.svg"
    code, _, err = invoke(capsys, monkeypatch, [*argv, "--svg", str(target)], stdin=stdin)
    assert (code, err) == (0, "")
    with open(os.path.join(os.path.dirname(__file__), "data", "svg", pinned)) as f:
        assert target.read_text() == f.read()


class TestRenderCommand:
    def test_ascii(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["render"], stdin=RUNNING)
        assert code == 0
        assert "diagonal traces:" in out

    def test_svg(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "pic.svg"
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["render", "--svg", str(target), "--highlight", "(1,4)", "(1,3)"],
            stdin=RUNNING,
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg") and "#ffd47f" in text

    def test_a_highlight_outside_the_shape_is_refused(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "pic.svg"
        code, out, err = invoke(
            capsys,
            monkeypatch,
            ["render", "--svg", str(target), "--highlight", "(1,2)", "(9,9)", "(0,1)"],
            stdin="1 2\n3\n",
        )
        assert (code, out) == (1, "")
        assert err.strip() == "error: highlight (9,9) lies outside the shape 2,1"
        assert not target.exists()


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_bad_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["info", "--no-such-flag"])
        assert err.value.code == 2

    def test_the_one_subcommand_parser_prints_what_the_full_one_does(self, capsys):
        import argparse

        from rimhooks.cli import make_parser

        full = make_parser()
        (commands,) = (a for a in full._actions if isinstance(a, argparse._SubParsersAction))
        for name in commands.choices:
            printed = []
            for parser in (full, make_parser(name)):
                for argv in ([name, "-h"], [name, "--no-such-flag"], [name, "stray", "words"]):
                    with pytest.raises(SystemExit) as err:
                        parser.parse_args(argv)
                    printed.append((err.value.code, *capsys.readouterr()))
            assert printed[:3] == printed[3:]
        assert make_parser("no-such-command").format_help() == full.format_help()

    def test_the_parser_declares_what_is_recorded(self):
        # tests/data/cli-parser.json, written by tests/cli_surface.py; the help that
        # argparse prints differs between Python versions, so it is not compared here
        from cli_surface import load, surface

        from rimhooks.cli import make_parser

        recorded = load()["parser"]
        assert surface(make_parser()) == recorded
        for name, declared in recorded["commands"].items():
            assert surface(make_parser(name))["commands"] == {name: declared}

    def test_each_recorded_command_line_exits_as_recorded(self):
        from cli_surface import invoke, load

        lines = load()["command_lines"]
        exits = [invoke(line["argv"], line["stdin"])[0] for line in lines]
        assert exits == [line["exit"] for line in lines]

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "trace", "--shape", "2,1", "--degree", "-1"],
            ["series", "hook-product", "--shape", "2,1", "--degree", "-1"],
            ["enumerate", "rpps", "--shape", "2,1", "--bound", "-1"],
            ["enumerate", "rpps", "--shape", "2,1", "--bound", "3", "--ceiling", "-1"],
            ["verify", "stanley", "--degree", "-1"],
            ["verify", "bijection", "--size-bound", "-1"],
            ["verify", "bijection", "--weight-bound", "-2"],
            ["verify", "insertion-uniqueness", "--path-size-bound", "-1"],
            ["verify", "gansner", "--trace-degree", "-1"],
            ["verify", "gansner", "--trace-degree", "x"],
        ],
    )
    def test_negative_bound(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert f"{argv[-2]}: expected a non-negative integer" in capsys.readouterr().err

    def test_zero_bound_is_accepted(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["enumerate", "rpps", "--shape", "2,1", "--bound", "0"]
        )
        assert code == 0
        assert json.loads(out) == {"shape": [2, 1], "rows": [[0, 0], [0]]}

    @pytest.mark.parametrize(
        "stdin, key",
        [
            ('{"shape": [2, 1]}', "'rows'"),
            ('{"rows": [[0, 1], [1]]}', "'shape'"),
            ('{"shape": [2, 1], "rows": 5}', "'rows'"),
            ('{"shape": [2, 1], "rows": [[0, 1], 5]}', "'rows'"),
            ('{"shape": "2,1", "rows": [[0, 1], [1]]}', "'shape'"),
            ('{"shape": [true, true], "rows": [[0], [1]]}', "'shape'"),
            ('{"shape": [2.0], "rows": [[0, 1]]}', "'shape'"),
            ('{"shape": [2], "rows": [[false, true]]}', "'rows'"),
            ('{"shape": [2], "rows": [[0, "1"]]}', "'rows'"),
            ('{"shape": [2], "rows": [[0, 1.0]]}', "'rows'"),
            ("[[0, 1], [1]]", "'shape' and 'rows'"),
        ],
    )
    @pytest.mark.parametrize("command", ["factorize", "hg-inv"])
    def test_bad_json_grid(self, capsys, monkeypatch, stdin, key, command):
        code, out, _ = invoke(capsys, monkeypatch, [command, "--format", "json"], stdin=stdin)
        assert code == 1
        assert key in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (["validate"], "0 1\n1 x\n", "row 2: expected an integer, got 'x'"),
            (["validate"], "1.5\n", "row 1: expected an integer, got '1.5'"),
            (["factorize"], "0 1\n\n1 2 x\n", "row 2: expected an integer, got 'x'"),
            (["hg-inv"], "0 x\n", "row 1: expected an integer, got 'x'"),
            (["rsk-inv"], "1\n\n1 y\n", "row 1: expected an integer, got 'y'"),
            (["info", "--shape", "2,,1"], "", "shape '2,,1': expected an integer, got ''"),
            (["verify", "golden", "--shape", "x"], "", "shape 'x': expected an integer, got 'x'"),
            (["build", "--perm", "2,a,1"], "", "permutation '2,a,1': expected an integer, got 'a'"),
            (["build", "--perm", "2,,1"], "", "permutation '2,,1': expected an integer, got ''"),
            (["rsk", "--perm", "3,1,2,"], "", "permutation '3,1,2,': expected an integer, got ''"),
            (["info", "--shape", "2,1,"], "", "shape '2,1,': expected an integer, got ''"),
        ],
    )
    def test_bad_token_is_named(self, capsys, monkeypatch, argv, stdin, message):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=stdin)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, stdin",
        [
            ("validate", "[" * 100000 + "]" * 100000),
            ("hg", '{"shape": [1], "rows": ' + "[" * 100000 + "]" * 100000 + "}"),
            ("rsk-inv", '{"p": ' + "[" * 100000 + "]" * 100000 + "}"),
        ],
    )
    def test_deeply_nested_json(self, capsys, monkeypatch, command, stdin):
        # too deep for the JSON parser: a diagnostic, not a RecursionError traceback
        code, out, err = invoke(capsys, monkeypatch, [command, "--format", "json"], stdin=stdin)
        assert code == 1 and err == ""
        assert json.loads(out) == {"error": "the JSON input is nested too deeply to read"}

    def test_bad_json_pair(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["rsk-inv", "--format", "json"], stdin='{"p": {}}'
        )
        assert code == 1
        assert json.loads(out) == {"error": "JSON pair has no 'q' key"}

    def test_json_pair_that_is_no_object(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["rsk-inv", "--format", "json"], stdin="[{}, {}]"
        )
        assert code == 1
        assert json.loads(out) == {"error": "expected a JSON object with the keys 'p' and 'q'"}


class TestIoErrors:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_missing_input_file(self, capsys, monkeypatch, tmp_path, fmt):
        missing = tmp_path / "missing.txt"
        code, out, err = invoke(
            capsys, monkeypatch, ["validate", "--in", str(missing), "--format", fmt]
        )
        assert code == 1
        message = json.loads(out)["error"] if fmt == "json" else err
        assert "missing.txt" in message and "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--shape", "2,1", "--out"],
            ["enumerate", "rpps", "--shape", "2,1", "--bound", "1", "--out"],
            ["rimhooks", "--shape", "2,1", "--svg"],
            ["render", "--svg"],
        ],
    )
    def test_unwritable_output(self, capsys, monkeypatch, tmp_path, argv):
        target = tmp_path / "no-such-dir" / "out.txt"
        code, _, err = invoke(capsys, monkeypatch, argv + [str(target)], stdin=RUNNING)
        assert code == 1
        assert err.startswith("error: ") and "no-such-dir" in err
        assert not target.parent.exists()


def test_python_m_rimhooks_prints_what_run_prints(capsys, monkeypatch):
    # the `__main__` module, run as a fresh interpreter runs it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["info", "--shape", "2,1"]
    done = subprocess.run(
        [sys.executable, "-m", "rimhooks", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == invoke(capsys, monkeypatch, argv)


# ------------------------------------------------------------ the contract
# Every argv and stdin ends in exit 0, 1 or 2; a non-zero exit leaves a
# message on stderr or a JSON `error`; no exception escapes `run`. Integers
# and grids are small so that each example runs in milliseconds. `--r` of
# `gk` is drawn up to 2000 all the same: the chain flow stops once every
# entry is taken, which on these grids is after a few augmentations. The
# `gk` and `all` suites run a fixed, slower configuration. A verify suite
# refuses a flag it does not read, so those flags are drawn rarely and the
# ones it reads often, and most runs reach the suite.

# its parent is a file, so opening it for reading or writing always fails
_UNOPENABLE = os.path.join(__file__, "no-such-dir", "x")


def _mostly(good, bad, one_in=10):
    """`bad` about once in `one_in` draws, `good` otherwise."""
    # sampled_from draws close to uniformly; integers() favours its bounds
    return st.sampled_from(range(one_in)).flatmap(lambda n: bad if n == 0 else good)


def _opt(flag, values=None, *, required=False):
    """The flag, with a drawn value unless it is a switch, or nothing."""
    present = st.just([flag]) if values is None else values.map(lambda v: [flag, v])
    return _mostly(present, st.just([])) if required else st.one_of(st.just([]), present)


def _choice(values):
    """One of `values`, or an unknown word about once in ten draws."""
    return _mostly(st.sampled_from(values), st.just("nonsense"))


def _rare(flag, values, one_in=10):
    """The flag with a drawn value about once in `one_in` draws, nothing otherwise."""
    return _mostly(st.just([]), values.map(lambda v: [flag, v]), one_in)


_INTS = _mostly(st.integers(-1, 6).map(str), st.sampled_from(["-2", "x", "", "1.5"]))
_FAMILY_SIZES = _mostly(st.integers(-1, 2000).map(str), st.sampled_from(["-2", "x", "", "1.5"]))
_BAD_BOUNDS = st.sampled_from(["-1", "x", ""])
_SMALL_INTS = _mostly(st.integers(0, 3).map(str), _BAD_BOUNDS)
_SHAPES = _mostly(
    st.lists(st.integers(1, 3), max_size=3).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    ),
    st.sampled_from(["2,3", "a", "-1", "1,,1", "0"]),
)
_CELLS = _mostly(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda u: f"({u[0]},{u[1]})"),
    st.sampled_from(["(0,2)", "(4,1)", "(1,1", "x", ""]),
)
_PERMS = _mostly(
    st.permutations([1, 2, 3]).map(lambda word: ",".join(map(str, word))),
    st.sampled_from(["", "0", "1,1", "a"]),
)

_COMMON = [
    _rare("--format", st.just("xml")),
    _opt("--format", st.sampled_from(["text", "json"])),
    _rare("--out", st.just(_UNOPENABLE)),
]
_GRID = _COMMON + [_rare("--in", st.just(_UNOPENABLE)), _rare("--shape", _SHAPES)]
_TABLEAU = _GRID + [_rare("--perm", _PERMS)]
# a bound is rarely bad, so most runs reach a suite
_BOUND = _mostly(st.integers(0, 3).map(str), _BAD_BOUNDS, one_in=50)
# the values of each verify flag, by the config field it sets
_VERIFY_VALUES = dict.fromkeys(VERIFY_FLAGS, _BOUND) | {
    "shapes": _SHAPES,
    "sample": _mostly(st.integers(1, 4).map(str), _BAD_BOUNDS),
}


def _verify_flags(suite):
    """The verify flags, each often when `suite` reads it and rarely when it does not."""
    reads = READS.get(suite, ())
    groups = []
    for field, values in _VERIFY_VALUES.items():
        flag = VERIFY_FLAGS[field][0]
        if field in reads:
            groups.append(_opt(flag, values, required=True))
        else:
            groups.append(_rare(flag, values, one_in=40))
    return groups


# subcommand -> (positional arguments, option groups)
_COMMANDS = {
    "info": ([], _COMMON + [_opt("--shape", _SHAPES, required=True)]),
    "rimhooks": (
        [],
        _COMMON + [_opt("--shape", _SHAPES, required=True), _rare("--svg", st.just(_UNOPENABLE))],
    ),
    "validate": ([], _GRID),
    "trace": ([], _GRID + [_opt("--k", _INTS)]),
    "candidates": ([], _GRID),
    "insert": ([], _GRID + [_opt("--hook", _CELLS, required=True)]),
    "factorize": ([], _GRID + [_opt("--paths")]),
    "build": ([], _TABLEAU),
    "xi": ([], _GRID),
    "zeta": ([], _GRID + [_opt("--corner", _CELLS, required=True)]),
    "hg": ([], _GRID),
    "hg-inv": ([], _TABLEAU),
    "rsk": ([], _TABLEAU),
    "rsk-inv": ([], _GRID),
    "diag": ([], _GRID + [_opt("--k", _INTS, required=True)]),
    "gk": (
        [],
        _TABLEAU
        + [
            _opt("--k", _INTS, required=True),
            _opt("--r", _FAMILY_SIZES, required=True),
            _opt("--kind", _choice(["weak", "strict"]), required=True),
        ],
    ),
    "series": (
        [_choice(["hook-product", "rpp", "trace-product", "trace"])],
        _COMMON
        + [_opt("--shape", _SHAPES, required=True), _opt("--degree", _SMALL_INTS, required=True)],
    ),
    # and the flags of `_verify_flags`, drawn for the suite
    "verify": (
        [_choice([name for name in READS if name != "gk"])],
        _COMMON + [_opt("--seed", _INTS), _rare("--jobs", st.just("0"))],
    ),
    "enumerate": (
        [_choice(["rpps", "tableaux"])],
        _COMMON
        + [
            _opt("--shape", _SHAPES, required=True),
            _opt("--bound", _SMALL_INTS, required=True),
            _opt("--ceiling", _INTS),
        ],
    ),
    "render": ([], _GRID + [_rare("--svg", st.just(_UNOPENABLE)), _opt("--highlight", _CELLS)]),
}


@st.composite
def _small_rpps(draw):
    """Rows of a reverse plane partition with at most three rows and columns."""
    parts = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)), reverse=True)
    rows = []
    for i, p in enumerate(parts):
        row = []
        for j in range(p):
            low = max(row[-1] if row else 0, rows[i - 1][j] if i else 0)
            row.append(low + draw(st.integers(0, 1)))
        rows.append(row)
    return rows


def _text_grid(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _json_grid(rows):
    return {"shape": [len(row) for row in rows], "rows": rows}


_ROWS = _mostly(
    _small_rpps(), st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), max_size=3)
)
_BROKEN = st.one_of(
    st.text(max_size=20),
    st.sampled_from(
        [
            '{"shape": [1]',
            "[1, 2]",
            "null",
            '{"p": 1, "q": 2}',
            '{"shape": [1], "rows": [[-1]]}',
            "[" * 100000 + "]" * 100000,
        ]
    ),
)
_TEXT_STDIN = _mostly(
    st.one_of(
        _ROWS.map(_text_grid),
        st.tuples(_ROWS, _ROWS).map(lambda pq: _text_grid(pq[0]) + "\n" + _text_grid(pq[1])),
    ),
    _BROKEN,
)
_JSON_STDIN = _mostly(
    st.one_of(
        _ROWS.map(lambda rows: json.dumps(_json_grid(rows))),
        st.tuples(_ROWS, _ROWS).map(
            lambda pq: json.dumps({"p": _json_grid(pq[0]), "q": _json_grid(pq[1])})
        ),
    ),
    _BROKEN,
)


@st.composite
def _invocations(draw):
    """(argv, stdin), the stdin mostly in the format that argv asks for."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, options = _COMMANDS[command]
    argv = [command] + [draw(arg) for arg in positional]
    if command == "verify":
        options = options + _verify_flags(argv[1])
    for group in options:
        argv += draw(group)
    stdin = draw(_JSON_STDIN if "json" in argv else _TEXT_STDIN)
    return argv, stdin


def _is_json_error(out: str) -> bool:
    lines = out.strip().splitlines()
    try:
        obj = json.loads(lines[-1]) if lines else None
    except ValueError:
        return False
    return isinstance(obj, dict) and bool(obj.get("error"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
def test_every_input_ends_in_a_documented_exit(invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert err.strip() or _is_json_error(out)
    assert "Traceback" not in out + err
