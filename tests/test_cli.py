import json

import pytest

from rimhooks import Partition, Rpp, Tableau
from rimhooks.cli import run

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


class TestValidate:
    def test_valid(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch, ["validate"], stdin=RUNNING)
        assert code == 0 and "size 12" in out

    def test_invalid(self, capsys, monkeypatch):
        code, out, err = invoke(capsys, monkeypatch, ["validate"], stdin="1 0\n")
        assert code == 1
        assert "(1,2)" in err

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
            capsys, monkeypatch, ["xi", "--format", "json"], stdin=pi.to_json()
        )
        assert code == 0
        assert Tableau.from_json(out).weighted_size == pi.size

    def test_zeta_bad_corner(self, capsys, monkeypatch):
        code, _, err = invoke(
            capsys, monkeypatch, ["zeta", "--corner", "(1,1)"],
            stdin="0 0\n0 0\n",
        )
        assert code == 1 and "outer corner" in err


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

    def test_gk(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["gk", "--k", "0", "--r", "4", "--kind", "strict"],
            stdin="1 1 2\n0 1 0\n3 0 0\n",
        )
        assert out.strip() == "8"


class TestSeriesCommand:
    def test_hook_product(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys,
            monkeypatch,
            ["series", "hook-product", "--shape", "2,2", "--degree", "4"],
        )
        assert out.strip() == "1 + 1*q + 3*q^2 + 4*q^3 + 7*q^4"


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


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_bad_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["info", "--no-such-flag"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "trace", "--shape", "2,1", "--degree", "-1"],
            ["series", "hook-product", "--shape", "2,1", "--degree", "-1"],
            ["enumerate", "rpps", "--shape", "2,1", "--bound", "-1"],
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
            ("[[0, 1], [1]]", "'shape' and 'rows'"),
        ],
    )
    @pytest.mark.parametrize("command", ["factorize", "hg-inv"])
    def test_bad_json_grid(self, capsys, monkeypatch, stdin, key, command):
        code, out, _ = invoke(capsys, monkeypatch, [command, "--format", "json"], stdin=stdin)
        assert code == 1
        assert key in json.loads(out)["error"]

    def test_bad_json_pair(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, monkeypatch, ["rsk-inv", "--format", "json"], stdin='{"p": {}}'
        )
        assert code == 1
        assert "'p' and 'q'" in json.loads(out)["error"]
