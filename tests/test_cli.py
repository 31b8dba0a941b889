"""Command-line harness, exercised in-process through main(argv)."""

import csv
import json
import os
from fractions import Fraction

import pytest

from splitwise import DTInstance, validate_instance
from splitwise import cli
from splitwise.cli import (EXIT_AUDIT, EXIT_BUDGET, EXIT_INVALID, EXIT_OK,
                           main)


def singleton3_text() -> str:
    inst = DTInstance([Fraction(1, 3)] * 3,
                      [(1, 2, 2), (2, 1, 2), (2, 2, 1)], 2)
    return inst.to_text()


def perfect4_text() -> str:
    inst = DTInstance([Fraction(1, 4)] * 4,
                      [(1, 1, 2, 2), (1, 2, 1, 2)], 2)
    return inst.to_text()


def write_instance(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class TestSolve:
    def test_greedy_frozen_cost(self, tmp_path, capsys):
        path = write_instance(tmp_path, "singleton3.txt", singleton3_text())
        rc = main(["solve", path, "--algo", "greedy"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "C_G=5/3" in out
        tree_path = tmp_path / "singleton3.tree.txt"
        assert tree_path.exists()
        assert "tree written to" in out

    def test_exact_frozen_cost(self, tmp_path, capsys):
        path = write_instance(tmp_path, "perfect4.txt", perfect4_text())
        rc = main(["solve", path, "--algo", "exact"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "C_OPT=2" in out

    @pytest.mark.parametrize("algo", [["exact"], ["greedy"],
                                      ["fulltree", "--alpha", "0.5"],
                                      ["fulltree-uniform", "--alpha", "0.5"]],
                             ids=["exact", "greedy", "fulltree", "fulltree-uniform"])
    def test_max_depth_is_partial_only(self, tmp_path, capsys, algo):
        """A depth budget would make `exact` print a depth-1 tree's cost as
        C_OPT, and the other algorithms would ignore it."""
        path = write_instance(tmp_path, "perfect4.txt", perfect4_text())
        rc = main(["solve", path, "--max-depth", "1", "--algo", *algo])
        captured = capsys.readouterr()
        assert rc == EXIT_INVALID
        assert "--max-depth applies to --algo partial only" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "perfect4.tree.txt").exists()

    def test_partial_label_carries_budget(self, tmp_path, capsys):
        path = write_instance(tmp_path, "perfect4.txt", perfect4_text())
        rc = main(["solve", path, "--algo", "partial", "--max-depth", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "C_PARTIAL(b=1)=1" in out

    def test_fulltree_trace_and_bound(self, tmp_path, capsys):
        path = write_instance(tmp_path, "perfect4.txt", perfect4_text())
        rc = main(["solve", path, "--algo", "fulltree-uniform",
                   "--alpha", "0.5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "C_FULLTREE=2" in out
        assert "b=3 " in out              # depth budget capped at n-1
        assert "decision=" in out
        assert "within_bound=True" in out
        assert "recursion_depth" in out

    def test_fulltree_requires_alpha(self, tmp_path, capsys):
        path = write_instance(tmp_path, "perfect4.txt", perfect4_text())
        rc = main(["solve", path, "--algo", "fulltree-uniform"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "alpha" in err

    def test_timings_flag(self, tmp_path, capsys):
        path = write_instance(tmp_path, "singleton3.txt", singleton3_text())
        rc = main(["solve", path, "--timings"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "runtime_ms=" in out

    def test_out_flag_controls_tree_path(self, tmp_path, capsys):
        path = write_instance(tmp_path, "singleton3.txt", singleton3_text())
        dest = tmp_path / "custom.tree"
        rc = main(["solve", path, "--out", str(dest)])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert dest.exists()
        assert dest.read_text().strip()

    def test_invalid_instance_exits_2(self, tmp_path, capsys):
        # hypotheses 1 and 2 answer identically everywhere
        inst = DTInstance([Fraction(1, 3)] * 3, [(1, 1, 2)], 2)
        path = write_instance(tmp_path, "bad.txt", inst.to_text())
        rc = main(["solve", path])
        out = capsys.readouterr().out
        assert rc == EXIT_INVALID
        assert "invalid instance" in out

    @pytest.mark.parametrize("name, doc", [
        ("nan.txt", "3 2 2\nnan 0.5 0.5\n1 2 2\n2 1 2\n"),
        ("nan.json", '{"weights": [NaN, 0.5, 0.5], '
                     '"tests": [[1, 2, 2], [2, 1, 2]]}'),
    ], ids=["text", "json"])
    @pytest.mark.parametrize("algo", [["greedy"], ["exact"],
                                      ["fulltree", "--alpha", "0.5"]],
                             ids=["greedy", "exact", "fulltree"])
    def test_nan_weight_exits_2(self, tmp_path, capsys, name, doc, algo):
        path = write_instance(tmp_path, name, doc)
        rc = main(["solve", path, "--float", "--algo", *algo])
        out = capsys.readouterr().out
        assert rc == EXIT_INVALID
        assert "invalid instance:" in out
        assert "non-finite weight p_1=nan" in out

    @pytest.mark.parametrize("algo, flag", [("fulltree-uniform", "--eps"),
                                            ("fulltree", "--ratio-bound")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fulltree_parameter_exits_2(self, tmp_path, capsys,
                                                   algo, flag, value):
        path = write_instance(tmp_path, "perfect4.txt", perfect4_text())
        rc = main(["solve", path, "--algo", algo, "--alpha", "0.5",
                   flag, value])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    def test_garbage_file_exits_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, "garbage.txt", "not an instance\n")
        rc = main(["solve", path])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "invalid input" in err

    def test_json_instance_solves(self, tmp_path, capsys):
        inst = DTInstance.from_text(singleton3_text())
        path = write_instance(tmp_path, "singleton3.json",
                              json.dumps(inst.to_json_obj()))
        rc = main(["solve", path, "--algo", "greedy"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "C_G=5/3" in out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        for name, text in (("broken.json", '{"weights": ["1/2",'),
                           ("answer.json", '{"weights": ["1/2", "1/2"], '
                                           '"tests": [[1, "x"]]}'),
                           ("sizes.json", '{"n": 7, "m": 3, "k": 2.9, '
                                          '"weights": ["1/2", "1/2"], '
                                          '"tests": [[1, 2]]}'),
                           ("bools.json", '{"weights": [true, false], '
                                          '"tests": [[1, 2]]}')):
            path = write_instance(tmp_path, name, text)
            for mode in ([], ["--float"]):
                rc = main(["solve", path, "--algo", "greedy", *mode])
                err = capsys.readouterr().err
                assert rc == EXIT_INVALID, (name, mode)
                assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("doc", ["2 -1 2\n", "2 1 1_0\n1/2 1/2\n1 2\n",
                                     "2 1 2\n1/2 1/2\n1 \u0662\n"],
                             ids=["negative count", "underscore", "non-ASCII"])
    def test_bad_text_numbers_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.txt"
        path.write_text(doc, encoding="utf-8")
        rc = main(["solve", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    def test_missing_file_exits_2(self, capsys):
        rc = main(["solve", "/nonexistent/path.txt"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "invalid input" in err

    def test_directory_exits_2(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert err.startswith("invalid input") and len(err.splitlines()) == 1

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(singleton3_text().encode() + "# caf\xe9\n".encode("latin-1"))
        rc = main(["solve", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert err.startswith("invalid input") and len(err.splitlines()) == 1

    def test_budget_env_exits_3(self, tmp_path, capsys, monkeypatch):
        # exact solve of a 14-hypothesis instance cannot finish in ~0 ms
        rc0 = main(["gen", "random", "--n", "14", "--m", "8", "--seed", "3",
                    "--out", str(tmp_path / "big.txt")])
        assert rc0 == EXIT_OK
        monkeypatch.setenv("SPLITWISE_BUDGET_MS", "0.0001")
        rc = main(["solve", str(tmp_path / "big.txt"), "--algo", "exact"])
        err = capsys.readouterr().err
        assert rc == EXIT_BUDGET
        assert "budget exceeded" in err

    def test_deep_chain_exact_exits_3(self, tmp_path, capsys, monkeypatch):
        """n=1200, one singleton test per hypothesis: the exact search
        descends a chain 1,199 levels deep and must stop at the budget."""
        n = 1200
        tests = [tuple(1 if h == j else 2 for h in range(n)) for j in range(n)]
        path = write_instance(tmp_path, "chain.txt",
                              DTInstance([Fraction(1, n)] * n, tests, 2).to_text())
        monkeypatch.setenv("SPLITWISE_BUDGET_MS", "1000")
        rc = main(["solve", path, "--algo", "exact"])
        assert rc == EXIT_BUDGET
        assert "budget exceeded" in capsys.readouterr().err

    def test_bad_budget_env_exits_2(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, "singleton3.txt", singleton3_text())
        for value in ("soon", "nan", "-1"):
            monkeypatch.setenv("SPLITWISE_BUDGET_MS", value)
            rc = main(["solve", path, "--algo", "exact"])
            err = capsys.readouterr().err
            assert rc == EXIT_INVALID, value
            assert err.startswith("invalid input:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

class TestGen:
    def test_random_round_trips(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        rc = main(["gen", "random", "--n", "6", "--m", "5", "--k", "3",
                   "--seed", "11", "--profile", "two-tier", "--ratio", "4",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        inst = DTInstance.from_text(out.read_text())
        assert inst.n == 6 and inst.m == 5 and inst.k == 3
        assert inst.weight_ratio() == 4

    def test_random_stdout_when_no_out(self, capsys):
        rc = main(["gen", "random", "--n", "4", "--m", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        inst = DTInstance.from_text(out)
        assert inst.n == 4

    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.txt"
        rc = main(["gen", "grid", "--n", "16", "--c-star", "4",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        inst = DTInstance.from_text(out.read_text())
        assert inst.n == 16 and inst.m == 23 and inst.uniform

    def test_grid_c_star_2(self, tmp_path, capsys):
        # the one n that c*=2 admits; its good-set family used to recurse
        # without end
        out = tmp_path / "grid2.txt"
        rc = main(["gen", "grid", "--n", "16", "--c-star", "2",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        inst = DTInstance.from_text(out.read_text())
        assert inst.n == 16 and inst.m == 25 and inst.uniform
        assert validate_instance(inst).ok

    def test_reduction_reports_parameters_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "red.txt"
        rc = main(["gen", "reduction", "--n0", "2", "--sets", "1;2",
                   "--r", "0.25", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert "q=4 ell=1 n=9 ratio=10" in captured.err
        inst = DTInstance.from_text(out.read_text())
        assert inst.n == 9

    def test_reduction_bad_sets_exit_2(self, capsys):
        rc = main(["gen", "reduction", "--n0", "3", "--sets", "1;2",
                   "--r", "0.2"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "missing" in err

    def test_reduction_non_integer_sets_exit_2(self, capsys):
        rc = main(["gen", "reduction", "--n0", "2", "--sets", "1,x;2",
                   "--r", "0.25"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert err.startswith("invalid input") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("r", ["1e-300", "0.01", "0.02", "0.05"])
    def test_reduction_too_small_r_exits_2(self, capsys, r):
        """n0^(1/r) overflows a float at 1e-300; at 0.01 it asks for about
        1.3e30 hypotheses, more than any list holds; at 0.02 and 0.05, for
        about 3.8e30 and 3.2e12 answers, above MAX_REDUCTION_ANSWERS."""
        rc = main(["gen", "reduction", "--n0", "2", "--sets", "1;2",
                   "--r", r])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert err.startswith("invalid input") and len(err.splitlines()) == 1

    def test_gen_infeasible_exit_2(self, capsys):
        rc = main(["gen", "random", "--n", "7", "--m", "1", "--seed", "0"])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "error" in err or "invalid" in err


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

class TestAudit:
    def test_filtered_battery_passes(self, capsys):
        rc = main(["audit", "--seed", "0", "--only", "identity"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "failed=0" in out

    def test_inject_fault_exits_4_with_artifacts(self, tmp_path, capsys):
        rc = main(["audit", "--seed", "0", "--only", "identity",
                   "--inject-fault", "--out", str(tmp_path / "fails")])
        out = capsys.readouterr().out
        assert rc == EXIT_AUDIT
        assert "failed=1" in out
        assert "# note: injected" in out
        assert "falsifier serialized" in out
        arts = list((tmp_path / "fails").iterdir())
        assert any(a.name.endswith(".instance.txt") for a in arts)
        assert any(a.name.endswith(".tree.txt") for a in arts)

    def test_inject_fault_without_identity_exit_2(self, tmp_path, capsys):
        rc = main(["audit", "--seed", "0", "--only", "monotone",
                   "--inject-fault", "--out", str(tmp_path / "fails")])
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID
        assert "identity" in err
        assert not (tmp_path / "fails").exists()

    def test_unknown_family_exit_2(self, capsys):
        # an empty selection matches no family either, rather than all
        for only in ("no_such_family", "", ","):
            rc = main(["audit", "--only", only])
            assert rc == EXIT_INVALID, only
            assert "no audit family matches" in capsys.readouterr().err, only


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

class TestExperiment:
    def test_random_family_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["experiment", "--family", "random", "--sizes", "5,6",
                   "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ("instance_id,n,m,K,R,algo,cost,exact_or_bound,"
                            "baseline,ratio,bound_value,runtime_ms,status")
        assert len(lines) == 3
        # sorted by (n, instance_id)
        assert lines[1].startswith("random-n5-") and \
            lines[2].startswith("random-n6-")
        # runtime_ms column empty without --timings
        assert all(line.split(",")[11] == "" for line in lines[1:])

    def test_csv_byte_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["experiment", "--family", "random", "--sizes", "5,6,7",
                "--seed", "4"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_sizes_exit_2(self, capsys):
        rc = main(["experiment", "--family", "random", "--sizes", "5,x"])
        captured = capsys.readouterr()
        assert rc == EXIT_INVALID
        assert captured.out == ""
        assert (captured.err.startswith("invalid input")
                and len(captured.err.splitlines()) == 1)

    def test_empty_sweep_header_only(self, capsys):
        rc = main(["experiment", "--family", "random", "--sizes", ""])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.splitlines() == [
            "instance_id,n,m,K,R,algo,cost,exact_or_bound,baseline,ratio,"
            "bound_value,runtime_ms,status"]

    def test_timings_populates_runtime(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["experiment", "--family", "random", "--sizes", "5",
                   "--timings", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        data_row = out.read_text().splitlines()[1]
        runtime = data_row.split(",")[11]
        assert runtime != "" and float(runtime) >= 0.0

    def test_grid_family(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main(["experiment", "--family", "grid", "--sizes", "64",
                   "--c-star", "8", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        row = out.read_text().splitlines()[1]
        fields = row.split(",")
        assert fields[0] == "grid-n64-c8"
        assert fields[7] == "bound"
        assert fields[10] == "32"     # 4 * c_star

    def test_reduction_family(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["experiment", "--family", "reduction", "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0].startswith("reduction-0")
        assert first[6] == "58/9"     # exact optimum of the minimal build

    def test_random_sizes_that_need_more_tests(self, capsys):
        """At seed 0, n = 44 and 64 need more than ceil(log2 n) + 2 binary
        tests to separate n random answer vectors."""
        rc = main(["experiment", "--family", "random", "--sizes", "44,64"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        assert [int(r["n"]) for r in rows] == [44, 64]
        for r in rows:
            assert r["status"] == "ok"
            c_opt, c_g = Fraction(r["baseline"]), Fraction(r["cost"])
            assert c_opt <= c_g <= float(r["bound_value"])


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argvs", [
    [["audit", "--only", "identity"], ["audit", "--only", "mssc"]],
    [["solve", "INSTANCE", "--float"], ["solve", "INSTANCE"]],
], ids=["audit-only", "solve-float"])
def test_reused_parser_prints_what_fresh_parsers_print(tmp_path, capsys,
                                                        argvs):
    """Two main() calls on the parser built once print what two calls on
    freshly built parsers print: no option carries over between calls."""
    path = write_instance(tmp_path, "singleton3.txt", singleton3_text())
    argvs = [[path if a == "INSTANCE" else a for a in argv] for argv in argvs]

    def outputs(fresh: bool):
        got = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            got.append((main(argv), capsys.readouterr().out))
        return got

    reused = outputs(fresh=False)
    assert reused == outputs(fresh=True)
    assert reused[0] != reused[1]
