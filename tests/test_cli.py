import json

import numpy as np
import pytest

from dppci.cli import main, parse_index_list, render_json

DEMO_ROWS = "0.05,0,0.1\n0,0.8,0.2\n0.1,0.2,0.6\n"


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text(DEMO_ROWS)
    return str(path)


@pytest.fixture
def demo_json(tmp_path):
    rows = [[0.05, 0.0, 0.1], [0.0, 0.8, 0.2], [0.1, 0.2, 0.6]]
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"n": 3, "rows": rows}))
    return str(path)


@pytest.fixture
def chain_csv(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("1,0.4,0\n0.4,1,0.4\n0,0.4,1\n")
    return str(path)


def run(capsys, argv):
    # Usage errors raise SystemExit instead of returning.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRenderJson:
    def test_floats_round_trip(self):
        values = [0.1, 1 / 3, 5e-324, 1e308, -0.0, 123456.789]
        text = render_json({"v": values})
        back = json.loads(text)
        for orig, parsed in zip(values, back["v"]):
            assert parsed == orig

    def test_deterministic_key_order(self):
        assert render_json({"b": 1, "a": 2}) == render_json({"b": 1, "a": 2})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            render_json({"v": float("nan")})


class TestParseIndexList:
    def test_empty_string(self):
        assert parse_index_list("") == ()

    def test_comma_separated(self):
        assert parse_index_list("3,1,2") == (3, 1, 2)


class TestValidate:
    def test_valid_marginal(self, capsys, demo_csv):
        code, out, _ = run(capsys, ["validate", "--matrix", demo_csv, "--kind", "K"])
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["n"] == 3
        assert doc["kind"] == "K"
        assert 0.0 < doc["eigenvalue_min"] <= doc["eigenvalue_max"] < 1.0

    def test_invalid_spectrum_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.6\n0.6,0.5\n")
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["error"]["type"] == "SpectrumOutOfRangeError"

    def test_identity_rejected_as_marginal(self, capsys, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("1,0\n0,1\n")
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 2
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "L"])
        assert code == 0

    def test_ragged_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        code, _, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 1

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, ["validate", "--matrix", str(tmp_path / "nope.csv"), "--kind", "K"]
        )
        assert code == 1

    def test_json_input_format(self, capsys, demo_json):
        code, out, _ = run(capsys, ["validate", "--matrix", demo_json, "--kind", "K"])
        assert code == 0
        assert json.loads(out)["n"] == 3

    @pytest.mark.parametrize("doc, message", [
        ({"n": 1, "rows": 5}, 'needs a "rows" list'),
        ({"n": "2", "rows": [[0.5, 0], [0, 0.5]]}, '"n" must be an integer'),
        ({"n": True, "rows": [[0.5]]}, '"n" must be an integer'),
        ({"n": 2, "rows": [[0.5, False], [False, 0.5]]}, "entry false is not a number"),
        ({"n": 2, "rows": [["0.5", "0"], ["0", "0.5"]]}, 'entry "0.5" is not a number'),
        ({"n": 2, "rows": [[0.5, None], [0, 0.5]]}, "entry null is not a number"),
    ], ids=["rows-not-a-list", "n-a-string", "n-a-bool", "entry-a-bool", "entry-a-string",
            "entry-null"])
    def test_malformed_json_object_exit_1(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 1
        assert out == ""
        assert err.startswith("dppci: ") and message in err

    def test_symmetry_residual_reported(self, capsys, tmp_path):
        path = tmp_path / "asym.csv"
        path.write_text("0.5,0.3\n0.1,0.5\n")
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 2
        doc = json.loads(out)
        assert doc["symmetry_residual"] == pytest.approx(0.2)
        assert doc["error"]["type"] == "AsymmetricMatrixError"

    def test_entries_near_the_largest_float_exit_0(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1e308,0\n0,1e308\n")
        code, out, err = run(capsys, ["validate", "--matrix", str(path), "--kind", "L"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["eigenvalue_min"] == doc["eigenvalue_max"] == 1e308

    def test_asymmetry_beyond_the_largest_float_exit_2(self, capsys, tmp_path):
        path = tmp_path / "asym-huge.csv"
        path.write_text("1,1e308\n-1e308,1\n")
        code, out, err = run(capsys, ["validate", "--matrix", str(path), "--kind", "L"])
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert doc["symmetry_residual"] is None
        assert doc["error"]["type"] == "AsymmetricMatrixError"

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_entry_exit_2(self, capsys, tmp_path, entry):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"{entry},0\n0,0.5\n")
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["symmetry_residual"] is None
        assert doc["error"]["type"] == "NonFiniteError"

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_json_non_finite_literal_exit_2(self, capsys, tmp_path, entry):
        """NaN and Infinity are numbers to the JSON reader; the kernel check names them."""
        path = tmp_path / "nonfinite.json"
        path.write_text(f"[[{entry}, 0], [0, 0.5]]")
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "K"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NonFiniteError"

    @pytest.mark.parametrize("flag", ["--eps-spec", "--sym-tol"])
    def test_margin_flags_unrecognised_exit_1(self, capsys, demo_csv, flag):
        """The spectral margin and the symmetry tolerance are fixed, not flags."""
        code, out, err = run(capsys, ["validate", "--matrix", demo_csv, "--kind", "K", flag, "0"])
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} 0" in err and "Traceback" not in err


class TestProb:
    def test_inclusion_probability(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, ["prob", "--matrix", demo_csv, "--kind", "K", "--include", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["probability"] == pytest.approx(0.6)
        assert "det" in doc["formula"]

    def test_mixed_event(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["prob", "--matrix", demo_csv, "--kind", "K",
             "--include", "1,3", "--exclude", "2"],
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.006, abs=1e-12)

    def test_trivial_event_is_one(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["prob", "--matrix", demo_csv, "--kind", "K",
             "--include", "", "--exclude", ""],
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(1.0)

    def test_exact_subset(self, capsys, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1,0\n0,1\n")
        code, out, _ = run(
            capsys,
            ["prob", "--matrix", str(path), "--kind", "L", "--include", "1", "--exact"],
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.25)

    def test_exact_with_exclude_rejected(self, capsys, demo_csv):
        code, _, _ = run(
            capsys,
            ["prob", "--matrix", demo_csv, "--kind", "K",
             "--include", "1", "--exclude", "2", "--exact"],
        )
        assert code == 1

    def test_oracle_cross_check(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["prob", "--matrix", demo_csv, "--kind", "K",
             "--include", "1,3", "--exclude", "2", "--oracle"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["residual"] < 1e-12
        assert doc["oracle"]["probability"] == pytest.approx(
            doc["probability"], abs=1e-10
        )


class TestCi:
    def test_marginal_independent(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, ["ci", "--matrix", demo_csv, "--kind", "K", "--a", "1", "--b", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["independent"] is True
        assert doc["criterion_value"] <= doc["tolerance_used"]

    def test_marginal_dependent(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, ["ci", "--matrix", demo_csv, "--kind", "K", "--a", "1", "--b", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["independent"] is False
        assert doc["criterion_value"] == pytest.approx(0.1)

    def test_conditioning_breaks_independence(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["ci", "--matrix", demo_csv, "--kind", "K",
             "--a", "1", "--b", "2", "--given-in", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["independent"] is False
        assert doc["criterion_value"] == pytest.approx(1.0 / 30.0)

    def test_assert_flag_failure_exit_3(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["ci", "--matrix", demo_csv, "--kind", "K",
             "--a", "1", "--b", "3", "--assert-independent"],
        )
        assert code == 3
        assert json.loads(out)["independent"] is False

    def test_assert_flag_success_exit_0(self, capsys, demo_csv):
        code, _, _ = run(
            capsys,
            ["ci", "--matrix", demo_csv, "--kind", "K",
             "--a", "1", "--b", "2", "--assert-independent"],
        )
        assert code == 0

    def test_overlapping_sets_exit_1(self, capsys, demo_csv):
        code, _, _ = run(
            capsys, ["ci", "--matrix", demo_csv, "--kind", "K", "--a", "1", "--b", "1"]
        )
        assert code == 1

    def test_oracle_agreement(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["ci", "--matrix", demo_csv, "--kind", "K",
             "--a", "1", "--b", "2", "--given-out", "3", "--oracle"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["independent"] == doc["independent"]


class TestGraph:
    def test_edges_for_ensemble(self, capsys, chain_csv):
        code, out, _ = run(capsys, ["graph", "--matrix", chain_csv, "--kind", "L"])
        assert code == 0
        doc = json.loads(out)
        assert doc["edges"] == [[1, 2], [2, 3]]
        assert doc["n"] == 3

    def test_marginal_kind_uses_k_pattern(self, capsys, demo_csv):
        code, out, _ = run(capsys, ["graph", "--matrix", demo_csv, "--kind", "K"])
        assert code == 0
        doc = json.loads(out)
        assert doc["edges"] == [[1, 3], [2, 3]]

    def test_separation_verdict(self, capsys, chain_csv):
        code, out, _ = run(
            capsys,
            ["graph", "--matrix", chain_csv, "--kind", "L",
             "--separates", "1", "3", "2"],
        )
        assert code == 0
        sep = json.loads(out)["separation"]
        assert sep["separates"] is True
        assert sep["verdict"] == "certified-independent"
        code, out, _ = run(
            capsys,
            ["graph", "--matrix", chain_csv, "--kind", "L",
             "--separates", "1", "3", ""],
        )
        sep = json.loads(out)["separation"]
        assert sep["separates"] is False
        assert sep["verdict"] == "not-certified"

    def test_separation_on_k_graph_has_no_verdict(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["graph", "--matrix", demo_csv, "--kind", "K",
             "--separates", "1", "2", "3"],
        )
        assert code == 0
        sep = json.loads(out)["separation"]
        assert sep["separates"] is True
        assert sep["verdict"] is None

    def test_huge_separation_index_exit_1(self, capsys, chain_csv):
        # Rejected by the range check, before any bitmask of 10^12 bits is formed.
        code, out, err = run(
            capsys,
            ["graph", "--matrix", chain_csv, "--kind", "L",
             "--separates", "1000000000000", "2", ""],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("dppci:")

    def test_bad_separation_list_exit_1(self, capsys, chain_csv):
        code, out, err = run(
            capsys,
            ["graph", "--matrix", chain_csv, "--kind", "L", "--separates", "1", "x", ""],
        )
        assert code == 1
        assert out == ""
        assert "argument --separates: bad index list 'x'" in err

    def test_overflowing_tolerance_exit_1(self, capsys, tmp_path):
        # 1e308 times the largest entry 2 overflows; an infinite threshold has no edges.
        path = tmp_path / "l.csv"
        path.write_text("2,0.4\n0.4,1\n")
        code, out, err = run(
            capsys, ["graph", "--matrix", str(path), "--kind", "L", "--tol", "1e308"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("dppci:")
        assert "Traceback" not in err

    def test_dot_export(self, capsys, chain_csv, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, out, _ = run(
            capsys,
            ["graph", "--matrix", chain_csv, "--kind", "L", "--dot", str(dot_path)],
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("graph G {")
        assert "1 -- 2;" in text
        assert "2 -- 3;" in text
        assert "1 -- 3;" not in text
        assert json.loads(out)["dot"] == str(dot_path)

    def test_dot_byte_stable(self, capsys, chain_csv, tmp_path):
        d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
        run(capsys, ["graph", "--matrix", chain_csv, "--kind", "L", "--dot", str(d1)])
        run(capsys, ["graph", "--matrix", chain_csv, "--kind", "L", "--dot", str(d2)])
        assert d1.read_bytes() == d2.read_bytes()

    def test_edgeless_diagonal(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n0,2\n")
        code, out, _ = run(capsys, ["graph", "--matrix", str(path), "--kind", "L"])
        assert code == 0
        assert json.loads(out)["edges"] == []

    def test_validates_only_the_kernel_it_prints(self, capsys, tmp_path):
        """An L whose K has an eigenvalue within the margin of 1 is a valid L:
        graph reads only L, so it answers as validate does."""
        path = tmp_path / "big.csv"
        path.write_text("1e11,0.5\n0.5,1\n")
        code, out, _ = run(capsys, ["validate", "--matrix", str(path), "--kind", "L"])
        assert code == 0 and json.loads(out)["valid"] is True
        code, out, err = run(capsys, ["graph", "--matrix", str(path), "--kind", "L"])
        assert code == 0, err
        assert json.loads(out)["n"] == 2 and json.loads(out)["edges"] == []  # 0.5 <= 1e-9 · 1e11
        code, out, err = run(capsys, ["graph", "--matrix", str(path), "--kind", "K"])
        assert code == 2 and out == ""
        assert err.startswith("dppci: invalid kernel: marginal kernel needs eigenvalues in")
        path.write_text("1,2\n2,1\n")  # eigenvalues -1 and 3: no L
        code, out, err = run(capsys, ["graph", "--matrix", str(path), "--kind", "L"])
        assert code == 2 and out == ""
        assert err.startswith("dppci: invalid kernel: ensemble kernel must be positive definite")


class TestDemo:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, ["demo-counterexample"])
        assert code == 0
        assert "0.006" in out
        assert "0.01" in out
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, ["demo-counterexample", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["joint_prob"] == pytest.approx(0.006, abs=1e-12)
        assert doc["block_max_abs"] == pytest.approx(0.2)
        assert doc["processes_independent"] is False


class TestTolOverride:
    def test_environment_does_not_set_the_tolerance(self, capsys, monkeypatch, tmp_path):
        # Only --tol sets the zero tolerance; a DPPCI_TOL variable is not read.
        path = tmp_path / "k.csv"
        arr = np.array([[0.3, 1e-6, 0.0], [1e-6, 0.4, 0.0], [0.0, 0.0, 0.5]])
        np.savetxt(path, arr, delimiter=",")
        argv = ["ci", "--matrix", str(path), "--kind", "K", "--a", "1", "--b", "2"]
        plain = run(capsys, argv)
        monkeypatch.setenv("DPPCI_TOL", "1e-4")
        assert run(capsys, argv) == plain
        assert plain[0] == 0
        assert json.loads(plain[1])["independent"] is False

    def test_negative_tol_flag_exit_1(self, capsys, demo_csv):
        # A negative threshold would call the exact zero K_12 "dependent".
        code, out, err = run(
            capsys,
            ["ci", "--matrix", demo_csv, "--kind", "K", "--a", "1", "--b", "2", "--tol", "-1"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("dppci: --tol")


class TestOutputStability:
    def test_repeat_runs_identical(self, capsys, demo_csv):
        argv = ["ci", "--matrix", demo_csv, "--kind", "K",
                "--a", "1", "--b", "2", "--given-in", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_bad_index_list_exit_1(self, capsys, demo_csv):
        code, _, _ = run(
            capsys,
            ["ci", "--matrix", demo_csv, "--kind", "K", "--a", "one", "--b", "2"],
        )
        assert code == 1