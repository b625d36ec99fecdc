import json
import os

import pytest

from symci.cli import main

GENS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "gens")


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse validation failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCharacterCommand:
    def test_square_quotient_text(self, capsys):
        code, out, _ = run(capsys, ["character", "--n", "4", "--case", "III", "--d", "2", "--c", "2"])
        assert code == 0
        assert (
            "χ[4] + (χ[4]+χ[3,1])·t + (χ[4]+χ[3,1]+χ[2,2])·t^2 "
            "+ (χ[4]+χ[3,1])·t^3 + χ[4]·t^4" in out
        )
        assert "hilbert:   1 4 6 4 1" in out
        assert "socle: trivial" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["character", "--n", "4", "--case", "IV", "--d", "2", "--c", "2,3", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "symci/1"
        assert payload["graded_character"]["exact"] is True
        assert payload["graded_character"]["coeffs"][0] == {"4": 1, "3,1": 1, "2,2": 1, "2,1,1": 1, "1,1,1,1": 1}
        assert payload["hilbert_series"] == [1, 4, 7, 7, 4, 1]
        assert payload["socle"] == "trivial"

    def test_invalid_type_exits_2(self, capsys):
        code, _, err = run(capsys, ["character", "--n", "5", "--case", "IV", "--d", "2"])
        assert code == 2
        assert "case IV" in err

    def test_bad_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, ["character", "--n", "4", "--case", "V", "--d", "1"])
        assert code == 2

    def test_huge_trivial_degree_finishes(self, capsys):
        # the cost follows the length of the answer, not a series expanded
        # through the total generator degree and tested on a window
        code, out, _ = run(capsys, ["character", "--n", "4", "--case", "I", "--c", "1,2,3,20000"])
        assert code == 0
        assert "top:       degree 20002 (exact polynomial)" in out

    def test_bound_above_ceiling_exits_2(self, capsys):
        argv = ["character", "--n", "4", "--case", "III", "--d", "2", "--bound", "200000"]
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert "--bound must be at most 100000, got 200000" in err

    def test_long_bound_still_works(self, capsys):
        argv = ["character", "--n", "4", "--case", "III", "--d", "2", "--bound", "200"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "top:       truncated at degree 200" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--case", "I", "--c", "1,2,3,99995"],
            ["--case", "II", "--d", "99999", "--c", "2"],
            ["--case", "III", "--d", "33333", "--c", "2"],
            ["--case", "IV", "--d", "50000", "--c", "1"],
        ],
    )
    def test_numerator_degree_above_ceiling_exits_2(self, capsys, flags):
        # sum of c plus d (II), (n-1)d (III) or 2d (IV) is 100001 in each
        code, out, err = run(capsys, ["character", "--n", "4"] + flags)
        assert code == 2 and not out
        assert "numerator degree must be at most 100000, got 100001" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_n_above_ceiling_exits_2(self, capsys, flags):
        code, out, err = run(capsys, ["character", "--n", "25", "--case", "I", "--c", "1"] + flags)
        assert code == 2 and not out
        assert err.strip() == "error: --n must be at most 24, got 25"

    def test_n_at_ceiling_runs(self, capsys):
        code, out, _ = run(capsys, ["character", "--n", "24", "--case", "I", "--c", "1", "--json"])
        assert code == 0
        assert json.loads(out)["hilbert_series"][:3] == [1, 23, 276]


class TestClassifyCommand:
    def test_accepted(self, tmp_path, capsys):
        path = tmp_path / "ms.json"
        path.write_text(
            json.dumps(
                {
                    "n": 4,
                    "summands": [
                        {"partition": [3, 1], "degree": 2},
                        {"partition": [4], "degree": 2},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, ["classify", "--input", str(path)])
        assert code == 0
        assert "accepted: case III, d = 2, c = (2)" in out

    def test_rejected_names_rule(self, tmp_path, capsys):
        path = tmp_path / "ms.json"
        path.write_text(
            json.dumps(
                {
                    "n": 5,
                    "summands": [
                        {"partition": [4, 1], "degree": 2},
                        {"partition": [4, 1], "degree": 3},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, ["classify", "--input", str(path), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "rejected"
        assert payload["rule"] == "Corollary 3"
        assert payload["witness"][0]["partition"] == [4, 1]

    def test_degenerate_small_n_flag(self, tmp_path, capsys):
        path = tmp_path / "ms.json"
        path.write_text(
            json.dumps({"n": 2, "summands": [{"partition": [1, 1], "degree": 2}]})
        )
        code, out, _ = run(capsys, ["classify", "--input", str(path)])
        assert code == 0
        assert "[degenerate small n]" in out

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["classify", "--input", str(path)])
        assert code == 2
        assert "cannot read" in err


    def test_non_integer_degree_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ms.json"
        body = {"n": 4, "summands": [{"partition": [4], "degree": 2.7}]}
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, ["classify", "--input", str(path)])
        assert code == 2 and not out
        assert "degree must be an integer, got 2.7" in err


class TestVerifyCommand:
    def test_square_case_matches(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "verify",
                "--gens",
                os.path.join(GENS_DIR, "ex5.gens"),
                "--against",
                "case IV d=2 c=2,3",
            ],
        )
        assert code == 0
        assert out.count("MATCH") >= 7
        assert "MISMATCH" not in out
        assert out.strip().endswith("RESULT: MATCH")

    def test_wrong_type_mismatches(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "verify",
                "--gens",
                os.path.join(GENS_DIR, "ex4.gens"),
                "--against",
                "case I c=2,2,2,2",
                "--bound",
                "4",
            ],
        )
        assert code == 1
        assert "MISMATCH" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "verify",
                "--gens",
                os.path.join(GENS_DIR, "ex4.gens"),
                "--against",
                "case III d=2 c=2",
                "--json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert all(entry["match"] for entry in payload["degrees"])

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            ["verify", "--gens", "/nonexistent.gens", "--against", "case I c=2"],
        )
        assert code == 2
        assert err

    def test_non_integer_against_exits_2(self, capsys):
        gens = os.path.join(GENS_DIR, "ex4.gens")
        code, out, err = run(capsys, ["verify", "--gens", gens, "--against", "case III d=2.5 c=2"])
        assert code == 2 and not out
        assert "cannot parse '.5'" in err

    def test_bound_above_ceiling_exits_2(self, capsys):
        gens = os.path.join(GENS_DIR, "ex5.gens")
        argv = ["verify", "--gens", gens, "--against", "case IV d=2 c=2,3", "--bound", "100001"]
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert "--bound must be at most 100000" in err
        argv[-1] = "200"
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.strip().endswith("RESULT: MATCH")

    def test_numerator_degree_above_ceiling_exits_2(self, capsys):
        gens = os.path.join(GENS_DIR, "ex4.gens")
        argv = ["verify", "--gens", gens, "--against", "case III d=33333 c=2"]
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert "numerator degree must be at most 100000, got 100001" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_n_above_ceiling_exits_2(self, capsys, flags):
        gens = os.path.join(GENS_DIR, "ex2.gens")
        argv = ["verify", "--gens", gens, "--n", "25", "--against", "case I c=1"] + flags
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err.strip() == "error: --n must be at most 24, got 25"

    @pytest.mark.parametrize(
        "name, c", [("coinv6", "1,2,3,4,5,6"), ("psum6", "1,2,3,4,5,6"), ("e6sq6", "1,2,3,4,5,12")]
    )
    def test_six_variable_families_match(self, capsys, name, c):
        gens = os.path.join(GENS_DIR, f"{name}.gens")
        argv = ["verify", "--gens", gens, "--n", "6", "--against", f"case I c={c}", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert len(payload["degrees"]) == sum(map(int, c.split(","))) - 6 + 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(" * 2000 + "x1" + ")" * 2000, "parentheses nested deeper than 50"),
            ("x1^99999999", "degree 99999999 is above the ceiling 100"),
        ],
        ids=["deep-nesting", "huge-power"],
    )
    def test_generator_file_refusals_exit_2(self, capsys, tmp_path, text, message):
        gens = tmp_path / "bad.gens"
        gens.write_text(text + "\n")
        code, out, err = run(capsys, ["verify", "--gens", str(gens), "--against", "case I c=1"])
        assert code == 2 and not out
        assert err.strip() == f"error: line 1: {message}"

    @pytest.mark.parametrize("n, text, count", [(8, "vdm", 40320), (17, "e8", 24310)])
    def test_oversized_generator_exits_2(self, capsys, tmp_path, n, text, count):
        gens = tmp_path / "big.gens"
        gens.write_text(text + "\n")
        argv = ["verify", "--gens", str(gens), "--n", str(n), "--against", "case I c=1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err.strip() == f"error: line 1: up to {count} terms is above the ceiling 20000"

    @pytest.mark.parametrize("against", ["case III d=5 d=2 c=2", "case III d=2 c=2 c=3"])
    def test_repeated_against_key_exits_2(self, capsys, against):
        gens = os.path.join(GENS_DIR, "ex4.gens")
        code, out, err = run(capsys, ["verify", "--gens", gens, "--against", against])
        assert code == 2 and not out
        assert "repeated key" in err


class TestTablesCommand:
    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, ["tables", "--n", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Character table of S_4"
        assert lines[1].split() == ["class", "size", "|", "1", "6", "8", "6", "3"]
        assert lines[2].split() == [
            "representative", "|", "1", "(1", "2)", "(1", "2", "3)",
            "(1", "2", "3", "4)", "(1", "2)(3", "4)",
        ]
        assert any(
            line.split() == ["χ[3,1]", "|", "3", "1", "0", "-1", "-1"] for line in lines
        )
        assert any(
            line.startswith("K~[2,2]") and line.endswith("= t^2 + t^4") for line in lines
        )

    def test_json_tables(self, capsys):
        code, out, _ = run(capsys, ["tables", "--n", "4", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert [c["size"] for c in payload["classes"]] == [1, 6, 8, 6, 3]
        assert payload["characters"]["3,1"] == [3, 1, 0, -1, -1]
        assert payload["kostka_foulkes_tilde"]["2,1,1"] == {"3": 1, "4": 1, "5": 1}

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_n_above_ceiling_exits_2(self, capsys, flags):
        code, out, err = run(capsys, ["tables", "--n", "21"] + flags)
        assert code == 2 and not out
        assert err.strip() == "error: --n must be at most 20, got 21"


class TestExamplesCommand:
    def test_contains_all_sections(self, capsys):
        code, out, _ = run(capsys, ["examples"])
        assert code == 0
        for k in range(1, 6):
            assert f"Example {k}" in out
        assert "socle: degree 8, alternating" in out
        assert "socle: degree 9, trivial" in out
        assert "socle: degree 4, trivial" in out
        assert "socle: degree 5, trivial" in out

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, ["examples"])
        _, second, _ = run(capsys, ["examples"])
        assert first == second

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, ["examples", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert [q["name"] for q in payload["quotients"]] == ["ex2", "ex3", "ex4", "ex5"]
        assert payload["quotients"][2]["hilbert_series"] == [1, 4, 6, 4, 1]


class TestRefusalContract:
    """Every refusal leaves through `main`: exit 2, nothing on stdout and
    one "error: ..." line on stderr.  Any other exception is a fault and
    propagates."""

    @pytest.mark.parametrize(
        "argv, gens, message",
        [
            (
                ["verify", "--n", "2", "--against", "case I c=1"],
                "x1",
                "generator span is not stable under the variable permutations",
            ),
            (
                ["verify", "--n", "2", "--against", "case I c=1", "--bound", "600"],
                "e1",
                "degree 600 is above the packed-monomial ceiling 511",
            ),
            (["tables", "--n", "0"], None, "need n >= 1"),
        ],
        ids=["unstable-span", "packed-ceiling", "tables-n0"],
    )
    def test_refusal_exits_2_with_one_error_line(self, capsys, tmp_path, argv, gens, message):
        if gens is not None:
            path = tmp_path / "g.gens"
            path.write_text(gens + "\n")
            argv = argv + ["--gens", str(path)]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_multiset_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, ["classify", "--input", str(path)])
        want = f"error: cannot read multiset: [Errno 2] No such file or directory: '{path}'\n"
        assert (code, out, err) == (2, "", want)

    def test_an_internal_fault_keeps_its_traceback(self, capsys, tmp_path, monkeypatch):
        def fault(ms):
            raise KeyError("internal")

        monkeypatch.setattr("symci.cli.classify_multiset", fault)
        path = tmp_path / "ms.json"
        path.write_text(json.dumps({"n": 4, "summands": [{"partition": [4], "degree": 2}]}))
        with pytest.raises(KeyError, match="internal"):
            main(["classify", "--input", str(path)])
        assert capsys.readouterr().err == ""
