import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import chaingroup
from chaingroup import commands, graphs, homology, homs, intmat, suites
from chaingroup.cli import dispatch
from chaingroup.commands import braid as braid_cmd, graph as graph_cmd, hom as hom_cmd
from chaingroup.commands import homology as homology_cmd, ln as ln_cmd, perm as perm_cmd
from chaingroup.homology import (
    CurveClass,
    build_chain,
    monodromy_rep,
    standard_lattice,
    transvection_matrix,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBraidCommands:
    def test_eq_pass(self, capsys):
        code, out, _ = run(capsys, "braid", "eq", "--n", "3", "1 2 1", "2 1 2")
        assert code == 0 and out.startswith("equal")

    def test_eq_fail(self, capsys):
        code, out, _ = run(capsys, "braid", "eq", "--n", "3", "1", "2")
        assert code == 1 and out.startswith("not-equal")

    def test_garside(self, capsys):
        code, out, _ = run(capsys, "braid", "garside", "--n", "3")
        assert code == 0 and out.splitlines()[0] == "n=3 1 2 1"

    def test_gen_wrap(self, capsys):
        code, out, _ = run(capsys, "braid", "gen", "--n", "6", "--k", "0")
        assert code == 0 and out.splitlines()[0] == "n=6 1 2 3 4 5 5 -5 -4 -3 -2 -1"

    def test_central(self, capsys):
        code, out, _ = run(capsys, "braid", "central", "--n", "6", "1 2 3 4 5 " * 6)
        assert code == 0 and out.startswith("central")

    def test_exp(self, capsys):
        code, out, _ = run(capsys, "braid", "exp", "--n", "5", "3 -1")
        assert code == 0 and out.splitlines()[0] == "0"

    def test_bad_letters_usage_error(self, capsys):
        code, _, err = run(capsys, "braid", "exp", "--n", "3", "1 x")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "op, rest",
        [("garside", ()), ("delta", ()), ("gen", ("--k", "1")), ("eq", ("1", "1")),
         ("central", ("1",)), ("exp", ("1",))],
    )
    def test_strand_count_above_the_cap_is_usage_error(self, capsys, op, rest):
        n = braid_cmd.BRAID_MAX_STRANDS + 1
        with pytest.raises(SystemExit) as exc:
            dispatch(["braid", op, "--n", str(n), *rest])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        cap = braid_cmd.BRAID_MAX_STRANDS
        assert f"argument --n: at most {cap} allowed, got {n}" in captured.err

    def test_strand_count_at_the_cap(self, capsys):
        n = braid_cmd.BRAID_MAX_STRANDS
        code, out, _ = run(capsys, "braid", "delta", "--n", str(n))
        assert code == 0
        assert out.splitlines()[-1] == f"check=index-shift-word n={n} exponent={n - 1}"


class TestHomCommands:
    def test_theorem4(self, capsys):
        code, out, _ = run(
            capsys, "hom", "theorem4", "--n", "6", "--gamma", "1", "--eps", "-1", "--k", "1"
        )
        assert code == 0 and out.startswith("n=6 m=6")

    def test_cable_and_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "hom", "cable", "--k", "2")
        assert code == 0
        hom_text = "\n".join(out.splitlines()[:-1])
        path = tmp_path / "hom.txt"
        path.write_text(hom_text)
        code, out, _ = run(capsys, "hom", "verify", str(path))
        assert code == 0 and out.startswith("homomorphism")
        code, out, _ = run(capsys, "hom", "cyclic", str(path))
        assert code == 1 and out.startswith("noncyclic")

    def test_cyclic_map(self, capsys, tmp_path):
        path = tmp_path / "hom.txt"
        path.write_text("n=4 m=4\n1 : 1\n2 : 1\n3 : 1\n")
        code, out, _ = run(capsys, "hom", "cyclic", str(path))
        assert code == 0 and out.startswith("cyclic")

    def test_verify_repeated_image_line_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=3 m=3\n1 : 1\n1 : 2\n2 : 2\n"))
        code, out, err = run(capsys, "hom", "verify", "-")
        assert (code, out, err) == (2, "", "error: repeated image line for generator 1\n")

    def test_cable_width_above_the_cap_is_usage_error(self, capsys):
        k = hom_cmd.CABLE_MAX_WIDTH + 1
        with pytest.raises(SystemExit) as exc:
            dispatch(["hom", "cable", "--k", str(k)])
        assert exc.value.code == 2
        assert f"argument --k: at most {hom_cmd.CABLE_MAX_WIDTH} allowed, got {k}" in (
            capsys.readouterr().err
        )

    # sha256 of the stdout of `chaingroup hom cable --k K`
    CABLE_DIGESTS = {
        1: "fc02b3055d2ce23cc38efdd8226652fe0b886d32de1513e54336e52e4f6e5e8b",
        2: "6b1ff5dee48c1788b10c52057f322555c558b7860274068f835981e32a4b3548",
        3: "03001efb14bb37934897549ba1c9b1737b67e58296492137182b54df7b8cac33",
        4: "32957151975c1dd67b92c7a30f67a2d4e5c6204fdbce778c964bfb2a83329c5e",
        64: "578e6c37d9351bb52e0b4b0667050c57a5af646be7da63de513c37b8c082f716",
    }

    @pytest.mark.parametrize("k", sorted(CABLE_DIGESTS))
    def test_cable_output_pinned(self, capsys, k):
        code, out, _ = run(capsys, "hom", "cable", "--k", str(k))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.CABLE_DIGESTS[k]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", hom_cmd.THEOREM4_MAX_STRANDS + 1, f"at most {hom_cmd.THEOREM4_MAX_STRANDS}"),
            ("--k", hom_cmd.THEOREM4_MAX_TWIST + 1, f"at most {hom_cmd.THEOREM4_MAX_TWIST}"),
            ("--k", -hom_cmd.THEOREM4_MAX_TWIST - 1, f"at least {-hom_cmd.THEOREM4_MAX_TWIST}"),
        ],
        ids=["strands", "twist", "negative-twist"],
    )
    def test_theorem4_above_the_caps_is_usage_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            dispatch(["hom", "theorem4", "--n", "6", flag, str(value)])
        assert exc.value.code == 2
        assert f"argument {flag}: {message} allowed, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, k", [(hom_cmd.THEOREM4_MAX_STRANDS, 0), (6, -hom_cmd.THEOREM4_MAX_TWIST)]
    )
    def test_theorem4_at_the_caps(self, capsys, n, k):
        code, out, _ = run(capsys, "hom", "theorem4", "--n", str(n), "--k", str(k))
        assert code == 0 and out.startswith(f"n={n} m={n}")

    @pytest.mark.parametrize("op", ["verify", "cyclic"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_source_strands_is_usage_error(self, capsys, monkeypatch, op, n):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"n={n} m=3\n"))
        code, out, err = run(capsys, "hom", op, "-")
        assert (code, out) == (2, "")
        assert err == f"error: strand count must be at least 2, got {n}\n"


class TestHomologyCommands:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "homology", "chain", "--genus", "2", "--k", "3")
        assert code == 0 and out.splitlines()[0] == "k=3"

    def test_chain_too_long(self, capsys):
        code, _, err = run(capsys, "homology", "chain", "--genus", "1", "--k", "4")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("op", ["chain", "rep", "square"])
    def test_genus_above_the_cap_is_usage_error(self, capsys, op):
        g = homology_cmd.HOMOLOGY_MAX_GENUS + 1
        with pytest.raises(SystemExit) as exc:
            dispatch(["homology", op, "--genus", str(g), "--k", "3"])
        assert exc.value.code == 2
        assert f"argument --genus: at most {homology_cmd.HOMOLOGY_MAX_GENUS} allowed, got {g}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("op", ["chain", "rep", "square"])
    def test_genus_at_the_cap(self, capsys, op):
        g = homology_cmd.HOMOLOGY_MAX_GENUS
        code, out, _ = run(capsys, "homology", op, "--genus", str(g), "--k", "3")
        assert code == 0 and f" genus={g} k=3" in out.splitlines()[-1]

    def test_rep_and_square(self, capsys):
        code, out, _ = run(capsys, "homology", "rep", "--genus", "2", "--k", "3", "--eps", "-1")
        assert code == 0 and out.count("rank=4") == 3
        code, out, _ = run(capsys, "homology", "square", "--genus", "2", "--k", "2")
        assert code == 0

    def test_extract_round_trip(self, capsys, tmp_path):
        lat = standard_lattice(3)
        rep = monodromy_rep(lat, build_chain(lat, 5), 1)
        blob = "\n\n".join(homology.format_matrix(m) for m in rep)
        path = tmp_path / "mats.txt"
        path.write_text(blob)
        code, out, _ = run(capsys, "homology", "extract", str(path))
        assert code == 0 and "eps=1" in out

    def test_extract_not_recognized(self, capsys, tmp_path):
        lat = standard_lattice(3)
        rep = monodromy_rep(lat, build_chain(lat, 5), 1)
        bad = transvection_matrix(lat, CurveClass((0, 0, 0, 0, 0, 1)), 1)
        blob = "\n\n".join(homology.format_matrix(intmat.mat_mul(m, bad)) for m in rep)
        path = tmp_path / "mats.txt"
        path.write_text(blob)
        code, out, _ = run(capsys, "homology", "extract", str(path))
        assert code == 1 and out.startswith("not-recognized")

    def test_extract_mixed_ranks_is_usage_error(self, capsys, tmp_path):
        small = monodromy_rep(standard_lattice(1), build_chain(standard_lattice(1), 2), 1)
        big = monodromy_rep(standard_lattice(2), build_chain(standard_lattice(2), 3), 1)
        blob = "\n\n".join(homology.format_matrix(m) for m in small + big)
        path = tmp_path / "mats.txt"
        path.write_text(blob)
        code, out, err = run(capsys, "homology", "extract", str(path))
        assert code == 2 and out == "" and "not 2x2" in err

    def test_lift_rank_zero_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("rank=0\ntwist=\n\nrank=0\ntwist=\n"))
        code, out, err = run(capsys, "homology", "lift", "-")
        assert (code, out, err) == (2, "", "error: matrix rank must be at least 1, got 0\n")

    def test_lift_empty_twist_field_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("rank=2\n1 0\n0 1\ntwist=1,,2\n"))
        code, out, _ = run(capsys, "homology", "lift", "-")
        assert (code, out) == (2, "")

    def test_lift_bare_twist_is_the_empty_vector(self, capsys, monkeypatch):
        block = "rank=2\n1 0\n0 1\ntwist=\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(block))
        code, out, _ = run(capsys, "homology", "lift", "-")
        assert (code, out) == (0, block + "check=central-defect-correction count=1\n")

    def test_lift(self, capsys, tmp_path):
        lat = standard_lattice(2)
        rep = monodromy_rep(lat, build_chain(lat, 3), 1)
        blocks = []
        for m in rep:
            blocks.append(homology.format_matrix(m) + "\ntwist=0,0")
        path = tmp_path / "lifts.txt"
        path.write_text("\n\n".join(blocks))
        code, out, _ = run(capsys, "homology", "lift", str(path))
        assert code == 0 and out.count("twist=0,0") == 3


class TestLnCommands:
    def test_validate(self, capsys):
        code, out, _ = run(
            capsys, "ln", "validate", "--r", "3", "--M", "4", "--m", "2", "--d", "2", "--s", "2"
        )
        assert code == 0 and out.startswith("valid")
        code, out, _ = run(
            capsys, "ln", "validate", "--r", "3", "--M", "4", "--m", "3", "--d", "3", "--s", "3"
        )
        assert code == 1 and out.startswith("invalid")

    def test_card_matches_cardinality_law(self, capsys):
        code, out, _ = run(
            capsys, "ln", "card", "--r", "3", "--M", "3", "--m", "3", "--d", "3", "--s", "9"
        )
        assert code == 0 and out.splitlines()[0] == "27"

    def test_card_at_100_generators(self, capsys):
        code, out, _ = run(
            capsys, "ln", "card", "--r", "100", "--M", "12", "--m", "4", "--d", "1", "--s", "4"
        )
        factors = ",".join(["1"] + ["4"] * 98 + ["12"])
        assert (code, out) == (0, f"{3 * 4**99}\ncheck=quotient-cardinality factors={factors}\n")

    def test_card_above_the_generator_cap_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "ln", "card", "--r", "201", "--M", "3", "--m", "3", "--d", "3", "--s", "9"
        )
        assert (code, out) == (2, "") and "at most 200 generators" in err

    def test_card_refuses_an_order_it_cannot_print(self, capsys, monkeypatch):
        """Valid parameters of order 10^11940 are refused from bit lengths,
        before the 3 x 2 Smith normal form."""
        big = str(10**60)
        monkeypatch.setattr("chaingroup.finite.smith_normal_form", None)
        code, out, err = run(
            capsys, "ln", "card", "--r", "200", "--M", big, "--m", big, "--d", "1", "--s", "0"
        )
        bound = chaingroup.PRINT_MAX_BITS
        assert (code, out, err) == (2, "", f"error: quotient order would exceed {bound} bits\n")

    @pytest.mark.parametrize("j, code", [(70, 0), (71, 2)])
    def test_card_at_the_print_bound(self, capsys, j, code):
        """M = m = 2^j on 200 generators: order 2^(199j), of 13 931 bits at
        j = 70 and 14 130 at j = 71."""
        m = str(2**j)
        got, out, _ = run(capsys, "ln", "card", "--r", "200", "--M", m, "--m", m, "--d", "1",
                          "--s", "0")
        assert got == code
        assert out.splitlines()[:1] == ([str(2 ** (199 * j))] if code == 0 else [])

    def test_snf_refuses_factors_it_cannot_print(self, capsys, monkeypatch):
        """diag(10^3000 + 1, 10^3000 + 3) has the factor of 6001 digits."""
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{10**3000 + 1} 0\n0 {10**3000 + 3}\n"))
        code, out, err = run(capsys, "ln", "snf", "-")
        bound = chaingroup.PRINT_MAX_BITS
        assert (code, out, err) == (2, "", f"error: invariant factors exceed {bound} bits\n")

    def test_snf(self, capsys, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("2 0\n0 3\n")
        code, out, _ = run(capsys, "ln", "snf", str(path))
        assert code == 0 and out.splitlines()[0] == "factors=1,6"

    @pytest.mark.parametrize("rows, cols", [(65, 2), (2, 65), (65, 65)])
    def test_snf_above_the_size_cap_is_usage_error(self, capsys, monkeypatch, rows, cols):
        """Oversized input is refused before any elimination starts."""
        text = "\n".join(" ".join(["9"] * cols) for _ in range(rows))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        monkeypatch.setattr("chaingroup.finite.smith_normal_form", None)
        code, out, err = run(capsys, "ln", "snf", "-")
        assert (code, out) == (2, "")
        assert err == f"error: ln snf takes at most {ln_cmd.SNF_MAX_SIDE} rows and columns\n"

    def test_snf_at_the_size_cap(self, capsys, monkeypatch):
        side = ln_cmd.SNF_MAX_SIDE
        rows = [" ".join("2" if i == j else "0" for j in range(side)) for i in range(side)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows)))
        code, out, _ = run(capsys, "ln", "snf", "-")
        factors = ",".join(["2"] * side)
        assert (code, out.splitlines()[:2]) == (0, [f"factors={factors}", "free_rank=0"])


class TestPermCommand:
    def test_enum_summary(self, capsys):
        code, out, _ = run(capsys, "perm", "enum", "--n", "4", "--k", "3", "--summary")
        assert code == 0
        assert out.splitlines()[0] == "count=12 cyclic=6 noncyclic=6"

    def test_deep_chain_summary(self, capsys):
        code, out, _ = run(capsys, "perm", "enum", "--n", "2000", "--k", "2", "--summary")
        assert code == 0
        assert out.splitlines()[0] == "count=2 cyclic=2 noncyclic=0"

    def test_deep_chain_summary_six_symbols(self, capsys):
        code, out, _ = run(capsys, "perm", "enum", "--n", "2000", "--k", "6", "--summary")
        assert code == 0
        assert out.splitlines()[0] == "count=720 cyclic=720 noncyclic=0"

    def test_strands_above_the_cap_is_usage_error(self, capsys):
        n = perm_cmd.PERM_MAX_STRANDS + 1
        with pytest.raises(SystemExit) as exc:
            dispatch(["perm", "enum", "--n", str(n), "--k", "2", "--summary"])
        assert exc.value.code == 2
        assert f"argument --n: at most {perm_cmd.PERM_MAX_STRANDS} allowed, got {n}" in (
            capsys.readouterr().err
        )

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINGROUP_BUDGET", "2")
        code, _, err = run(capsys, "perm", "enum", "--n", "4", "--k", "3")
        assert code == 2 and "budget" in err

    # sha256 of the full stdout of `chaingroup perm enum --n 4 --k 4 [--dedup]`,
    # pinning the listing's order as well as its content
    ENUM_DIGESTS = {
        (): "f0a9d4498f449236e61f6793201c573f7b902f0d0a09c75938530ac8adffd5eb",
        ("--dedup",): "77eda869b62c0a8adb65a57b9bfb2f5a6ece353187286a061e0e08e31dc0cb86",
    }

    @pytest.mark.parametrize("flags", sorted(ENUM_DIGESTS), ids=["listing", "dedup"])
    def test_listing_output_pinned(self, capsys, monkeypatch, flags):
        monkeypatch.delenv("CHAINGROUP_BUDGET", raising=False)
        code, out, _ = run(capsys, "perm", "enum", "--n", "4", "--k", "4", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ENUM_DIGESTS[flags]


    @pytest.mark.parametrize(
        "constant, argv, message",
        [("finite.PERM_SEARCH_BUDGET", ("perm", "enum", "--n", "4", "--k", "4", "--summary"),
          "symbol count 4 exceeds the search budget 3"),
         ("graphs.BRUTE_BUDGET", ("graph", "brute", "--m", "4"),
          "edge count 4 exceeds the enumeration budget 3")],
        ids=["perm", "graph"],
    )
    def test_default_budget_is_the_library_default(self, capsys, monkeypatch, constant, argv,
                                                   message):
        """Without CHAINGROUP_BUDGET a search runs at its library module's default."""
        monkeypatch.delenv("CHAINGROUP_BUDGET", raising=False)
        monkeypatch.setattr(f"chaingroup.{constant}", 3)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBudgetEdges:
    """CHAINGROUP_BUDGET at and beyond the ends of its range."""

    def test_malformed_budget_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINGROUP_BUDGET", "x")
        code, out, err = run(capsys, "perm", "enum", "--n", "4", "--k", "3")
        assert (code, out, err) == (2, "", "error: CHAINGROUP_BUDGET: 'x' is not an integer\n")

    @pytest.mark.parametrize(
        "budget, expected",
        [("-1", 2), ("0", 2), (str(10**20), 0)],
        ids=["negative", "zero", "huge"],
    )
    def test_perm_summary(self, capsys, monkeypatch, budget, expected):
        monkeypatch.setenv("CHAINGROUP_BUDGET", budget)
        code, out, err = run(capsys, "perm", "enum", "--n", "4", "--k", "3", "--summary")
        assert code == expected
        if expected == 0:
            assert out.splitlines()[0] == "count=12 cyclic=6 noncyclic=6"
        else:
            assert out == "" and f"exceeds the search budget {budget}" in err

    @pytest.mark.parametrize("budget", ["-1", "0"], ids=["negative", "zero"])
    def test_graph_brute_refused(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("CHAINGROUP_BUDGET", budget)
        code, out, err = run(capsys, "graph", "brute", "--m", "8")
        assert code == 2 and out == "" and f"exceeds the enumeration budget {budget}" in err

    def test_suite_perm_negative_skips_every_item(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINGROUP_BUDGET", "-1")
        code, out, _ = run(capsys, "suite", "perm")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 12 and all(ln.startswith("[skip] ") for ln in lines[:11])
        assert lines[-1] == "suite=perm items=11 failed=0"


class TestGraphCommands:
    # sha256 of the full stdout of `CHAINGROUP_BUDGET=12 chaingroup graph brute --m M`,
    # pinning the classes found and their order, which the canonical key sets
    BRUTE_DIGESTS = {
        1: "b8396607dc02ff0e63430d8ed85aa0023cc0c721a3a05dcb5940342647a52895",
        2: "6bdaa580096ededee929bfc673f9066c5bdbc6367ed331ff5a0d3cbb7da3b104",
        3: "8220645b9c197367a04e6107fba14823ab0594830a782a36012e2b43f91b6d61",
        4: "ece5812313aabd85b38d55eee7a7e93fe841d82bcf7fbf8eb39416467217578d",
        5: "1dc8f425a0344c623b842cc899d73651c7fc26ad129eab63c48037188b354eee",
        6: "db72b988aa536f75bba3fdb25569c531b315bb603e2a55ca680f78a5d1f93b78",
        7: "84258c762865d2ecd2cb585dd0c114f7d70432ad14f88139e36b6c62fd85a2c1",
        8: "59581cb939a9194fc244caa19cae5e77825f3596c11f6d7fada0b573083ccc8b",
        9: "3f9209bac3cbcf7e352fcd08d2e84115b46aee98d8197c8fcf2ab53f4c15180f",
        10: "d7d7e76403e41b0628741df6b6f5d4121d0dc031023c94f6c6231f26db35eec3",
        11: "c35602dae574ea59115113bd832eefb1533a9fd31436b889390e1c2f2738a8db",
        12: "a37a4dfed736e77140b2edac5d481875195507fe27d18fa4488999d9714df34a",
    }

    @pytest.mark.parametrize("m", sorted(BRUTE_DIGESTS))
    def test_brute_output_pinned(self, capsys, monkeypatch, m):
        monkeypatch.setenv("CHAINGROUP_BUDGET", "12")
        code, out, _ = run(capsys, "graph", "brute", "--m", str(m))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.BRUTE_DIGESTS[m]

    def test_generate_classify_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "graph", "generate", "--type", "B", "--k", "1", "--l", "3",
            "--d", "4", "--m", "12",
        )
        assert code == 0
        path = tmp_path / "graph.txt"
        path.write_text("\n".join(out.splitlines()[:-1]))
        code, out, _ = run(capsys, "graph", "classify", str(path))
        assert code == 0 and out.splitlines()[0] == "type=B k=1 l=3 d=4"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertices=1\n0 0\n0 0\naction vperm=() eperm=(0 5)", "cycle symbol out of range"),
            ("vertices=2\n0 1\n0 1\naction vperm=(1 -1) eperm=(0 1)", "cycle symbol out of range"),
            ("vertices=-1\naction vperm=() eperm=()", "vertex count"),
            ("vertices=1\n0 0\n0 0\nlabel 3 1 0\naction vperm=() eperm=(0 1)", "label vertex 3"),
            ("vertices=2\n0 1 2\naction vperm=() eperm=()", "edge line must be 'u v', got '0 1 2'"),
            (
                "vertices=1\nlabel 0 1\naction vperm=() eperm=()",
                "label line must be 'label v genus b', got 'label 0 1'",
            ),
            (
                "vertices=1\n0 0\naction vperm=() eperm=()\naction vperm=() eperm=(0)",
                "graph text has more than one action line",
            ),
            (
                "vertices=1\n0 0\nlabel 0 1 0\nlabel 0 2 0\naction vperm=() eperm=(0)",
                "repeated label line for vertex 0",
            ),
        ],
        ids=["symbol-above", "symbol-negative", "vertex-count", "label-vertex", "edge-arity",
             "label-arity", "repeated-action", "repeated-label"],
    )
    def test_classify_malformed_is_usage_error(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, "graph", "classify", "-")
        assert code == 2 and message in err

    def test_generate_edges_above_the_cap_is_usage_error(self, capsys):
        m = graph_cmd.GRAPH_MAX_EDGES + 1
        with pytest.raises(SystemExit) as exc:
            dispatch(["graph", "generate", "--type", "A", "--k", "2", "--p", "1", "--d", str(m),
                      "--m", str(m)])
        assert exc.value.code == 2
        assert f"argument --m: at most {graph_cmd.GRAPH_MAX_EDGES} allowed, got {m}" in (
            capsys.readouterr().err
        )

    def test_generate_edges_at_the_cap(self, capsys):
        m = graph_cmd.GRAPH_MAX_EDGES
        code, out, _ = run(capsys, "graph", "generate", "--type", "A", "--k", "2", "--p", "1",
                           "--d", str(m), "--m", str(m))
        assert code == 0 and out.splitlines()[-1] == f"check=template-construction m={m}"

    def test_brute(self, capsys):
        code, out, _ = run(capsys, "graph", "brute", "--m", "2")
        assert code == 0 and out.splitlines()[0] == "count=4"

    def test_audit(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "graph", "generate", "--type", "B", "--k", "3", "--l", "4",
            "--d", "1", "--m", "12",
        )
        path = tmp_path / "graph.txt"
        path.write_text("\n".join(out.splitlines()[:-1]))
        code, out, _ = run(capsys, "graph", "audit", str(path), "--genus", "6", "--b", "0")
        assert code == 0 and out.startswith("feasible")
        code, out, _ = run(capsys, "graph", "audit", str(path), "--genus", "6", "--b", "1")
        assert code == 1 and out.startswith("infeasible")


class TestRhCommands:
    def test_check_infeasible(self, capsys):
        code, out, _ = run(
            capsys, "rh", "check", "--chi", "-4", "--m", "8", "--branch", "4", "--chiq", "1"
        )
        assert code == 1 and out.startswith("infeasible")

    def test_check_feasible(self, capsys):
        code, out, _ = run(
            capsys, "rh", "check", "--chi", "-2", "--m", "2", "--branch",
            "1,1,1,1,1,1", "--chiq", "2",
        )
        assert code == 0 and out.startswith("feasible")

    def test_enum(self, capsys):
        code, out, _ = run(capsys, "rh", "enum", "--chi", "-2", "--m", "2", "--chiqs", "2")
        assert code == 0 and out.splitlines()[0] == "count=1"

    def test_enum_refuses_before_listing(self, capsys, monkeypatch):
        """15 238 branch data, refused before the first is built."""
        monkeypatch.setattr("chaingroup.riemann_hurwitz.RamificationData", None)
        code, out, err = run(capsys, "rh", "enum", "--chi=-600", "--m", "72", "--chiqs=2")
        assert (code, out, err) == (
            2, "", "error: targets m*chi_q - chi sum to 744, more than the 256 allowed\n"
        )

    @pytest.mark.parametrize("chi, code", [(-256, 0), (-257, 2)])
    def test_enum_at_the_bound(self, capsys, chi, code):
        got, out, _ = run(capsys, "rh", "enum", f"--chi={chi}", "--m", "2", "--chiqs=0")
        assert got == code
        assert out.splitlines()[:1] == (["count=1"] if code == 0 else [])

    def test_check_empty_branch_means_no_branch_points(self, capsys):
        code, out, _ = run(capsys, "rh", "check", "--chi", "0", "--m", "4", "--branch=",
                           "--chiq", "0")
        assert (code, out) == (0, "feasible\ncheck=ramified-covering-equation result=true\n")

    @pytest.mark.parametrize(
        "argv",
        [("check", "--chi", "-8", "--m", "8", "--branch", "4,,4", "--chiq", "0"),
         ("check", "--chi", "-8", "--m", "8", "--branch", "4,4,", "--chiq", "0"),
         ("enum", "--chi", "-4", "--m", "4", "--chiqs=0,,1"),
         ("enum", "--chi", "-4", "--m", "4", "--chiqs=,0")],
        ids=["branch-inner", "branch-trailing", "chiqs-inner", "chiqs-leading"],
    )
    def test_empty_list_field_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "rh", *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "rh", "bounds", "--genus", "2", "--b", "0")
        lines = out.splitlines()
        assert code == 0
        assert "finite_subgroup_max=84" in lines and "cyclic_max=10" in lines

    def test_audit5(self, capsys):
        code, out, _ = run(capsys, "rh", "audit5", "--r", "3", "--m", "3", "--d", "3")
        assert code == 0 and "ineq7_holds=False" in out

    @pytest.mark.parametrize("r, m", [("6000", "6"), ("5000", "9"), ("100000000", "6"),
                                      ("4668", "6"), ("3502", "9")])
    def test_audit5_too_large_refused_before_printing(self, capsys, r, m):
        code, out, err = run(capsys, "rh", "audit5", "--r", r, "--m", m, "--d", "3")
        assert (code, out) == (2, "") and "14000 bits" in err

    @pytest.mark.parametrize("r, m", [(4667, 6), (3501, 9)])
    def test_audit5_largest_admitted_prints_whole(self, capsys, r, m):
        code, out, _ = run(capsys, "rh", "audit5", "--r", str(r), "--m", str(m), "--d", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[-3] == f"subgroup_card={3 * m ** (r - 2)}"
        assert lines[-2].startswith(f"kernel_lower_bound={9 * m ** (r - 2)} ")
        assert lines[-1].endswith(f"r={r} m={m} d=3")


class TestSuites:
    # sha256 of the full stdout of `chaingroup suite NAME` at the default budget
    SUITE_DIGESTS = {
        "identities": "8a2e44ccad4c2ed0dfa6b9d33e2c1eab82656473dc1d7baa1f4f752eaaad4946",
        "table1": "94d1de9f4c98447e4377a5c01e9fb4e5cfed822a6f0c8c6f25a710749c266a3e",
        "graphs": "457ba767e3aba54a7ef86536b8bcd5b19b8fedae95a7909edabbcd49cd04bf1e",
        "perm": "7748c9fd58a4f5e7ca86b93c02ac40cef60740518c6f008f3dc2a853c02b5394",
        "rh": "ba225aed8e703c6018dd6063e70c9eba560db98120398640fae84ff5359abf24",
    }

    @pytest.mark.parametrize(
        "name, items",
        [("identities", 24), ("table1", 8), ("graphs", 13), ("perm", 11), ("rh", 7)],
        ids=["identities", "table1", "graphs", "perm", "rh"],
    )
    def test_suite_passes(self, capsys, monkeypatch, name, items):
        monkeypatch.delenv("CHAINGROUP_BUDGET", raising=False)
        code, out, _ = run(capsys, "suite", name)
        assert code == 0
        assert "[FAIL]" not in out
        assert out.splitlines()[-1] == f"suite={name} items={items} failed=0"
        assert hashlib.sha256(out.encode()).hexdigest() == self.SUITE_DIGESTS[name]

    def test_graphs_skips_coverage_above_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINGROUP_BUDGET", "1")
        code, out, _ = run(capsys, "suite", "graphs")
        lines = out.splitlines()
        assert code == 0
        assert [ln for ln in lines if ln.startswith("[skip]")] == [
            f"[skip] bidirectional-coverage m={m} (skipped, budget=1)" for m in range(2, 9)
        ]
        assert lines[-1] == "suite=graphs items=13 failed=0"

    def test_choices_follow_the_registry(self, capsys):
        """The parser spells the suite names out; they must be SUITES's keys, in order."""
        with pytest.raises(SystemExit) as exc:
            dispatch(["suite", "--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(suites.SUITES) + "}" in capsys.readouterr().out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["suite", "bogus"])
        assert exc.value.code == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "graph", "classify", "/nonexistent/path.txt")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [(("braid", "eq", "--n", "3", "1,2", "2"), "", "word 1: '1,2'"),
         (("braid", "eq", "--n", "3", "1", "2 y"), "", "word 2: 'y'"),
         (("braid", "central", "--n", "3", "x"), "", "word: 'x'"),
         (("braid", "exp", "--n", "3", "1 x"), "", "word: 'x'"),
         (("hom", "theorem4", "--n", "4", "--gamma", "1 a"), "", "--gamma: 'a'"),
         (("rh", "check", "--chi", "-8", "--m", "8", "--branch", "4,x", "--chiq", "0"), "",
          "--branch: 'x'"),
         (("rh", "check", "--chi", "-8", "--m", "8", "--branch", "4,,4", "--chiq", "0"), "",
          "--branch: ''"),
         (("rh", "enum", "--chi", "-4", "--m", "4", "--chiqs=0,q"), "", "--chiqs: 'q'"),
         (("homology", "lift", "-"), "rank=2\n1 0\n0 1\ntwist=1,x\n", "matrix 1, twist: 'x'"),
         (("ln", "snf", "-"), "1 x\n", "row 1: 'x'"),
         (("ln", "snf", "-"), "1 2\n\n3 4.0\n", "row 2: '4.0'"),
         (("homology", "lift", "-"), "rank=2\n1 x\n0 1\n", "matrix 1, row 1: 'x'"),
         (("homology", "extract", "-"), "rank=two\n", "matrix 1, rank: 'two'"),
         (("homology", "extract", "-"), "rank=2\n1 0\n0 1\n\nrank=2\n1 0\n0 x\n",
          "matrix 2, row 2: 'x'"),
         (("homology", "lift", "-"), "rank=2\n1 0\n0 1\n\nrank=2\n1 0\nx 1\ntwist=0\n",
          "matrix 2, row 2: 'x'"),
         (("homology", "lift", "-"), "rank=2\n1 0\n0 1\ntwist=0\n\nrank=2\n1 0\n0 1\ntwist=y\n",
          "matrix 2, twist: 'y'"),
         (("hom", "verify", "-"), "n=3 m=3\n1 : 1 x\n2 : 2\n", "image 1: 'x'"),
         (("hom", "cyclic", "-"), "n=3 m=y\n1 : 1\n2 : 2\n", "m: 'y'"),
         (("hom", "verify", "-"), "n=3 m=3\none : 1\n", "generator: 'one'"),
         (("graph", "classify", "-"), "vertices=1\n0 z\naction vperm=() eperm=()\n",
          "edge: 'z'"),
         (("graph", "audit", "-", "--genus", "2", "--b", "0"),
          "vertices=1\n0 0\nlabel 0 g 0\naction vperm=() eperm=()\n", "label: 'g'"),
         (("graph", "classify", "-"), "vertices=2\n0 1\naction vperm=(0 q) eperm=()\n",
          "vperm: 'q'")],
        ids=["eq-first", "eq-second", "central", "exp", "gamma", "branch", "branch-empty",
             "chiqs", "twist", "snf", "snf-blank-line", "matrix-row", "matrix-rank",
             "extract-second-matrix", "lift-second-matrix", "lift-second-twist",
             "hom-image", "hom-header", "hom-generator", "graph-edge", "graph-label",
             "graph-cycles"],
    )
    def test_malformed_integer_names_its_input(self, capsys, monkeypatch, argv, stdin, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message} is not an integer\n")

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [(("ln", "snf", "-"), "1 " + "7" * 5000 + "\n",
          "row 1: integer has too many digits (5000, at most 4300)"),
         (("ln", "snf", "-"), "1\n2 " + "x" * 100_000 + "\n",
          "row 2: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (100000 characters) is not an integer"),
         (("homology", "lift", "-"), "rank=1\n" + "7" * 5000 + "\ntwist=0\n",
          "matrix 1, row 1: integer has too many digits (5000, at most 4300)"),
         (("homology", "lift", "-"), "rank=1\n1\ntwist=0\n\nrank=1\n" + "x" * 100_000 + "\n",
          "matrix 2, row 1: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (100000 characters) is not an integer")],
        ids=["snf-digits", "snf-junk", "lift-digits", "lift-junk"],
    )
    def test_long_token_gives_a_short_message(self, capsys, monkeypatch, argv, stdin, message):
        """A token past the interpreter's 4300-digit limit is named as too long,
        and a long malformed one is cut to its first characters and length."""
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("extra", [0, 1])
    def test_input_at_the_size_bound(self, capsys, monkeypatch, extra):
        """Stdin of INPUT_MAX_BYTES characters is parsed as today; one more
        character is refused before any parsing."""
        bound = commands.INPUT_MAX_BYTES
        monkeypatch.setattr("sys.stdin", io.StringIO("2" + " " * (bound - 1 + extra)))
        got = run(capsys, "ln", "snf", "-")
        if extra:
            assert got == (2, "", f"error: input exceeds {bound} characters\n")
        else:
            assert got == (0, "factors=2\nfree_rank=0\ncheck=invariant-factors\n", "")

    @pytest.mark.parametrize(
        "op, stdin, message",
        [("extract", "rank=2\n1 0\n0 1\n\nrank=2\n1 0\n",
          "matrix 2: expected 2 matrix rows, got 1"),
         ("extract", "rank=2\n1 0\n0 1\n\nrank=2\n1 0\n0\n",
          "matrix 2: matrix rows must have rank entries each"),
         ("lift", "rank=2\n1 0\n0 1\ntwist=0\n\nrank=2\n1 0\ntwist=0\n",
          "matrix 2: expected 2 matrix rows, got 1"),
         ("lift", "rank=2\n1 0\n0 1\ntwist=0\n\nrank=2\n1 0\n0 1 0\ntwist=0\n",
          "matrix 2: matrix rows must have rank entries each")],
        ids=["extract-rows", "extract-row-length", "lift-rows", "lift-row-length"],
    )
    def test_misshapen_matrix_names_its_block(self, capsys, monkeypatch, op, stdin, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, "homology", op, "-")
        assert (code, out, err) == (2, "", f"error: {message}\n")


# Prints the chaingroup modules loaded by `import chaingroup.cli` and those a
# dispatch of the given arguments adds to them.
_LOADS = """
import contextlib, io, json, sys
import chaingroup.cli

def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "chaingroup"}

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = chaingroup.cli.dispatch(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([sorted(before), sorted(loaded() - before), code]))
"""


_LIFTS = "rank=2\n1 1\n0 1\ntwist=0\n\nrank=2\n1 0\n-1 1\ntwist=3\n"


@pytest.mark.parametrize(
    "argv, added, stdin",
    [
        ((), [], ""),
        (("braid", "eq", "--n", "3", "1 2 1", "2 1 2"),
         ["braids", "commands", "commands.braid", "kernel", "oracle"], ""),
        (("braid", "garside", "--n", "5"), ["braids", "commands", "commands.braid"], ""),
        (("perm", "enum", "--n", "5", "--k", "5", "--summary"),
         ["commands", "commands.perm", "finite"], ""),
        (("ln", "card", "--r", "3", "--M", "3", "--m", "3", "--d", "3", "--s", "9"),
         ["commands", "commands.ln", "finite"], ""),
        (("rh", "bounds", "--genus", "2", "--b", "0"),
         ["commands", "commands.rh", "riemann_hurwitz"], ""),
        (("suite", "rh"), ["commands", "commands.suite", "riemann_hurwitz", "suites"], ""),
        (("suite", "perm"), ["commands", "commands.suite", "finite", "suites"], ""),
        (("homology", "rep", "--genus", "2", "--k", "3"),
         ["commands", "commands.homology", "homology", "intmat"], ""),
        (("homology", "lift", "-"),
         ["commands", "commands.homology", "finite", "homology", "intmat"], _LIFTS),
        (("graph", "brute", "--m", "6"), ["commands", "commands.graph", "graphs"], ""),
    ],
    ids=["import", "braid-eq", "braid-garside", "perm-enum", "ln-card", "rh-bounds", "suite-rh",
         "suite-perm", "homology-rep", "homology-lift", "graph-brute"],
)
def test_subcommand_imports_only_its_modules(argv, added, stdin):
    """Start-up loads the CLI alone; a subcommand adds its command module and
    just the modules it runs: no oracle for braid constructions, and no
    finite for the graph search."""
    src = str(Path(chaingroup.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", _LOADS, *argv], input=stdin, capture_output=True, text=True,
        env=env, check=True,
    )
    before, new, code = json.loads(done.stdout)
    assert before == ["chaingroup", "chaingroup.cli"]
    assert new == [f"chaingroup.{m}" for m in added]
    assert code == 0


# Runs the CLI as `python -m chaingroup.cli` does, then prints the chaingroup
# modules loaded.
_AS_MAIN = """
import contextlib, io, json, runpy, sys
sys.argv = ["chaingroup", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("chaingroup.cli", run_name="__main__", alter_sys=True)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "chaingroup")))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("braid", "garside", "--n", "4"),
        ("hom", "cable", "--k", "1"),
        ("homology", "lift", "-"),
        ("ln", "validate", "--r", "3", "--M", "3", "--m", "3", "--d", "3", "--s", "9"),
        ("perm", "enum", "--n", "3", "--k", "2"),
        ("graph", "brute", "--m", "2"),
        ("rh", "bounds", "--genus", "2", "--b", "0"),
        ("suite", "rh"),
    ],
    ids=lambda argv: argv[0],
)
def test_run_as_main_compiles_the_entry_point_once(argv):
    """Run as __main__, the entry point is not imported a second time as
    chaingroup.cli: no command module imports it."""
    src = str(Path(chaingroup.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", _AS_MAIN, *argv], input=_LIFTS, capture_output=True, text=True,
        env=env, check=True,
    )
    loaded = json.loads(done.stdout)
    assert f"chaingroup.commands.{argv[0]}" in loaded
    assert "chaingroup.cli" not in loaded


def _run_cli(argv, stdin="", **extra_env):
    src = str(Path(chaingroup.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
               **extra_env)
    env.pop("CHAINGROUP_BUDGET", None)
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True,
                          env=env)


# Prints the modules that `import chaingroup.cli` and a dispatch of the given
# arguments add to those the interpreter had already loaded.
_ADDED = """
import contextlib, io, json, sys
before = set(sys.modules)
import chaingroup.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = chaingroup.cli.dispatch(sys.argv[1:])
print(json.dumps([sorted(set(sys.modules) - before), code]))
"""


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("braid", "eq", "--n", "3", "1 2 1", "2 1 2"), ""),
        (("braid", "garside", "--n", "5"), ""),
        (("hom", "theorem4", "--n", "6", "--gamma", "1", "--k", "1"), ""),
        (("hom", "cable", "--k", "2"), ""),
        (("hom", "verify", "-"), "n=3 m=3\n1 : 1\n2 : 2\n"),
        (("homology", "rep", "--genus", "2", "--k", "3"), ""),
        (("homology", "lift", "-"), "rank=2\n1 0\n0 1\ntwist=1\n"),
        (("ln", "card", "--r", "3", "--M", "3", "--m", "3", "--d", "3", "--s", "9"), ""),
        (("ln", "snf", "-"), "2 4\n6 8\n"),
        (("perm", "enum", "--n", "4", "--k", "3"), ""),
        (("graph", "brute", "--m", "6"), ""),
        (("graph", "classify", "-"), "vertices=1\n0 0\naction vperm=(0) eperm=(0)\n"),
        (("rh", "bounds", "--genus", "1", "--b", "3"), ""),
        (("rh", "enum", "--chi", "-4", "--m", "4", "--chiqs", "0,-1"), ""),
        (("rh", "audit5", "--r", "3", "--m", "3", "--d", "1"), ""),
        *((("suite", name), "") for name in ("identities", "table1", "graphs", "perm", "rh")),
    ],
    ids=lambda v: "-".join(v[:2]) if isinstance(v, tuple) else None,
)
def test_subcommand_loads_no_dataclasses_inspect_or_fractions(argv, stdin):
    """No call pays for dataclasses (with the inspect, ast and dis it pulls in)
    or for fractions."""
    done = _run_cli(["-c", _ADDED, *argv], stdin)
    added, code = json.loads(done.stdout)
    assert code == 0
    assert {"dataclasses", "inspect", "fractions"}.isdisjoint(added)


# Output of the parser that built every group's operations up front, at 80
# columns on Python 3.11: top-level help, each group's help, and usage errors.
USAGE = json.loads((Path(__file__).parent / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=[" ".join(c["argv"]) for c in USAGE])
def test_help_and_usage_errors_are_pinned(case):
    """Building only the chosen group's operations changes no help text or usage error."""
    done = _run_cli(["-m", "chaingroup.cli", *case["argv"]], COLUMNS="80")
    assert (done.returncode, done.stdout, done.stderr) == (
        case["code"], case["stdout"], case["stderr"]
    )


README = Path(__file__).parent.parent / "README.md"
# The answers that the README's command-line examples quote in their comments;
# an answer followed by " ..." is a prefix of the first output line.
README_ANSWERS = ("equal", "n=6 1 2 1 3 2 1", "27", "count=12 cyclic=6 noncyclic=6", "infeasible")


def _readme_examples():
    """(argv, comment) of each `chaingroup ...` line of the sh block under the
    README's "Command line" heading."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] == ["chaingroup"]:
            examples.append((argv[1:], comment.strip()))
    return examples


def _quoted_answer(comment):
    """The comment without its "(exit N)" note."""
    return re.sub(r"\s*\(exit \d+\)", "", comment)


@pytest.mark.parametrize("argv, comment", [pytest.param(*example, id=" ".join(example[0][:2]))
                                           for example in _readme_examples()])
def test_readme_example(capsys, monkeypatch, argv, comment):
    """Each example exits as its comment says (0 unless "(exit N)"), and
    prints the answer its comment quotes."""
    monkeypatch.delenv("CHAINGROUP_BUDGET", raising=False)
    code, out, _ = run(capsys, *argv)
    noted = re.search(r"\(exit (\d+)\)", comment)
    assert code == (int(noted.group(1)) if noted else 0)
    answer = _quoted_answer(comment)
    if answer.removesuffix(" ...") in README_ANSWERS:
        first = out.splitlines()[0]
        assert first.startswith(answer[:-4]) if answer.endswith(" ...") else first == answer


def test_readme_quotes_every_answer():
    quoted = [_quoted_answer(c).removesuffix(" ...") for _, c in _readme_examples()]
    assert sorted(a for a in quoted if a in README_ANSWERS) == sorted(README_ANSWERS)
