import json

import pytest

from revopt.cli import main

EX1 = ".v a,b,c\nBEGIN\nt3 a,b',c\nt3 a',b,c\nEND\n"
NOT_A = ".v a\nBEGIN\nt1 a\nEND\n"
EMPTY1 = ".v a\nBEGIN\nEND\n"


@pytest.fixture
def ex1_file(tmp_path):
    p = tmp_path / "ex1.tfc"
    p.write_text(EX1)
    return str(p)


def test_cost(ex1_file, capsys):
    assert main(["cost", ex1_file]) == 0
    assert capsys.readouterr().out.strip() == "gates=2 cost=10"


def test_cost_empty(tmp_path, capsys):
    p = tmp_path / "e.tfc"
    p.write_text(EMPTY1)
    assert main(["cost", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "gates=0 cost=0"


def test_cost_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.tfc"
    p.write_text(".v a\nt1 a\n")
    assert main(["cost", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_cost_unwritable_line_name(tmp_path, capsys):
    p = tmp_path / "bad.tfc"
    p.write_text(".v a',b\nBEGIN\nt1 b\nEND\n")
    assert main(["cost", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_equiv_self(ex1_file, capsys):
    assert main(["equiv", ex1_file, ex1_file]) == 0


def test_equiv_not_pair_vs_empty(tmp_path):
    p1 = tmp_path / "a.tfc"
    p1.write_text(".v a\nBEGIN\nt1 a\nt1 a\nEND\n")
    p2 = tmp_path / "b.tfc"
    p2.write_text(EMPTY1)
    assert main(["equiv", str(p1), str(p2)]) == 0


def test_equiv_differs(tmp_path, capsys):
    p1 = tmp_path / "a.tfc"
    p1.write_text(NOT_A)
    p2 = tmp_path / "b.tfc"
    p2.write_text(EMPTY1)
    assert main(["equiv", str(p1), str(p2)]) == 1
    assert "state 0" in capsys.readouterr().out


def test_equiv_against_spec(ex1_file):
    assert main(["equiv", ex1_file, "--spec", "(0,1,3,2,5,4,6,7)"]) == 0
    assert main(["equiv", ex1_file, "--spec", "(0,1,2,3,4,5,6,7)"]) == 1


def test_equiv_file_and_spec_is_usage_error(ex1_file, capsys):
    # a second file and --spec together are ambiguous: neither is silently dropped
    assert main(["equiv", ex1_file, ex1_file, "--spec", "(0,1,3,2,5,4,6,7)"]) == 2
    captured = capsys.readouterr()
    assert "either a second file or --spec" in captured.err and captured.out == ""
    assert main(["equiv", ex1_file]) == 2


def test_equiv_width_mismatch(tmp_path, ex1_file, capsys):
    p = tmp_path / "one.tfc"
    p.write_text(NOT_A)
    assert main(["equiv", ex1_file, str(p)]) == 2


def test_sim_all(tmp_path, capsys):
    p = tmp_path / "n.tfc"
    p.write_text(NOT_A)
    assert main(["sim", str(p), "--all"]) == 0
    assert capsys.readouterr().out.strip() == "(1,0)"


def test_sim_all_cnot(tmp_path, capsys):
    p = tmp_path / "c.tfc"
    p.write_text(".v a,b\nBEGIN\nt2 a,b\nEND\n")
    assert main(["sim", str(p), "--all"]) == 0
    assert capsys.readouterr().out.strip() == "(0,1,3,2)"


def test_sim_single_state(tmp_path, capsys):
    p = tmp_path / "t.tfc"
    p.write_text(".v a,b,c\nBEGIN\nt3 a,b,c\nEND\n")
    assert main(["sim", str(p), "--state", "110"]) == 0
    assert capsys.readouterr().out.strip() == "111"
    assert main(["sim", str(p), "--state", "12"]) == 2


def test_optimize_ctr_report(ex1_file, tmp_path, capsys):
    out = tmp_path / "opt.tfc"
    code = main([
        "optimize", ex1_file, "--rules", "ctr", "--out", str(out),
        "--report", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cost_before"] == 10 and payload["cost_after"] == 2
    assert payload["improvement_percent"] == 80
    assert payload["equivalence_checked"]
    # the written circuit must pass equiv against the input
    assert main(["equiv", ex1_file, str(out)]) == 0


def test_optimize_pr_sandwich(tmp_path, capsys):
    p = tmp_path / "s.tfc"
    p.write_text(".v a,b,c\nBEGIN\nt1 a\nt3 a,b,c\nt1 a\nEND\n")
    out = tmp_path / "s_opt.tfc"
    code = main(["optimize", str(p), "--rules", "pr", "--report", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cost_before"] == 7 and payload["cost_after"] == 5


def test_optimize_max_iter_one(ex1_file, tmp_path, capsys):
    out = tmp_path / "o.tfc"
    code = main(["optimize", ex1_file, "--max-iter", "1", "--report", "json",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 1


def test_optimize_unknown_rule(ex1_file, capsys):
    for spec in ("nope", "all,nope"):
        assert main(["optimize", ex1_file, "--rules", spec]) == 2
        captured = capsys.readouterr()
        assert "unknown rules: nope" in captured.err and captured.out == ""


def test_optimize_empty_rule_list(ex1_file, capsys):
    for spec in ("", ",", " , "):
        assert main(["optimize", ex1_file, "--rules", spec]) == 2
        captured = capsys.readouterr()
        assert "no rules" in captured.err and captured.out == ""


def test_optimize_byte_order_mark_file(tmp_path, capsys):
    p = tmp_path / "bom.tfc"
    p.write_text("\ufeff" + EX1, encoding="utf-8")
    assert main(["optimize", str(p)]) == 0
    assert "cost_after=2 " in capsys.readouterr().out


def test_stdin_input(monkeypatch, capsys):
    import io as _io
    monkeypatch.setattr("sys.stdin", _io.StringIO(NOT_A))
    assert main(["cost", "-"]) == 0
    assert capsys.readouterr().out.strip() == "gates=1 cost=1"


def test_missing_file(capsys):
    assert main(["cost", "/nonexistent/x.tfc"]) == 2
