import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revopt.core import Circuit, mct
from revopt.io import ParseError, parse_circuit, parse_spec, write_circuit
from oracles import random_circuit

EX1 = """\
.v a,b,c
BEGIN
t3 a,b',c
END
"""


def test_parse_basic():
    c = parse_circuit(EX1)
    assert c.width == 3 and c.names == ("a", "b", "c")
    assert c.gates == (mct([0, (1, False)], 2),)


def test_parse_not_gate_and_comments():
    text = ".v a,b  # two lines\nBEGIN\n# a comment\nt1 a\nt2 b, a\nEND\n"
    c = parse_circuit(text)
    assert c.gates == (mct([], 0), mct([1], 0))


def test_parse_io_directives_ignored():
    text = ".v a,b\n.i a,b\n.o b,a\nBEGIN\nEND\n"
    assert parse_circuit(text).gates == ()
    with pytest.raises(ParseError):
        parse_circuit(".v a,b\n.i a,z\nBEGIN\nEND\n")


def test_parse_crlf():
    assert parse_circuit(".v a\r\nBEGIN\r\nt1 a\r\nEND\r\n").gates == (mct([], 0),)


def test_parse_byte_order_mark():
    # some Windows editors start a UTF-8 file with U+FEFF; one is ignored
    assert parse_circuit("\ufeff" + EX1) == parse_circuit(EX1)
    with pytest.raises(ParseError, match="line 1"):
        parse_circuit("\ufeff\ufeff" + EX1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        (".v a,b\nBEGIN\nt2 z,a\nEND\n", "unknown line name"),
        (".v a,b\nBEGIN\nt2 a,a'\nEND\n", "duplicate operand"),
        (".v a,b\nBEGIN\nt2 a,b'\nEND\n", "target"),
        ("BEGIN\nt1 a\nEND\n", "BEGIN before .v"),
        (".v a,b\nt1 a\nBEGIN\nEND\n", "outside BEGIN/END"),
        (".v a,b\nBEGIN\nt1 a\n", "missing END"),
        (".v a,b\n", "missing BEGIN"),
        ("END\n", "END without BEGIN"),
        ("", "missing .v"),
        (".v a,b\nBEGIN\nt3 a,b\nEND\n", "expects 3 operands"),
        (".v a,b\nBEGIN\nq2 a,b\nEND\n", "unparsable"),
        (".v a,a\nBEGIN\nEND\n", "repeats a line name"),
        (".v a',b\nBEGIN\nt1 b\nEND\n", "ends in"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    assert fragment in str(exc.value)


def test_unwritable_line_names_rejected():
    # a name ending in an apostrophe would read back as a negated control
    with pytest.raises(ParseError) as exc:
        parse_circuit("# header\n.v a',b\nBEGIN\nt1 b\nEND\n")
    assert exc.value.line == 2
    for bad in ("", "a,b", "a#b", "a'", " a", "a\nb"):
        with pytest.raises(ValueError):
            Circuit(2, (), (bad, "z"))
    c = Circuit(2, (mct([(0, False)], 1),), ("a'b", "c"))  # inner apostrophe is fine
    assert parse_circuit(write_circuit(c)) == c


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_circuit(".v a,b\nBEGIN\nt1 a\nt2 a,z\nEND\n")
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


def test_write_circuit_canonical():
    c = Circuit(2, (mct([(1, False)], 0),))
    assert write_circuit(c) == ".v a,b\nBEGIN\nt2 b',a\nEND\n"
    assert write_circuit(Circuit(2)) == ".v a,b\nBEGIN\nEND\n"


def test_write_sorts_controls_by_line():
    c = Circuit(3, (mct([(2, False), 0], 1),))
    assert "t3 a,c',b" in write_circuit(c)


def test_roundtrip_random_circuits():
    rng = random.Random(13)
    for _ in range(300):
        c = random_circuit(rng, max_width=8, max_gates=20)
        assert parse_circuit(write_circuit(c)) == c


def test_parse_spec():
    p = parse_spec("(1,0,3,2,5,7,4,6)")
    assert p == (1, 0, 3, 2, 5, 7, 4, 6)
    assert parse_spec("(0,1,2,3)") == (0, 1, 2, 3)
    assert parse_spec(" ( 0 , 1 ) ") == (0, 1)


@pytest.mark.parametrize(
    "text",
    ["(0,0,1,2)", "(0,1,2)", "(0,1,2,4)", "(a,b)", "()"],
)
def test_parse_spec_errors(text):
    with pytest.raises(ParseError):
        parse_spec(text)


@given(st.permutations(list(range(8))))
@settings(max_examples=50, deadline=None)
def test_spec_roundtrip(perm):
    text = "(" + ",".join(map(str, perm)) + ")"
    assert parse_spec(text) == tuple(perm)
