"""Parser: grammar coverage, precedence, errors with positions, round trips."""

import pytest

import besmin as bm
from besmin import And, AndSet, Const, Or, OrSet, Var


def test_precedence_and_over_or():
    f = bm.parse_formula("X && Y || Z")
    assert f == Or(And(Var("X"), Var("Y")), Var("Z"))
    f = bm.parse_formula("X || Y && Z")
    assert f == Or(Var("X"), And(Var("Y"), Var("Z")))


def test_chains_left_nest():
    assert bm.parse_formula("A && B && C") == And(And(Var("A"), Var("B")), Var("C"))
    assert bm.parse_formula("A || B || C") == Or(Or(Var("A"), Var("B")), Var("C"))


def test_parentheses_and_constants():
    assert bm.parse_formula("(A || B) && true") == And(
        Or(Var("A"), Var("B")), Const(True)
    )
    assert bm.parse_formula("false") == Const(False)


def test_set_syntax():
    assert bm.parse_formula("AND{X, Y}") == AndSet(frozenset({"X", "Y"}))
    assert bm.parse_formula("OR{Z}") == OrSet(frozenset({"Z"}))


def test_comments_and_primes():
    es = bm.parse_bes("// a comment\nmu X' = X'; // trailing\n")
    assert es.equations[0].lhs == "X'"
    assert bm.parse_bes("mu X' = X'; // at the end, without a newline") == es


def test_empty_input_is_empty_system():
    assert bm.parse_bes("") == bm.EquationSystem(())
    assert bm.parse_bes("  // only a comment\n") == bm.EquationSystem(())


# (parser, text, message, line, column); line and column are None for errors
# that carry no position
ERRORS = [
    (
        bm.parse_bes,
        "mu X = Y\nnu Y = X;",
        "line 2, column 1: expected ';', got 'nu'",
        2,
        1,
    ),
    (bm.parse_bes, "mu X = $;", "line 1, column 8: unexpected character '$'", 1, 8),
    (
        bm.parse_bes,
        "// c1\n// c2\nmu X = Y &&;\n",
        "line 3, column 12: expected a formula, got ';'",
        3,
        12,
    ),
    (
        bm.parse_bes,
        "mu X = X;\r\nnu Y = $;\r\n",
        "line 2, column 8: unexpected character '$'",
        2,
        8,
    ),
    (
        bm.parse_bes,
        "mu X = X;\r\nnu Y = X\r\n",
        "line 3, column 1: expected ';', got 'end of input'",
        3,
        1,
    ),
    (
        bm.parse_bes,
        "mu X =\t\tX\t$;",
        "line 1, column 11: unexpected character '$'",
        1,
        11,
    ),
    (bm.parse_bes, "mu X = Y", "line 1, column 9: expected ';', got 'end of input'", 1, 9),
    (
        bm.parse_formula,
        "X && Y )",
        "line 1, column 8: trailing input after formula: ')'",
        1,
        8,
    ),
    (bm.parse_bes, "mu X = \u00e9;", "line 1, column 8: unexpected character '\u00e9'", 1, 8),
    (
        bm.parse_bes,
        "mu X = (((X || Y) && Z);",
        "line 1, column 24: expected ')', got ';'",
        1,
        24,
    ),
    (bm.parse_bes, "nu X = X);", "line 1, column 9: expected ';', got ')'", 1, 9),
    (bm.parse_bes, "mu X = ();", "line 1, column 9: expected a formula, got ')'", 1, 9),
    (
        bm.parse_bes,
        "mu X = (X ||\n);",
        "line 2, column 1: expected a formula, got ')'",
        2,
        1,
    ),
    (
        bm.parse_formula,
        "((X)",
        "line 1, column 5: expected ')', got 'end of input'",
        1,
        5,
    ),
    (
        bm.parse_bes,
        "mu X = Y;\nnu Y = X;\nmu X = true;\n",
        "variable X is bound by more than one equation (line 3)",
        None,
        None,
    ),
    # white space is exactly space, tab, CR and LF; "//" starts a comment
    # only as a pair, and a lone "/", "&" or "|" is an unexpected character
    (bm.parse_bes, "mu X = Y / Z;", "line 1, column 10: unexpected character '/'", 1, 10),
    (bm.parse_bes, "mu X = Y & Z;", "line 1, column 10: unexpected character '&'", 1, 10),
    (bm.parse_bes, "mu X = Y | Z;", "line 1, column 10: unexpected character '|'", 1, 10),
    (bm.parse_bes, "mu X = X;\n/", "line 2, column 1: unexpected character '/'", 2, 1),
    (bm.parse_bes, "mu X =\fX;", "line 1, column 7: unexpected character '\\x0c'", 1, 7),
    (bm.parse_bes, "mu X =\vX;", "line 1, column 7: unexpected character '\\x0b'", 1, 7),
    (bm.parse_bes, "mu X =\u00a0X;", "line 1, column 7: unexpected character '\\xa0'", 1, 7),
    (
        bm.parse_bes,
        "mu X = X;\nnu \u00e9 = X;",
        "line 2, column 4: unexpected character '\u00e9'",
        2,
        4,
    ),
    (
        bm.parse_bes,
        "mu X = X; // &&\n// $ \u00e9\nnu Y = $;",
        "line 3, column 8: unexpected character '$'",
        3,
        8,
    ),
    (
        bm.parse_bes,
        "mu X = X // end",
        "line 1, column 16: expected ';', got 'end of input'",
        1,
        16,
    ),
    (
        bm.parse_formula,
        "X && // c",
        "line 1, column 10: expected a formula, got 'end of input'",
        1,
        10,
    ),
    (
        bm.parse_bes,
        "mu X = X &&   // c\n",
        "line 2, column 1: expected a formula, got 'end of input'",
        2,
        1,
    ),
    (
        bm.parse_bes,
        "mu X = X &&\r\n  Y\r\n  ;\r\nnu Y = (X ||\r\n);\r\n",
        "line 5, column 1: expected a formula, got ')'",
        5,
        1,
    ),
    (bm.parse_bes, "mu X = (X || Y;", "line 1, column 15: expected ')', got ';'", 1, 15),
    (
        bm.parse_bes,
        "mu X = X &&",
        "line 1, column 12: expected a formula, got 'end of input'",
        1,
        12,
    ),
    (
        bm.parse_bes,
        "mu X = Y; // X again\nnu Y = X;\n// and\n  mu X = true;\n",
        "variable X is bound by more than one equation (line 4)",
        None,
        None,
    ),
]


def test_parse_error_positions():
    for parse, text, message, line, column in ERRORS:
        with pytest.raises(bm.BesError) as exc:
            parse(text)
        assert str(exc.value) == message, text
        if line is None:
            assert type(exc.value) is bm.WellFormednessError
        else:
            assert type(exc.value) is bm.ParseError
            assert (exc.value.line, exc.value.column) == (line, column), text


def test_parse_rejections():
    with pytest.raises(bm.ParseError):
        bm.parse_bes("X = Y;")  # missing sign
    with pytest.raises(bm.ParseError):
        bm.parse_formula("X &&")
    with pytest.raises(bm.ParseError):
        bm.parse_formula("X Y")  # trailing input
    with pytest.raises(bm.ParseError):
        bm.parse_formula("AND{}")
    with pytest.raises(bm.WellFormednessError):
        bm.parse_bes("mu X = X; nu X = X;")


def test_fixtures_parse_print_round_trip():
    for name in bm.fixture_names():
        es = bm.fixture(name)
        assert bm.parse_bes(bm.print_bes(es)) == es


def test_random_parse_print_round_trip():
    for seed in range(50):
        es = bm.gen_bes(bm.GenConfig(variable_count=5, max_rhs_depth=4, seed=seed))
        assert bm.parse_bes(bm.print_bes(es)) == es
        srf = bm.gen_srf_bes(bm.GenConfig(variable_count=5, seed=seed))
        assert bm.parse_bes(bm.print_bes(srf)) == srf


def test_unknown_fixture_lists_the_known_ones():
    known = "example-structure-graph, mutex, paper-application"
    with pytest.raises(bm.BesError, match=f"unknown fixture 'nope'; available: {known}$"):
        bm.fixture("nope")
