import numpy as np
import pytest

from lsw.exceptions import DimensionMismatchError, ExprSyntaxError, UnknownSymbolError
from lsw.expr import MAX_PAREN_DEPTH, parse_operator_expr, parse_value
from lsw.operators import spin_operators, tensor


@pytest.fixture
def symbols():
    sp_, sm_, sz = spin_operators(1)
    ip, im, iz = spin_operators(2)
    return {
        "sp": sp_,
        "sm": sm_,
        "sz": sz,
        "Ip": ip,
        "Im": im,
        "Iz": iz,
        "id2": np.eye(2, dtype=complex),
        "id3": np.eye(3, dtype=complex),
    }


def test_single_kron(symbols):
    out = parse_operator_expr("sp kron sm", symbols)
    assert np.array_equal(out, tensor(symbols["sp"], symbols["sm"]))


def test_flip_flop_term(symbols):
    out = parse_operator_expr("0.5*(sp kron Im + sm kron Ip)", symbols)
    expected = 0.5 * (
        tensor(symbols["sp"], symbols["Im"]) + tensor(symbols["sm"], symbols["Ip"])
    )
    assert np.abs(out - expected).max() == 0.0


def test_unicode_kron_and_dagger(symbols):
    out = parse_operator_expr("sp ⊗ sm†", symbols)
    assert np.array_equal(out, tensor(symbols["sp"], symbols["sm"].conj().T))


def test_dagger_binds_tightest(symbols):
    out = parse_operator_expr("sp*sp†", symbols)
    assert np.array_equal(out, symbols["sp"] @ symbols["sp"].conj().T)


def test_product_binds_tighter_than_sum(symbols):
    out = parse_operator_expr("sp + sm*sp", symbols)
    assert np.array_equal(out, symbols["sp"] + symbols["sm"] @ symbols["sp"])


def test_subtraction(symbols):
    out = parse_operator_expr("sp - sm", symbols)
    assert np.array_equal(out, symbols["sp"] - symbols["sm"])


@pytest.mark.parametrize(
    "text,value",
    [
        ("2", 2.0 + 0j),
        ("2.5", 2.5 + 0j),
        ("0.5i", 0.5j),
        ("1+2i", 1 + 2j),
        ("1.5-2i", 1.5 - 2j),
        ("1e-2i", 0.01j),
        ("3e2", 300 + 0j),
    ],
)
def test_complex_literals(text, value):
    assert parse_value(text, {}) == value


def test_scalar_times_operator(symbols):
    out = parse_operator_expr("(1+2i)*sz", symbols)
    assert np.array_equal(out, (1 + 2j) * symbols["sz"])


def test_whitespace_insensitive(symbols):
    a = parse_operator_expr("sp kron sm+sm kron sp", symbols)
    b = parse_operator_expr("  sp   kron sm +\tsm kron\n sp ", symbols)
    assert np.array_equal(a, b)


def test_dimension_mismatch_in_sum(symbols):
    with pytest.raises(DimensionMismatchError):
        parse_operator_expr("sp + Ip", symbols)


def test_scalar_plus_operator_rejected(symbols):
    with pytest.raises(DimensionMismatchError):
        parse_operator_expr("1 + sp", symbols)


def test_scalar_result_rejected():
    with pytest.raises(DimensionMismatchError):
        parse_operator_expr("2*3", {})


def test_unknown_symbol_position(symbols):
    with pytest.raises(UnknownSymbolError) as err:
        parse_operator_expr("sp + bogus", symbols)
    assert err.value.name == "bogus"
    assert err.value.position == 5


def test_syntax_error_position(symbols):
    with pytest.raises(ExprSyntaxError) as err:
        parse_value("sp + ", symbols)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse_value("sp ) sm", symbols)
    assert err.value.position == 3


def test_unbalanced_parenthesis(symbols):
    with pytest.raises(ExprSyntaxError):
        parse_value("(sp + sm", symbols)


def test_first_error_in_reading_order(symbols):
    # the value is computed while parsing, so an unknown name or a size
    # mismatch before a syntax error is the one reported
    with pytest.raises(UnknownSymbolError) as err:
        parse_value("bogus + )", symbols)
    assert err.value.position == 0
    with pytest.raises(DimensionMismatchError):
        parse_value("sp + Ip )", symbols)
    with pytest.raises(ExprSyntaxError):
        parse_value("sp + ) bogus", symbols)
    # tokens are read as the parser reaches them, so a character no token
    # starts with is reported only where it is read
    for text, position in [("bogus $", 0), ("bogus + $", 0), ("2i*bogus$", 3)]:
        with pytest.raises(UnknownSymbolError) as err:
            parse_value(text, symbols)
        assert err.value.position == position
    with pytest.raises(ExprSyntaxError) as err:
        parse_value("sz + $", symbols)
    assert err.value.position == 5


_PRECEDENCE_TABLE = [
    ("sp kron sm", lambda s: np.kron(s["sp"], s["sm"])),
    (
        "0.5*(sp kron Im + sm kron Ip)",
        lambda s: 0.5 * (np.kron(s["sp"], s["Im"]) + np.kron(s["sm"], s["Ip"])),
    ),
    ("sp + sm*sp - sz", lambda s: (s["sp"] + s["sm"] @ s["sp"]) - s["sz"]),
    ("(sp + sm)†*sz", lambda s: (s["sp"] + s["sm"]).conj().T @ s["sz"]),
    ("1.5-2i*sz + sp*sm", lambda s: (1.5 - 2j) * s["sz"] + s["sp"] @ s["sm"]),
    ("sp⊗Iz† - sm ⊗ Ip", lambda s: np.kron(s["sp"], s["Iz"].conj().T) - np.kron(s["sm"], s["Ip"])),
    ("2i*(sp - sm)", lambda s: 2j * (s["sp"] - s["sm"])),
    ("sp - sm - sz", lambda s: (s["sp"] - s["sm"]) - s["sz"]),
]


@pytest.mark.parametrize(
    "text,reference", _PRECEDENCE_TABLE, ids=[text for text, _ in _PRECEDENCE_TABLE]
)
def test_precedence_and_associativity(text, reference, symbols):
    # '*' and kron bind tighter than '+' and '-', † tightest; all associate left
    assert np.array_equal(parse_operator_expr(text, symbols), reference(symbols))


def test_random_parenthesized_strings(rng, symbols):
    names = ["sp", "sm", "sz", "id2"]

    def build(depth):
        """A fully parenthesized text and its numpy value (None: size mismatch)."""
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.25:
                k = int(rng.integers(1, 9))
                return f"{k}.5i", complex(0, k + 0.5)
            name = names[rng.integers(len(names))]
            return name, symbols[name]
        if rng.random() < 0.2:
            text, value = build(depth - 1)
            if value is not None:
                value = np.conj(value) if np.isscalar(value) else value.conj().T
            return f"({text})†", value
        op = ["+", "-", "*", "kron"][rng.integers(4)]
        (lt, lv), (rt, rv) = build(depth - 1), build(depth - 1)
        text = f"({lt} {op} {rt})"
        if lv is None or rv is None:
            return text, None
        lscalar, rscalar = np.isscalar(lv), np.isscalar(rv)
        if op in "+-":
            if lscalar != rscalar or np.shape(lv) != np.shape(rv):
                return text, None
            return text, lv + rv if op == "+" else lv - rv
        if lscalar or rscalar:
            return text, lv * rv
        if op == "kron":
            return text, np.kron(lv, rv)
        return text, lv @ rv if lv.shape[1] == rv.shape[0] else None

    checked = 0
    for _ in range(40):
        text, value = build(4)
        if value is None:
            with pytest.raises(DimensionMismatchError):
                parse_value(text, symbols)
            continue
        assert np.array_equal(parse_value(text, symbols), value), text
        checked += 1
    assert checked >= 10, checked


def test_parenthesis_depth_is_capped(symbols):
    nested = "(" * MAX_PAREN_DEPTH + "sz" + ")" * MAX_PAREN_DEPTH
    assert np.array_equal(parse_operator_expr(nested, symbols), symbols["sz"])
    with pytest.raises(ExprSyntaxError) as err:
        parse_value("(" + nested + ")", symbols)
    assert err.value.position == MAX_PAREN_DEPTH
