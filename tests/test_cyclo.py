import cmath
import tracemalloc
from fractions import Fraction
from importlib import resources
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronkit import cyclo
from kronkit.chartab import load_table
from kronkit.cyclo import (
    Cyclotomic,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    parse_value,
    power_basis,
    reduced_powers,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # x^105 has the first coefficient of magnitude 2
    assert 2 in {abs(c) for c in cyclotomic_polynomial(105)}


def test_cyclotomic_polynomials_multiply_to_x_e_minus_1():
    # x^e - 1 = prod_{d | e} Phi_d, the identity the Moebius product inverts
    for e in range(1, 301):
        product = np.ones(1, dtype=np.int64)
        for d in range(1, e + 1):
            if e % d == 0:
                product = np.convolve(product, cyclotomic_polynomial(d))
        assert product.tolist() == [-1] + [0] * (e - 1) + [1], e


def _reference_power_basis(e):
    """x^m mod Phi_e, m = 0 .. max(e - 1, 2 phi - 2), in Python ints."""
    mod, rows = cyclotomic_polynomial(e), [[1] + [0] * (euler_phi(e) - 1)]
    while len(rows) <= max(e - 1, 2 * len(mod) - 4):
        lead, row = rows[-1][-1], [0] + rows[-1][:-1]
        rows.append([x - lead * c for x, c in zip(row, mod)])
    return [tuple(row) for row in rows]


def test_reduced_powers_match_the_power_basis():
    for e in range(1, 301):
        basis = power_basis(e)
        assert list(basis) == _reference_power_basis(e), e
        r, rows = reduced_powers(e)
        assert r == max(sum(map(abs, row)) for row in basis), e
        assert rows and all(
            index.tolist() == [j for j, x in enumerate(basis[m]) if x]
            and value.tolist() == [x for x in basis[m] if x] for m, (index, value) in rows.items())


def test_reduced_powers_at_the_largest_exponent_keep_no_basis():
    # e = 9240 is the largest e with phi(e) <= 2048; its power basis as Python
    # ints holds 9239 rows of 1920 coefficients, about 180 MiB
    reduced_powers.cache_clear()
    cyclotomic_polynomial.cache_clear()
    tracemalloc.start()
    try:
        r, rows = reduced_powers(9240)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r == 1288 and len(rows) == 2730
    assert peak < 8 * 2**20


def test_euler_phi():
    assert [euler_phi(e) for e in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert all(euler_phi(e) == len(cyclotomic_polynomial(e)) - 1 for e in range(1, 200))
    assert euler_phi(600006) == 181800  # 2 * 3 * 11 * 9091, no Phi_e built


def test_roots_of_unity():
    z = Cyclotomic.root(5)
    total = Cyclotomic.zero(5)
    p = Cyclotomic.rational(1, 5)
    for _ in range(5):
        total = total + p
        p = p * z
    assert total.is_zero()
    # primitive-root sum equals the Moebius value
    s = Cyclotomic.zero(6)
    for k in (1, 5):
        s = s + Cyclotomic.root(6, k)
    assert s.to_rational() == 1  # mu(6) = 1


def test_root_power_wraps():
    z = Cyclotomic.root(4)
    assert z * z == Cyclotomic.rational(-1, 4)
    assert Cyclotomic.root(4, 2) == Cyclotomic.rational(-1)


def test_galois_and_conjugate():
    z = Cyclotomic.root(7, 3)
    assert z.galois(2) == Cyclotomic.root(7, 6)
    assert z.conjugate() == Cyclotomic.root(7, 4)
    v = z + z.conjugate()
    assert v.conjugate() == v
    with pytest.raises(ValueError):
        z.galois(7)  # not coprime to the conductor


def test_rationality():
    z = Cyclotomic.root(3)
    r = z + z.conjugate()  # = -1
    assert r.is_rational() and r.to_rational() == -1
    assert not z.is_rational()
    with pytest.raises(NotRationalError):
        z.to_rational()


def test_division_by_rational():
    z = Cyclotomic.root(8)
    assert (z + z) / 2 == z
    half = Cyclotomic.rational(Fraction(1, 2))
    assert (half + half).to_rational() == 1
    assert not half.is_integral()
    assert (z + 1).is_integral()


def test_coefficients_are_ints_or_fractions():
    with pytest.raises(TypeError):
        Cyclotomic.rational(0.1)
    with pytest.raises(TypeError):
        Cyclotomic(4, [0.5, 1])
    with pytest.raises(TypeError):
        Cyclotomic(4, [1, np.float64(2)])
    with pytest.raises(TypeError):
        Cyclotomic(4, [1, 2], 2.0)
    z = Cyclotomic.root(4)
    for op in (lambda: z * 0.5, lambda: 0.5 * z, lambda: z + 0.5, lambda: z / 0.5):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ZeroDivisionError):
        z / 0
    assert Cyclotomic(4, [True, Fraction(4, 2)]).num == (1, 2)


def test_promotion_and_equality():
    one_a = Cyclotomic.rational(1, 1)
    one_b = Cyclotomic.rational(1, 12)
    assert one_a == one_b
    z3 = Cyclotomic.root(3)
    z12 = Cyclotomic.root(12, 4)  # zeta_12^4 = zeta_3
    assert z3 == z12


def test_serialize_parse_round_trip():
    vals = [
        Cyclotomic.root(8) + Cyclotomic.rational(Fraction(-3, 2), 8),
        Cyclotomic.zero(5),
        Cyclotomic.rational(7),
        Cyclotomic.root(12, 5) * 3,
    ]
    for v in vals:
        assert Cyclotomic.parse(v.serialize()) == v
    with pytest.raises(ValueError):
        Cyclotomic.parse("not a value")


small = st.integers(min_value=-5, max_value=5)


@st.composite
def elements(draw, e):
    return sum(
        (Cyclotomic.root(e, k) * draw(small) for k in range(1, e)),
        Cyclotomic.rational(draw(small), e),
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 6, 8, 12]))
def test_ring_axioms(data, e):
    a = data.draw(elements(e))
    b = data.draw(elements(e))
    c = data.draw(elements(e))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@st.composite
def values_at(draw):
    """A value string "c:[i=a/b,...]" and an exponent e; c divides e or not."""
    e = draw(st.sampled_from([1, 4, 6, 8, 12, 15, 24]))
    if draw(st.integers(0, 3)):
        c = draw(st.sampled_from([c for c in range(1, e + 1) if e % c == 0]))
    else:
        c = draw(st.integers(-1, 30))
    phi = euler_phi(c) if c > 0 else 1
    index = st.sampled_from([*range(phi), *range(phi), -1, phi])
    den = st.sampled_from(["", "/1", "", "/-1", "/2", "/-2", "/3", "/0"])
    terms = draw(st.lists(st.tuples(index, st.integers(-4, 4), den), max_size=4,
                          unique_by=lambda term: term[0]))
    return f"{c}:[{','.join(f'{i}={a}{b}' for i, a, b in terms)}]", e


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values_at())
def test_parse_value_matches_the_cyclotomic_reference(value):
    text, e = value
    try:
        reference = Cyclotomic.parse(text).promote(e)
        expected = list(reference.num) if reference.is_integral() else None
    except ValueError:
        expected = None
    try:
        assert parse_value(text, e) == expected
    except ValueError:
        assert expected is None


def _complex(v: Cyclotomic, e: int | None = None) -> complex:
    """v as a complex number, sum num[i] zeta^i / den with zeta = exp(2 pi i / e)."""
    zeta = cmath.exp(2j * cmath.pi / (e or v.e))
    return sum(c * zeta**i for i, c in enumerate(v.num)) / v.den


def _fraction_form(v: Cyclotomic) -> str:
    """The exchange form written from Fraction coefficients, as it was before
    values were kept as one integer row over one denominator."""
    coeffs = [Fraction(c, v.den) for c in v.num]
    parts = [f"{i}={c.numerator}/{c.denominator}" for i, c in enumerate(coeffs) if c]
    return f"{v.e}:[{','.join(parts)}]"


def _assert_canonical(v: Cyclotomic):
    assert v.den > 0 and gcd(v.den, *v.num) == 1
    assert all(type(c) is int for c in (*v.num, v.den))
    assert v.serialize() == _fraction_form(v)
    assert Cyclotomic.parse(v.serialize()) == v


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) < 1e-9


@st.composite
def fractional_elements(draw, e):
    """A value of Q(zeta_e) from small power-basis Fractions, often zero or rational."""
    phi = euler_phi(e)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    shape = draw(st.sampled_from(["zero", "rational", "general", "general"]))
    if shape == "zero":
        return Cyclotomic.zero(e)
    if shape == "rational":
        return Cyclotomic.rational(draw(coeff), e)
    return Cyclotomic(e, [draw(coeff) for _ in range(phi)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 30]))
def test_arithmetic_matches_complex_evaluation(data, e):
    a = data.draw(fractional_elements(e))
    b = data.draw(fractional_elements(data.draw(st.sampled_from([1, e]))))
    k = data.draw(st.sampled_from([k for k in range(1, e) if gcd(k, e) == 1]))
    m = data.draw(st.sampled_from([1, 2, 3]))
    va, vb = _complex(a), _complex(b)
    galois = sum(c * cmath.exp(2j * cmath.pi * i * k / e) for i, c in enumerate(a.num)) / a.den
    for got, want in ((a, va), (b, vb), (a + b, va + vb), (a - b, va - vb), (a * b, va * vb),
                      (b * a, va * vb), (a.galois(k), galois), (a.conjugate(), va.conjugate()),
                      (a.promote(m * e), va), (a * 6 / 4, va * 1.5),
                      (a / Fraction(-2, 3), va * -1.5), (3 - a, 3 - va)):
        assert _close(_complex(got), want), (a, b, got)
        _assert_canonical(got)
    assert (a + b).e == (a * b).e == e and a.promote(m * e).e == m * e


def _golden(name):
    return load_table(resources.files("kronkit").joinpath(f"data/golden/{name}.tbl").read_text())


def test_integral_arithmetic_builds_no_fraction(monkeypatch):
    # the steps of the benchmark's imported product tables: irreps, the
    # products, promote and serialize, all on integer rows with den 1
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cyclo, "Fraction", refuse)
    A5, S3 = _golden("A5"), _golden("S3")
    e = lcm(A5.exponent, S3.exponent)
    texts = []
    for chi in A5.irreps:
        for psi in S3.irreps:
            for a in chi.values:
                for b in psi.values:
                    v = (a * b).promote(e)
                    assert v.is_integral()
                    texts.append(v.serialize())
                    assert parse_value(texts[-1], e) == list(v.num)
    assert len(texts) == (A5.num_classes * S3.num_classes) ** 2
    monkeypatch.undo()
    assert texts == [_fraction_form((a * b).promote(e)) for chi in A5.irreps
                     for psi in S3.irreps for a in chi.values for b in psi.values]
