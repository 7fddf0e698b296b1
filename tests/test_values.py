import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpnerve.values import (EPS, INF, InputError, check_exponent,
                            check_powers, close, grade_str, leq,
                            parse_exponent, parse_grade, tensor, tensor_fold)

grades = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.just(INF),
)
exponents = st.one_of(
    st.floats(min_value=1.0, max_value=16.0, allow_nan=False),
    st.just(INF),
)


def test_tensor_examples():
    assert tensor(3.0, 4.0, 1.0) == 7.0
    assert tensor(3.0, 4.0, 2.0) == pytest.approx(5.0)
    assert tensor(3.0, 4.0, INF) == 4.0
    assert tensor(1.0, 1.0, 1.3) == pytest.approx(2.0 ** (1 / 1.3))


def test_tensor_unit_and_absorption():
    for p in (1.0, 1.5, 2.0, INF):
        assert tensor(0.0, 5.0, p) == 5.0
        assert tensor(5.0, 0.0, p) == 5.0
        assert tensor(INF, 2.0, p) == INF
        assert tensor(2.0, INF, p) == INF
        assert tensor(INF, INF, p) == INF
        assert tensor(0.0, 0.0, p) == 0.0


@given(r=grades, s=grades, p=exponents)
def test_tensor_commutes(r, s, p):
    assert close(tensor(r, s, p), tensor(s, r, p), 1e-6)


@given(r=grades, s=grades, t=grades, p=exponents)
@settings(max_examples=200)
def test_tensor_associates(r, s, t, p):
    a = tensor(tensor(r, s, p), t, p)
    b = tensor(r, tensor(s, t, p), p)
    if math.isinf(a) or math.isinf(b):
        assert a == b
    else:
        assert close(a, b, 1e-6 * max(1.0, a))


@given(r=grades, s=grades, p=exponents, q=exponents)
def test_tensor_nonincreasing_in_exponent(r, s, p, q):
    if p <= q:
        assert leq(tensor(r, s, q), tensor(r, s, p), 1e-6)


@given(r=grades, r2=grades, s=grades, p=exponents)
def test_tensor_monotone_in_arguments(r, r2, s, p):
    lo, hi = min(r, r2), max(r, r2)
    assert leq(tensor(lo, s, p), tensor(hi, s, p), 1e-6)


def test_tensor_fold():
    assert tensor_fold([], 2.0) == 0.0
    assert tensor_fold([1.0, 2.0, 3.0], 1.0) == 6.0
    assert tensor_fold([3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert tensor_fold([1.0, 5.0, 2.0], INF) == 5.0
    assert tensor_fold([1.0, INF], 1.0) == INF


@given(rs=st.lists(grades, max_size=5), p=exponents)
def test_fold_matches_iterated_tensor(rs, p):
    total = 0.0
    for r in rs:
        total = tensor(total, r, p)
    assert close(tensor_fold(rs, p), total, 1e-6 * max(1.0, total if math.isfinite(total) else 1.0))


def test_check_exponent():
    assert check_exponent(1) == 1.0
    assert check_exponent(INF) == INF
    with pytest.raises(InputError):
        check_exponent(0.5)
    with pytest.raises(InputError):
        check_exponent(float("nan"))


def test_comparisons():
    assert leq(1.0, 1.0 + 1e-12)
    assert leq(1.0, INF)
    assert not leq(INF, 1.0)
    assert leq(INF, INF)
    assert close(INF, INF)
    assert not close(INF, 1e300)
    assert close(0.3, 0.3 + 1e-12)


def test_grade_round_trip():
    assert grade_str(INF) == "inf"
    assert grade_str(2.0) == "2"
    assert parse_grade("inf") == INF
    assert parse_grade("2.5") == 2.5
    assert parse_grade(3) == 3.0
    assert parse_grade(grade_str(1.25)) == 1.25
    with pytest.raises(InputError):
        parse_grade("-1")
    with pytest.raises(InputError):
        parse_grade("abc")
    for token in (True, False, None, [1]):  # a JSON boolean is no number
        with pytest.raises(InputError):
            parse_grade(token)
    assert parse_exponent("inf") == INF
    with pytest.raises(InputError):
        parse_exponent("0.3")


def test_check_powers():
    check_powers([0.0, 1e154, INF], 2.0, 1)
    check_powers([1e200], 1.0, 3)
    check_powers([1e200], INF, 3)
    check_powers([1e200], 2.0, 0)  # nothing is summed
    check_powers([], 2.0, 3)
    for distances, p, hops in (([1e154], 2.0, 2), ([1e200], 2.0, 1),
                               ([1e308], 1.0, 2)):
        with pytest.raises(InputError):
            check_powers(distances, p, hops)
