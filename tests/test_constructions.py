"""The eight construction methods and the parameter search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import field_add, field_mul, field_pow, field_sub, primitive_elements
from costaskit.constructions import (
    ConditionFailed,
    ConstructionSpec,
    CornerConditionFailed,
    DegenerateSize,
    G4ConditionFailed,
    METHODS,
    NotPrimitive,
    T4ConditionFailed,
    WrongCharacteristic,
    ZeroElement,
    build,
    expected_size,
    find_spec,
    golomb_g2,
    golomb_g3,
    golomb_g4,
    golomb_g4_char2,
    lempel_l2,
    taylor_t4,
    welch_w1,
    welch_w2,
)
from costaskit.costas import is_costas
from costaskit import constructions, costas
from costaskit.ff import (
    FieldTooLarge,
    LimitTooLarge,
    affine_map,
    field_tables,
    make_field,
    power_table,
    prime_power,
)


def test_welch_pinned():
    assert welch_w1(7, 3) == [3, 2, 6, 4, 5, 1]
    assert welch_w2(7, 3) == [2, 1, 5, 3, 4]
    assert welch_w2(5, 2) == [1, 3, 2]


def test_welch_validation():
    with pytest.raises(DegenerateSize):
        welch_w1(2, 1)
    with pytest.raises(DegenerateSize):
        welch_w2(3, 2)
    with pytest.raises(NotPrimitive):
        welch_w1(7, 2)
    with pytest.raises(ValueError):
        welch_w1(9, 2)
    # Welch reads codes as every other builder does, not modulo p
    for g in (10, -4):
        with pytest.raises(ValueError, match=rf"^element code {g} outside \[0, 7\)$"):
            welch_w1(7, g)


def test_build_checks_codes_and_beta():
    for spec in (
        ConstructionSpec("w1", make_field(7), 10),
        ConstructionSpec("t4", make_field(11), 7, 99),
        ConstructionSpec("w1", make_field(5), 2, 3),
        ConstructionSpec("g2", make_field(11), 2),
    ):
        with pytest.raises(ValueError) as exc:
            build(spec)
        assert not isinstance(exc.value, ConditionFailed), spec


def test_condition_failures_share_one_class():
    for cls in (DegenerateSize, CornerConditionFailed, WrongCharacteristic, T4ConditionFailed,
                G4ConditionFailed, NotPrimitive, ZeroElement):
        assert issubclass(cls, ConditionFailed)


def test_welch_all_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        f = make_field(p)
        for g in primitive_elements(f):
            w1 = welch_w1(p, g)
            assert len(w1) == p - 1
            assert oracles.naive_is_costas(w1)
            if p >= 5:
                w2 = welch_w2(p, g)
                assert len(w2) == p - 2
                assert oracles.naive_is_costas(w2)


def test_log_table_cap_applies_to_logs_only():
    # 2 is a primitive root mod 1000003 and mod 999979; Welch reads the
    # log table too, so the cap binds it as it binds Lempel and Golomb
    f = make_field(1000003)
    with pytest.raises(FieldTooLarge):
        lempel_l2(f, 2)
    with pytest.raises(FieldTooLarge):
        golomb_g2(f, 2, 2)
    with pytest.raises(FieldTooLarge):
        welch_w1(1000003, 2)
    with pytest.raises(FieldTooLarge):
        welch_w2(1000003, 2)
    w1 = welch_w1(999979, 2)
    assert len(w1) == 999978 and w1[:3] == [2, 4, 8] and w1[-1] == 1
    assert type(w1[0]) is int
    assert welch_w2(999979, 2)[:3] == [1, 3, 7]


def test_lempel_pinned():
    f = make_field(11)
    assert lempel_l2(f, 2) == [5, 3, 2, 7, 1, 8, 4, 6, 9]
    assert lempel_l2(f, 7) == [2, 1, 5, 8, 3, 9, 7, 4, 6]


def test_lempel_validation():
    with pytest.raises(DegenerateSize):
        lempel_l2(make_field(3), 2)
    with pytest.raises(NotPrimitive):
        lempel_l2(make_field(11), 3)


def test_lempel_symmetric_and_costas():
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        p, k = prime_power(q)
        f = make_field(p, k)
        for a in primitive_elements(f):
            arr = lempel_l2(f, a)
            assert len(arr) == q - 2
            assert oracles.naive_is_costas(arr)
            for i, v in enumerate(arr, start=1):
                assert arr[v - 1] == i


def test_golomb_g2_equals_lempel_on_diagonal():
    for q in (5, 8, 9, 11):
        p, k = prime_power(q)
        f = make_field(p, k)
        for a in primitive_elements(f):
            assert golomb_g2(f, a, a) == lempel_l2(f, a)


def test_golomb_g2_small_fields_exhaustive():
    for q in (4, 5, 7, 8, 9, 11, 13):
        p, k = prime_power(q)
        f = make_field(p, k)
        prims = primitive_elements(f)
        for a in prims:
            for b in prims:
                arr = golomb_g2(f, a, b)
                assert len(arr) == q - 2
                assert oracles.naive_is_costas(arr)


def test_golomb_g2_trivial_sizes():
    f3 = make_field(3)
    assert golomb_g2(f3, 2, 2) == [1]
    f2 = make_field(2)
    assert golomb_g2(f2, 1, 1) == []


def test_golomb_g3_pinned():
    f = make_field(11)
    spec = find_spec("g3", f)
    assert (spec.alpha, spec.beta) == (6, 6)
    assert build(spec) == [3, 5, 1, 8, 2, 7, 6, 4]
    with pytest.raises(CornerConditionFailed):
        golomb_g3(f, 2, 7)


def test_golomb_g3_all_admissible_pairs():
    for q in (4, 5, 7, 8, 9, 11, 13, 16):
        p, k = prime_power(q)
        f = make_field(p, k)
        prims = primitive_elements(f)
        pairs = [(a, field_sub(f, 1, a)) for a in prims if field_sub(f, 1, a) in prims]
        for a, b in pairs:
            arr = golomb_g3(f, a, b)
            assert len(arr) == q - 3
            assert oracles.naive_is_costas(arr)


def test_golomb_g4_char2():
    f8 = make_field(2, 3)
    spec = find_spec("g4c2", f8)
    assert (spec.alpha, spec.beta) == (2, 3)
    arr = build(spec)
    assert len(arr) == 4
    assert oracles.naive_is_costas(arr)
    f16 = make_field(2, 4)
    spec16 = find_spec("g4c2", f16)
    arr16 = build(spec16)
    assert len(arr16) == 12
    assert oracles.naive_is_costas(arr16)
    with pytest.raises(WrongCharacteristic):
        golomb_g4_char2(make_field(11), 2, 10)
    with pytest.raises(DegenerateSize):
        golomb_g4_char2(make_field(2, 2), 2, 3)
    with pytest.raises(CornerConditionFailed):
        golomb_g4_char2(f8, 2, 2)


def test_taylor_t4_pinned():
    f = make_field(11)
    assert taylor_t4(f, 7) == [3, 6, 1, 7, 5, 2, 4]
    with pytest.raises(T4ConditionFailed):
        taylor_t4(f, 2)
    with pytest.raises(NotPrimitive):
        taylor_t4(f, 3)


def test_taylor_t4_small_cases():
    assert taylor_t4(make_field(5), 2) == [1]
    assert taylor_t4(make_field(2, 2), 2) == []
    f9 = make_field(3, 2)
    arr = taylor_t4(f9, 4)
    assert len(arr) == 5
    assert oracles.naive_is_costas(arr)


def test_golomb_g4_pinned():
    f41 = make_field(41)
    spec = find_spec("g4", f41)
    assert (spec.alpha, spec.beta) == (7, 35)
    arr = build(spec)
    assert len(arr) == 37
    assert is_costas(arr)
    with pytest.raises(G4ConditionFailed) as exc:
        golomb_g4(f41, 6, 36)
    assert "alpha^2" in str(exc.value)
    with pytest.raises(G4ConditionFailed) as exc:
        golomb_g4(f41, 7, 36)
    assert "alpha + beta" in str(exc.value)
    with pytest.raises(NotPrimitive):
        golomb_g4(f41, 0, 1)


def test_golomb_g4_self_check_ignores_public_cap(monkeypatch):
    # g4 never calls is_costas on its output, so the size cap of
    # is_costas cannot refuse a build that succeeds.
    monkeypatch.setattr(costas, "COSTAS_CAP", 10)
    arr = golomb_g4(make_field(41), 7, 35)
    assert len(arr) == 37 and oracles.naive_is_costas(arr)
    with pytest.raises(LimitTooLarge):
        is_costas(arr)


def test_golomb_g4_small_cases():
    assert golomb_g4(make_field(5), 3, 3) == [1]
    assert golomb_g4(make_field(2, 2), 2, 3) == []
    f9 = make_field(3, 2)
    arr = golomb_g4(f9, 5, 8)
    assert len(arr) == 5
    assert oracles.naive_is_costas(arr)


def test_golomb_g4_rejects_nonprimitive_valid_equations():
    # Equations hold for the wrong root but primitivity then fails.
    f = make_field(11)
    with pytest.raises((NotPrimitive, G4ConditionFailed)):
        golomb_g4(f, 4, 8)


def test_g3_reports_nonprimitive_beta_when_corner_holds():
    # 2 + 4 = 6 = 1 mod 5, so the corner equation holds; 4 has order 2.
    with pytest.raises(NotPrimitive):
        golomb_g3(make_field(5), 2, 4)


def test_g2_diagonal_matches_lempel_up_to_121():
    for q in range(4, 122):
        pk = prime_power(q)
        if pk is None:
            continue
        f = make_field(*pk)
        a = find_spec("l2", f).alpha
        assert golomb_g2(f, a, a) == lempel_l2(f, a)


def test_g4_equations_characterize_fpr_roots():
    # For fixed alpha, beta = 1 - alpha is the only solution of the first
    # equation, so scanning alpha covers every pair that could satisfy both.
    for q in range(3, 501):
        pk = prime_power(q)
        if pk is None or pk[1] > 6:
            continue
        f = make_field(*pk)
        for a in range(2, f.q):  # a and b = 1 - a both nonzero
            b = field_sub(f, 1, a)
            square = field_mul(f, a, a)
            second_eq = field_add(f, square, field_pow(f, b, -1)) == 1
            assert second_eq == (square == field_add(f, a, 1)), (q, a)
    f = make_field(7)
    with pytest.raises(ValueError):
        build(ConstructionSpec("nope", f, 3))
    with pytest.raises(ValueError):
        build(ConstructionSpec("g2", f, 3))
    with pytest.raises(WrongCharacteristic):
        build(ConstructionSpec("w1", make_field(2, 2), 2))


def test_find_spec_pinned():
    assert find_spec("w1", make_field(7)).alpha == 3
    assert find_spec("w2", make_field(3)) is None
    assert find_spec("w1", make_field(2, 2)) is None
    assert find_spec("g2", make_field(2)) is None
    assert find_spec("t4", make_field(11)).alpha == 7
    assert find_spec("t4", make_field(29)) is None
    assert find_spec("t4", make_field(7)) is None
    spec = find_spec("g4", make_field(41))
    assert (spec.alpha, spec.beta) == (7, 35)
    assert find_spec("g4", make_field(3, 2)) == ConstructionSpec(
        "g4", make_field(3, 2), 5, 8
    )
    assert find_spec("g4c2", make_field(2, 4)).alpha == 2
    with pytest.raises(ValueError):
        find_spec("unknown", make_field(7))


def test_find_spec_then_build_over_small_prime_powers():
    for q in range(2, 82):
        pk = prime_power(q)
        if pk is None:
            continue
        p, k = pk
        f = make_field(p, k)
        for method in METHODS:
            spec = find_spec(method, f)
            if spec is None:
                continue
            arr = build(spec)
            assert len(arr) == expected_size(method, q), (method, q)
            assert is_costas(arr), (method, q)
            if len(arr) <= 12:
                assert oracles.naive_is_costas(arr)


@settings(max_examples=60)
@given(st.sampled_from([5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]), st.data())
def test_g2_random_primitive_pairs(q, data):
    p, k = prime_power(q)
    f = make_field(p, k)
    prims = primitive_elements(f)
    a = data.draw(st.sampled_from(prims))
    b = data.draw(st.sampled_from(prims))
    arr = golomb_g2(f, a, b)
    assert len(arr) == q - 2
    assert is_costas(arr)


_FIELDS_3000 = [pk for pk in map(prime_power, range(2, 3001)) if pk is not None and pk[1] <= 6]


@settings(max_examples=300)
@given(st.sampled_from(_FIELDS_3000), st.data())
def test_table_conditions_match_object_arithmetic(pk, data):
    f = make_field(*pk)
    codes = st.integers(min_value=0, max_value=f.q - 1)
    a, b = data.draw(codes), data.draw(codes)
    add, mul = lambda x, y: field_add(f, x, y), lambda x, y: field_mul(f, x, y)
    exp, logs = field_tables(f)
    power = lambda c, e: constructions._power(exp, logs, c, e)

    def failure(check, *args):
        try:
            check(*args)
        except ValueError as e:
            return type(e), str(e)
        return None

    # primitive, through the check the Golomb map makes first
    got = failure(constructions._golomb, f, exp, logs, a, a)
    if a == 0:
        assert got == (ZeroElement, "zero is not a unit")
    elif oracles.is_primitive(f, a):
        assert got is None
    else:
        assert got == (NotPrimitive, f"{f!r}[{a}] does not generate the unit group")
    # 1 - c, c^2 and 1/c
    assert constructions._one_minus(f, a) == field_sub(f, 1, a)
    assert power(a, 2) == mul(a, a)
    if b:
        assert power(b, -1) == field_pow(f, b, -1)
    # alpha + beta = 1, alpha^2 + alpha = 1 and alpha^2 + 1/beta = 1, each
    # with the code of the left side in the message when it fails
    sides = [("alpha + beta", a, b, add(a, b)), ("alpha^2 + alpha", power(a, 2), a, add(mul(a, a), a))]
    if b:
        sides.append(("alpha^2 + 1/beta", power(a, 2), power(b, -1), add(mul(a, a), field_pow(f, b, -1))))
    for expr, x, y, lhs in sides:
        got = failure(constructions._require_sum_one, f, x, y, T4ConditionFailed, expr)
        if lhs == 1:
            assert got is None, expr
        else:
            assert got == (T4ConditionFailed, f"{expr} must equal 1, got element code {lhs}"), expr


@settings(max_examples=60)
@given(st.sampled_from([pk for pk in _FIELDS_3000 if pk[0] ** pk[1] >= 3]), st.data())
def test_golomb_map_matches_two_table_map(pk, data):
    # log_beta(1 - alpha^i) from beta's log table and alpha's power table
    f = make_field(*pk)
    prims = primitive_elements(f)
    a, b = data.draw(st.sampled_from(prims)), data.draw(st.sampled_from(prims))
    log_b = {c: i for i, c in enumerate(power_table(f, b).tolist())}
    want = [log_b[c] for c in affine_map(f, power_table(f, a)[1:], -1, 1).tolist()]
    assert golomb_g2(f, a, b) == want


def test_find_spec_matches_reference_search():
    for q in range(2, 1025):
        pk = prime_power(q)
        if pk is None or pk[1] > 6:
            continue
        f = make_field(*pk)
        for method in METHODS:
            spec = find_spec(method, f)
            assert spec == oracles.reference_find_spec(method, f), (method, q)
            if spec is not None:
                assert type(spec.alpha) is int and type(spec.beta) in (int, type(None))
