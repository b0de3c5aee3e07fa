"""Algebraic Costas array constructions over finite fields.

All constructions address columns x = 1..N and rows f(x) = 1..N. The
exponential Welch family works in GF(p), the Lempel and Golomb families in
an arbitrary GF(q), all through discrete logs. Elements are integer codes,
and every condition on them is read from the power and log tables of the
field's least primitive element.
Corner-removal variants shrink a construction whose forced corner dots
close a leading block.

Method names used throughout (and by the CLI):

  w1    exponential Welch, N = p - 1
  w2    shifted exponential Welch, N = p - 2
  l2    Lempel, N = q - 2 (symmetric)
  g2    Golomb, N = q - 2
  g3    Golomb with corner dot removed, N = q - 3
  g4c2  characteristic-2 Golomb with two corner dots removed, N = q - 4
  t4    Taylor variant of Lempel with two corner dots removed, N = q - 4
  g4    Golomb with a corner dot and an edge dot removed, N = q - 4
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costas import _drop_corner
from .ff import (
    FieldDescriptor,
    NotPrimitive,
    ZeroElement,
    affine_map,
    field_tables,
    least_primitive,
    make_field,
    primitive_exponents,
)
from .fpr import g4_witness, t4_witness


class DegenerateSize(ValueError):
    """The field is too small for this construction to produce anything."""


class CornerConditionFailed(ValueError):
    """alpha + beta = 1 is required to force the corner dots."""


class WrongCharacteristic(ValueError):
    """The construction is restricted to a specific characteristic or degree."""


class T4ConditionFailed(ValueError):
    """alpha^2 + alpha = 1 is required for the two-corner Lempel removal."""


class G4ConditionFailed(ValueError):
    """The Golomb corner and edge dot equations do not hold."""


class ConstructionFailed(RuntimeError):
    """Internal consistency check failed; indicates a bug, not bad input."""


METHODS = ("w1", "w2", "l2", "g2", "g3", "g4c2", "t4", "g4")

_SIZE_OFFSETS = {"w1": 1, "w2": 2, "l2": 2, "g2": 2, "g3": 3, "g4c2": 4, "t4": 4, "g4": 4}

# Least field order find_spec offers each method at; w1 and w2 also need a
# prime field, and g4c2 characteristic 2.
_MIN_ORDER = {"w1": 3, "w2": 5, "l2": 4, "g2": 3, "g3": 3, "g4c2": 8}


def expected_size(method: str, q: int) -> int:
    """Array size the method produces from a field of order q."""
    return q - _SIZE_OFFSETS[method]


@dataclass(frozen=True)
class ConstructionSpec:
    """A method plus the field and element codes needed to build one array."""

    method: str
    field: FieldDescriptor
    alpha: int
    beta: Optional[int] = None


def _code(field: FieldDescriptor, x: int) -> int:
    if not 0 <= x < field.q:
        raise ValueError(f"element code {x} outside [0, {field.q})")
    return x


def _power(exp: np.ndarray, logs: np.ndarray, c: int, e: int) -> int:
    """Code of c^e; c must be nonzero when e < 0."""
    return int(exp[e * int(logs[c]) % len(exp)]) if c else 0


def _one_minus(field: FieldDescriptor, c: int) -> int:
    return int(affine_map(field, np.array([c]), -1, 1)[0])


def _require_sum_one(field: FieldDescriptor, x: int, y: int, error: type, expr: str) -> None:
    # x + y = 1 iff y = 1 - x; the sum itself is only needed for the message.
    if _one_minus(field, x) != y:
        place = field.p ** np.arange(field.k)
        got = int((x // place + y // place) % field.p @ place)
        raise error(f"{expr} must equal 1, got element code {got}")


def _golomb(field: FieldDescriptor, exp: np.ndarray, logs: np.ndarray, a: int, b: int) -> np.ndarray:
    """f(i) = log_b(1 - a^i) for i = 1..q-2, once a and b are checked primitive.

    With a = g^la and b = g^lb, a^i = exp[la * i mod n] and log_b is
    log_g divided by lb mod n, so one table pair serves every (a, b).
    """
    n = len(exp)
    for c in (a, b):
        if c == 0:
            raise ZeroElement("zero is not a unit")
        # g^i generates the unit group iff gcd(i, n) = 1.
        if math.gcd(int(logs[c]), n) != 1:
            raise NotPrimitive(f"{field!r}[{c}] does not generate the unit group")
    # In place: at q near the 10^6 cap each temporary is 8 MB.
    i = np.arange(1, n) * int(logs[a])
    i %= n
    out = logs[affine_map(field, exp[i], -1, 1)] * pow(int(logs[b]), -1, n)
    out %= n
    return out


def _welch_powers(p: int, g: int) -> np.ndarray:
    """g^i mod p for i = 1..p-1, read from the tables of GF(p)."""
    exp, logs = field_tables(make_field(p))
    n = p - 1
    lg = int(logs[g % p])
    # g = r^lg for the least primitive root r, so g generates iff gcd(lg, n) = 1.
    if g % p == 0 or math.gcd(lg, n) != 1:
        raise NotPrimitive(f"{g} is not a primitive root mod {p}")
    i = np.arange(1, p) * lg
    i %= n
    return exp[i]


def welch_w1(p: int, g: int) -> list[int]:
    """Exponential Welch array: f(i) = g^i mod p for i = 1..p-1."""
    if p < 3:
        raise DegenerateSize(f"exponential Welch needs p >= 3, got {p}")
    return _welch_powers(p, g).tolist()


def welch_w2(p: int, g: int) -> list[int]:
    """Corner-removed Welch array: f(i) = g^i - 1 for i = 1..p-2."""
    if p < 5:
        raise DegenerateSize(f"shifted Welch needs p >= 5, got {p}")
    return (_welch_powers(p, g)[:-1] - 1).tolist()


def lempel_l2(field: FieldDescriptor, alpha: int) -> list[int]:
    """Lempel array: f(i) = log_alpha(1 - alpha^i) for i = 1..q-2.

    The output is symmetric: f(i) = j implies f(j) = i.
    """
    if field.q < 4:
        raise DegenerateSize(f"Lempel needs q >= 4, got {field.q}")
    return golomb_g2(field, alpha, alpha)


def golomb_g2(field: FieldDescriptor, alpha: int, beta: int) -> list[int]:
    """Golomb array: f(i) = log_beta(1 - alpha^i) for i = 1..q-2."""
    exp, logs = field_tables(field)
    return _golomb(field, exp, logs, _code(field, alpha), _code(field, beta)).tolist()


def golomb_g3(field: FieldDescriptor, alpha: int, beta: int) -> list[int]:
    """Golomb array with the forced (1,1) corner dot removed, size q - 3."""
    exp, logs = field_tables(field)
    a, b = _code(field, alpha), _code(field, beta)
    _require_sum_one(field, a, b, CornerConditionFailed, "alpha + beta")
    return _drop_corner(_golomb(field, exp, logs, a, b), 1).tolist()


def golomb_g4_char2(field: FieldDescriptor, alpha: int, beta: int) -> list[int]:
    """Characteristic-2 Golomb array with the (1,1) and (2,2) dots removed."""
    if field.p != 2:
        raise WrongCharacteristic(f"characteristic 2 required, got {field.p}")
    if field.k < 3:
        raise DegenerateSize(f"field order >= 8 required, got {field.q}")
    exp, logs = field_tables(field)
    a, b = _code(field, alpha), _code(field, beta)
    _require_sum_one(field, a, b, CornerConditionFailed, "alpha + beta")
    return _drop_corner(_golomb(field, exp, logs, a, b), 2).tolist()


def taylor_t4(field: FieldDescriptor, alpha: int) -> list[int]:
    """Lempel array with the (1,2) and (2,1) dots removed, size q - 4.

    Requires alpha^2 + alpha = 1, which forces exactly those two dots.
    """
    exp, logs = field_tables(field)
    a = _code(field, alpha)
    _require_sum_one(field, _power(exp, logs, a, 2), a, T4ConditionFailed, "alpha^2 + alpha")
    return _drop_corner(_golomb(field, exp, logs, a, a), 2).tolist()


def golomb_g4(field: FieldDescriptor, alpha: int, beta: int) -> list[int]:
    """Golomb array with the corner dot and an edge dot removed, size q - 4.

    Requires alpha + beta = 1 and alpha^2 + 1/beta = 1. The first equation
    puts a dot at (1,1); after removing it, the second pins the next dot to
    the top of the first column, so that column and row can go too.
    """
    exp, logs = field_tables(field)
    a, b = _code(field, alpha), _code(field, beta)
    if a == 0 or b == 0:
        raise NotPrimitive("zero does not generate the unit group")
    _require_sum_one(field, a, b, G4ConditionFailed, "alpha + beta")
    sq, inv = _power(exp, logs, a, 2), _power(exp, logs, b, -1)
    _require_sum_one(field, sq, inv, G4ConditionFailed, "alpha^2 + 1/beta")
    # Once both equations hold the result is Costas by the Golomb-Taylor
    # theorem, so only the edge dot they force is checked, in O(1).
    trimmed = _drop_corner(_golomb(field, exp, logs, a, b), 1)
    if trimmed[0] != field.q - 3:
        raise ConstructionFailed("edge dot missing from the top of column 1")
    return trimmed[1:].tolist()


def build(spec: ConstructionSpec) -> list[int]:
    """Build the array a ConstructionSpec describes."""
    method, field = spec.method, spec.field
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in ("w1", "w2"):
        if field.k != 1:
            raise WrongCharacteristic("Welch constructions need a prime field")
        if method == "w1":
            return welch_w1(field.p, spec.alpha)
        return welch_w2(field.p, spec.alpha)
    if method == "l2":
        return lempel_l2(field, spec.alpha)
    if method == "t4":
        return taylor_t4(field, spec.alpha)
    if spec.beta is None:
        raise ValueError(f"method {method!r} requires beta")
    if method == "g2":
        return golomb_g2(field, spec.alpha, spec.beta)
    if method == "g3":
        return golomb_g3(field, spec.alpha, spec.beta)
    if method == "g4c2":
        return golomb_g4_char2(field, spec.alpha, spec.beta)
    return golomb_g4(field, spec.alpha, spec.beta)


def find_spec(method: str, field: FieldDescriptor) -> Optional[ConstructionSpec]:
    """Smallest admissible parameters for the method in this field, or None.

    Candidates are scanned in ascending element-code order, so the result
    is deterministic and rebuilds reproducibly.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    p, k, q = field.p, field.k, field.q
    if q < _MIN_ORDER.get(method, 0) or (k > 1 and method in ("w1", "w2")) or (p != 2 and method == "g4c2"):
        return None
    if method in ("w1", "w2", "l2", "g2"):
        a = least_primitive(field)
        return ConstructionSpec(method, field, a, a if method == "g2" else None)
    if method == "t4":
        a = t4_witness(q)
        return None if a is None else ConstructionSpec("t4", field, a)
    if method == "g4":
        # alpha^2 = alpha + 1 with alpha and 1 - alpha both primitive.
        a = g4_witness(q)
        return None if a is None else ConstructionSpec("g4", field, a, _one_minus(field, a))
    # g3 and g4c2: the least primitive a with 1 - a primitive (0 is not
    # primitive, so 1 - a is then a unit).
    exp, _ = field_tables(field)
    primitive = np.zeros(q, dtype=bool)
    primitive[exp[primitive_exponents(q - 1)]] = True
    one_minus = affine_map(field, np.arange(q), -1, 1)
    ok = primitive & primitive[one_minus]
    a = int(np.argmax(ok))
    return ConstructionSpec(method, field, a, int(one_minus[a])) if ok[a] else None
