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
from typing import NamedTuple, Optional

import numpy as np

from .costas import _drop_corner
from .ff import FieldDescriptor, affine_map, field_tables, least_primitive, make_field, primitive_exponents
from .fpr import g4_witness, t4_witness


class ConditionFailed(ValueError):
    """The construction does not apply to this field or these parameters."""


class DegenerateSize(ConditionFailed):
    """The field is too small for this construction to produce anything."""


class CornerConditionFailed(ConditionFailed):
    """alpha + beta = 1 is required to force the corner dots."""


class WrongCharacteristic(ConditionFailed):
    """The construction is restricted to a specific characteristic or degree."""


class T4ConditionFailed(ConditionFailed):
    """alpha^2 + alpha = 1 is required for the two-corner Lempel removal."""


class G4ConditionFailed(ConditionFailed):
    """The Golomb corner and edge dot equations do not hold."""


class NotPrimitive(ConditionFailed):
    """An element required to generate the unit group does not."""


class ZeroElement(ConditionFailed):
    """A multiplicative-only operation received the zero element."""


class ConstructionFailed(RuntimeError):
    """Internal consistency check failed; indicates a bug, not bad input."""


class _Method(NamedTuple):
    offset: int  # the array has size q - offset
    min_q: int  # least q find_spec offers it at; w1 and w2 also need k = 1, g4c2 p = 2
    beta: bool  # whether the spec carries beta
    none_reason: str  # why find_spec found no parameters


# The one table of per-method rules.
_METHODS = {
    "w1": _Method(1, 3, False, "no primitive root for this q (need prime p >= 3)"),
    "w2": _Method(2, 5, False, "no primitive root for this q (need prime p >= 5)"),
    "l2": _Method(2, 4, False, "no primitive element for this q (need q >= 4)"),
    "g2": _Method(2, 3, True, "no primitive pair for this q (need q >= 3)"),
    "g3": _Method(3, 3, True, "no primitive pair with a+b=1"),
    "g4c2": _Method(4, 8, True, "no primitive pair with a+b=1 (need q = 2^k, k >= 3)"),
    "t4": _Method(4, 2, False, "no primitive root with a^2+a=1"),
    "g4": _Method(4, 2, True, "no primitive pair with a+b=1 and a^2+1/b=1"),
}

METHODS = tuple(_METHODS)


def expected_size(method: str, q: int) -> int:
    """Array size the method produces from a field of order q."""
    return q - _METHODS[method].offset


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
    field = make_field(p)
    exp, logs = field_tables(field)
    n = p - 1
    lg = int(logs[_code(field, g)])
    # g = r^lg for the least primitive root r, so g generates iff gcd(lg, n) = 1.
    if g == 0 or math.gcd(lg, n) != 1:
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


def _primitive_codes(field: FieldDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """The primitive codes a of the field, ascending, and whether 1 - a is
    primitive for each, read from the tables: g^i is primitive iff
    gcd(i, q - 1) = 1."""
    exp, _ = field_tables(field)
    codes = np.sort(exp[primitive_exponents(field.q - 1)])
    primitive = np.zeros(field.q, dtype=bool)
    primitive[codes] = True
    return codes, primitive[affine_map(field, codes, -1, 1)]


def build(spec: ConstructionSpec) -> list[int]:
    """Build the array a ConstructionSpec describes.

    beta must be given exactly for the methods that take one; each builder
    checks that every code lies in [0, q), after the log-table cap.
    """
    method, field, alpha, beta = spec.method, spec.field, spec.alpha, spec.beta
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if _METHODS[method].beta != (beta is not None):
        raise ValueError(f"method {method} {'requires' if beta is None else 'takes no'} --beta")
    if method in ("w1", "w2"):
        if field.k != 1:
            raise WrongCharacteristic("Welch constructions need a prime field")
        return welch_w1(field.p, alpha) if method == "w1" else welch_w2(field.p, alpha)
    if method == "l2":
        return lempel_l2(field, alpha)
    if method == "t4":
        return taylor_t4(field, alpha)
    if method == "g2":
        return golomb_g2(field, alpha, beta)
    if method == "g3":
        return golomb_g3(field, alpha, beta)
    if method == "g4c2":
        return golomb_g4_char2(field, alpha, beta)
    return golomb_g4(field, alpha, beta)


def find_spec(method: str, field: FieldDescriptor) -> Optional[ConstructionSpec]:
    """Smallest admissible parameters for the method in this field, or None.

    Candidates are scanned in ascending element-code order, so the result
    is deterministic and rebuilds reproducibly.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    p, k, q = field.p, field.k, field.q
    if q < _METHODS[method].min_q or (k > 1 and method in ("w1", "w2")) or (p != 2 and method == "g4c2"):
        return None
    if method in ("w1", "w2", "l2", "g2"):
        a = least_primitive(field)
        return ConstructionSpec(method, field, a, a if _METHODS[method].beta else None)
    if method == "t4":
        a = t4_witness(q)
        return None if a is None else ConstructionSpec("t4", field, a)
    if method == "g4":
        # alpha^2 = alpha + 1 with alpha and 1 - alpha both primitive.
        a = g4_witness(q)
    else:
        # g3 and g4c2: the least primitive a with 1 - a primitive.
        codes, co = _primitive_codes(field)
        a = int(codes[co.argmax()]) if co.any() else None
    return None if a is None else ConstructionSpec(method, field, a, _one_minus(field, a))
