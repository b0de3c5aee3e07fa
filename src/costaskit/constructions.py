"""Algebraic Costas array constructions over finite fields.

All constructions address columns x = 1..N and rows f(x) = 1..N. The
exponential Welch family works directly with integers mod p; the Lempel
and Golomb families work in an arbitrary GF(q) through discrete logs.
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

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .costas import _first_colliding_row, remove_leading
from .ff import (
    FieldDescriptor,
    FieldElement,
    FieldMismatch,
    NotPrimitive,
    affine_map,
    discrete_logs,
    is_primitive,
    is_primitive_root,
    least_primitive,
    make_field,
    power_table,
    quadratic_roots,
)
from .fpr import g4_witness


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


def _elem(field: FieldDescriptor, x: Union[FieldElement, int]) -> FieldElement:
    if isinstance(x, FieldElement):
        if x.field != field:
            raise FieldMismatch(f"{x!r} does not belong to {field!r}")
        return x
    return field.element(x)


def _golomb_map(field: FieldDescriptor, alpha: int, beta: int) -> list[int]:
    # f(i) = log_beta(1 - alpha^i) for i = 1..q-2
    logs = discrete_logs(field, beta)
    return logs[affine_map(field, power_table(field, alpha)[1:], -1, 1)].tolist()


def _welch_powers(p: int, g: Union[int, FieldElement]) -> np.ndarray:
    if isinstance(g, FieldElement):
        g = g.rep
    field = make_field(p)
    if not is_primitive_root(g, p, field.q1_factors):
        raise NotPrimitive(f"{g} is not a primitive root mod {p}")
    return power_table(field, g % p)


def welch_w1(p: int, g: Union[int, FieldElement]) -> list[int]:
    """Exponential Welch array: f(i) = g^i mod p for i = 1..p-1."""
    if p < 3:
        raise DegenerateSize(f"exponential Welch needs p >= 3, got {p}")
    return np.roll(_welch_powers(p, g), -1).tolist()


def welch_w2(p: int, g: Union[int, FieldElement]) -> list[int]:
    """Corner-removed Welch array: f(i) = g^i - 1 for i = 1..p-2."""
    if p < 5:
        raise DegenerateSize(f"shifted Welch needs p >= 5, got {p}")
    return (_welch_powers(p, g)[1:] - 1).tolist()


def lempel_l2(field: FieldDescriptor, alpha: Union[FieldElement, int]) -> list[int]:
    """Lempel array: f(i) = log_alpha(1 - alpha^i) for i = 1..q-2.

    The output is symmetric: f(i) = j implies f(j) = i.
    """
    if field.q < 4:
        raise DegenerateSize(f"Lempel needs q >= 4, got {field.q}")
    a = _elem(field, alpha)
    if not is_primitive(a):
        raise NotPrimitive(f"{a!r} does not generate the unit group")
    return _golomb_map(field, a.rep, a.rep)


def golomb_g2(
    field: FieldDescriptor,
    alpha: Union[FieldElement, int],
    beta: Union[FieldElement, int],
) -> list[int]:
    """Golomb array: f(i) = log_beta(1 - alpha^i) for i = 1..q-2."""
    a = _elem(field, alpha)
    b = _elem(field, beta)
    if not is_primitive(a):
        raise NotPrimitive(f"{a!r} does not generate the unit group")
    if not is_primitive(b):
        raise NotPrimitive(f"{b!r} does not generate the unit group")
    return _golomb_map(field, a.rep, b.rep)


def golomb_g3(
    field: FieldDescriptor,
    alpha: Union[FieldElement, int],
    beta: Union[FieldElement, int],
) -> list[int]:
    """Golomb array with the forced (1,1) corner dot removed, size q - 3."""
    a = _elem(field, alpha)
    b = _elem(field, beta)
    if a + b != field.one:
        raise CornerConditionFailed(
            f"alpha + beta must equal 1, got element code {(a + b).rep}"
        )
    return remove_leading(golomb_g2(field, a, b), 1)


def golomb_g4_char2(
    field: FieldDescriptor,
    alpha: Union[FieldElement, int],
    beta: Union[FieldElement, int],
) -> list[int]:
    """Characteristic-2 Golomb array with the (1,1) and (2,2) dots removed."""
    if field.p != 2:
        raise WrongCharacteristic(f"characteristic 2 required, got {field.p}")
    if field.k < 3:
        raise DegenerateSize(f"field order >= 8 required, got {field.q}")
    a = _elem(field, alpha)
    b = _elem(field, beta)
    if a + b != field.one:
        raise CornerConditionFailed(
            f"alpha + beta must equal 1, got element code {(a + b).rep}"
        )
    return remove_leading(golomb_g2(field, a, b), 2)


def taylor_t4(field: FieldDescriptor, alpha: Union[FieldElement, int]) -> list[int]:
    """Lempel array with the (1,2) and (2,1) dots removed, size q - 4.

    Requires alpha^2 + alpha = 1, which forces exactly those two dots.
    """
    a = _elem(field, alpha)
    if a * a + a != field.one:
        raise T4ConditionFailed(
            f"alpha^2 + alpha must equal 1, got element code {(a * a + a).rep}"
        )
    if not is_primitive(a):
        raise NotPrimitive(f"{a!r} does not generate the unit group")
    return remove_leading(lempel_l2(field, a), 2)


def golomb_g4(
    field: FieldDescriptor,
    alpha: Union[FieldElement, int],
    beta: Union[FieldElement, int],
) -> list[int]:
    """Golomb array with the corner dot and an edge dot removed, size q - 4.

    Requires alpha + beta = 1 and alpha^2 + 1/beta = 1. The first equation
    puts a dot at (1,1); after removing it, the second pins the next dot to
    the top of the first column, so that column and row can go too.
    """
    a = _elem(field, alpha)
    b = _elem(field, beta)
    if a.rep == 0 or b.rep == 0:
        raise NotPrimitive("zero does not generate the unit group")
    if a + b != field.one:
        raise G4ConditionFailed(
            f"alpha + beta must equal 1, got element code {(a + b).rep}"
        )
    if a * a + b.inv() != field.one:
        raise G4ConditionFailed(
            f"alpha^2 + 1/beta must equal 1, got element code {(a * a + b.inv()).rep}"
        )
    if not is_primitive(a):
        raise NotPrimitive(f"{a!r} does not generate the unit group")
    if not is_primitive(b):
        raise NotPrimitive(f"{b!r} does not generate the unit group")
    trimmed = remove_leading(golomb_g2(field, a, b), 1)
    top = field.q - 3
    if not trimmed or trimmed[0] != top:
        raise ConstructionFailed("edge dot missing from the top of column 1")
    result = trimmed[1:]
    # The kernel, not is_costas: its size cap must not refuse a valid build.
    if len(result) != field.q - 4 or _first_colliding_row(np.asarray(result, dtype=np.int64)):
        raise ConstructionFailed("corner and edge removal did not yield a Costas array")
    return result


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
    if method == "w1":
        if k != 1 or p < 3:
            return None
        return ConstructionSpec("w1", field, least_primitive(field))
    if method == "w2":
        if k != 1 or p < 5:
            return None
        return ConstructionSpec("w2", field, least_primitive(field))
    if method == "l2":
        if q < 4:
            return None
        return ConstructionSpec("l2", field, least_primitive(field))
    if method == "g2":
        if q < 3:
            return None
        a = least_primitive(field)
        return ConstructionSpec("g2", field, a, a)
    if method in ("g3", "g4c2"):
        if method == "g3" and q < 3:
            return None
        if method == "g4c2" and (p != 2 or k < 3):
            return None
        for rep in range(1, q):
            a = FieldElement(field, rep)
            bb = 1 - a
            if bb.rep != 0 and is_primitive(a) and is_primitive(bb):
                return ConstructionSpec(method, field, a.rep, bb.rep)
        return None
    if method == "t4":
        for a in quadratic_roots(field, 1, -1):
            if is_primitive(field.element(a)):
                return ConstructionSpec("t4", field, a)
        return None
    # g4: alpha^2 = alpha + 1 with alpha and 1 - alpha both primitive.
    a = g4_witness(q)
    if a is None:
        return None
    return ConstructionSpec("g4", field, a, (1 - field.element(a)).rep)
