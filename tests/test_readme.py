"""README's work-cap and cache tables name every cap constant and every
`lru_cache` with its value, its method table lists every construction with
its size, and every module attribute README names exists."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from costaskit import cli, constructions, costas, density, ff, fpr

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

MODULES = {
    "cli": cli, "constructions": constructions, "costas": costas,
    "density": density, "ff": ff, "fpr": fpr,
}

# (constant, README phrase); the phrase ends in the value as n or b^e.
CAPS = [
    ("ff.SIEVE_CAP", "`ff.SIEVE_CAP = 10^8`"),
    ("density._TRINOMIAL_CAP", "`density._TRINOMIAL_CAP = 10^6`"),
    ("density._VERIFY_CAP", "`density._VERIFY_CAP = 10^5`"),
    ("density._I_MAX_CAP", "`density._I_MAX_CAP = 10`"),
    ("ff._PRIMITIVE_SCAN_CAP", "`ff._PRIMITIVE_SCAN_CAP = 10^6`"),
    ("costas.COSTAS_CAP", "`costas.COSTAS_CAP = 10^5`"),
    ("costas._TABLE_CAP", "`costas._TABLE_CAP = 2^11`"),
    ("costas._ENUM_CAP", "`costas._ENUM_CAP = 8`"),
    ("cli._SWEEP_CAP", "`cli._SWEEP_CAP = 4096`"),
    ("ff._MAX_DEGREE", "`ff._MAX_DEGREE = 6`"),
    ("ff._MAX_ORDER", "`ff._MAX_ORDER = 2^31`"),
    ("ff._PRIME_CAP", "`ff._PRIME_CAP = 3317044064679887385961981`"),
]


@pytest.mark.parametrize("constant, phrase", CAPS)
def test_readme_states_cap(constant, phrase):
    assert phrase in README
    module, name = constant.split(".")
    base, _, exp = phrase.strip("`").rpartition(" = ")[2].partition("^")
    assert getattr(MODULES[module], name) == int(base) ** int(exp or 1)


def test_every_cap_constant_is_in_the_table():
    caps = {
        f"{path.stem}.{name}"
        for path in Path(ff.__file__).parent.glob("*.py")
        for name in re.findall(r"^(\w+_CAP) = ", path.read_text(encoding="utf-8"), re.M)
    }
    assert caps | {"ff._MAX_DEGREE", "ff._MAX_ORDER"} == {c for c, _ in CAPS}


def test_readme_dotted_names_resolve():
    names = set(re.findall(rf"`({'|'.join(MODULES)})\.(\w+)", README))
    assert names
    assert sorted(f"{m}.{n}" for m, n in names if not hasattr(MODULES[m], n)) == []


def test_cache_table_matches_the_code():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in Path(ff.__file__).parent.glob("*.py")}
    caches = {
        f"{module}.{name}": size
        for module, text in sources.items()
        for size, name in re.findall(r"^@lru_cache\(maxsize=(\w+)\)\ndef (\w+)", text, re.M)
    }
    # every cache decorator in the package has an explicit maxsize
    assert sum(len(re.findall(r"^@(?:functools\.)?(?:lru_)?cache\b", t, re.M)) for t in sources.values()) == len(caches)
    table = README.partition("## Caches")[2].partition("\n## ")[0]
    assert dict(re.findall(r"^\| `(\w+\.\w+)` *\| (\w+) *\|", table, re.M)) == caches


def test_method_table_matches_the_code():
    table = README.partition("## Construction methods")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` *\| q - (\d+) *\|", table, re.M)
    assert [m for m, _ in rows] == list(constructions.METHODS)
    assert all(100 - constructions.expected_size(m, 100) == int(n) for m, n in rows)
