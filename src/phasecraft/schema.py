"""Value rules and the table reader for every JSON document: scenarios,
algebra documents and the bundled fixtures.

A rule ``rule(value, key)`` returns the checked value or raises a
``SchemaError`` naming ``key``.  A table is ``{name: (rule, default)}``: a
name without a default is required, and a dict in place of a rule is the
table of a nested object."""

from __future__ import annotations

import numpy as np

from .errors import SchemaError


def _has_bool_or_str(value) -> bool:
    """True for a JSON boolean or string, also one nested in lists: neither
    ``true`` nor ``"1.0"`` is a number."""
    if isinstance(value, list):
        return any(_has_bool_or_str(item) for item in value)
    return isinstance(value, (bool, str))


def real(low: float = -np.inf, strict: bool = False):
    """A finite number >= low, or > low when strict."""
    def rule(value, key: str) -> float:
        try:
            number = np.nan if _has_bool_or_str(value) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = np.nan
        if not (np.isfinite(number) and (number > low if strict else number >= low)):
            bound = f" {'>' if strict else '>='} {low:g}" if low > -np.inf else ""
            raise SchemaError(f"{key} must be a finite number{bound}, got {value!r}")
        return number
    return rule


number, positive, nonnegative = real(), real(0.0, strict=True), real(0.0)


def integer(low: int):
    def rule(value, key: str) -> int:
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None or number != value or number < low or _has_bool_or_str(value):
            raise SchemaError(f"{key} must be an integer >= {low}, got {value!r}")
        return number
    return rule


def one_of(*choices: str):
    def rule(value, key: str) -> str:
        if value not in choices:
            raise SchemaError(f"{key} must be one of {list(choices)}, got {value!r}")
        return value
    return rule


def string(value, key: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{key} must be a string, got {value!r}")
    return value


def array(*shape):
    """A nonempty array of finite floats of ``shape``; a None in ``shape``
    accepts any length along that axis."""
    def rule(value, key: str) -> np.ndarray:
        try:
            arr = np.empty(0) if _has_bool_or_str(value) else np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            arr = np.empty(0)
        if not (arr.size and arr.ndim == len(shape) and np.isfinite(arr).all()
                and all(want in (None, got) for got, want in zip(arr.shape, shape))):
            dims = " x ".join("n" if d is None else str(d) for d in shape)
            raise SchemaError(f"{key} must be finite numbers of shape {dims}, got {value!r}")
        return arr
    return rule


VECTOR, MATRIX = array(None), array(None, None)


def at_most(rule, budget, size=abs):
    """``rule`` with the size budget ``size(value) <= budget``."""
    def checked(value, key: str):
        value = rule(value, key)
        if size(value) > budget:
            raise SchemaError(f"{key} exceeds its size budget of {budget}")
        return value
    return checked


def rows(*rules):
    """A list of entries of ``len(rules)`` values, the i-th read by ``rules[i]``."""
    def rule(value, key: str) -> list[tuple]:
        if not (isinstance(value, list)
                and all(isinstance(row, list) and len(row) == len(rules) for row in value)):
            raise SchemaError(f"{key} must be a list of {len(rules)}-value entries, got {value!r}")
        return [tuple(check(item, f"{key}[{n}]") for check, item in zip(rules, row))
                for n, row in enumerate(value)]
    return rule


def variants(pick, tables: dict):
    """An object read through ``tables[pick(doc)]``, so each table lists exactly
    the keys its variant reads; ``.tables`` lets a walker visit every variant."""
    def rule(doc, key: str) -> dict:
        name = pick(doc) if isinstance(doc, dict) else doc  # read refuses a non-object
        if not (isinstance(name, str) and name in tables):
            raise SchemaError(f"{key or 'scenario'}: {name!r} selects none of {sorted(tables)}")
        return read(tables[name], doc, key)
    rule.tables = tables
    return rule


def read(table, doc, where: str = ""):
    """``doc`` read through ``table`` into typed values: an absent key takes
    its default (a None default stays None), unknown keys are refused by
    their path.  A rule in place of a table reads ``doc`` itself."""
    if not isinstance(table, dict):
        return table(doc, where)
    if not isinstance(doc, dict):
        raise SchemaError(f"{where or 'scenario'} must be an object, got {doc!r}")
    prefix = f"{where}." if where else ""
    unknown = sorted(prefix + name for name in doc.keys() - table.keys())
    if unknown:
        raise SchemaError(f"unknown keys {unknown} in {where or 'scenario'}; "
                          f"known: {sorted(table)}")
    typed = {}
    for name, (rule, *default) in table.items():
        key = prefix + name
        if name not in doc and not default:
            raise SchemaError(f"missing required key {key!r}")
        value = doc[name] if name in doc else default[0]
        typed[name] = read(rule, value, key) if name in doc or value is not None else None
    return typed
