"""ReLU and its gradient, ``InputError``, the one error class for input the
caller must fix, ``finite``, which refuses a NaN or infinite array, and
``check``, which every reader of a document from outside (config, feature
spec, checkpoint, dataset) runs on a table of rules.
(The LSTM computes its sigmoid gates from one tanh in ``model``.)

All numeric state lives in float64 numpy arrays. Functions allocate fresh
outputs and never mutate their inputs.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class InputError(ValueError):
    """Input the caller must fix: a malformed file, document, flag or
    argument. Its message is one line, and the CLI prints it as
    ``error: <message>`` and exits 2."""


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_grad(pre_activation):
    # Subgradient at exactly 0 is taken as 0, matching the forward pass.
    return (np.asarray(pre_activation) > 0.0).astype(np.float64)


def finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, or ``InputError("<name> holds a non-finite value")`` if it
    holds a NaN or an infinity."""
    if not np.isfinite(a).all():
        raise InputError(f"{name} holds a non-finite value")
    return a


# checking documents read from outside ---------------------------------------

ABSENT = object()   # the value of a key that the document lacks


class Check(NamedTuple):
    """A rule: the values ``ok`` accepts once ``convert`` made them what the
    reader keeps; a list rule's ``entry`` finds the first entry that fails."""

    kind: str
    ok: Callable
    convert: Callable = None
    entry: "Check" = None


class _Mismatch(Exception):
    """([key path parts], kind, value) of the first value that fails."""


def check(doc, table, what: str):
    """``doc`` as ``table`` passes it: a table is a dict of rules, a rule a
    Check or a nested table. The first value that fails raises InputError
    with one line, ``<what>: <key path>: expected <kind>, got <value>``,
    the value's repr cut to 60 characters."""
    try:
        return _walk(table, doc)
    except _Mismatch as exc:
        parts, kind, value = exc.args
        got = "nothing" if value is ABSENT else repr(value)
        got = got if len(got) <= 60 else got[:57] + "..."
        path = "".join(parts).lstrip(".")
        raise InputError(": ".join(filter(None, (what, path)))
                    + f": expected {kind}, got {got}") from None


def _walk(rule, value, step=""):
    """``value`` as ``rule`` keeps it; a failure's key path is built from
    each ``step`` only as the _Mismatch passes up."""
    try:
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise _Mismatch([], "object", value)
            return {key: _walk(sub, value.get(key, ABSENT), "." + key)
                    for key, sub in rule.items()}
        try:
            kept = rule.convert(value) if rule.convert else value
            if value is not ABSENT and rule.ok(kept):
                return kept
        except (AttributeError, TypeError, ValueError, OverflowError):
            pass
        for i, entry in enumerate(value if rule.entry and isinstance(value, list) else ()):
            _walk(rule.entry, entry, f"[{i}]")
        raise _Mismatch([], rule.kind, value)
    except _Mismatch as exc:
        exc.args[0].insert(0, step)
        raise


def _number(name, types, kinds, lo, hi, strict) -> Check:
    def ok(v):   # a number, or a numpy array: every entry, by dtype kind and range
        if isinstance(v, np.ndarray):
            return v.size == 0 or (v.dtype.kind in kinds and ok(v.min()) and ok(v.max()))
        return (isinstance(v, types) and not isinstance(v, bool) and math.isfinite(v)
                and (v > lo if strict else v >= lo) and v < hi)

    if hi < math.inf:
        name += f" in {'(' if strict else '['}{lo:g}, {hi:g})"
    elif lo > -math.inf:
        name += f" {'>' if strict else '>='} {lo:g}"
    return Check(name, ok)


def integer(lo=-math.inf, hi=math.inf) -> Check:
    """A Python or numpy int, not a bool, in [lo, hi)."""
    return _number("int", (int, np.integer), "iu", lo, hi, False)


def real(lo=-math.inf, hi=math.inf, *, strict=False) -> Check:
    """A finite int or float, not a bool, in [lo, hi), or (lo, hi) if strict."""
    return _number("real", (int, float, np.integer, np.floating), "iuf", lo, hi, strict)


OBJECT = Check("object", lambda v: isinstance(v, dict))


def one_of(value) -> Check:
    return Check(repr(value), lambda v: type(v) is type(value) and v == value)


def items(of: Check, n: int | None = None) -> Check:
    """A list of ``n`` entries, or one or more, that pass ``of``; a tuple."""
    return Check(f"list of {n or 'one or more'} ({of.kind})",
                 lambda v: (isinstance(v, (list, tuple)) and len(v) == (n or len(v) or 1)
                            and all(map(of.ok, v))),
                 lambda v: tuple(v) if isinstance(v, list) else v, entry=of)


def _as_array(v) -> np.ndarray:
    """``v`` as one numpy array; np.asarray reads a bool among numbers as
    0 or 1, so a bool entry raises (a C-level scan, no per-entry bytecode)."""
    if bool in map(type, v):
        raise TypeError("bool entry")
    return np.asarray(v)


def array(of: Check, n: int | None = None) -> Check:
    """A list of ``n`` numbers, or any number, read as one numpy array and
    checked whole by ``of``; an entry that fails, a bool among them, is
    named by its index."""
    return Check(f"list of {n or 'any number of'} ({of.kind})",
                 lambda a: a.ndim == 1 and len(a) == (n or len(a)) and of.ok(a),
                 _as_array, entry=of)
