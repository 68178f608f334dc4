"""Elementwise primitives that keep a scalar a Python float.

The distribution and interval kernels, and the fitter's formulas, take
scalars or arrays.  These few primitives are where the two differ: on an
array they make the NumPy call, on a scalar the `math` (or plain Python)
one, which gives the same correctly rounded result without NumPy's
per-call cost.  A forecast for one trial then runs the kernels' own lines
on floats, and a batch of trials runs them on arrays.
"""

from __future__ import annotations

import math

import numpy as np

_ARRAY = np.ndarray


def is_batch(x) -> bool:
    return isinstance(x, _ARRAY)


def plain(values):
    """A 0-d result as a Python float, a batch as a float array."""
    return values.astype(float, copy=False) if is_batch(values) and values.ndim else float(values)


def sqrt(x):
    return np.sqrt(x) if isinstance(x, _ARRAY) else math.sqrt(x)


def floor(x):
    return np.floor(x) if isinstance(x, _ARRAY) else math.floor(x)


def ceil(x):
    return np.ceil(x) if isinstance(x, _ARRAY) else math.ceil(x)


def where(condition, yes, no):
    """``yes`` where ``condition`` holds, else ``no``; both already computed."""
    if isinstance(condition, _ARRAY) or isinstance(yes, _ARRAY) or isinstance(no, _ARRAY):
        return np.where(condition, yes, no)
    return yes if condition else no


def larger(a, b):
    """max(a, b) as Python's max reads it, elementwise: b only where b > a."""
    above = b > a
    if isinstance(above, _ARRAY):
        return np.where(above, b, a)
    return b if above else a


def smaller(a, b):
    """min(a, b) as Python's min reads it, elementwise: b only where b < a."""
    below = b < a
    if isinstance(below, _ARRAY):
        return np.where(below, b, a)
    return b if below else a


def column(values):
    """Per-trial ``values`` with a trailing axis, to meet per-centre arrays;
    one trial's scalar meets them as it is."""
    if isinstance(values, _ARRAY) and values.ndim:
        return values[..., None]
    return values


def negate(ok):
    return ~ok if isinstance(ok, _ARRAY) else not ok


def every(ok) -> bool:
    return bool(ok.all()) if isinstance(ok, _ARRAY) else bool(ok)


def some(ok) -> bool:
    return bool(ok.any()) if isinstance(ok, _ARRAY) else bool(ok)
