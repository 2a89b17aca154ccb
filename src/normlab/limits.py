"""Resource bounds for operations that enumerate elements or subgroups.

Operations that would exceed a bound raise ``OrderTooLarge`` (its subclass
``IndexTooLarge`` for coset actions) instead of silently degrading.
The active limits are process-global; scan workers run in separate
processes and install their own copy.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import InvalidParameter

ENUM_BOUND_ENV = "NORMLAB_ENUM_BOUND"


@dataclass(frozen=True)
class Limits:
    enum_bound: int = 10**6        # max group order for element enumeration
    subgroup_bound: int = 2000     # max group order for full subgroup enumeration
    index_bound: int = 10**5       # max coset-action degree for quotients


_active = Limits()


def get_limits() -> Limits:
    return _active


def set_limits(limits: Limits) -> None:
    global _active
    _active = limits


def parse_enum_bound(raw: str, source: str) -> int:
    """An enumeration bound given as text; InvalidParameter unless it is an
    integer >= 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParameter(f"{source} must be an integer >= 1, got {raw!r}")
    return value


def limits_from_env() -> Limits:
    raw = os.environ.get(ENUM_BOUND_ENV)
    if not raw:
        return Limits()
    return Limits(enum_bound=parse_enum_bound(raw, ENUM_BOUND_ENV))


@contextmanager
def using_limits(limits: Limits):
    global _active
    previous = _active
    _active = limits
    try:
        yield limits
    finally:
        _active = previous
