"""Hash-once frozen dataclasses.

Memo keys in this program are built from large frozen values: predicate
trees, the attribute universe, route-map clauses.  A dataclass's
generated ``__hash__`` rehashes every field, recursively, on every call,
so a memo lookup keyed on a predicate tree walks the whole tree each
time.  :func:`cache_hash` makes a class compute that hash once per
instance.

The cached value never leaves the process: ``str`` hashes are salted per
process (``PYTHONHASHSEED``), so a hash computed here is wrong in a worker
process or in a later process that loads a workspace cache.  Pickled
state is therefore exactly what it would be without the cache.
"""

from __future__ import annotations

from typing import Any, TypeVar

T = TypeVar("T", bound=type)


def cache_hash(cls: T) -> T:
    """Class decorator for a frozen dataclass: memoise its hash per instance.

    Apply it above ``@dataclass(frozen=True)``.  Sound because a frozen
    instance's fields never change after ``__post_init__``.
    """
    field_hash = cls.__hash__

    def __hash__(self: Any) -> int:
        try:
            return self._cached_hash  # type: ignore[no-any-return]
        except AttributeError:
            value = field_hash(self)
            object.__setattr__(self, "_cached_hash", value)
            return value

    def __getstate__(self: Any) -> dict[str, Any] | None:
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        # An empty state pickles as no state at all, as it does by default.
        return state or None

    cls.__hash__ = __hash__  # type: ignore[assignment]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    return cls
