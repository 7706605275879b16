"""One memo scope for shared values: inside ``with memo_scope():``, shared_value(fn,
*args) computes fn(*args) once under the key (fn, *args), so reuse changes no bit.
Sweeps run on one thread, so a module global holds the innermost scope."""

from contextlib import contextmanager

__all__ = ["memo_scope", "current", "shared_value"]

_memo: dict | None = None


@contextmanager
def memo_scope():
    """A fresh memo for the block; the enclosing one returns after it."""
    global _memo
    outer, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = outer


def current() -> dict | None:
    """The memo of the innermost open scope, or None outside every scope."""
    return _memo


def shared_value(fn, *args):
    """fn(*args), computed once per scope; outside every scope, on each call."""
    memo = _memo
    if memo is None:
        return fn(*args)
    key = (fn, *args)
    val = memo.get(key)
    if val is None:
        val = memo[key] = fn(*args)
    return val
