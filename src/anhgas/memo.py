"""One memo scope for shared values: inside ``with memo_scope():``, shared_value(fn,
*args) computes fn(*args) once under the key (fn, *args), so reuse changes no bit.
A ContextVar holds the scope, so each thread of the sweeps' pool has its own."""

from contextlib import contextmanager
from contextvars import ContextVar

_MEMO: ContextVar[dict | None] = ContextVar("anhgas_memo", default=None)


@contextmanager
def memo_scope():
    """A fresh memo for the block; the enclosing one returns after it."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def current() -> dict | None:
    """The memo of the innermost open scope, or None outside every scope."""
    return _MEMO.get()


def shared_value(fn, *args):
    """fn(*args), computed once per scope; outside every scope, on each call."""
    memo = _MEMO.get()
    if memo is None:
        return fn(*args)
    key = (fn, *args)
    val = memo.get(key)
    if val is None:
        val = memo[key] = fn(*args)
    return val
