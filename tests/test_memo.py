"""The one memo scope that shares values between computations."""

import pytest

from anhgas import memo
from anhgas.memo import memo_scope, shared_value


def _counted():
    calls = []

    def fn(*args):
        calls.append(args)
        return sum(args)

    return fn, calls


def test_outside_every_scope_each_call_computes():
    fn, calls = _counted()
    assert memo.current() is None
    assert [shared_value(fn, 1.0, 2.0) for _ in range(3)] == [3.0] * 3
    assert len(calls) == 3


def test_a_scope_computes_each_key_once():
    fn, calls = _counted()
    other, other_calls = _counted()
    with memo_scope():
        values = [shared_value(fn, 1.0, 2.0), shared_value(fn, 1.0, 2.0),
                  shared_value(fn, 2.0, 1.0), shared_value(other, 1.0, 2.0)]
    assert values == [3.0] * 4
    # the key holds the function and every argument, in order
    assert calls == [(1.0, 2.0), (2.0, 1.0)] and other_calls == [(1.0, 2.0)]


def test_a_nested_scope_is_fresh_and_restores_the_enclosing_one():
    fn, calls = _counted()
    with memo_scope():
        outer = memo.current()
        shared_value(fn, 1.0)
        with pytest.raises(ZeroDivisionError), memo_scope():
            assert memo.current() == {}
            shared_value(fn, 1.0)
            1.0 / 0.0
        assert memo.current() is outer
        shared_value(fn, 1.0)
    assert len(calls) == 2 and memo.current() is None
