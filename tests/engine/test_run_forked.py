"""``threads.run_forked``: one forked child per extra share, nothing left behind.

The contract is ``run_shards``'s: ``[fn(s) for s in shares]``, the first share
in the calling process, every child read and reaped before the call returns
or raises, and a child's exception re-raised in the caller.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import threads


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_and_double(share):
    return os.getpid(), share * 2


def test_results_come_back_in_share_order_from_one_process_per_share():
    out = threads.run_forked(_pid_and_double, [1, 2, 3])
    assert [value for _, value in out] == [2, 4, 6]
    pids = [pid for pid, _ in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    _no_children_left()


def test_one_share_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a one-share call forked"))
    assert threads.run_forked(_pid_and_double, [5]) == [(os.getpid(), 10)]


def _raise_in_share_one(share):
    if share == 1:
        raise ValueError(f"share {share} failed")
    return share


def test_a_childs_exception_is_reraised_with_its_type_message_and_traceback():
    with pytest.raises(ValueError, match="share 1 failed") as caught:
        threads.run_forked(_raise_in_share_one, [0, 1, 2])
    cause = caught.value.__cause__
    assert isinstance(cause, threads.ChildTraceback)
    assert "_raise_in_share_one" in str(cause)
    _no_children_left()


def test_the_callers_exception_still_reaps_every_child():
    with pytest.raises(ValueError, match="share 1 failed"):
        threads.run_forked(_raise_in_share_one, [1, 2, 3])
    _no_children_left()


def test_an_unpicklable_result_is_an_error_not_a_hang():
    def local_function(share):
        return (lambda: share) if share else share

    with pytest.raises(RuntimeError, match="could not send"):
        threads.run_forked(local_function, [0, 1])
    _no_children_left()


def test_a_share_that_raises_system_exit_never_returns_into_the_caller(tmp_path):
    seen = tmp_path / "pids"
    parent = os.getpid()

    def leave(share):
        if share:
            raise SystemExit(3)
        return share

    try:
        with pytest.raises(SystemExit) as caught:
            threads.run_forked(leave, [0, 1])
        assert caught.value.code == 3
    finally:
        # A child that got past run_forked would land here: it leaves a mark
        # and ends itself, so it never runs the rest of the session.
        with open(seen, "a", encoding="ascii") as out:
            out.write(f"{os.getpid()}\n")
        if os.getpid() != parent:
            os._exit(0)
    assert seen.read_text(encoding="ascii").split() == [str(parent)]
    _no_children_left()
