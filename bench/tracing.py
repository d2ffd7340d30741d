"""Spans and operation records for one benchmark pass.

The benchmark times each layer from outside: every call it makes into a
public function of ``specgap`` is one *operation*, recorded and timed by
``Session.call`` whether tracing is on or off, with the host's reference
loop (``hostspeed.py``) timed before and after it.  With tracing on, each
operation also opens a span named ``<module>.<function>`` whose parent is
the span of the graph (or group) the call belongs to; that span's parent is
the pass span.  Spans stay in memory and are written out by the worker when
the run ends.

A span's self time is its duration minus the durations of its children.
The benchmark makes its calls one after another from a single caller, so the
children of a span never overlap and the sum is exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from hostspeed import reference


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Op:
    """One benchmark call into the library, with its deferred output checks."""

    module: str
    function: str
    group: str
    seconds: float = 0.0  # duration of the call itself, traced or not
    ref_before: float = 0.0  # hostspeed.reference() right before the call
    ref_after: float = 0.0  # and right after it (the next call's ref_before)
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Session:
    """Operations, spans and deferred checks of one pass.

    ``call`` runs a library function and queues its check; the checks run in
    ``run_checks`` after the pass has been timed.  With ``run_id`` None no
    spans are recorded and ``call`` adds only the operation record.
    """

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id
        self.ops: list[Op] = []
        self.spans: list[Span] = []
        self._pending: list = []  # (op, check, output)
        self._stack: list[int] = []
        self._group = ""
        self._raised = None

    @property
    def traced(self) -> bool:
        return self.run_id is not None

    @contextmanager
    def span(self, name: str, **tags):
        if not self.traced:
            yield None
            return
        sp = Span(
            span_id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            start=time.perf_counter(),
            tags=tags,
        )
        self.spans.append(sp)
        self._stack.append(sp.span_id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, module: str, fn, *args, check=None, tags=None, **kwargs):
        """Call ``fn`` as operation ``<module>.<fn.__name__>``.

        ``check(output)`` returns a list of problems and runs after the pass;
        ``tags(output)`` returns counters stored on the span.  An exception
        is recorded on the operation and re-raised, so the caller's group
        stops and the next group runs.
        """
        op = Op(module, fn.__name__, self._group, ref_before=reference())
        self.ops.append(op)
        with self.span(f"{module}.{fn.__name__}") as sp:
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                op.error = f"{type(exc).__name__}: {exc}"
                self._raised = exc
                raise
            finally:
                op.seconds = time.perf_counter() - t0
        if sp is not None and tags is not None:
            sp.tags.update(tags(out))
        if check is not None:
            self._pending.append((op, check, out))
        return out

    @contextmanager
    def group(self, label: str):
        """A graph or group of calls; an error inside ends the group only."""
        self._group = label
        try:
            with self.span(f"group.{label}"):
                yield
        except Exception as exc:
            if exc is not self._raised:  # the benchmark's own code failed
                self.ops.append(
                    Op("bench", "glue", label, error=f"{type(exc).__name__}: {exc}")
                )
        finally:
            self._group = ""

    def finish(self):
        """Time the reference loop once more and give each call its ref_after."""
        after = reference()
        for op, nxt in zip(self.ops, self.ops[1:] + [None]):
            op.ref_after = nxt.ref_before if nxt is not None else after

    def run_checks(self):
        for op, check, out in self._pending:
            try:
                op.problems.extend(check(out))
            except Exception as exc:
                op.problems.append(f"check raised {type(exc).__name__}: {exc}")
        self._pending.clear()

    def fail_count(self) -> int:
        return sum(op.failed for op in self.ops)


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the durations of its children."""
    out = {sp.span_id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.duration
    return out
