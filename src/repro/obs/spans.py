"""SpanTracer: nested, decision-attributed spans on the simulation clock.

A span is one timed region of *simulated* time — a daemon decision cycle,
the PCM sample inside it, the MSR actuation write. Timestamps are always
passed in by the caller (``now_s + meter.time_s``-style), never read from
a clock, so tracing is deterministic and RL001-clean by construction.

Nesting is tracked with an explicit stack: ``begin`` pushes, ``end`` pops
(closing any still-open children first, so an exception that unwinds past
an inner span cannot corrupt the tree). Span ids are consecutive integers
— two runs with the same seed produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ObsError
from repro.obs.registry import validate_metric_name

__all__ = ["Span", "SpanTracer"]


#: Attribute types :func:`_coerce_attr` returns unchanged, by exact type.
#: Attributes are almost always plain, so the recorders test the set of
#: their types once and coerce only when something else turns up.
_PLAIN_ATTR_TYPES = frozenset((type(None), bool, int, float, str))


def _coerce_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce the values of ``attrs`` (a fresh ``**kwargs`` dict) in place."""
    for k, v in attrs.items():
        attrs[k] = _coerce_attr(v)
    return attrs


def _coerce_attr(value: object) -> object:
    """Normalise an attribute value for lossless JSON export."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    try:
        # numpy scalars and friends: keep the number, drop the dtype.
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(value)


@dataclass
class Span:
    """One timed region of simulated time.

    ``end_s`` is ``None`` while the span is open; ``ok`` flips to False
    when the span was aborted (its cycle raised).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_s: float
    end_s: Optional[float] = None
    ok: bool = True
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration (0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s


class SpanTracer:
    """Records nested spans with caller-supplied simulated timestamps."""

    __slots__ = ("spans", "_stack", "_next_id")

    def __init__(self) -> None:
        #: Every span ever begun, in begin order (open spans included).
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, start_s: float, category: str = "span", **attrs: object) -> int:
        """Open a span at simulated time ``start_s``; returns its id."""
        span = self._record(name, category, start_s, None, attrs)
        self._stack.append(span)
        return span.span_id

    def end(self, span_id: int, end_s: float, **attrs: object) -> Span:
        """Close the span ``span_id`` at ``end_s``, merging extra attributes.

        Any children still open above it on the stack are closed at the
        same timestamp (an exception unwound past them).
        """
        stack = self._stack
        if stack and stack[-1].span_id == span_id:
            span = stack.pop()
        else:
            span = self._unwind(span_id, end_s, failed=False)
        span.end_s = end_s
        if attrs:
            if not _PLAIN_ATTR_TYPES.issuperset(map(type, attrs.values())):
                _coerce_attrs(attrs)
            span.attrs.update(attrs)
        return span

    def abort(self, span_id: int, end_s: float, **attrs: object) -> Span:
        """Close ``span_id`` marking it (and unwound children) failed."""
        span = self._unwind(span_id, end_s, failed=True)
        span.end_s = end_s
        span.ok = False
        span.attrs.update(_coerce_attrs(attrs))
        return span

    def instant(self, name: str, time_s: float, category: str = "span", **attrs: object) -> Span:
        """Record a zero-duration span at ``time_s``."""
        return self._record(name, category, time_s, time_s, attrs)

    def complete(
        self, name: str, start_s: float, end_s: float, category: str = "span", **attrs: object
    ) -> Span:
        """Record a span that has already ended: ``begin`` + ``end`` in one
        call, for a region that opened no span of its own."""
        return self._record(name, category, start_s, end_s, attrs)

    def _record(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: Optional[float],
        attrs: Dict[str, object],
    ) -> Span:
        """Append a new span under the innermost open one."""
        validate_metric_name(name)
        if attrs and not _PLAIN_ATTR_TYPES.issuperset(map(type, attrs.values())):
            _coerce_attrs(attrs)
        stack = self._stack
        span = Span(
            self._next_id,
            stack[-1].span_id if stack else None,
            name,
            category,
            start_s,
            end_s,
            True,
            attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, end_s: float) -> None:
        """Close every still-open span (end of run)."""
        while self._stack:
            self._stack.pop().end_s = end_s

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        """Number of spans currently open."""
        return len(self._stack)

    def named(self, name: str) -> List[Span]:
        """All spans called ``name``, in begin order."""
        return [s for s in self.spans if s.name == name]

    def _unwind(self, span_id: int, end_s: float, failed: bool) -> Span:
        """Pop the open span ``span_id``, closing the spans still open above
        it at ``end_s`` (marked failed when ``failed``)."""
        stack = self._stack
        for span in reversed(stack):
            if span.span_id == span_id:
                break
        else:
            raise ObsError(f"span id {span_id} is not open (double end, or never begun)")
        while stack[-1] is not span:
            orphan = stack.pop()
            orphan.end_s = end_s
            if failed:
                orphan.ok = False
        return stack.pop()

    def __len__(self) -> int:
        return len(self.spans)
