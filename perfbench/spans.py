"""In-memory span tracer that times library functions from outside.

`Tracer.installed` replaces a function on every module that refers to it
(so the function is traced as each calling module sees it, e.g. both
`ldrlle.weights.lle_weights` and `ldrlle.diagnostics.lle_weights`) with a
wrapper that records one span per call.  A span is
[id, parent id, name, start, end, raised, counters]; spans stay in memory
until the benchmark writes them out.  Nothing under the library's own source
changes, and every original function is put back when the block exits.
"""

import functools
import time
from contextlib import contextmanager

ID, PARENT, NAME, START, END, RAISED, COUNTERS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, False, None])
        self._stack.append(sid)
        return sid

    def _exit(self, sid, raised):
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[RAISED] = raised
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self._enter(name)
        try:
            yield
        except BaseException:
            self._exit(sid, True)
            raise
        self._exit(sid, False)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(sid, True)
                raise
            self._exit(sid, False)
            if observe is not None:
                self.spans[sid][COUNTERS] = observe(result)
            return result
        return traced

    @contextmanager
    def installed(self, modules, targets, observers):
        """Wrap each target, a (home module, function name, span name) triple.

        Every attribute of `modules` that is the target function object gets
        the wrapper until the block exits.  A target missing from its home
        module is skipped, so the benchmark keeps running after a refactor
        renames it (its metrics then read zero).  observers maps a span name
        to a function of the call's result that returns a dict of counters
        stored on the span.
        """
        saved = []
        for home, fname, name in targets:
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)


def summarize(spans, root_name):
    """Aggregate the spans that descend from root spans named `root_name`.

    Returns (roots, per_name) where roots is the number of such root spans
    and per_name maps a span name to a dict with calls, total_s, self_s,
    errors, durations (a list) and under (ancestor span name -> number of
    calls made beneath such a span).
    A span's self time is its duration minus its children's durations.
    """
    root_of = {}
    child_time = {}
    ancestors = {}
    interned = {}  # (parent's ancestors, parent's name) -> shared frozenset
    roots = 0
    for span in spans:
        sid, parent = span[ID], span[PARENT]
        if parent == -1:
            root_of[sid] = sid
            ancestors[sid] = frozenset()
            if span[NAME] == root_name:
                roots += 1
        else:
            root_of[sid] = root_of[parent]
            key = (ancestors[parent], spans[parent][NAME])
            if key not in interned:
                interned[key] = key[0] | {key[1]}
            ancestors[sid] = interned[key]
            child_time[parent] = child_time.get(parent, 0.0) + span[END] - span[START]
    per_name = {}
    for span in spans:
        sid = span[ID]
        if span[PARENT] == -1 or spans[root_of[sid]][NAME] != root_name:
            continue
        dur = span[END] - span[START]
        st = per_name.setdefault(span[NAME], {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0,
            "durations": [], "under": {},
        })
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_time.get(sid, 0.0)
        st["errors"] += int(span[RAISED])
        st["durations"].append(dur)
        for name in ancestors[sid]:
            st["under"][name] = st["under"].get(name, 0) + 1
    return roots, per_name


def first_root_counters(spans, root_name):
    """Counters of the spans under the first root span named `root_name`.

    Returns {(span name, counter name): value summed over that root's spans}.
    A root's descendants follow it contiguously, up to the next root.
    """
    start = next((s[ID] for s in spans if s[PARENT] == -1 and s[NAME] == root_name), None)
    counters = {}
    if start is None:
        return counters
    for span in spans[start + 1:]:
        if span[PARENT] == -1:
            break
        for key, value in (span[COUNTERS] or {}).items():
            counters[span[NAME], key] = counters.get((span[NAME], key), 0) + value
    return counters


def write_spans(spans, path):
    """Write spans as CSV: id, parent, name, start, end, raised."""
    lines = ["id,parent,name,start,end,raised"]
    for s in spans:
        lines.append(f"{s[ID]},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r},{int(s[RAISED])}")
    path.write_text("\n".join(lines) + "\n")
