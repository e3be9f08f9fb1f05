"""Outside-in tracing: wrap the public module-level functions of each cefgl
layer from the benchmark, without touching the program's source.

The wrappers stay on the call path because the layers call one another
through module attributes (``gnn.loss_and_grad``) and call their own
functions through module globals, which are the same dictionary.  Names
bound at import time elsewhere (``harness._ROUND_FNS`` holds the round
functions) bypass the wrappers; their time shows up as the enclosing span's
self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Scheduled for deletion (ROADMAP item 3); a trace must not start to depend
# on them.
SKIP = frozenset({"server_aggregate", "loss_and_grad_at_sum", "fedprox_local_step"})

# (args, kwargs, result) -> work units of one call.
WorkFn = Callable[[tuple, dict, object], float]


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0


@dataclass
class Tracer:
    """Per-function call counts, inclusive and self time, and work counts.

    Self time is a call's duration minus the durations of the traced calls
    it made.  ``clock`` is replaceable so tests can drive exact arithmetic.
    """

    clock: Callable[[], float] = time.perf_counter
    stats: Dict[str, FnStats] = field(default_factory=dict)
    _stack: List[List[float]] = field(default_factory=list)
    _saved: List[Tuple[ModuleType, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, work: Optional[WorkFn] = None) -> Callable:
        st = self.stats.setdefault(name, FnStats())
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - children[0]
            if work is not None:
                st.work += work(args, kwargs, result)
            return result

        return traced

    def install(self, modules: Iterable[ModuleType], work: Dict[str, WorkFn]) -> None:
        """Replace every public function defined in each module by a wrapper
        named ``<layer>.<function>``, layer being the module's last name."""
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(name, obj, work.get(name)))

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
