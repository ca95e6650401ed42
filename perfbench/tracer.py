"""Outside-in tracer for a package's public functions and methods.

The tracer wraps, from outside, every public function and method that a
package's modules define, and rebinds each wrapped name in every module that
imported it (for example ``dgstructure.rank``, imported from ``linalg``).  The
package's source is not edited.

Each call is aggregated into its function's counters rather than stored as a
span, so memory stays bounded however many calls a run makes:

- ``calls``: completed calls;
- ``total_s``: summed duration (double counts recursive calls);
- ``self_s``: summed duration minus the time covered by traced child calls.

A function's layer is the module that defines it.  Summed over all traced
functions, self time equals the time spent inside top-level traced calls, so
the layers' self times plus the caller's own time account for the wall time.
"""
from __future__ import annotations

import functools
import inspect
import time
import types

# Operator and construction methods are public behaviour even though their
# names start with an underscore; other underscored names are private helpers,
# whose time counts towards the public function that calls them.
TRACED_DUNDERS = frozenset((
    "__init__", "__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
    "__eq__", "__hash__", "__repr__",
))


class FnStat:
    __slots__ = ("layer", "calls", "total_s", "self_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps callables and aggregates their calls.

    ``probes`` maps a qualified name (``"linalg.rank"``) to ``(before,
    after)``.  ``before(args, kwargs)`` runs before the call and returns a
    token; ``after(token, args, kwargs, result)`` runs after it returns.
    Either may be None.  Probe time is charged to the caller, like the
    wrapper's own cost.
    """

    def __init__(self, clock=time.perf_counter, probes=None):
        self.clock = clock
        self.probes = probes or {}
        self.stats: dict[str, FnStat] = {}
        # Child time of each open call; entry 0 collects top-level calls.
        self.stack = [0.0]

    @property
    def top_level_s(self) -> float:
        """Time spent inside top-level traced calls."""
        return self.stack[0]

    def wrap(self, fn, layer: str, name: str):
        stat = self.stats.setdefault(name, FnStat(layer))
        stack, clock = self.stack, self.clock
        before, after = self.probes.get(name, (None, None))

        if before is None and after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - stack.pop()
                    stack[-1] += dt
            return traced

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(token, args, kwargs, result)
            return result
        return probed

    def install(self, modules: dict[str, types.ModuleType],
                importers: tuple[types.ModuleType, ...] = ()) -> None:
        """Wrap what each module defines; ``modules`` maps layer -> module.

        Module-level functions are replaced by their wrappers wherever one of
        ``modules`` or ``importers`` holds a reference to them; methods are
        replaced on their class, which every importer shares.
        """
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj) and id(obj) not in replaced:
                    replaced[id(obj)] = self.wrap(obj, layer, f"{layer}.{attr}")
        for mod in (*modules.values(), *importers):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, layer, name)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, layer, name))

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for stat in self.stats.values():
            out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_s
        return out

    def stat(self, name: str) -> FnStat:
        """Counters of one function; zero if it was never wrapped."""
        return self.stats.get(name) or FnStat(name.split(".", 1)[0])
