"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of every ``hsprolong`` module
in each module namespace that binds it (``hasse_derive`` is bound in
``basefield``, ``diffpoly``, ``presentations``, ``layered``, ``checks`` and the
package), the methods of the program's classes (arithmetic dunders included),
and the suite table behind ``check``.  ``Tracer.restore`` puts every original
back.  Nothing inside ``src/`` changes.

Spans are kept in memory as per-name aggregates (calls, inclusive time and
self time, i.e. span duration minus the time covered by child spans); a
stack of child-time accumulators gives the self time.  Two counters are
gathered at their layer boundary: non-constant ``poly_gcd`` results and
``hasse_derive`` calls whose (alpha, a) already occurred in the same job.
"""

from __future__ import annotations

import enum
import functools
import time
import types

# Bookkeeping or comparison methods, not layer work; wrapping them would only
# multiply the tracing overhead.
_SKIP_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__eq__", "__ne__", "__hash__",
    "__bool__", "__repr__", "__str__", "__setattr__", "__delattr__",
    "__getattribute__", "__init_subclass__",
})


def _method_name(name: str) -> str:
    return name.strip("_") if name.startswith("__") and name.endswith("__") else name


def _elem_key(a) -> tuple:
    return (frozenset(a.num.terms.items()), frozenset(a.den.terms.items()))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.gcd_nontrivial = 0
        self.hasse_repeats = 0
        self._stack: list[float] = []
        self._seen_hasse: set = set()
        self._undo: list = []  # (setter, key, original) in install order

    def begin_job(self) -> None:
        self._seen_hasse.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_gcd(self, args, result) -> None:
        if not result.is_const():
            self.gcd_nontrivial += 1

    def _observe_hasse(self, args, result) -> None:
        key = (tuple(args[0]), _elem_key(args[1]))
        if key in self._seen_hasse:
            self.hasse_repeats += 1
        else:
            self._seen_hasse.add(key)

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, key, value, mapping: bool = False) -> None:
        if mapping:
            self._undo.append((owner.__setitem__, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((functools.partial(setattr, owner), key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, modules, suites: dict) -> None:
        """Wrap the public callables of ``modules`` and the ``suites`` table."""
        observers = {"basefield.poly_gcd": self._observe_gcd, "basefield.hasse_derive": self._observe_hasse}
        wrapped: dict = {}  # original function -> wrapper, shared by every binding
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("hsprolong"):
                    if obj not in wrapped:
                        name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                        wrapped[obj] = self._wrap(name, obj, observers.get(name))
                    self._set(mod, attr, wrapped[obj])
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (enum.Enum, BaseException))):
                    self._install_class(obj, mod.__name__.rsplit(".", 1)[-1], wrapped)
        for suite, fn in list(suites.items()):
            self._set(suites, suite, self._wrap(f"checks.{suite}", fn), mapping=True)

    def _install_class(self, cls, module: str, wrapped: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in _SKIP_METHODS:
                continue
            fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
            if not isinstance(fn, types.FunctionType):
                continue
            if fn not in wrapped:  # `__radd__ = __add__` shares the `add` span
                wrapped[fn] = self._wrap(f"{module}.{cls.__name__}.{_method_name(fn.__name__)}", fn)
            value = type(obj)(wrapped[fn]) if fn is not obj else wrapped[fn]
            self._set(cls, attr, value)

    def restore(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)
