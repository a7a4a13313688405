"""Span recording around galefan's public functions, from outside the package.

``install`` replaces every module binding of each traced function with
a wrapper that records one span per call: a name, start and end times,
the index of the enclosing span, the operation id and a few attributes
read from the arguments and the result.  Spans stay in memory in
``Tracer.spans`` until the process writes them out at exit.

Every binding has to be replaced, not only the defining one:
``lp_feasible`` is imported by name into ``linalg``, ``fans``, ``gale``
and ``classify``, so wrapping ``galefan.linalg`` alone would miss most
calls.
"""

from __future__ import annotations

import functools
import sys
import time


def _lp_attrs(args, result):
    system = args[0]
    rows = system.equalities + system.inequalities
    bits = max(
        [abs(c).bit_length() for row, _ in rows for c in row]
        + [abs(rhs).bit_length() for _, rhs in rows]
        + [0]
    )
    return [bits, bool(result[0])]


def _feasible_attrs(args, result):
    return [bool(result[0])]


def _membership_attrs(args, result):
    return [bool(result[0]), bool(args[0].group.torsion)]


def _maxfan_attrs(args, result):
    return [len(result.cones)]


def _roots_attrs(args, result):
    fan, bound = args[0], args[1]
    return [(2 * bound + 1) ** fan.config.rank - 1, len(result)]


# span name -> (defining module, function, attribute reader).  Some are
# traced only so that their time leaves their caller's self time.
TARGETS = {
    "linalg.lp": ("linalg", "lp_feasible", _lp_attrs),
    "linalg.ilp": ("linalg", "ilp_feasible", _feasible_attrs),
    "linalg.snf": ("linalg", "smith_normal_form", None),
    "linalg.hnf": ("linalg", "row_hermite_form", None),
    "groups.membership": ("groups", "semigroup_membership", _membership_attrs),
    "groups.full_semigroup": ("groups", "generates_full_semigroup", None),
    "groups.admissible": ("groups", "is_admissible", None),
    "fans.validate": ("fans", "validate_fan", None),
    "fans.convex": ("fans", "is_strictly_convex", None),
    "fans.root_connecting": ("fans", "root_connecting", None),
    "fans.roots": ("fans", "roots_in_box", _roots_attrs),
    "gale.inverse": ("gale", "inverse_gale_transform", None),
    "classify.maxfan": ("classify", "build_maximal_fan", _maxfan_attrs),
}
JSONIO_PREFIXES = ("encode_", "decode_", "dumps", "loads")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return traced


def install() -> Tracer:
    """Wrap every galefan module binding of the traced functions."""
    import galefan.cli  # noqa: F401  (imports every galefan module)

    modules = [m for n, m in sys.modules.items() if n == "galefan" or n.startswith("galefan.")]
    tracer = Tracer()
    originals = {}
    for name, (modname, fname, attrs) in TARGETS.items():
        fn = getattr(sys.modules["galefan." + modname], fname)
        originals[id(fn)] = tracer.wrap(name, fn, attrs)
    jsonio = sys.modules["galefan.jsonio"]
    for fname, fn in vars(jsonio).items():
        if fname.startswith(JSONIO_PREFIXES) and callable(fn):
            originals[id(fn)] = tracer.wrap("jsonio", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
    return tracer
