"""Command-line interface.

``COMMANDS`` maps each command and action to its handler; the parser
offers exactly its keys, in this order:

    gale      transform | inverse | linear | canonical | equivalent
    check     admissible | suitable | fan | strongly-regular | one-skeleton
    fan       build-max | roots | connect | he-pairs
    gset      check | to-fan | from-fan | enumerate
    classify  pair | semisimple | big-open

Inputs are JSON files (or standard input); ``gale equivalent``, ``gset
from-fan`` and ``classify big-open`` read their second input from the
file named by ``-j``, ``-f`` or ``-m``.  Each command writes one
deterministic line of JSON to standard output, its result or an error
envelope, and exits with:

    0  a computed result, or yes from a yes/no command
    1  no from a yes/no command: ``gale equivalent``, every ``check``,
       ``fan connect``, ``gset check`` and ``classify big-open``
    2  malformed input or command line, a violated precondition, an
       invalid fan, or an integer in the result past the digit limit
    3  a configured cap was exceeded

A command line the parser rejects, and a second input file that is
missing or names standard input when the first input reads it, get the
``input`` envelope.  With no command at all, the usage goes to
standard error and the exit code is 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional

from . import classify, fans, gale, groups, jsonio
from .errors import (
    CapExceededError,
    DegenerateConfigurationError,
    GalefanError,
    InvalidFanError,
    InvalidRootError,
    NotAdmissibleError,
    NotGeneratingError,
)
from .jsonio import InputFormatError, dumps


def _read_json(path: Optional[str]) -> Any:
    if path is None or path == "-":
        return jsonio.loads(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror}") from exc


def _second_file(first: Optional[str], path: Optional[str], flag: str) -> str:
    # stdin can hold only one of the two inputs
    if path is None:
        raise InputFormatError(f"{flag}: the second input file is missing")
    if path == "-" and first in (None, "-"):
        raise InputFormatError(f"{flag}: standard input already holds the first input")
    return path


def _decision(payload: dict, yes: bool) -> tuple[dict, int]:
    """The answer of a yes/no command: exit 0 for yes, 1 for no."""
    return payload, 0 if yes else 1


def _gale_transform(args) -> tuple[dict, int]:
    config = jsonio.decode_configuration(_read_json(args.input))
    _, coll = gale.lattice_gale_transform(config)
    return jsonio.encode_pair(coll), 0


def _gale_inverse(args) -> tuple[dict, int]:
    coll = jsonio.decode_pair(_read_json(args.input))
    config = gale.inverse_gale_transform(coll)
    return {"configuration": jsonio.encode_configuration(config)}, 0


def _gale_linear(args) -> tuple[dict, int]:
    config = jsonio.decode_configuration(_read_json(args.input))
    dim, vectors = gale.linear_gale_transform(config)
    return {"dimension": dim, "vectors": [jsonio.encode_vector(v) for v in vectors]}, 0


def _gale_canonical(args) -> tuple[dict, int]:
    config = jsonio.decode_configuration(_read_json(args.input))
    return {"configuration": jsonio.encode_configuration(gale.canonical_form(config))}, 0


def _gale_equivalent(args) -> tuple[dict, int]:
    other = _second_file(args.input, args.other, "-j/--other")
    left = jsonio.decode_pair(_read_json(args.input))
    right = jsonio.decode_pair(_read_json(other))
    eq = gale.pairs_equivalent(left, right)
    return _decision({"equivalent": eq}, eq)


def _check_admissible(args) -> tuple[dict, int]:
    coll = jsonio.decode_pair(_read_json(args.input))
    res = groups.is_admissible(coll)
    payload = {
        "admissible": res.admissible,
        "generates": res.generates,
        "failing_index": jsonio.encode_index(res.failing_index),
    }
    return _decision(payload, res.admissible)


def _check_suitable(args) -> tuple[dict, int]:
    config = jsonio.decode_configuration(_read_json(args.input))
    res = fans.is_suitable(config)
    witnesses = None if res.witnesses is None else [jsonio.encode_vector(w) for w in res.witnesses]
    payload = {
        "suitable": res.suitable,
        "witnesses": witnesses,
        "failing_index": jsonio.encode_index(res.failing_index),
    }
    return _decision(payload, res.suitable)


def _check_fan(args) -> tuple[dict, int]:
    try:
        jsonio.decode_fan(_read_json(args.input))
        report = fans.FanReport(True)
    except InvalidFanError as exc:
        report = exc.report
    violations = [
        {"code": v.code, "indices": jsonio.encode_index(v.indices), "message": v.message}
        for v in report.violations
    ]
    return _decision({"valid": report.valid, "violations": violations}, report.valid)


def _check_strongly_regular(args) -> tuple[dict, int]:
    fan = jsonio.decode_fan(_read_json(args.input))
    res = fans.is_strongly_regular(fan)
    payload = {
        "strongly_regular": res.strongly_regular,
        "certificate": [
            {"cone": jsonio.encode_index(c), "facet": jsonio.encode_index(f),
             "root": jsonio.encode_root(r)}
            for c, f, r in res.certificate
        ],
        "failing_cone": jsonio.encode_index(res.failing_cone),
    }
    return _decision(payload, res.strongly_regular)


def _check_one_skeleton(args) -> tuple[dict, int]:
    config = jsonio.decode_configuration(_read_json(args.input))
    ok = fans.one_skeleton_strongly_regular(config)
    return _decision({"strongly_regular": ok}, ok)


def _fan_build_max(args) -> tuple[dict, int]:
    coll = jsonio.decode_pair(_read_json(args.input))
    return jsonio.encode_fan(classify.build_maximal_fan(coll)), 0


def _fan_roots(args) -> tuple[dict, int]:
    bound = jsonio.decode_flag(args.bound, "--bound")
    if len(bound) != 1 or bound[0] < 0:
        raise InputFormatError("roots: --bound must be a non-negative integer")
    fan = jsonio.decode_fan(_read_json(args.input))
    roots = fans.roots_in_box(fan, bound[0])
    return {"roots": [jsonio.encode_root(r) for r in roots]}, 0


def _fan_connect(args) -> tuple[dict, int]:
    fan = jsonio.decode_fan(_read_json(args.input))
    # comma-separated 1-based indices; a blank value is the empty set
    size = len(fan.config)
    cone, facet = (
        jsonio.decode_index_set(jsonio.decode_flag(text, what), size, what)
        for text, what in ((args.cone, "--cone"), (args.facet, "--facet"))
    )
    try:
        ok, root = fans.root_connecting(fan, cone, facet)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    payload = {"connected": ok, "root": None if root is None else jsonio.encode_root(root)}
    return _decision(payload, ok)


def _fan_he_pairs(args) -> tuple[dict, int]:
    fan = jsonio.decode_fan(_read_json(args.input))
    data = {"covector": jsonio.decode_flag(args.covector, "--covector")}
    if args.ray is not None:
        data["ray"] = args.ray
    root = jsonio.decode_root(data, fan.config.rank, len(fan.config))
    pairs = fans.he_connected_pairs(fan, root)
    return {
        "pairs": [{"facet": jsonio.encode_index(f), "cone": jsonio.encode_index(c)} for f, c in pairs]
    }, 0


def _gset_check(args) -> tuple[dict, int]:
    gset = jsonio.decode_gset(_read_json(args.input))
    res = classify.is_connected_gset(gset)
    violation = None
    if res.violation is not None:
        kind, detail = res.violation
        if kind == "C1":
            violation = {"condition": kind, "index": jsonio.encode_index(detail)}
        elif kind == "C2":
            member, i = jsonio.encode_index(detail)
            violation = {"condition": kind, "member": member, "index": i}
        else:
            violation = {"condition": kind, "member": jsonio.encode_index(detail)}
    return _decision({"connected": res.connected, "violation": violation}, res.connected)


def _gset_to_fan(args) -> tuple[dict, int]:
    gset = jsonio.decode_gset(_read_json(args.input))
    config = gale.inverse_gale_transform(gset.collection)
    return jsonio.encode_fan(classify.subfan_from_gset(gset, config)), 0


def _gset_from_fan(args) -> tuple[dict, int]:
    fan_file = _second_file(args.input, args.fan, "-f/--fan")
    coll = jsonio.decode_pair(_read_json(args.input))
    fan = jsonio.decode_fan(_read_json(fan_file))
    maximal = classify.build_maximal_fan(coll)
    try:
        gset = classify.gset_from_subfan(coll, fan, maximal)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return jsonio.encode_gset(gset), 0


def _gset_enumerate(args) -> tuple[dict, int]:
    coll = jsonio.decode_pair(_read_json(args.input))
    gsets = classify.enumerate_connected_gsets(coll)
    return {"gsets": [jsonio.encode_gset(g) for g in gsets]}, 0


def _classify_pair(args) -> tuple[dict, int]:
    coll = jsonio.decode_pair(_read_json(args.input))
    rep = classify.classify_pair(coll)
    return {
        "affine": rep.affine,
        "complete": rep.complete,
        "quasiaffine": rep.quasiaffine,
        "product_decomposition": jsonio.encode_index(rep.product_parts),
        "rank_one_type": rep.rank_one_type,
        "type2_regular_locus": rep.type2_regular_locus,
        "semisimple_shape": rep.semisimple_shape,
    }, 0


def _classify_semisimple(args) -> tuple[dict, int]:
    coll = jsonio.decode_pair(_read_json(args.input))
    rep = classify.semisimple_shape(coll)
    return {
        "is_shape": rep.is_shape,
        "value_groups": jsonio.encode_index(rep.value_groups),
        "coincides_with_maximal": rep.coincides_with_maximal,
        "gset": None if rep.gset is None else jsonio.encode_gset(rep.gset),
    }, 0


def _classify_big_open(args) -> tuple[dict, int]:
    maximal_file = _second_file(args.input, args.maximal, "-m/--maximal")
    fan = jsonio.decode_fan(_read_json(args.input))
    maximal = jsonio.decode_fan(_read_json(maximal_file))
    try:
        ok = classify.is_big_open_subfan(fan, maximal)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return _decision({"big_open": ok}, ok)


# command -> action -> handler, in the order the usage lists them
COMMANDS = {
    "gale": {"transform": _gale_transform, "inverse": _gale_inverse, "linear": _gale_linear,
             "canonical": _gale_canonical, "equivalent": _gale_equivalent},
    "check": {"admissible": _check_admissible, "suitable": _check_suitable, "fan": _check_fan,
              "strongly-regular": _check_strongly_regular, "one-skeleton": _check_one_skeleton},
    "fan": {"build-max": _fan_build_max, "roots": _fan_roots, "connect": _fan_connect,
            "he-pairs": _fan_he_pairs},
    "gset": {"check": _gset_check, "to-fan": _gset_to_fan, "from-fan": _gset_from_fan,
             "enumerate": _gset_enumerate},
    "classify": {"pair": _classify_pair, "semisimple": _classify_semisimple,
                 "big-open": _classify_big_open},
}


def _fixture_suite():
    Z = groups.AbelianGroup(1, ())
    z3 = groups.AbelianGroup(0, (3,))
    triv = groups.AbelianGroup(0, ())

    def ints(*vals):
        return groups.ElementCollection(Z, tuple(Z.element((v,)) for v in vals))

    def tors(group, *vals):
        return groups.ElementCollection(
            group, tuple(group.element((), v if isinstance(v, tuple) else (v,)) for v in vals)
        )

    def fx_transform():
        g, coll = gale.lattice_gale_transform(
            fans.VectorConfiguration(2, ((1, 0), (1, 2)))
        )
        return g == groups.AbelianGroup(0, (2,)) and [e.torsion for e in coll] == [(1,), (1,)]

    def fx_linear_zero():
        dim, vectors = gale.linear_gale_transform(
            fans.VectorConfiguration(2, ((1, 0), (1, 2)))
        )
        return dim == 0 and vectors == ((), ())

    def fx_p2():
        fan = classify.build_maximal_fan(ints(1, 1, 1))
        want = {frozenset(s) for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]}
        return set(fan.cones) == want and fans.is_strongly_regular(fan).strongly_regular

    def fx_z3_11():
        fan = classify.build_maximal_fan(tors(z3, 1, 1))
        canon = gale.canonical_form(fan.config).vectors
        return canon == ((1, 0), (2, 3)) and set(fan.cones) == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
        }

    def fx_z3_12():
        fan = classify.build_maximal_fan(tors(z3, 1, 2))
        canon = gale.canonical_form(fan.config).vectors
        return canon == ((1, 0), (1, 3)) and set(fan.cones) == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
        }

    def fx_a2():
        coll = groups.ElementCollection(triv, (triv.zero(), triv.zero()))
        fan = classify.build_maximal_fan(coll)
        return len(fan.cones) == 4 and classify.classify_pair(coll).affine

    def fx_p1123():
        fan = classify.build_maximal_fan(ints(1, 1, 2, 3))
        cones = {tuple(sorted(c)) for c in fan.cones}
        return (0, 1) not in cones and len(cones) == 12

    def fx_skeleton_gset():
        coll = ints(1, 1, 1)
        maximal = classify.build_maximal_fan(coll)
        sk = fans.one_skeleton_fan(maximal.config)
        gs = classify.gset_from_subfan(coll, sk, maximal)
        res = classify.is_connected_gset(gs)
        full = classify.gset_from_subfan(coll, maximal, maximal)
        return (
            not res.connected
            and res.violation[0] == "C3"
            and classify.is_connected_gset(full).connected
            and not fans.is_strongly_regular(sk).strongly_regular
        )

    def fx_shape():
        g = groups.AbelianGroup(0, (2, 2, 2))
        gens = [tuple(1 if j == i else 0 for j in range(3)) for i in range(3)]
        coll = groups.ElementCollection(
            g, tuple(g.element((), t) for t in gens for _ in range(2))
        )
        rep = classify.semisimple_shape(coll)
        cls = classify.classify_pair(coll)
        return rep.is_shape and rep.coincides_with_maximal and cls.quasiaffine

    def fx_types():
        a = classify.classify_pair(ints(1, 1, 2, 3))
        b = classify.classify_pair(ints(2, 2, 3, 3))
        c = classify.classify_pair(ints(1, 1, -1, -1))
        return (
            a.rank_one_type == 2
            and a.type2_regular_locus is False
            and b.type2_regular_locus is True
            and c.rank_one_type == 1
            and c.quasiaffine
        )

    def fx_a2_roots():
        coll = groups.ElementCollection(triv, (triv.zero(), triv.zero()))
        fan = classify.build_maximal_fan(coll)
        roots = fans.roots_in_box(fan, 1)
        got = {(r.covector, r.distinguished_ray) for r in roots}
        return got == {((-1, 0), 0), ((-1, 1), 0), ((0, -1), 1), ((1, -1), 1)}

    def fx_product():
        g2 = groups.AbelianGroup(2, ())
        coll = groups.ElementCollection(
            g2,
            tuple(g2.element(v) for v in [(1, 0), (1, 0), (0, 1), (0, 1), (0, 1)]),
        )
        rep = classify.classify_pair(coll)
        return rep.complete and rep.product_parts == ((0, 1), (2, 3, 4))

    return [
        ("gale-transform-halfplane", fx_transform),
        ("gale-linear-zero-dim", fx_linear_zero),
        ("max-fan-projective-plane", fx_p2),
        ("regular-locus-cyclic3-equal", fx_z3_11),
        ("regular-locus-cyclic3-mixed", fx_z3_12),
        ("max-fan-affine-plane", fx_a2),
        ("weighted-1123-excluded-cone", fx_p1123),
        ("skeleton-gset-not-connected", fx_skeleton_gset),
        ("semisimple-shape-two-torsion", fx_shape),
        ("rank-one-types", fx_types),
        ("affine-plane-roots", fx_a2_roots),
        ("product-of-projective-spaces", fx_product),
    ]


def _run_fixtures() -> int:
    suite = _fixture_suite()
    failures = 0
    for name, fn in suite:
        try:
            ok = fn()
        except Exception:
            ok = False
        line = ("PASS " if ok else "FAIL ") + name
        sys.stdout.write(line + "\n")
        if not ok:
            failures += 1
    sys.stdout.write(f"{len(suite) - failures} passed, {failures} failed\n")
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``InputFormatError``, so that
    ``main`` reports them in the JSON envelope."""

    def error(self, message):
        raise InputFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="galefan",
        description="Exact Gale duality and strongly regular fan computations.",
    )
    parser.add_argument(
        "--fixtures",
        action="store_true",
        help="run the built-in example suite and report pass/fail per fixture",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("action", choices=COMMANDS[name])
        p.add_argument("-i", "--input", help="input JSON file (default: stdin)")
        return p

    p_gale = command("gale", "Gale transforms and canonical forms")
    p_gale.add_argument("-j", "--other", help="second input JSON file (equivalent)")

    command("check", "decision procedures")

    p_fan = command("fan", "fan construction and root queries")
    p_fan.add_argument("--bound", help="sup-norm bound for roots")
    p_fan.add_argument("--cone", default="", help="comma-separated 1-based ray indices")
    p_fan.add_argument("--facet", default="", help="comma-separated 1-based ray indices")
    p_fan.add_argument("--covector", default="", help="comma-separated covector entries")
    p_fan.add_argument("--ray", help="1-based distinguished ray index")

    p_gset = command("gset", "families of generating subcollections")
    p_gset.add_argument("-f", "--fan", help="fan JSON file (from-fan)")

    p_classify = command("classify", "pair classification")
    p_classify.add_argument("-m", "--maximal", help="maximal fan JSON file (big-open)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.fixtures:
            return _run_fixtures()
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        payload, code = COMMANDS[args.command][args.action](args)
    except InputFormatError as exc:
        payload, code = {"error": {"type": "input", "message": str(exc)}}, 2
    except CapExceededError as exc:
        payload, code = {"error": {"type": "cap-exceeded", "message": str(exc)}}, 3
    except InvalidFanError as exc:
        payload, code = {"error": {"type": "invalid-fan", "message": str(exc)}}, 2
    except (
        DegenerateConfigurationError,
        InvalidRootError,
        NotAdmissibleError,
        NotGeneratingError,
    ) as exc:
        payload, code = {"error": {"type": "precondition", "message": str(exc)}}, 2
    except (GalefanError, OverflowError) as exc:
        payload, code = {"error": {"type": "error", "message": str(exc)}}, 2
    sys.stdout.write(dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
