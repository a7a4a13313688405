"""Command-line interface.

Commands mirror the library: ``gale`` for the transforms, ``check`` for
decision procedures, ``fan`` for fan construction and root queries,
``gset`` for generating-set families, and ``classify`` for the pair
classifiers.  Inputs are JSON files (or standard input); outputs are
deterministic single-line JSON on standard output.

Exit codes: 0 for a computed result or a positive decision, 1 for a
negative decision of a yes/no command, 2 for malformed or invalid
input, 3 when a configured cap is exceeded.
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


def _emit(obj: Any) -> None:
    sys.stdout.write(dumps(obj))


def _opt_index(i: Optional[int]) -> Optional[int]:
    return None if i is None else i + 1


def _cmd_gale(args) -> int:
    if args.action == "transform":
        config = jsonio.decode_configuration(_read_json(args.input))
        _, coll = gale.lattice_gale_transform(config)
        _emit(jsonio.encode_pair(coll))
        return 0
    if args.action == "inverse":
        coll = jsonio.decode_pair(_read_json(args.input))
        config = gale.inverse_gale_transform(coll)
        _emit({"configuration": jsonio.encode_configuration(config)})
        return 0
    if args.action == "linear":
        config = jsonio.decode_configuration(_read_json(args.input))
        dim, vectors = gale.linear_gale_transform(config)
        _emit({"dimension": dim, "vectors": [list(v) for v in vectors]})
        return 0
    if args.action == "canonical":
        config = jsonio.decode_configuration(_read_json(args.input))
        _emit({"configuration": jsonio.encode_configuration(gale.canonical_form(config))})
        return 0
    if args.action == "equivalent":
        left = jsonio.decode_pair(_read_json(args.input))
        right = jsonio.decode_pair(_read_json(args.other))
        eq = gale.pairs_equivalent(left, right)
        _emit({"equivalent": eq})
        return 0 if eq else 1
    raise AssertionError(args.action)


def _cmd_check(args) -> int:
    if args.action == "admissible":
        coll = jsonio.decode_pair(_read_json(args.input))
        res = groups.is_admissible(coll)
        _emit(
            {
                "admissible": res.admissible,
                "generates": res.generates,
                "failing_index": _opt_index(res.failing_index),
            }
        )
        return 0 if res.admissible else 1
    if args.action == "suitable":
        config = jsonio.decode_configuration(_read_json(args.input))
        res = fans.is_suitable(config)
        _emit(
            {
                "suitable": res.suitable,
                "witnesses": None if res.witnesses is None else [list(w) for w in res.witnesses],
                "failing_index": _opt_index(res.failing_index),
            }
        )
        return 0 if res.suitable else 1
    if args.action == "fan":
        try:
            jsonio.decode_fan(_read_json(args.input))
            report = fans.FanReport(True)
        except InvalidFanError as exc:
            report = exc.report
        _emit(
            {
                "valid": report.valid,
                "violations": [
                    {"code": v.code, "indices": _shift_indices(v.indices), "message": v.message}
                    for v in report.violations
                ],
            }
        )
        return 0 if report.valid else 1
    if args.action == "strongly-regular":
        fan = jsonio.decode_fan(_read_json(args.input))
        res = fans.is_strongly_regular(fan)
        _emit(
            {
                "strongly_regular": res.strongly_regular,
                "certificate": [
                    {
                        "cone": jsonio._encode_index_set(c),
                        "facet": jsonio._encode_index_set(f),
                        "root": jsonio.encode_root(r),
                    }
                    for c, f, r in res.certificate
                ],
                "failing_cone": None
                if res.failing_cone is None
                else jsonio._encode_index_set(res.failing_cone),
            }
        )
        return 0 if res.strongly_regular else 1
    if args.action == "one-skeleton":
        config = jsonio.decode_configuration(_read_json(args.input))
        ok = fans.one_skeleton_strongly_regular(config)
        _emit({"strongly_regular": ok})
        return 0 if ok else 1
    raise AssertionError(args.action)


def _shift_indices(indices: tuple) -> list:
    out = []
    for v in indices:
        if isinstance(v, tuple):
            out.append([i + 1 for i in v])
        else:
            out.append(v + 1)
    return out


def _cmd_fan(args) -> int:
    if args.action == "build-max":
        coll = jsonio.decode_pair(_read_json(args.input))
        fan = classify.build_maximal_fan(coll)
        _emit(jsonio.encode_fan(fan))
        return 0
    if args.action == "roots":
        if args.bound is None or args.bound < 0:
            raise InputFormatError("roots: --bound must be a non-negative integer")
        fan = jsonio.decode_fan(_read_json(args.input))
        roots = fans.roots_in_box(fan, args.bound)
        _emit({"roots": [jsonio.encode_root(r) for r in roots]})
        return 0
    if args.action == "connect":
        fan = jsonio.decode_fan(_read_json(args.input))
        # comma-separated 1-based indices; a blank value is the empty set
        size = len(fan.config)
        cone, facet = (
            jsonio._decode_index_set(text.split(",") if text.strip() else [], size, what)
            for text, what in ((args.cone, "--cone"), (args.facet, "--facet"))
        )
        try:
            ok, root = fans.root_connecting(fan, cone, facet)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        _emit({"connected": ok, "root": None if root is None else jsonio.encode_root(root)})
        return 0 if ok else 1
    if args.action == "he-pairs":
        fan = jsonio.decode_fan(_read_json(args.input))
        try:
            cov = [int(p) for p in args.covector.split(",")] if args.covector else []
        except ValueError as exc:
            raise InputFormatError("--covector: expected comma-separated integers") from exc
        root = jsonio.decode_root(
            {"covector": cov, "ray": args.ray},
            fan.config.rank,
            len(fan.config),
        )
        pairs = fans.he_connected_pairs(fan, root)
        _emit(
            {
                "pairs": [
                    {
                        "facet": jsonio._encode_index_set(f),
                        "cone": jsonio._encode_index_set(c),
                    }
                    for f, c in pairs
                ]
            }
        )
        return 0
    raise AssertionError(args.action)


def _cmd_gset(args) -> int:
    if args.action == "check":
        gset = jsonio.decode_gset(_read_json(args.input))
        res = classify.is_connected_gset(gset)
        violation = None
        if res.violation is not None:
            kind, detail = res.violation
            if kind == "C1":
                violation = {"condition": kind, "index": detail + 1}
            elif kind == "C2":
                member, i = detail
                violation = {
                    "condition": kind,
                    "member": [x + 1 for x in member],
                    "index": i + 1,
                }
            else:
                violation = {"condition": kind, "member": [x + 1 for x in detail]}
        _emit({"connected": res.connected, "violation": violation})
        return 0 if res.connected else 1
    if args.action == "to-fan":
        gset = jsonio.decode_gset(_read_json(args.input))
        config = gale.inverse_gale_transform(gset.collection)
        fan = classify.subfan_from_gset(gset, config)
        _emit(jsonio.encode_fan(fan))
        return 0
    if args.action == "from-fan":
        coll = jsonio.decode_pair(_read_json(args.input))
        fan = jsonio.decode_fan(_read_json(args.fan))
        maximal = classify.build_maximal_fan(coll)
        try:
            gset = classify.gset_from_subfan(coll, fan, maximal)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        _emit(jsonio.encode_gset(gset))
        return 0
    if args.action == "enumerate":
        coll = jsonio.decode_pair(_read_json(args.input))
        gsets = classify.enumerate_connected_gsets(coll)
        _emit({"gsets": [jsonio.encode_gset(g) for g in gsets]})
        return 0
    raise AssertionError(args.action)


def _cmd_classify(args) -> int:
    if args.action == "pair":
        coll = jsonio.decode_pair(_read_json(args.input))
        rep = classify.classify_pair(coll)
        _emit(
            {
                "affine": rep.affine,
                "complete": rep.complete,
                "quasiaffine": rep.quasiaffine,
                "product_decomposition": [
                    [i + 1 for i in part] for part in rep.product_parts
                ],
                "rank_one_type": rep.rank_one_type,
                "type2_regular_locus": rep.type2_regular_locus,
                "semisimple_shape": rep.semisimple_shape,
            }
        )
        return 0
    if args.action == "semisimple":
        coll = jsonio.decode_pair(_read_json(args.input))
        rep = classify.semisimple_shape(coll)
        _emit(
            {
                "is_shape": rep.is_shape,
                "value_groups": [[i + 1 for i in g] for g in rep.value_groups],
                "coincides_with_maximal": rep.coincides_with_maximal,
                "gset": None if rep.gset is None else jsonio.encode_gset(rep.gset),
            }
        )
        return 0
    if args.action == "big-open":
        fan = jsonio.decode_fan(_read_json(args.input))
        maximal = jsonio.decode_fan(_read_json(args.maximal))
        try:
            ok = classify.is_big_open_subfan(fan, maximal)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        _emit({"big_open": ok})
        return 0 if ok else 1
    raise AssertionError(args.action)


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
    failures = 0
    for name, fn in _fixture_suite():
        try:
            ok = fn()
        except Exception:
            ok = False
        line = ("PASS " if ok else "FAIL ") + name
        sys.stdout.write(line + "\n")
        if not ok:
            failures += 1
    sys.stdout.write(f"{len(_fixture_suite()) - failures} passed, {failures} failed\n")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galefan",
        description="Exact Gale duality and strongly regular fan computations.",
    )
    parser.add_argument(
        "--fixtures",
        action="store_true",
        help="run the built-in example suite and report pass/fail per fixture",
    )
    sub = parser.add_subparsers(dest="command")

    p_gale = sub.add_parser("gale", help="Gale transforms and canonical forms")
    p_gale.add_argument(
        "action", choices=["transform", "inverse", "linear", "canonical", "equivalent"]
    )
    p_gale.add_argument("-i", "--input", help="input JSON file (default: stdin)")
    p_gale.add_argument("-j", "--other", help="second input JSON file (equivalent)")

    p_check = sub.add_parser("check", help="decision procedures")
    p_check.add_argument(
        "action",
        choices=["admissible", "suitable", "fan", "strongly-regular", "one-skeleton"],
    )
    p_check.add_argument("-i", "--input", help="input JSON file (default: stdin)")

    p_fan = sub.add_parser("fan", help="fan construction and root queries")
    p_fan.add_argument("action", choices=["build-max", "roots", "connect", "he-pairs"])
    p_fan.add_argument("-i", "--input", help="input JSON file (default: stdin)")
    p_fan.add_argument("--bound", type=int, help="sup-norm bound for roots")
    p_fan.add_argument("--cone", default="", help="comma-separated 1-based ray indices")
    p_fan.add_argument("--facet", default="", help="comma-separated 1-based ray indices")
    p_fan.add_argument("--covector", default="", help="comma-separated covector entries")
    p_fan.add_argument("--ray", type=int, help="1-based distinguished ray index")

    p_gset = sub.add_parser("gset", help="families of generating subcollections")
    p_gset.add_argument("action", choices=["check", "to-fan", "from-fan", "enumerate"])
    p_gset.add_argument("-i", "--input", help="input JSON file (default: stdin)")
    p_gset.add_argument("-f", "--fan", help="fan JSON file (from-fan)")

    p_classify = sub.add_parser("classify", help="pair classification")
    p_classify.add_argument("action", choices=["pair", "semisimple", "big-open"])
    p_classify.add_argument("-i", "--input", help="input JSON file (default: stdin)")
    p_classify.add_argument("-m", "--maximal", help="maximal fan JSON file (big-open)")

    return parser


_HANDLERS = {
    "gale": _cmd_gale,
    "check": _cmd_check,
    "fan": _cmd_fan,
    "gset": _cmd_gset,
    "classify": _cmd_classify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fixtures:
        return _run_fixtures()
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except InputFormatError as exc:
        _emit({"error": {"type": "input", "message": str(exc)}})
        return 2
    except CapExceededError as exc:
        _emit({"error": {"type": "cap-exceeded", "message": str(exc)}})
        return 3
    except InvalidFanError as exc:
        _emit({"error": {"type": "invalid-fan", "message": str(exc)}})
        return 2
    except (
        DegenerateConfigurationError,
        InvalidRootError,
        NotAdmissibleError,
        NotGeneratingError,
    ) as exc:
        _emit({"error": {"type": "precondition", "message": str(exc)}})
        return 2
    except GalefanError as exc:
        _emit({"error": {"type": "error", "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
