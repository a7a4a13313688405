"""Record the golden CLI corpus that ``test_cli.py`` replays.

For a fixed list of pairs whose groups have torsion, the corpus holds
the stdout and the exit code of ``fan build-max``, ``check
strongly-regular`` (on the fan just built), ``classify pair`` and
``check admissible``.  The last two pairs are not admissible, so their
messages carry the failing index.  After those come ``gale inverse``
on every pair, then ``gale inverse`` and ``fan build-max`` on a few
torsion-free pairs, so the printed relation basis is pinned for both
kinds of group.  Last, a cone family whose cones [1, 2] and [1, 4]
overlap goes through ``check fan`` and every other command that reads
a fan, which refuses it.  Then come ``classify semisimple`` on a shape
with torsion, a torsion-free shape and a non-shape; ``gale
equivalent`` on an equivalent and an inequivalent pair of pairs (the
second read with ``-j``); ``check one-skeleton`` on pointed ray sets
with r >= 3 (all rays extreme, and one ray inside), a non-pointed one
and one with r = 2; and ``classify pair`` on torsion-free pairs that
are quasiaffine and that are not.  Last come the commands no record
above reaches: ``gale transform|linear|canonical``, ``check suitable``
on a suitable and an unsuitable configuration, ``gset check`` on a
connected G-set and on one failing each of C1, C2 and C3, ``gset
to-fan`` on a G-set and on a collection that does not generate its
group (a ``precondition`` envelope), and ``gset enumerate`` on a pair
and on five elements, past the enumeration cap (exit 3); then every
fan command on the maximal fan of Z (1,1,1) and its one-skeleton, so
that each yes/no command has a positive and a negative record.  The
records of ``CHANGED`` come last, one for each output that was changed
on purpose after the records above: ``gset check`` and ``gset
enumerate`` on a collection that does not generate its group (the
``precondition`` envelope), ``gale linear`` and ``check suitable`` with
a coordinate of 2^64 (printed as a decimal string), and each two-input
command whose second input names standard input while the first reads
it (the ``input`` envelope), and then two searches past the search cap
that must be refused at once (exit 3): ``gale equivalent`` on Z
(1,...,10) against Z (-1,...,-10), 10! bijections, and ``classify
semisimple`` on nineteen copies of 1, 2^19-1 members.  Then comes
``classify pair`` on Z (1,1,2,4,...,20), whose regular locus and
product split answer without a scan over subsets of its eleven
distinct values.  Last, ``check suitable`` and ``gale transform`` run
on seven seeded configurations of rank 2 and 3, suitable and not, with
and without torsion in the dual.  A record may name input files in
``files`` (file name -> contents); they are written to the working
directory before the command runs.  Run from the repository root
with the tree to record on the path:

    PYTHONPATH=src python3 tests/record_golden.py > tests/golden_cli.json
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

from galefan import AbelianGroup, ElementCollection, direct_sum_collection
from galefan.cli import main
from galefan.jsonio import encode_pair


def _coll(free_rank, torsion, *values):
    group = AbelianGroup(free_rank, torsion)
    return ElementCollection(
        group, tuple(group.element(v[:free_rank], v[free_rank:]) for v in values)
    )


def _ints(*values):
    return _coll(1, (), *[(v,) for v in values])


def _cyclic(order, *values):
    return _coll(0, (order,), *[(v,) for v in values])


PAIRS = {
    "Z+Z/2 (1,1),(1,0),(-1,0),(-1,1)": _coll(1, (2,), (1, 1), (1, 0), (-1, 0), (-1, 1)),
    "Z+Z/2 Z/2(1,1) + Z(1,1,1)": direct_sum_collection(_cyclic(2, 1, 1), _ints(1, 1, 1)),
    "Z+Z/3 Z/3(1,2) + Z(1,1)": direct_sum_collection(_cyclic(3, 1, 2), _ints(1, 1)),
    "Z+Z/3 Z(1,1) + Z/3(1,1)": direct_sum_collection(_ints(1, 1), _cyclic(3, 1, 1)),
    "Z+Z/6 Z/6(1,2,3) + Z(1,1)": direct_sum_collection(_cyclic(6, 1, 2, 3), _ints(1, 1)),
    "Z/6 Z/2(1,1) + Z/3(1,1)": direct_sum_collection(_cyclic(2, 1, 1), _cyclic(3, 1, 1)),
    "Z/6 (1,5,2)": _cyclic(6, 1, 5, 2),
    "Z/2+Z/4 Z/4(1,1) + Z/2(1,1)": direct_sum_collection(_cyclic(4, 1, 1), _cyclic(2, 1, 1)),
    "not admissible, fails at 1: Z+Z/2 (1,0),(0,1),(0,1)": _coll(1, (2,), (1, 0), (0, 1), (0, 1)),
    "not admissible, fails at 3: Z+Z/2 (1,0),(1,0),(-1,1)": _coll(1, (2,), (1, 0), (1, 0), (-1, 1)),
}

FREE_PAIRS = {
    "Z (1,1,1)": _ints(1, 1, 1),
    "Z (1,1,2,3)": _ints(1, 1, 2, 3),
    "Z^2 (1,0),(1,0),(0,1),(0,1),(1,1)": _coll(2, (), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1)),
}


SHAPE_PAIRS = {
    "shape with torsion: Z/2+Z/2 (1,0),(1,0),(0,1),(0,1),(1,1),(1,1)": _coll(
        0, (2, 2), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)
    ),
    "torsion-free shape: Z (2,3,2,3,3)": _ints(2, 3, 2, 3, 3),
    "not a shape: Z (1,1,2,3)": _ints(1, 1, 2, 3),
}

EQUIVALENCE_PAIRS = {
    "equivalent by doubling: Z/5 (1,1,2,3) and Z/5 (2,4,2,1)": (
        _cyclic(5, 1, 1, 2, 3),
        _cyclic(5, 2, 4, 2, 1),
    ),
    "not equivalent: Z (1,1,2,3) and Z (1,1,2,-3)": (_ints(1, 1, 2, 3), _ints(1, 1, 2, -3)),
}

SKELETONS = {
    "pointed, r = 3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "pointed, r = 4": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)),
    "pointed, ray 3 inside the cone of rays 1 and 2": ((1, 0), (0, 1), (1, 1)),
    "not pointed: (1,0),(0,1),(-1,-1)": ((1, 0), (0, 1), (-1, -1)),
    "r = 2: (1),(-1)": ((1,), (-1,)),
}

QUASIAFFINE_PAIRS = {
    "quasiaffine: Z (1,1,-1,-1,2)": _ints(1, 1, -1, -1, 2),
    "quasiaffine: Z^2 (1,0),(1,0),(0,1),(0,1),(-1,-1),(-1,-1)": _coll(
        2, (), (1, 0), (1, 0), (0, 1), (0, 1), (-1, -1), (-1, -1)
    ),
    "quasiaffine: Z^3 (1,0,0),(0,1,0),(0,0,1),(-1,-1,-1), each twice": _coll(
        3, (), *[v for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)) for _ in range(2)]
    ),
    "not quasiaffine: Z (1,1,2,3)": _ints(1, 1, 2, 3),
    "not quasiaffine: Z^2 (1,0),(1,0),(0,1),(0,1),(1,1)": _coll(
        2, (), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1)
    ),
    "not quasiaffine: Z^2 (1,0),(1,0),(0,1),(0,1),(-1,0),(-1,0),(0,0)": _coll(
        2, (), (1, 0), (1, 0), (0, 1), (0, 1), (-1, 0), (-1, 0), (0, 0)
    ),
}


P2_CONFIG = {"rank": 2, "vectors": [[-1, -1], [1, 0], [0, 1]]}
P2_PAIR = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [1]]}
Z4_PAIR = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [1], [1]]}

REMAINING = [
    ("P2 rays", ["gale", "transform"], P2_CONFIG),
    ("torsion Z/2: (1,0),(1,2)", ["gale", "transform"], {"rank": 2, "vectors": [[1, 0], [1, 2]]}),
    ("P2 rays", ["gale", "linear"], P2_CONFIG),
    ("zero-dimensional: (1,0),(1,2)", ["gale", "linear"], {"rank": 2, "vectors": [[1, 0], [1, 2]]}),
    ("(1,2),(1,0),(2,2)", ["gale", "canonical"], {"rank": 2, "vectors": [[1, 2], [1, 0], [2, 2]]}),
    ("suitable: (1,0),(2,3)", ["check", "suitable"], {"rank": 2, "vectors": [[1, 0], [2, 3]]}),
    ("not suitable: (2)", ["check", "suitable"], {"rank": 1, "vectors": [[2]]}),
    (
        "connected: Z (1,1,1)",
        ["gset", "check"],
        dict(P2_PAIR, members=[[1], [2], [1, 2], [1, 3], [2, 3], [1, 2, 3]]),
    ),
    ("fails C1 at 2: Z (1,1,1)", ["gset", "check"], dict(P2_PAIR, members=[[2, 3], [1, 2, 3]])),
    (
        "fails C2: Z (1,1,1,1)",
        ["gset", "check"],
        dict(Z4_PAIR, members=[[1], [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]]),
    ),
    (
        "fails C3 at [1, 2]: Z (1,1,1)",
        ["gset", "check"],
        dict(P2_PAIR, members=[[1, 2], [1, 3], [2, 3], [1, 2, 3]]),
    ),
    (
        "Z (1,1,1)",
        ["gset", "to-fan"],
        dict(P2_PAIR, members=[[1], [2], [1, 2], [1, 3], [2, 3], [1, 2, 3]]),
    ),
    (
        "not generating: Z (2,2)",
        ["gset", "to-fan"],
        {"group": {"free_rank": 1, "torsion": []}, "collection": [[2], [2]], "members": [[1], [2], [1, 2]]},
    ),
    ("Z (1,1,1)", ["gset", "enumerate"], P2_PAIR),
    (
        "past the cap: Z (1,1,1,1,1)",
        ["gset", "enumerate"],
        {"group": {"free_rank": 1, "torsion": []}, "collection": [[1]] * 5},
    ),
]

P2_SKELETON = {"config": P2_CONFIG, "cones": [[1], [2], [3]]}
Z22_PAIR = {"group": {"free_rank": 1, "torsion": []}, "collection": [[2], [2]]}
BIG_CONFIG = {"rank": 2, "vectors": [[1, 0], [0, 1], [2**64, 1]]}
BIG_SUITABLE = {"rank": 2, "vectors": [[1, 0], [2**64, 1]]}

CHANGED = [
    ("not generating: Z (2,2)", ["gset", "check"], dict(Z22_PAIR, members=[[1], [2], [1, 2]])),
    ("not generating: Z (2,2)", ["gset", "enumerate"], Z22_PAIR),
    ("a coordinate of 2^64", ["gale", "linear"], BIG_CONFIG),
    ("a coordinate of 2^64", ["check", "suitable"], BIG_SUITABLE),
    ("both inputs from stdin", ["gale", "equivalent", "-j", "-"], P2_PAIR),
    ("both inputs from stdin", ["gset", "from-fan", "-f", "-"], P2_PAIR),
    ("both inputs from stdin", ["classify", "big-open", "-m", "-"], P2_SKELETON),
]

PAST_THE_CAP = [
    (
        "past the cap: Z (1,...,10) and Z (-1,...,-10)",
        ["gale", "equivalent", "-j", "other.json"],
        _ints(*range(1, 11)),
        _ints(*range(-1, -11, -1)),
    ),
    ("past the cap: Z (1^19)", ["classify", "semisimple"], _ints(*[1] * 19), None),
]

MANY_VALUES = ("eleven distinct values: Z (1,1,2,4,...,20)", _ints(1, 1, *range(2, 21, 2)))

# the first configuration of each kind among perfbench's decide items
# for seed 25 (r > rank); none there is suitable of rank 2 with torsion
SEEDED_CONFIGS = {
    "rank 2, not suitable, dual with torsion": ((-1, 3), (1, 1), (-1, 1)),
    "rank 2, not suitable, torsion-free dual": ((0, 1), (-1, -2), (1, 0), (1, 2)),
    "rank 2, suitable, torsion-free dual": ((4, 1), (1, 0), (-1, 0), (-4, -1)),
    "rank 3, not suitable, torsion-free dual": ((-1, 2, -1), (0, 1, 1), (2, 0, 1), (-2, 0, 1)),
    "rank 3, suitable, dual with torsion": ((0, 1, -2), (-1, -1, 0), (0, 2, 1), (1, 1, 0)),
    "rank 3, not suitable, dual with torsion": ((1, 1, -1), (-1, -1, 2), (2, -1, 0), (-1, -1, 2)),
    "rank 3, suitable, torsion-free dual": (
        (0, -1, 1), (-1, 1, -1), (-1, -1, -2), (-1, 1, 0), (0, -1, 0),
    ),
}


OVERLAPPING_FAN = {
    "config": {"rank": 2, "vectors": [[1, 0], [0, 1], [-1, -1], [1, 1]]},
    "cones": [[1], [2], [3], [4], [1, 2], [1, 4]],
}


def run(argv: list[str], stdin: str) -> tuple[str, int]:
    saved, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue(), code


def record() -> list[dict]:
    cases = []

    def add(name, argv, stdin, files=None):
        for fname, text in (files or {}).items():
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write(text)
        stdout, code = run(argv, stdin)
        case = {"name": name, "argv": argv, "stdin": stdin, "stdout": stdout, "exit": code}
        if files:
            case["files"] = files
        cases.append(case)
        return stdout, code

    for name, coll in PAIRS.items():
        pair = json.dumps(encode_pair(coll))
        fan, code = add(name, ["fan", "build-max"], pair)
        if code == 0:
            add(name, ["check", "strongly-regular"], fan)
        add(name, ["classify", "pair"], pair)
        add(name, ["check", "admissible"], pair)
    for name, coll in PAIRS.items():
        add(name, ["gale", "inverse"], json.dumps(encode_pair(coll)))
    for name, coll in FREE_PAIRS.items():
        pair = json.dumps(encode_pair(coll))
        add(name, ["gale", "inverse"], pair)
        add(name, ["fan", "build-max"], pair)
    name = "overlapping cones [1, 2] and [1, 4]"
    bad = json.dumps(OVERLAPPING_FAN)
    for argv in (
        ["check", "fan"],
        ["check", "strongly-regular"],
        ["fan", "roots", "--bound", "1"],
        ["fan", "roots", "--bound", "-1"],
        ["fan", "connect", "--cone", "1,2", "--facet", "1"],
        ["fan", "he-pairs", "--covector=-1,0", "--ray", "1"],
    ):
        add(name, argv, bad)
    p2 = json.dumps(encode_pair(FREE_PAIRS["Z (1,1,1)"]))
    p2_fan, _ = run(["fan", "build-max"], p2)
    add(name, ["gset", "from-fan", "-f", "fan.json"], p2, {"fan.json": bad})
    add(name, ["classify", "big-open", "-m", "maximal.json"], bad, {"maximal.json": p2_fan})
    add(name, ["classify", "big-open", "-m", "maximal.json"], p2_fan, {"maximal.json": bad})
    for name, coll in SHAPE_PAIRS.items():
        add(name, ["classify", "semisimple"], json.dumps(encode_pair(coll)))
    for name, (left, right) in EQUIVALENCE_PAIRS.items():
        other = {"other.json": json.dumps(encode_pair(right))}
        add(name, ["gale", "equivalent", "-j", "other.json"], json.dumps(encode_pair(left)), other)
    for name, vectors in SKELETONS.items():
        config = {"rank": len(vectors[0]), "vectors": [list(v) for v in vectors]}
        add(name, ["check", "one-skeleton"], json.dumps(config))
    for name, coll in QUASIAFFINE_PAIRS.items():
        add(name, ["classify", "pair"], json.dumps(encode_pair(coll)))
    for name, argv, document in REMAINING:
        add(name, argv, json.dumps(document))
    fan = json.loads(p2_fan)
    skeleton = json.dumps(dict(fan, cones=[c for c in fan["cones"] if len(c) <= 1]))
    name = "maximal fan of Z (1,1,1)"
    for argv in (
        ["check", "fan"],
        ["fan", "roots", "--bound", "1"],
        ["fan", "connect", "--cone", "2,3", "--facet", "3"],
        ["fan", "he-pairs", "--covector=-1,0", "--ray", "2"],
    ):
        add(name, argv, p2_fan)
    add(name, ["gset", "from-fan", "-f", "fan.json"], p2, {"fan.json": p2_fan})
    add(name, ["classify", "big-open", "-m", "maximal.json"], p2_fan, {"maximal.json": skeleton})
    name = "one-skeleton of the maximal fan of Z (1,1,1)"
    add(name, ["check", "strongly-regular"], skeleton)
    add(name, ["fan", "connect", "--cone", "1", "--facet", ""], skeleton)
    add(name, ["classify", "big-open", "-m", "maximal.json"], skeleton, {"maximal.json": p2_fan})
    for name, argv, document in CHANGED:
        add(name, argv, json.dumps(document))
    for name, argv, left, right in PAST_THE_CAP:
        other = right and {"other.json": json.dumps(encode_pair(right))}
        add(name, argv, json.dumps(encode_pair(left)), other)
    name, coll = MANY_VALUES
    add(name, ["classify", "pair"], json.dumps(encode_pair(coll)))
    for name, vectors in SEEDED_CONFIGS.items():
        config = json.dumps({"rank": len(vectors[0]), "vectors": [list(v) for v in vectors]})
        add(name, ["check", "suitable"], config)
        add(name, ["gale", "transform"], config)
    return cases


if __name__ == "__main__":
    # input files go to a scratch working directory, not the repository
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        cases = record()
    json.dump(cases, sys.stdout, indent=1)
    sys.stdout.write("\n")
