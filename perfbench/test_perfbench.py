"""Tests of the benchmark itself: checks, deadline, inputs and tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

P2 = {"r": 3, "bound": 1,
      "pair": {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [1]]},
      "classify": {"affine": False, "complete": True, "rank_one_type": 2}}


def _fan_ops(item):
    ops = run.fan_loop([item], 1, False, float("inf"), max_items=1)
    run.check_fan_ops(ops)
    return ops


def test_fan_answers_verify_and_corruptions_count_as_wrong():
    ops = _fan_ops(P2)
    assert [op.name for op in ops] == ["build-max", "strongly-regular", "roots", "classify"]
    assert [op.reason for op in ops] == [None] * 4

    corrupted = copy.deepcopy(ops)
    build, sr, roots, classify = corrupted
    build.out["cones"].append([1, 2, 3])
    sr.out["certificate"][0]["root"]["covector"][0] += 1
    roots.out["roots"].pop()
    classify.out["complete"] = False
    for op in corrupted:
        op.reason = None
    sr.fan = roots.fan = ops[0].out
    run.check_fan_ops(corrupted)
    assert [op.reason for op in corrupted] == ["wrong"] * 4


def test_decide_answers_verify_and_corruptions_count_as_wrong():
    items = workloads.decide_items(3, 40)
    ops, reports = run.decide_loop(items, 12, False, float("inf"), max_items=40)
    run.check_decide_ops(ops)
    assert all(op.reason is None for op in ops)
    assert reports[-1]["rss_kb"] > 0

    members = [op for op in ops if op.name == "member" and op.out["member"]]
    flipped, negative = members[0], members[1]
    flipped.out["member"] = False
    negative.out["witness"][0] = -1
    config = next(op for op in ops if op.name == "config")
    config.out["suitable"] = not config.out["suitable"]
    run.check_decide_ops(ops)
    assert [op.reason for op in (flipped, negative, config)] == ["wrong"] * 3


def test_overrunning_operation_is_killed_and_counted(monkeypatch):
    # the Z/2 + Z/3 pair stalls at the seed commit; a short deadline
    # stands in for the real one to keep the test quick
    monkeypatch.setattr(run, "DEADLINE_S", 1.0)
    (item,) = workloads.known_failure_items()
    ops = run.fan_loop([item], 1, False, float("inf"), max_items=1)
    assert ops[0].reason == "timeout" and ops[0].latency < 5


def test_member_oracle_agrees_with_galefan():
    from galefan import AbelianGroup, semigroup_membership

    rng = random.Random(7)
    members = 0
    for _ in range(150):
        f, chain = rng.randint(0, 1), rng.choice(workloads.TORSION_CHAINS)
        gens = workloads._element_values(rng, f, chain, rng.randint(0, 3), 3)
        target = workloads._element_values(rng, f, chain, 1, 3)[0]
        group = AbelianGroup(f, chain)
        ok, _ = semigroup_membership(
            group.element(target[:f], target[f:]),
            tuple(group.element(g[:f], g[f:]) for g in gens),
        )
        assert checks.member_oracle(f, chain, gens, target) == ok
        members += ok
    assert 0 < members < 150


def test_inputs_follow_the_seed_and_decide_never_repeats():
    assert workloads.fan_items("fan-torsion", 4, 6) == workloads.fan_items("fan-torsion", 4, 6)
    assert workloads.fan_items("fan-free", 4, 6) != workloads.fan_items("fan-free", 5, 6)
    items = workloads.decide_items(4, 400)
    assert len({json.dumps(i, sort_keys=True) for i in items}) == len(items)


def test_tracing_wraps_every_binding():
    probe = (
        "import spans, galefan.cli, sys\n"
        "spans.install()\n"
        "m = {n: sys.modules['galefan.' + n] for n in ('linalg', 'fans', 'gale', 'classify', 'groups')}\n"
        "bound = [(n, f) for n, f in [('linalg', 'lp_feasible'), ('fans', 'lp_feasible'),\n"
        "    ('gale', 'lp_feasible'), ('classify', 'lp_feasible'), ('linalg', 'ilp_feasible'),\n"
        "    ('groups', 'ilp_feasible'), ('fans', 'ilp_feasible'), ('fans', 'validate_fan'),\n"
        "    ('classify', 'validate_fan')] if not hasattr(getattr(m[n], f), '__wrapped__')]\n"
        "print(bound)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        cwd=HERE, env=run._env(),
    )
    assert out.stdout.strip() == "[]"

    op = run.run_cli(0, "build-max", ["fan", "build-max"], json.dumps(P2["pair"]), True)
    names = {s[0] for s in op.spans}
    assert {"classify.maxfan", "fans.validate", "linalg.lp", "linalg.ilp"} <= names
    layers = run.per_layer([op], [{"spans": op.spans}])
    assert layers["lp.by_validate.calls"][0] > 0 and layers["fans.validate.per_op"][0] == 1
