"""galefan benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fan-free --seed 1 --seconds 36 --trace 0

Run from the root of a galefan source tree; galefan is imported from
``src/``.  The run generates its inputs from the seed (set-up, repeated
and timed), issues operations one at a time, in whole cycles of its
input mix, for at most ``--seconds``, checks every answer, and prints
one JSON object as its last line of output.

Workloads (see ``workloads.py`` for the inputs):

* ``fan-free`` and ``fan-torsion``: per pair, four CLI commands, each in
  a fresh process (``fan build-max``, ``check strongly-regular``,
  ``fan roots --bound 1`` on the built fan, ``classify pair``).  Cold:
  no process sees an earlier operation's memo caches.
* ``decide``: one long-lived library process answering a stream of
  distinct configurations (``is_suitable``, ``lattice_gale_transform``,
  ``is_admissible`` of the dual) and semigroup membership queries.
  Warm interpreter, but no input repeats, so memo caches never answer
  a whole operation.
* ``known-failures``: the fan commands on pairs that overran the
  deadline at the seed commit.  Not part of the scored set; run it to
  see them counted as failures.

An operation fails when it overruns ``DEADLINE_S`` (it is killed), exits
with an unexpected code or error envelope, prints a traceback, or gives
an answer that the checks in ``checks.py`` reject.  Failed operations
count as attempted, not completed, and stay in the workload.

With ``--trace 0`` the metrics are end to end; with ``--trace 1`` the
run measures the first half of its time untraced, replays exactly those
operations with spans recorded around galefan's public functions, and
reports per-layer metrics plus the tracing overhead on identical work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
from child import REPORT_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fan-free", "fan-torsion", "decide", "known-failures")
# Measured at the seed commit on 2 cores: no operation of the scored
# workloads took more than 1.2 s, while the known stalls run past 60 s;
# 20 s sits in that gap.
DEADLINE_S = 20.0
SETUP_REPEATS = 3
# Inputs generated per run; fan pairs are cycled when a run gets past
# them (each command is a fresh process, so nothing is warm), decide
# items restart the worker before replaying so no process sees a repeat.
POOL = {"fan-free": 48, "fan-torsion": 48, "decide": 3000, "known-failures": 1}
FAILURE_REASONS = ("timeout", "wrong", "exit", "traceback")
FAN_OPS = ("build-max", "strongly-regular", "roots")


@dataclass
class Op:
    id: int
    name: str
    latency: float
    reason: str | None = None
    detail: str = ""
    out: dict | None = None
    startup: float | None = None
    rss_kb: int = 0
    spans: list = field(default_factory=list)
    item: dict | None = None
    fan: dict | None = None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def generate(workload: str, seed: int) -> tuple[dict, float]:
    """Inputs for the run (``items`` and the ``cycle`` length of their
    mix) and the median wall time of generating them."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(POOL[workload])]
    times, outputs = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("input generation failed:\n" + proc.stderr)
        outputs.append(proc.stdout)
    if len(set(outputs)) != 1:
        raise RuntimeError("input generation is not deterministic")
    return json.loads(outputs[0]), statistics.median(times)


def _classify_exit(op: Op, code: int, stdout: str, stderr: str) -> None:
    if "Traceback (most recent call last)" in stderr:
        op.reason, op.detail = "traceback", stderr.strip().splitlines()[-1]
        return
    try:
        op.out = json.loads(stdout)
    except ValueError:
        op.reason, op.detail = "wrong", f"unparseable output (exit {code})"
        return
    if code != 0 or "error" in op.out:
        op.reason, op.detail = "exit", f"exit {code}: {stdout.strip()[:160]}"


def run_cli(op_id: int, name: str, args: list, stdin: str, trace: bool) -> Op:
    """One galefan command in a fresh process, killed at the deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", str(op_id), "--", *args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_env(), cwd=ROOT,
    )
    try:
        stdout, stderr = proc.communicate(stdin, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Op(op_id, name, time.perf_counter() - start, "timeout", f"killed after {DEADLINE_S:g} s")
    op = Op(op_id, name, time.perf_counter() - start)
    report_lines = [l for l in stderr.splitlines() if l.startswith(REPORT_MARKER)]
    if report_lines:
        report = json.loads(report_lines[-1][len(REPORT_MARKER):])
        op.startup = report["t_main"] - start
        op.rss_kb = report["rss_kb"]
        op.spans = report["spans"]
    _classify_exit(op, proc.returncode, stdout, stderr)
    return op


class CycleGate:
    """Admits inputs a whole cycle at a time.

    Every workload cycles through a fixed mix of input classes.  A new
    cycle starts only if the previous cycle's duration still fits before
    ``until``, so a run measures complete cycles and its mix does not
    depend on where the clock ran out.
    """

    def __init__(self, length: int, until: float, max_items: int | None):
        self.length, self.until, self.max_items = length, until, max_items
        self.cycle_start = time.perf_counter()

    def admit(self, k: int) -> bool:
        if self.max_items is not None and k >= self.max_items:
            return False
        if k % self.length == 0 and k:
            now = time.perf_counter()
            if now + (now - self.cycle_start) > self.until:
                return False
            self.cycle_start = now
        return True


def fan_loop(items: list, cycle: int, trace: bool, until: float, max_items=None) -> list[Op]:
    """Closed loop over pairs: four commands per pair, one process each."""
    ops: list[Op] = []
    gate = CycleGate(cycle, until, max_items)
    k = 0
    while gate.admit(k):
        item = items[k % len(items)]
        pair = json.dumps(item["pair"])
        build = run_cli(len(ops), "build-max", ["fan", "build-max"], pair, trace)
        build.item = item
        ops.append(build)
        if build.reason is None:
            fan = json.dumps(build.out)
            for name, args in (
                ("strongly-regular", ["check", "strongly-regular"]),
                ("roots", ["fan", "roots", "--bound", str(item["bound"])]),
            ):
                op = run_cli(len(ops), name, args, fan, trace)
                op.item, op.fan = item, build.out
                ops.append(op)
        op = run_cli(len(ops), "classify", ["classify", "pair"], pair, trace)
        op.item = item
        ops.append(op)
        k += 1
    return ops


def check_fan_ops(ops: list[Op]) -> None:
    for op in ops:
        if op.reason is not None:
            continue
        if op.name == "build-max":
            problem = checks.check_build_max(op.item, op.out)
        elif op.name == "strongly-regular":
            problem = checks.check_strongly_regular(op.fan, op.out)
        elif op.name == "roots":
            problem = checks.check_roots(op.fan, op.out, op.item["bound"])
        else:
            problem = checks.check_classify(op.item, op.out)
        if problem:
            op.reason, op.detail = "wrong", problem


class Worker:
    """The decide workload's library process, spoken to one line at a time."""

    def __init__(self, trace: bool):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
        )
        self._buf = b""
        ready = self.read(DEADLINE_S)
        if ready is None:
            self.kill()
            raise RuntimeError("decide worker did not start")
        self.startup = ready["ready"] - self.spawned

    def read(self, timeout: float):
        end = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def send(self, req: dict) -> None:
        self.proc.stdin.write(json.dumps(req).encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> dict:
        """End the worker; returns its report (peak RSS, spans, start-up)."""
        self.send({"kind": "exit"})
        report = self.read(DEADLINE_S) or {"rss_kb": 0, "spans": []}
        self.proc.stdin.close()
        self.proc.wait(timeout=DEADLINE_S)
        self.proc.stdout.close()
        return {**report, "startup": self.startup}

    def kill(self) -> dict:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return {"rss_kb": 0, "spans": [], "startup": self.startup}


def decide_loop(items: list, cycle: int, trace: bool, until: float, max_items=None):
    """Closed loop over one library process; returns ops and worker reports."""
    ops: list[Op] = []
    reports: list[dict] = []
    gate = CycleGate(cycle, until, max_items)
    worker = Worker(trace)
    while gate.admit(len(ops)):
        k = len(ops) % len(items)
        if k == 0 and ops:
            # replaying the pool: a fresh process, so nothing is cached
            reports.append(worker.close())
            worker = Worker(trace)
        item = items[k]
        start = time.perf_counter()
        worker.send({"op": len(ops), **item})
        reply = worker.read(DEADLINE_S)
        if reply is None:
            reports.append(worker.kill())
            op = Op(len(ops), item["kind"], time.perf_counter() - start, "timeout",
                    f"killed after {DEADLINE_S:g} s")
            worker = Worker(trace)
        else:
            op = Op(len(ops), item["kind"], reply["s"], out=reply.get("out"))
            if "error" in reply:
                op.reason, op.detail = "traceback", reply["error"].strip().splitlines()[-1]
        op.item = item
        ops.append(op)
    reports.append(worker.close())
    return ops, reports


def check_decide_ops(ops: list[Op]) -> None:
    for op in ops:
        if op.reason is None:
            check = checks.check_config if op.name == "config" else checks.check_member
            problem = check(op.item, op.out)
            if problem:
                op.reason, op.detail = "wrong", problem


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of the order statistics with Beta((n+1)q, (n+1)(1-q))
    weights, so it moves smoothly where the latencies of a mixed workload
    have gaps; a single order statistic jumps across them.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule per order statistic
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        mids = ((i * steps + k + 0.5) * h for k in range(steps))
        weights.append(
            sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) for t in mids)
        )
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_workload(workload: str, inputs: dict, trace: bool, until: float, max_items=None):
    """Run and check; returns ops, loop wall time, span reports, inputs used."""
    items, cycle = inputs["items"], inputs["cycle"]
    start = time.perf_counter()
    if workload == "decide":
        ops, reports = decide_loop(items, cycle, trace, until, max_items)
        used = len(ops)
        check_decide_ops(ops)
    else:
        ops = fan_loop(items, cycle, trace, until, max_items)
        used = sum(op.name == "build-max" for op in ops)
        reports = [
            {"rss_kb": op.rss_kb, "spans": op.spans, "startup": op.startup}
            for op in ops if op.startup is not None
        ]
        check_fan_ops(ops)
    return ops, time.perf_counter() - start, reports, used


def end_to_end(ops: list[Op], wall: float, reports: list, setup_s: float) -> dict:
    completed = [op for op in ops if op.reason is None]
    latencies = [op.latency for op in ops]
    return {
        "ops_per_s": (len(completed) / wall, "1/s"),
        "op_p50_s": (quantile(latencies, 0.5), "s"),
        "op_p90_s": (quantile(latencies, 0.9), "s"),
        "peak_rss_mb": (max((r["rss_kb"] for r in reports), default=0) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


LP_CALLERS = {"fans.validate": "validate", "linalg.ilp": "ilp", "fans.convex": "convex"}


def per_layer(ops: list[Op], reports: list) -> dict:
    """Layer metrics from the spans of a traced run."""
    calls, secs, flags = Counter(), defaultdict(float), defaultdict(list)
    lp_bits = 0
    for report in reports:
        spans = report["spans"]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        for i, (name, _, _, parent, _, attrs) in enumerate(spans):
            pname = spans[parent][0] if parent >= 0 else None
            if name == "jsonio":
                if pname != "jsonio":
                    secs["jsonio"] += dur[i]
                continue
            calls[name] += 1
            secs[name] += dur[i]
            secs[name + ".self"] += dur[i] - child[i]
            if name == "linalg.lp":
                lp_bits = max(lp_bits, attrs[0])
                flags[name].append(not attrs[1])
                up = parent
                while up >= 0 and spans[up][0] not in LP_CALLERS:
                    up = spans[up][3]
                caller = LP_CALLERS[spans[up][0]] if up >= 0 else "other"
                calls["lp.by_" + caller] += 1
                secs["lp.by_" + caller] += dur[i]
                if pname == "linalg.ilp":
                    calls["ilp.lp"] += 1
            elif name == "linalg.ilp":
                flags[name].append(not attrs[0])
            elif name == "groups.membership":
                flags["member"].append(attrs[0])
                flags["torsion"].append(attrs[1])
            elif name == "groups.full_semigroup" and pname == "classify.maxfan":
                calls["maxfan.candidates"] += 1
            elif name == "classify.maxfan":
                calls["maxfan.cones"] += attrs[0]
            elif name == "fans.roots":
                calls["roots.scanned"] += attrs[0]
                calls["roots.found"] += attrs[1]

    def share(values):
        return sum(values) / len(values) if values else 0.0

    fan_ops = sum(op.name in FAN_OPS for op in ops)
    m = {
        "linalg.lp.calls": (calls["linalg.lp"], "count"),
        "linalg.lp.s": (secs["linalg.lp"], "s"),
        "linalg.lp.max_bits": (lp_bits, "bits"),
        "linalg.lp.infeasible_share": (share(flags["linalg.lp"]), "share"),
    }
    for caller in ("validate", "ilp", "convex", "other"):
        m[f"lp.by_{caller}.s"] = (secs["lp.by_" + caller], "s")
        m[f"lp.by_{caller}.calls"] = (calls["lp.by_" + caller], "count")
    m.update({
        "linalg.ilp.calls": (calls["linalg.ilp"], "count"),
        "linalg.ilp.self_s": (secs["linalg.ilp.self"], "s"),
        "linalg.ilp.lp_per_call": (calls["ilp.lp"] / max(1, calls["linalg.ilp"]), "1/call"),
        "linalg.ilp.infeasible_share": (share(flags["linalg.ilp"]), "share"),
        "linalg.snf.calls": (calls["linalg.snf"] + calls["linalg.hnf"], "count"),
        "linalg.snf.s": (secs["linalg.snf"] + secs["linalg.hnf"], "s"),
        "groups.membership.calls": (calls["groups.membership"], "count"),
        "groups.membership.s": (secs["groups.membership"], "s"),
        "groups.membership.member_share": (share(flags["member"]), "share"),
        "groups.membership.torsion_share": (share(flags["torsion"]), "share"),
        "fans.validate.calls": (calls["fans.validate"], "count"),
        "fans.validate.s": (secs["fans.validate"], "s"),
        "fans.validate.per_op": (calls["fans.validate"] / max(1, fan_ops), "1/op"),
        "fans.root_connecting.calls": (calls["fans.root_connecting"], "count"),
        "fans.root_connecting.s": (secs["fans.root_connecting"], "s"),
        "fans.roots.self_s": (secs["fans.roots.self"], "s"),
        "fans.roots.scanned": (calls["roots.scanned"], "count"),
        "fans.roots.found": (calls["roots.found"], "count"),
        "classify.maxfan.self_s": (secs["classify.maxfan.self"], "s"),
        "classify.maxfan.candidates": (calls["maxfan.candidates"], "count"),
        "classify.maxfan.cones": (calls["maxfan.cones"], "count"),
        "jsonio.s": (secs["jsonio"], "s"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "galefan" / "__init__.py").is_file():
        print(f"galefan sources not found under {SRC}", file=sys.stderr)
        return 2

    inputs, setup_s = generate(args.workload, args.seed)
    if not args.trace:
        ops, wall, reports, _ = run_workload(
            args.workload, inputs, False, time.perf_counter() + args.seconds
        )
        metrics = end_to_end(ops, wall, reports, setup_s)
        all_ops = ops
    else:
        plain, plain_wall, plain_reports, used = run_workload(
            args.workload, inputs, False, time.perf_counter() + args.seconds / 2
        )
        traced, traced_wall, reports, _ = run_workload(
            args.workload, inputs, True, math.inf, used
        )
        metrics = per_layer(traced, reports)
        metrics["cli.startup_s"] = (
            statistics.median(r["startup"] for r in plain_reports), "s"
        )
        metrics["trace.overhead_share"] = (traced_wall / plain_wall - 1, "share")
        all_ops = plain + traced

    reasons = Counter(op.reason for op in all_ops if op.reason)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"operations attempted {len(all_ops)}, failed {sum(reasons.values())}, "
          f"failed_share {sum(reasons.values()) / max(1, len(all_ops)):.4f}, "
          f"slowest {max(op.latency for op in all_ops):.3f} s")
    for reason in FAILURE_REASONS:
        print(f"  failed by {reason}: {reasons[reason]}")
    for op in [op for op in all_ops if op.reason][:10]:
        print(f"  op {op.id} {op.name} {op.reason}: {op.detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": reasons["wrong"] == 0,
        "attempted": len(all_ops),
        "failed": sum(reasons.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
