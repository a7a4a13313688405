"""Library batch user for the ``decide`` workload: one process, many calls.

Usage: ``python3 worker.py TRACE`` with galefan on ``PYTHONPATH``.  Reads
one JSON request per line on standard input and answers each with one
JSON line on standard output, holding the request's ``op`` id, the time
the library calls took (``s``) and either their answers (``out``) or the
traceback they raised (``error``).  The first line written is
``{"ready": t}`` once galefan is imported.  A ``{"kind": "exit"}``
request is answered with this process's peak RSS and, when TRACE is 1,
the recorded spans, and the worker ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _config_op(galefan, req) -> dict:
    config = galefan.VectorConfiguration(req["rank"], tuple(map(tuple, req["vectors"])))
    suit = galefan.is_suitable(config)
    group, dual = galefan.lattice_gale_transform(config)
    adm = galefan.is_admissible(dual)
    return {
        "suitable": suit.suitable,
        "witnesses": None if suit.witnesses is None else [list(w) for w in suit.witnesses],
        "group": {"free_rank": group.free_rank, "torsion": list(group.torsion)},
        "dual": [list(e.lift()) for e in dual],
        "admissible": adm.admissible,
        "generates": adm.generates,
    }


def _member_op(galefan, req) -> dict:
    g = req["group"]
    group = galefan.AbelianGroup(g["free_rank"], tuple(g["torsion"]))
    f = group.free_rank

    def element(v):
        return group.element(v[:f], v[f:])

    ok, witness = galefan.semigroup_membership(
        element(req["target"]), tuple(element(v) for v in req["gens"])
    )
    return {"member": ok, "witness": None if witness is None else list(witness)}


def main() -> int:
    trace = sys.argv[1] == "1"
    import galefan

    tracer = None
    if trace:
        import spans

        tracer = spans.install()
    ops = {"config": _config_op, "member": _member_op}
    out = sys.stdout
    out.write(json.dumps({"ready": time.perf_counter()}) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req["kind"] == "exit":
            out.write(
                json.dumps(
                    {
                        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        "spans": tracer.spans if tracer else [],
                    }
                )
                + "\n"
            )
            out.flush()
            return 0
        if tracer:
            tracer.op = req["op"]
        reply = {"op": req["op"]}
        start = time.perf_counter()
        try:
            reply["out"] = ops[req["kind"]](galefan, req)
        except Exception:
            reply["error"] = traceback.format_exc()
        reply["s"] = time.perf_counter() - start
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
