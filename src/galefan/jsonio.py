"""JSON interchange for groups, collections, configurations and fans.

Indices are 1-based on the wire, matching the usual numbering of rays
and collection elements; internally everything is 0-based, and only
this module converts between the two (``encode_index`` for every
output).  Integers outside the signed 64-bit range are serialized as
decimal strings so that consumers without big integers can keep them
exact (``encode_vector`` for every output); the parser accepts both
forms everywhere.  Serialization is deterministic: keys are sorted and
cones and members are ordered by size, then lexicographically.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional

from .classify import GSet
from .fans import DemazureRoot, SimplicialFan, VectorConfiguration
from .groups import AbelianGroup, ElementCollection, GroupElement

_I64_MAX = 2**63 - 1


class InputFormatError(ValueError):
    """Malformed or schema-violating JSON input."""


def encode_vector(vec) -> list:
    """The wire form of a sequence of integers.

    Outputs have the digit limit of inputs: a longer integer cannot be
    written, and raises ``OverflowError`` naming the limit.
    """
    try:
        return [c if -_I64_MAX - 1 <= c <= _I64_MAX else str(c) for c in vec]
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise OverflowError(f"output: integers are limited to {limit} digits") from exc


def _dec_int(value: Any, what: str) -> int:
    if isinstance(value, bool):
        raise InputFormatError(f"{what}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        s = value.strip()
        stripped = s[1:] if s[:1] in "+-" else s
        if not (stripped.isascii() and stripped.isdecimal()):
            raise InputFormatError(f"{what}: invalid integer string {value!r}")
        try:
            return int(s)
        except ValueError as exc:
            # int reads every ASCII digit, so only the length limit is left
            raise _too_long(what) from exc
    raise InputFormatError(f"{what}: expected an integer, got {type(value).__name__}")


def _too_long(what: str) -> InputFormatError:
    # the interpreter's limit on converting decimal strings is process-wide
    limit = sys.get_int_max_str_digits()
    return InputFormatError(f"{what}: integers are limited to {limit} digits")


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list):
        raise InputFormatError(f"{what}: expected a list")
    return [_dec_int(v, f"{what}[{i}]") for i, v in enumerate(value)]


def _obj(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputFormatError(f"{what}: expected an object")
    return value


def encode_group(group: AbelianGroup) -> dict:
    return {
        "free_rank": group.free_rank,
        "torsion": encode_vector(group.torsion),
    }


def decode_group(data: Any) -> AbelianGroup:
    d = _obj(data, "group")
    free = _dec_int(d.get("free_rank", 0), "group.free_rank")
    torsion = tuple(_int_list(d.get("torsion", []), "group.torsion"))
    try:
        return AbelianGroup(free, torsion)
    except ValueError as exc:
        raise InputFormatError(f"group: {exc}") from exc


def encode_element(e: GroupElement) -> list:
    return encode_vector(e.free + e.torsion)


def decode_element(group: AbelianGroup, data: Any, what: str) -> GroupElement:
    if isinstance(data, dict):
        free = _int_list(data.get("free", []), f"{what}.free")
        torsion = _int_list(data.get("torsion", []), f"{what}.torsion")
        if len(free) != group.free_rank or len(torsion) != len(group.torsion):
            raise InputFormatError(f"{what}: coordinate count does not match the group")
        return group.element(free, torsion)
    coords = _int_list(data, what)
    if len(coords) != group.coords:
        raise InputFormatError(
            f"{what}: expected {group.coords} coordinates, got {len(coords)}"
        )
    f = group.free_rank
    return group.element(coords[:f], coords[f:])


def encode_collection(coll: ElementCollection) -> list:
    return [encode_element(e) for e in coll]


def encode_pair(coll: ElementCollection) -> dict:
    return {"group": encode_group(coll.group), "collection": encode_collection(coll)}


def decode_pair(data: Any) -> ElementCollection:
    d = _obj(data, "pair")
    if "group" not in d:
        raise InputFormatError("pair: missing 'group'")
    group = decode_group(d["group"])
    raw = d.get("collection", [])
    if not isinstance(raw, list):
        raise InputFormatError("pair.collection: expected a list")
    elems = tuple(
        decode_element(group, e, f"pair.collection[{i}]") for i, e in enumerate(raw)
    )
    return ElementCollection(group, elems)


def encode_configuration(config: VectorConfiguration) -> dict:
    return {
        "rank": config.rank,
        "vectors": [encode_vector(v) for v in config.vectors],
    }


def decode_configuration(data: Any) -> VectorConfiguration:
    d = _obj(data, "configuration")
    if "rank" not in d:
        raise InputFormatError("configuration: missing 'rank'")
    rank = _dec_int(d["rank"], "configuration.rank")
    if rank < 0:
        raise InputFormatError(f"configuration.rank: must be non-negative, got {rank}")
    raw = d.get("vectors", [])
    if not isinstance(raw, list):
        raise InputFormatError("configuration.vectors: expected a list")
    vectors = []
    for i, v in enumerate(raw):
        coords = _int_list(v, f"configuration.vectors[{i}]")
        if len(coords) != rank:
            raise InputFormatError(
                f"configuration.vectors[{i}]: expected {rank} coordinates"
            )
        vectors.append(tuple(coords))
    try:
        return VectorConfiguration(rank, tuple(vectors))
    except Exception as exc:
        raise InputFormatError(f"configuration: {exc}") from exc


def encode_index(index: Any) -> Any:
    """The wire form of a 0-based index, or of a tuple or set of them
    nested to any depth: 1-based, tuples in order, sets sorted, and
    ``None`` (no index) kept."""
    if index is None:
        return None
    if isinstance(index, tuple):
        return [encode_index(i) for i in index]
    if isinstance(index, frozenset):
        return [encode_index(i) for i in sorted(index)]
    return index + 1


def decode_flag(text: Optional[str], what: str) -> list[int]:
    """The integers of a comma-separated command-line value, each read as
    an integer string; a blank or missing value has none."""
    return _int_list(text.split(",") if text and text.strip() else [], what)


def decode_index_set(data: Any, size: int, what: str) -> frozenset[int]:
    raw = _int_list(data, what)
    out = set()
    for v in raw:
        if not 1 <= v <= size:
            raise InputFormatError(f"{what}: index {v} out of range 1..{size}")
        out.add(v - 1)
    if len(out) != len(raw):
        raise InputFormatError(f"{what}: repeated index")
    return frozenset(out)


def encode_fan(fan: SimplicialFan) -> dict:
    return {
        "config": encode_configuration(fan.config),
        "cones": [encode_index(c) for c in fan.sorted_cones()],
    }


def decode_fan(data: Any) -> SimplicialFan:
    d = _obj(data, "fan")
    if "config" not in d:
        raise InputFormatError("fan: missing 'config'")
    config = decode_configuration(d["config"])
    raw = d.get("cones", [])
    if not isinstance(raw, list):
        raise InputFormatError("fan.cones: expected a list")
    cones = frozenset(
        decode_index_set(c, len(config), f"fan.cones[{i}]") for i, c in enumerate(raw)
    )
    return SimplicialFan(config, cones)


def encode_gset(gset: GSet) -> dict:
    out = encode_pair(gset.collection)
    out["members"] = [encode_index(m) for m in gset.sorted_members()]
    return out


def decode_gset(data: Any) -> GSet:
    d = _obj(data, "gset")
    coll = decode_pair(d)
    raw = d.get("members", [])
    if not isinstance(raw, list):
        raise InputFormatError("gset.members: expected a list")
    members = frozenset(
        decode_index_set(m, len(coll), f"gset.members[{i}]") for i, m in enumerate(raw)
    )
    try:
        return GSet(coll, members)
    except ValueError as exc:
        raise InputFormatError(f"gset: {exc}") from exc


def encode_root(root: DemazureRoot) -> dict:
    return {
        "covector": encode_vector(root.covector),
        "ray": encode_index(root.distinguished_ray),
    }


def decode_root(data: Any, rank: int, size: int) -> DemazureRoot:
    d = _obj(data, "root")
    cov = _int_list(d.get("covector", []), "root.covector")
    if len(cov) != rank:
        raise InputFormatError(f"root.covector: expected {rank} coordinates")
    ray = _dec_int(d.get("ray"), "root.ray") if "ray" in d else None
    if ray is None or not 1 <= ray <= size:
        raise InputFormatError(f"root.ray: expected an index in 1..{size}")
    return DemazureRoot(tuple(cov), ray - 1)


def dumps(obj: Any) -> str:
    """Deterministic single-line rendering with a trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:
        # the only other error: a number past the interpreter's digit limit
        raise _too_long("invalid JSON") from exc
