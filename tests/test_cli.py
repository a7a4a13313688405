"""End-to-end tests for the galefan command line interface.

Each test drives ``galefan.cli.main`` directly and checks the JSON
written to stdout together with the exit code.  Expected outputs are
frozen byte-for-byte where the result is canonical.
"""

import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from galefan import VectorConfiguration, configs_equivalent
from galefan.cli import COMMANDS, main
from galefan.errors import SEARCH_CAP


P2_PAIR = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [1]]}
P2_FAN = {
    "config": {"rank": 2, "vectors": [[-1, -1], [1, 0], [0, 1]]},
    "cones": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]],
}
P2_SKELETON = {
    "config": {"rank": 2, "vectors": [[-1, -1], [1, 0], [0, 1]]},
    "cones": [[], [1], [2], [3]],
}
# not a fan: the cones [1, 2] and [1, 4] overlap, since (1, 1) lies inside the first
OVERLAPPING_FAN = {
    "config": {"rank": 2, "vectors": [[1, 0], [0, 1], [-1, -1], [1, 1]]},
    "cones": [[1], [2], [3], [4], [1, 2], [1, 4]],
}
OVERLAPPING_ERROR = {
    "error": {
        "type": "invalid-fan",
        "message": "invalid fan: cones [1, 2] and [1, 4] do not meet in a common face",
    }
}


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def jfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def test_gale_transform_stdin(cli):
    code, out, _ = cli(
        ["gale", "transform"],
        stdin='{"rank":2,"vectors":[[1,0],[1,2]]}',
    )
    assert code == 0
    assert out == '{"collection":[[1],[1]],"group":{"free_rank":0,"torsion":[2]}}\n'


def test_gale_inverse_from_file(cli, tmp_path):
    pair = {"group": {"free_rank": 0, "torsion": [2]}, "collection": [[1], [1]]}
    code, out, _ = cli(["gale", "inverse", "-i", jfile(tmp_path, "pair.json", pair)])
    assert code == 0
    assert out == '{"configuration":{"rank":2,"vectors":[[-1,-1],[1,-1]]}}\n'
    # feeding the configuration back through the transform recovers the pair
    config = json.loads(out)["configuration"]
    code2, out2, _ = cli(["gale", "transform"], stdin=json.dumps(config))
    assert code2 == 0
    assert json.loads(out2) == pair


def test_gale_round_trip_prints_a_short_basis(cli):
    # the Smith-form kernel basis of this round trip has five-digit
    # entries, and check suitable gave no answer on it within a minute
    config = {"rank": 3, "vectors": [[-1, 3, 4], [4, -3, 4], [-3, 0, 2], [-2, -3, 0]]}
    code, pair, _ = cli(["gale", "transform"], stdin=json.dumps(config))
    assert code == 0
    code, out, _ = cli(["gale", "inverse"], stdin=pair)
    assert code == 0
    back = json.loads(out)["configuration"]
    assert configs_equivalent(VectorConfiguration(3, tuple(map(tuple, back["vectors"]))),
                              VectorConfiguration(3, tuple(map(tuple, config["vectors"]))))
    start = time.perf_counter()
    code, out, _ = cli(["check", "suitable"], stdin=json.dumps(back))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["suitable"] is True


def test_gale_linear(cli):
    code, out, _ = cli(
        ["gale", "linear"],
        stdin='{"rank":2,"vectors":[[-1,-1],[1,0],[0,1]]}',
    )
    assert code == 0
    assert out == '{"dimension":1,"vectors":[[1],[1],[1]]}\n'


def test_gale_canonical(cli):
    code, out, _ = cli(
        ["gale", "canonical"],
        stdin='{"rank":2,"vectors":[[1,2],[1,0],[2,2]]}',
    )
    assert code == 0
    payload = json.loads(out)
    # canonical form is idempotent
    code2, out2, _ = cli(
        ["gale", "canonical"], stdin=json.dumps(payload["configuration"])
    )
    assert code2 == 0
    assert json.loads(out2)["configuration"] == payload["configuration"]


def test_gale_equivalent_exit_codes(cli, tmp_path):
    a = jfile(tmp_path, "a.json", {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [2]]})
    b = jfile(tmp_path, "b.json", {"group": {"free_rank": 1, "torsion": []}, "collection": [[2], [1]]})
    c = jfile(tmp_path, "c.json", {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [-2]]})
    code, out, _ = cli(["gale", "equivalent", "-i", a, "-j", b])
    assert code == 0 and out == '{"equivalent":true}\n'
    code, out, _ = cli(["gale", "equivalent", "-i", a, "-j", c])
    assert code == 1 and out == '{"equivalent":false}\n'


def test_check_admissible(cli):
    good = '{"group":{"free_rank":1,"torsion":[]},"collection":[[1],[1],[1]]}'
    code, out, _ = cli(["check", "admissible"], stdin=good)
    assert code == 0
    assert json.loads(out) == {"admissible": True, "generates": True, "failing_index": None}

    bad = '{"group":{"free_rank":1,"torsion":[]},"collection":[[1],[2]]}'
    code, out, _ = cli(["check", "admissible"], stdin=bad)
    assert code == 1
    assert json.loads(out) == {"admissible": False, "generates": True, "failing_index": 1}


def test_check_suitable(cli):
    code, out, _ = cli(["check", "suitable"], stdin='{"rank":2,"vectors":[[1,0],[2,3]]}')
    assert code == 0
    assert json.loads(out) == {
        "suitable": True,
        "witnesses": [[-1, 1], [1, -1]],
        "failing_index": None,
    }
    code, out, _ = cli(["check", "suitable"], stdin='{"rank":1,"vectors":[[2]]}')
    assert code == 1
    assert json.loads(out)["failing_index"] == 1


def test_check_fan_violations_are_one_based(cli):
    bad = {"config": {"rank": 2, "vectors": [[2, 0], [0, 1]]}, "cones": [[1], [2]]}
    code, out, _ = cli(["check", "fan"], stdin=json.dumps(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"][0]["code"] == "nonprimitive-ray"
    assert payload["violations"][0]["indices"] == [1]


def test_fan_messages_use_the_indices_they_report(cli):
    # one fan with every violation kind; all numbers a user sees are 1-based
    bad = {
        "config": {"rank": 2, "vectors": [[2, 0], [0, 1], [1, 1], [0, 2]]},
        "cones": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3], [1, 4]],
    }
    code, out, _ = cli(["check", "fan"], stdin=json.dumps(bad))
    assert code == 1
    violations = json.loads(out)["violations"]
    assert {v["code"] for v in violations} == {
        "nonprimitive-ray",
        "duplicate-ray-direction",
        "missing-ray-cone",
        "dependent-cone",
        "not-face-closed",
        "bad-intersection",
    }
    for v in violations:
        flat = [i for x in v["indices"] for i in (x if isinstance(x, list) else [x])]
        numbers = [int(n) for n in re.findall(r"\d+", v["message"])]
        assert set(numbers) == set(flat), v
    messages = "; ".join(v["message"] for v in violations)
    code, out, _ = cli(["fan", "roots", "--bound", "1"], stdin=json.dumps(bad))
    assert code == 2
    assert json.loads(out)["error"] == {"type": "invalid-fan", "message": "invalid fan: " + messages}


def test_check_fan_valid(cli):
    code, out, _ = cli(["check", "fan"], stdin=json.dumps(P2_FAN))
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_check_strongly_regular(cli):
    code, out, _ = cli(["check", "strongly-regular"], stdin=json.dumps(P2_FAN))
    assert code == 0
    payload = json.loads(out)
    assert payload["strongly_regular"] is True
    assert payload["failing_cone"] is None
    # one certificate entry per nonzero cone: 3 rays + 3 two-dimensional cones
    assert len(payload["certificate"]) == 6

    code, out, _ = cli(["check", "strongly-regular"], stdin=json.dumps(P2_SKELETON))
    assert code == 1
    payload = json.loads(out)
    assert payload["strongly_regular"] is False
    assert payload["failing_cone"] == [1]


def test_check_one_skeleton(cli):
    code, out, _ = cli(
        ["check", "one-skeleton"],
        stdin='{"rank":2,"vectors":[[-1,-1],[1,0],[0,1]]}',
    )
    assert code == 1 and json.loads(out) == {"strongly_regular": False}
    code, out, _ = cli(
        ["check", "one-skeleton"],
        stdin='{"rank":2,"vectors":[[1,0],[0,1]]}',
    )
    assert code == 0 and json.loads(out) == {"strongly_regular": True}


def test_fan_build_max(cli):
    code, out, _ = cli(["fan", "build-max"], stdin=json.dumps(P2_PAIR))
    assert code == 0
    assert json.loads(out) == P2_FAN


def test_fan_roots(cli, tmp_path):
    fan = jfile(tmp_path, "fan.json", P2_FAN)
    code, out, _ = cli(["fan", "roots", "-i", fan, "--bound", "1"])
    assert code == 0
    assert json.loads(out) == {
        "roots": [
            {"covector": [-1, 0], "ray": 2},
            {"covector": [-1, 1], "ray": 2},
            {"covector": [0, -1], "ray": 3},
            {"covector": [0, 1], "ray": 1},
            {"covector": [1, -1], "ray": 3},
            {"covector": [1, 0], "ray": 1},
        ]
    }


def test_fan_connect(cli, tmp_path):
    fan = jfile(tmp_path, "fan.json", P2_FAN)
    code, out, _ = cli(["fan", "connect", "-i", fan, "--cone", "2,3", "--facet", "3"])
    assert code == 0
    assert json.loads(out) == {"connected": True, "root": {"covector": [-1, 0], "ray": 2}}

    skeleton = jfile(tmp_path, "skel.json", P2_SKELETON)
    code, out, _ = cli(["fan", "connect", "-i", skeleton, "--cone", "1", "--facet", ""])
    assert code == 1
    assert json.loads(out) == {"connected": False, "root": None}


def test_fan_connect_refuses_a_repeated_index(cli, tmp_path):
    fan = jfile(tmp_path, "fan.json", P2_FAN)
    code, out, _ = cli(["fan", "connect", "-i", fan, "--cone", "1,1,2", "--facet", "1"])
    assert code == 2
    assert json.loads(out) == {"error": {"type": "input", "message": "--cone: repeated index"}}


def test_fan_connect_refuses_an_invalid_fan(cli):
    code, out, _ = cli(
        ["fan", "connect", "--cone", "1,2", "--facet", "1"], stdin=json.dumps(OVERLAPPING_FAN)
    )
    assert (code, json.loads(out)) == (2, OVERLAPPING_ERROR)


def test_fan_he_pairs_equals_syntax(cli, tmp_path):
    # the leading minus forces --covector=-1,0 syntax through argparse
    fan = jfile(tmp_path, "fan.json", P2_FAN)
    code, out, _ = cli(["fan", "he-pairs", "-i", fan, "--covector=-1,0", "--ray", "2"])
    assert code == 0
    assert json.loads(out) == {
        "pairs": [
            {"cone": [2], "facet": []},
            {"cone": [2, 3], "facet": [3]},
        ]
    }


def test_gset_check_violations(cli):
    base = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [1]]}
    co_singletons = [[1, 2], [1, 3], [2, 3]]

    ok = dict(base, members=co_singletons + [[1], [2], [1, 2, 3]])
    code, out, _ = cli(["gset", "check"], stdin=json.dumps(ok))
    assert code == 0 and json.loads(out) == {"connected": True, "violation": None}

    missing_single = dict(base, members=co_singletons + [[1, 2, 3]])
    code, out, _ = cli(["gset", "check"], stdin=json.dumps(missing_single))
    assert code == 1
    assert json.loads(out)["violation"] == {"condition": "C3", "member": [1, 2]}

    missing_cosingleton = dict(base, members=[[2, 3], [1, 2, 3]])
    code, out, _ = cli(["gset", "check"], stdin=json.dumps(missing_cosingleton))
    assert code == 1
    assert json.loads(out)["violation"] == {"condition": "C1", "index": 2}

    four = {
        "group": {"free_rank": 1, "torsion": []},
        "collection": [[1], [1], [1], [1]],
        "members": [[1], [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]],
    }
    code, out, _ = cli(["gset", "check"], stdin=json.dumps(four))
    assert code == 1
    assert json.loads(out)["violation"] == {"condition": "C2", "index": 2, "member": [1]}


def test_gset_to_fan_and_back(cli, tmp_path):
    gset = dict(P2_PAIR, members=[[1], [2], [1, 2], [1, 3], [2, 3], [1, 2, 3]])
    code, out, _ = cli(["gset", "to-fan"], stdin=json.dumps(gset))
    assert code == 0
    fan = json.loads(out)
    assert fan["cones"] == [[], [1], [2], [3], [1, 3], [2, 3]]

    pair = jfile(tmp_path, "pair.json", P2_PAIR)
    fan_file = jfile(tmp_path, "fan.json", fan)
    code, out, _ = cli(["gset", "from-fan", "-i", pair, "-f", fan_file])
    assert code == 0
    assert sorted(json.loads(out)["members"]) == sorted(gset["members"])


def test_gset_enumerate(cli):
    code, out, _ = cli(["gset", "enumerate"], stdin=json.dumps(P2_PAIR))
    assert code == 0
    gsets = json.loads(out)["gsets"]
    assert len(gsets) == 4
    sizes = sorted(len(g["members"]) for g in gsets)
    assert sizes == [6, 6, 6, 7]
    full = [g for g in gsets if len(g["members"]) == 7][0]
    assert full["members"] == [[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]


def test_classify_pair(cli):
    pair = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [2], [3]]}
    code, out, _ = cli(["classify", "pair"], stdin=json.dumps(pair))
    assert code == 0
    assert json.loads(out) == {
        "affine": False,
        "complete": False,
        "quasiaffine": False,
        "product_decomposition": [[1, 2, 3, 4]],
        "rank_one_type": 2,
        "type2_regular_locus": False,
        "semisimple_shape": False,
    }


def test_classify_pair_scans_values_not_indices(cli):
    # one index per distinct value: Z with 40 copies of 1 scans a single value
    for n in (16, 40):
        pair = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1]] * n}
        start = time.perf_counter()
        code, out, _ = cli(["classify", "pair"], stdin=json.dumps(pair))
        assert time.perf_counter() - start < 1
        assert code == 0
        payload = json.loads(out)
        assert payload["product_decomposition"] == [list(range(1, n + 1))]
        assert payload["complete"] and payload["semisimple_shape"]
        assert payload["type2_regular_locus"] is True


def test_classify_pair_product(cli):
    pair = {
        "group": {"free_rank": 2, "torsion": []},
        "collection": [[1, 0], [0, 1], [1, 0], [0, 1]],
    }
    code, out, _ = cli(["classify", "pair"], stdin=json.dumps(pair))
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["product_decomposition"] == [[1, 3], [2, 4]]


def test_classify_semisimple(cli):
    pair = {"group": {"free_rank": 1, "torsion": []}, "collection": [[2], [2], [3], [3]]}
    code, out, _ = cli(["classify", "semisimple"], stdin=json.dumps(pair))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_shape"] is True
    assert payload["coincides_with_maximal"] is True
    assert payload["value_groups"] == [[1, 2], [3, 4]]
    assert len(payload["gset"]["members"]) == 9

    not_shape = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1], [1], [2], [3]]}
    code, out, _ = cli(["classify", "semisimple"], stdin=json.dumps(not_shape))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_shape"] is False
    assert payload["gset"] is None


def test_classify_big_open(cli, tmp_path):
    maximal = jfile(tmp_path, "max.json", P2_FAN)
    skeleton = jfile(tmp_path, "skel.json", P2_SKELETON)
    code, out, _ = cli(["classify", "big-open", "-i", skeleton, "-m", maximal])
    assert code == 0 and json.loads(out) == {"big_open": True}
    code, out, _ = cli(["classify", "big-open", "-i", maximal, "-m", skeleton])
    assert code == 1 and json.loads(out) == {"big_open": False}
    # a family without the third ray is no fan at all
    partial = jfile(
        tmp_path,
        "partial.json",
        {"config": P2_FAN["config"], "cones": [[], [1], [2]]},
    )
    code, out, _ = cli(["classify", "big-open", "-i", partial, "-m", maximal])
    assert code == 2 and json.loads(out)["error"]["type"] == "invalid-fan"


def test_classify_big_open_refuses_an_invalid_fan(cli, tmp_path):
    overlapping = jfile(tmp_path, "overlapping.json", OVERLAPPING_FAN)
    code, out, _ = cli(["classify", "big-open", "-i", overlapping, "-m", overlapping])
    assert (code, json.loads(out)) == (2, OVERLAPPING_ERROR)


def test_every_fan_command_refuses_an_invalid_fan(cli, tmp_path):
    overlapping = jfile(tmp_path, "overlapping.json", OVERLAPPING_FAN)
    maximal = jfile(tmp_path, "max.json", P2_FAN)
    pair = jfile(tmp_path, "pair.json", P2_PAIR)
    for argv in (
        ["check", "strongly-regular", "-i", overlapping],
        ["fan", "roots", "--bound", "1", "-i", overlapping],
        ["fan", "he-pairs", "--covector=-1,0", "--ray", "1", "-i", overlapping],
        ["gset", "from-fan", "-i", pair, "-f", overlapping],
        ["classify", "big-open", "-i", maximal, "-m", overlapping],
    ):
        code, out, _ = cli(argv)
        assert (code, json.loads(out)) == (2, OVERLAPPING_ERROR), argv
    # check fan reports the family instead of refusing it
    code, out, _ = cli(["check", "fan", "-i", overlapping])
    assert code == 1
    assert out == (
        '{"valid":false,"violations":[{"code":"bad-intersection","indices":[[1,2],[1,4]],'
        '"message":"cones [1, 2] and [1, 4] do not meet in a common face"}]}\n'
    )
    # a negative bound is refused before the fan is read
    code, out, _ = cli(["fan", "roots", "--bound", "-1", "-i", overlapping])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "input",
        "message": "roots: --bound must be a non-negative integer",
    }


def test_fans_in_another_basis_of_the_relations_are_accepted(cli, tmp_path):
    # the rays in the unreduced Smith-form basis of the relations: the
    # same configuration up to a unimodular change of basis
    pair = {"group": {"free_rank": 1, "torsion": [2]}, "collection": [[1, 1], [1, 0], [-1, 0], [-1, 1]]}
    config = {"rank": 3, "vectors": [[0, -1, -2], [1, 2, 2], [1, 0, 0], [0, 1, 0]]}
    cones = [[], [1], [2], [3], [4], [1, 3], [2, 4]]
    code, out, _ = cli(["fan", "build-max"], stdin=json.dumps(pair))
    assert code == 0 and json.loads(out)["cones"] == cones
    assert json.loads(out)["config"] != config
    maximal = jfile(tmp_path, "max.json", json.loads(out))
    saved = jfile(tmp_path, "saved.json", {"config": config, "cones": cones})
    code, out, _ = cli(["gset", "from-fan", "-i", jfile(tmp_path, "pair.json", pair), "-f", saved])
    assert code == 0 and len(json.loads(out)["members"]) == len(cones)
    code, out, _ = cli(["classify", "big-open", "-i", saved, "-m", maximal])
    assert code == 0 and json.loads(out) == {"big_open": True}


def test_input_errors_exit_2(cli, tmp_path):
    cases = [
        (["gale", "transform"], "not json"),
        (["gale", "transform"], '{"vectors":[[1,0]]}'),
        (["gale", "transform"], '{"rank":-1,"vectors":[]}'),
        (["gale", "canonical"], '{"rank":2,"vectors":[[1,0],[1]]}'),
        (["gset", "check"], json.dumps(dict(P2_PAIR, members=[[1]]))),
    ]
    for argv, text in cases:
        code, out, _ = cli(argv, stdin=text)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "input"
        assert payload["error"]["message"]

    fan = jfile(tmp_path, "fan.json", P2_FAN)
    code, out, _ = cli(["fan", "roots", "-i", fan])
    assert code == 2 and json.loads(out)["error"]["type"] == "input"

    code, out, _ = cli(["fan", "connect", "-i", fan, "--cone", "9", "--facet", ""])
    assert code == 2
    assert "out of range" in json.loads(out)["error"]["message"]

    code, out, _ = cli(["fan", "he-pairs", "-i", fan, "--covector=-1,0"])
    assert code == 2 and json.loads(out)["error"]["type"] == "input"

    code, out, _ = cli(["gale", "transform", "-i", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in json.loads(out)["error"]["message"]


def test_precondition_errors_exit_2(cli):
    not_admissible = '{"group":{"free_rank":1,"torsion":[]},"collection":[[1],[2]]}'
    code, out, _ = cli(["fan", "build-max"], stdin=not_admissible)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "precondition"

    not_generating = '{"group":{"free_rank":1,"torsion":[]},"collection":[[2],[2]]}'
    code, out, _ = cli(["gale", "inverse"], stdin=not_generating)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "precondition"

    # every gset command refuses that collection the same way
    refused = {"error": {"type": "precondition", "message": "collection does not generate its group"}}
    gset = not_generating[:-1] + ',"members":[[1],[2],[1,2]]}'
    for argv, document in ((["gset", "check"], gset), (["gset", "to-fan"], gset),
                           (["gset", "enumerate"], not_generating)):
        code, out, _ = cli(argv, stdin=document)
        assert (code, json.loads(out)) == (2, refused), argv


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", "admissible"], (1, {"admissible": False, "generates": False, "failing_index": None})),
        (["classify", "pair"], (2, {"error": {"type": "precondition",
                                              "message": "collection does not generate its group"}})),
    ],
)
def test_too_few_elements_for_a_large_group_answer_at_once(cli, argv, expected):
    # Z^30000 needs 30000 generators; no Smith form of a 30000 x 30000
    # transform is built to find that out
    pair = '{"group":{"free_rank":30000,"torsion":[]},"collection":[]}'
    start = time.perf_counter()
    code, out, _ = cli(argv, stdin=pair)
    assert time.perf_counter() - start < 1
    assert (code, json.loads(out)) == expected


def test_cap_exceeded_exit_3(cli):
    # Z (1^10): the G-set subfan search is refused at its step cap
    ten = {"group": {"free_rank": 1, "torsion": []}, "collection": [[1]] * 10}
    code, out, err = cli(["gset", "enumerate"], stdin=json.dumps(ten))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "cap-exceeded"
    assert "Traceback" not in err


def test_root_scan_past_the_cap_exits_3_at_once(cli):
    # (2*10^6+1)^3 covectors would take days to scan; a bound too long to
    # print whole is refused the same way
    p3 = {
        "config": {"rank": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]},
        "cones": [[], [1], [2], [3], [4], [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4]],
    }
    for bound in ("1000000", "9" * 4300):
        start = time.perf_counter()
        code, out, _ = cli(["fan", "roots", "--bound", bound], stdin=json.dumps(p3))
        assert time.perf_counter() - start < 5
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "cap-exceeded"
        assert "(2*%s+1)^3" % bound in error["message"]
        assert "cap of %d" % SEARCH_CAP in error["message"]
    code, out, _ = cli(["fan", "roots", "--bound", "100"], stdin=json.dumps(p3))
    assert code == 3
    assert "(2*100+1)^3 = 8120601 covectors" in json.loads(out)["error"]["message"]


def test_searches_past_the_cap_exit_3_at_once(cli, tmp_path, monkeypatch):
    # 10! bijections and 2^19-1 shape members: each count is checked
    # before the search starts, so both are refused at once
    monkeypatch.chdir(tmp_path)

    def ints(values):
        return {"group": {"free_rank": 1, "torsion": []}, "collection": [[v] for v in values]}

    (tmp_path / "other.json").write_text(json.dumps(ints(range(-1, -11, -1))), encoding="utf-8")
    for argv, stdin, count in (
        (["gale", "equivalent", "-j", "other.json"], ints(range(1, 11)), "10! = 3628800 bijections"),
        (["classify", "semisimple"], ints([1] * 19), "(2^19-1) = 524287 members"),
    ):
        start = time.perf_counter()
        code, out, _ = cli(argv, stdin=json.dumps(stdin))
        assert time.perf_counter() - start < 5
        assert code == 3
        message = json.loads(out)["error"]["message"]
        assert message.endswith("of %s exceeds the cap of %d" % (count, SEARCH_CAP))


def test_argv_errors_get_the_input_envelope(cli, tmp_path):
    # a two-input command without its second file, or whose second input
    # is stdin while the first reads it, names the flag instead of
    # reading stdin twice
    missing = ": the second input file is missing"
    taken = ": standard input already holds the first input"
    for argv, stdin, flag, why in (
        (["gale", "equivalent"], P2_PAIR, "-j/--other", missing),
        (["gset", "from-fan"], P2_PAIR, "-f/--fan", missing),
        (["classify", "big-open"], P2_FAN, "-m/--maximal", missing),
        (["gale", "equivalent", "-j", "-"], P2_PAIR, "-j/--other", taken),
        (["gset", "from-fan", "-f", "-"], P2_PAIR, "-f/--fan", taken),
        (["classify", "big-open", "-i", "-", "-m", "-"], P2_FAN, "-m/--maximal", taken),
    ):
        code, out, err = cli(argv, stdin=json.dumps(stdin))
        assert (code, json.loads(out), err) == (2, {"error": {"type": "input", "message": flag + why}}, "")
    # with the first input in a file, stdin holds the second
    fan_file = jfile(tmp_path, "fan.json", P2_FAN)
    code, out, _ = cli(["classify", "big-open", "-i", fan_file, "-m", "-"], stdin=json.dumps(P2_FAN))
    assert (code, json.loads(out)) == (0, {"big_open": True})
    # what the parser refuses gets the envelope too, with the parser's
    # message, and so does an integer flag that is not an integer string
    for argv, words in (
        (["gale", "transform", "--bound", "3"], "unrecognized arguments: --bound 3"),
        (["fan", "roots", "--bound", "abc"], "--bound"),
        (["gale", "flip"], "invalid choice: 'flip'"),
        (["gset"], "action"),
        (["nonesuch"], "invalid choice: 'nonesuch'"),
    ):
        code, out, err = cli(argv, stdin="{}")
        assert (code, err) == (2, ""), argv
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "input" and words in error["message"], argv


def test_no_command_prints_usage(cli):
    code, out, err = cli([])
    assert code == 2
    assert out == ""
    assert "usage:" in err


def test_element_objects_accepted_on_input(cli):
    pair = {
        "group": {"free_rank": 0, "torsion": [2]},
        "collection": [
            {"free": [], "torsion": [1]},
            {"free": [], "torsion": [1]},
        ],
    }
    code, out, _ = cli(["gale", "inverse"], stdin=json.dumps(pair))
    assert code == 0
    assert out == '{"configuration":{"rank":2,"vectors":[[-1,-1],[1,-1]]}}\n'


def test_big_integers_round_trip_as_strings(cli):
    big = 2**64
    config = {"rank": 2, "vectors": [[big, 0], [0, 1]]}
    code, out, _ = cli(["gale", "canonical"], stdin=json.dumps(config))
    assert code == 0
    payload = json.loads(out)
    # coordinates beyond 2**63 - 1 are emitted as decimal strings
    assert payload["configuration"]["vectors"][0][0] == str(big)
    code2, out2, _ = cli(["gale", "canonical"], stdin=json.dumps(payload["configuration"]))
    assert code2 == 0 and out2 == out
    # vectors and witnesses outside the configuration codec too
    config = {"rank": 2, "vectors": [[1, 0], [0, 1], [big, 1]]}
    code, out, _ = cli(["gale", "linear"], stdin=json.dumps(config))
    assert (code, json.loads(out)) == (0, {"dimension": 1, "vectors": [[str(-big)], [-1], [1]]})
    config = {"rank": 2, "vectors": [[1, 0], [big, 1]]}
    code, out, _ = cli(["check", "suitable"], stdin=json.dumps(config))
    assert (code, json.loads(out)["witnesses"]) == (0, [[-1, str(big)], [0, -1]])


def test_integer_strings_are_decimal_digits(cli):
    # "²" is a digit to str.isdigit, but int cannot read it; a sign and
    # surrounding whitespace are read
    def pair(first):
        return json.dumps({"group": {"free_rank": 1, "torsion": []}, "collection": [[first], [1], [1]]})

    code, out, _ = cli(["check", "admissible"], stdin=pair("²"))
    message = "pair.collection[0][0]: invalid integer string '²'"
    assert (code, json.loads(out)) == (2, {"error": {"type": "input", "message": message}})
    assert cli(["check", "admissible"], stdin=pair(" +3 ")) == cli(["check", "admissible"], stdin=pair(3))


@pytest.mark.parametrize("digit", ["\u0663", "\uff13", "\u09e9"], ids=["arabic-indic", "fullwidth", "bengali"])
def test_integer_strings_are_ascii_digits(cli, digit):
    # Arabic-Indic, fullwidth and Bengali three are decimal digits that
    # int reads as 3, but an integer string is ASCII digits
    text = json.dumps({"group": {"free_rank": 1, "torsion": []}, "collection": [[digit], [-1]]})
    code, out, _ = cli(["check", "admissible"], stdin=text)
    message = f"pair.collection[0][0]: invalid integer string {digit!r}"
    assert (code, json.loads(out)) == (2, {"error": {"type": "input", "message": message}})


@pytest.mark.parametrize(
    "argv, what, value",
    [
        (["fan", "roots", "--bound", "1_0"], "--bound[0]", "1_0"),
        (["fan", "connect", "--cone", "\u0661", "--facet", ""], "--cone[0]", "\u0661"),
        (["fan", "connect", "--cone", "2,3", "--facet", "\u0663"], "--facet[0]", "\u0663"),
        (["fan", "he-pairs", "--covector= -1,\u0660", "--ray", "2"], "--covector[1]", "\u0660"),
        (["fan", "he-pairs", "--covector=-1,0", "--ray", "\u0661"], "root.ray", "\u0661"),
    ],
    ids=["bound", "cone", "facet", "covector", "ray"],
)
def test_integer_flags_follow_the_integer_string_rule(cli, argv, what, value):
    # int reads "1_0" as 10 and every Unicode decimal digit; the flags are
    # read as JSON integer strings are, like --cone and --facet
    code, out, _ = cli(argv, stdin=json.dumps(P2_FAN))
    message = f"{what}: invalid integer string {value!r}"
    assert (code, json.loads(out)) == (2, {"error": {"type": "input", "message": message}})


@pytest.mark.parametrize("quote, where", [("", "invalid JSON"), ('"', "pair.collection[0][0]")])
def test_integers_past_the_digit_limit_get_the_input_envelope(cli, quote, where):
    # as a JSON number and as a string; the limit is the interpreter's
    limit = sys.get_int_max_str_digits()
    number = quote + "1" * (limit + 1) + quote
    text = '{"group":{"free_rank":1,"torsion":[]},"collection":[[%s],[1],[1]]}' % number
    code, out, _ = cli(["check", "admissible"], stdin=text)
    message = f"{where}: integers are limited to {limit} digits"
    assert (code, json.loads(out)) == (2, {"error": {"type": "input", "message": message}})


def test_integers_past_the_digit_limit_in_a_result_get_the_error_envelope(cli):
    # every input integer is within the limit, but the Gale dual is Z and
    # its third element, 3 * 10^5999 + 10^3000, has 6,001 digits
    config = {"rank": 2, "vectors": [[10**3000, 0], [0, 3 * 10**2999 + 1], [1, 1]]}
    code, out, _ = cli(["gale", "transform"], stdin=json.dumps(config))
    message = f"output: integers are limited to {sys.get_int_max_str_digits()} digits"
    assert (code, json.loads(out)) == (2, {"error": {"type": "error", "message": message}})


def test_an_element_with_a_zero_dual_vector_fails_admissibility_first(cli):
    # element 3 lies in no relation, so its ray would be zero: generation
    # holds, admissibility fails at element 3, and only the bare inverse
    # transform reaches the zero vector
    pair = json.dumps({"group": {"free_rank": 2, "torsion": []}, "collection": [[1, 0], [1, 0], [0, 1]]})

    def precondition(message):
        return 2, {"error": {"type": "precondition", "message": message}}

    failing = precondition("element 3 is not a non-negative combination of the others")
    for argv in (["fan", "build-max"], ["classify", "pair"]):
        code, out, _ = cli(argv, stdin=pair)
        assert (code, json.loads(out)) == failing, argv
    code, out, _ = cli(["gale", "inverse"], stdin=pair)
    assert (code, json.loads(out)) == precondition("configuration contains a zero vector")
    code, out, _ = cli(["check", "admissible"], stdin=pair)
    assert (code, json.loads(out)) == (1, {"admissible": False, "failing_index": 3, "generates": True})


def test_output_is_deterministic(cli):
    runs = []
    for _ in range(2):
        code, out, _ = cli(["gset", "enumerate"], stdin=json.dumps(P2_PAIR))
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].endswith("\n") and runs[0].count("\n") == 1


def test_fixture_suite_passes(cli):
    code, out, _ = cli(["--fixtures"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "12 passed, 0 failed"
    assert sum(1 for line in lines if line.startswith("PASS ")) == 12


def test_console_script_entry_point():
    # -O strips assert statements; the certificate checks must not depend on them
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "galefan.cli", "--fixtures"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "12 passed, 0 failed" in proc.stdout


# arbitrary JSON for every command, plus inputs shaped like the
# command's configuration, pair, G-set or fan (coordinate counts agree,
# so the computation is reached) with about one field in four replaced
# by arbitrary JSON; a command with two inputs gets one of each
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _vectors(width, max_size=5):
    return st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=max_size)


def _shaped(fields):
    return st.fixed_dictionaries(
        {k: st.integers(0, 3).flatmap(lambda j, v=v: v if j else _json_values) for k, v in fields.items()}
    )


_configs = st.integers(0, 3).flatmap(lambda n: _shaped({"rank": st.just(n), "vectors": _vectors(n)}))
_pairs = st.tuples(st.integers(0, 2), st.lists(st.integers(-1, 6), max_size=2)).flatmap(
    lambda g: _shaped(
        {
            "group": st.just({"free_rank": g[0], "torsion": g[1]}),
            # doubled values make a generating collection admissible
            "collection": _vectors(g[0] + len(g[1]))
            | _vectors(g[0] + len(g[1]), max_size=3).map(lambda vs: vs * 2),
        }
    )
)


def _with_rays(config):
    # every ray as a cone plus a few larger cones, so that some families are fans
    vectors = config.get("vectors")
    n = len(vectors) if isinstance(vectors, list) else 0
    extra = st.lists(st.lists(st.integers(1, max(n, 1)), min_size=2, max_size=3), max_size=3)
    return extra.map(lambda cones: {"config": config, "cones": [[i] for i in range(1, n + 1)] + cones})


_fans = (
    _shaped({"config": _configs, "cones": st.lists(st.lists(st.integers(0, 5), max_size=3), max_size=6)})
    | _configs.flatmap(_with_rays)
    | st.just(OVERLAPPING_FAN)
)


def _with_members(pair):
    # the full index set, which every family needs, plus a few subsets
    coll = pair.get("collection")
    full = list(range(1, len(coll) + 1)) if isinstance(coll, list) else []
    subsets = st.lists(st.lists(st.integers(1, 6), max_size=6), max_size=6)
    return subsets.map(lambda members: dict(pair, members=[full] + members))


_gsets = _pairs.flatmap(_with_members)
# a command's second input file is named SIDE in its argv
SIDE = "side.json"
_ONE_INPUT = {
    "config": [["gale", "transform"], ["gale", "linear"], ["gale", "canonical"], ["check", "suitable"],
               ["check", "one-skeleton"]],
    "pair": [["gale", "inverse"], ["check", "admissible"], ["fan", "build-max"], ["classify", "pair"],
             ["classify", "semisimple"], ["gset", "enumerate"]],
    "gset": [["gset", "check"], ["gset", "to-fan"]],
    "fan": [["check", "fan"], ["check", "strongly-regular"], ["fan", "roots", "--bound", "1"],
            ["fan", "connect", "--cone", "1,2", "--facet", "1"],
            ["fan", "he-pairs", "--covector=-1,0", "--ray", "1"]],
}
_TWO_INPUTS = [
    (["gale", "equivalent", "-j", SIDE], "pair", "pair"),
    (["gset", "from-fan", "-f", SIDE], "pair", "fan"),
    (["classify", "big-open", "-m", SIDE], "fan", "fan"),
]
_SHAPED = {"config": _configs, "pair": _pairs, "gset": _gsets, "fan": _fans}
_arbitrary = _json_values.map(json.dumps) | st.text(max_size=8)
_CASES = st.one_of(
    st.tuples(
        st.sampled_from([argv for argvs in _ONE_INPUT.values() for argv in argvs] + [t[0] for t in _TWO_INPUTS]),
        _arbitrary,
        _arbitrary,
    ),
    *[
        st.tuples(st.sampled_from(argvs), _SHAPED[kind].map(json.dumps), st.just(""))
        for kind, argvs in _ONE_INPUT.items()
    ],
    *[
        st.tuples(st.just(argv), _SHAPED[first].map(json.dumps), _SHAPED[second].map(json.dumps))
        for argv, first, second in _TWO_INPUTS
    ],
)


def test_every_command_is_fuzzed_and_pinned():
    # a command added to the table needs a fuzzed input and a golden record
    table = {(command, action) for command, actions in COMMANDS.items() for action in actions}
    fuzzed = {tuple(argv[:2]) for argvs in _ONE_INPUT.values() for argv in argvs}
    fuzzed |= {tuple(argv[:2]) for argv, _, _ in _TWO_INPUTS}
    corpus = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    pinned = {tuple(case["argv"][:2]) for case in corpus}
    assert (table - fuzzed, table - pinned) == (set(), set())


@pytest.fixture(scope="module")
def side_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("side")


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=_CASES)
def test_arbitrary_stdin_gets_one_json_line(case, side_dir):
    argv, payload, side = case
    (side_dir / SIDE).write_text(side, encoding="utf-8")
    argv = [str(side_dir / SIDE) if a == SIDE else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    json.loads(text)
    assert "Traceback" not in err.getvalue()


def test_golden_cli_corpus_is_byte_identical(cli, tmp_path, monkeypatch):
    # stdout and exit codes of four commands on torsion pairs, recorded
    # by tests/record_golden.py on the boxed membership search that the
    # Gale-dual covector search replaced (the roots in the strongly
    # regular certificates were re-recorded when root_connecting began
    # to search zero sets from the largest down), of gale inverse and
    # torsion-free fan build-max, which pin the printed relation basis,
    # of every fan command on overlapping cones, and of classify
    # semisimple, gale equivalent, check one-skeleton and torsion-free
    # classify pair, then of every command no record above reached and
    # of each yes/no command's missing positive or negative answer, and
    # last of the outputs changed on purpose since (G-set commands on a
    # collection that does not generate its group, 2^64 through gale
    # linear and check suitable, both inputs of a two-input command
    # named as stdin), and of two searches past the search cap; the gset
    # enumerate record past the cap was re-recorded when one search cap
    # replaced the per-search ones, and again, now answering P^4, when
    # the enumeration began to search subfans, which added Z (1,1,1,2,2);
    # the last record, classify pair on
    # Z (1,1,2,4,...,20), pins a pair with many distinct values, and the
    # check suitable and gale transform records after it pin seeded
    # configurations of rank 2 and 3; re-record only on purpose
    corpus = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert len(corpus) == 128
    monkeypatch.chdir(tmp_path)
    for case in corpus:
        for name, text in case.get("files", {}).items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        code, out, _ = cli(case["argv"], stdin=case["stdin"])
        assert (out, code) == (case["stdout"], case["exit"]), (case["name"], case["argv"])
