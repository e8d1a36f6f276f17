"""A seeded sweep of mutated inputs through every command that reads a file.

Each case starts from a valid file: one of the seven acceptance fixtures'
inputs (certify, decompose and witness, each at the input's own degree), one
of their certify outcome files (spotcheck), a random monoid or group tuple
(eval) or a random matrix of the size the flags need (extract).  One or two
mutations then replace a value somewhere in it, delete a key or truncate a
list.  fock-dump reads no file: its cases draw --g and --l.  The case runs
in-process through ncsos.cli.main and must end in 0, 1, 2, 64 or 65, with a
reason on stderr for 64 and 65 that is a description, not the bare text of a
Python exception.  The project's pytest settings make a RuntimeWarning an
error, so a warning that reaches a command ends in exit 70 and fails its
case.
"""

import copy
import json
import random
import re

import numpy as np
import pytest

from ncsos import jsonio
from ncsos.certify import certify
from ncsos.cli import EX_DATA, EX_UNDECIDED, EX_USAGE, _outcome_json, main
from ncsos.poly import matrix_to_json, poly_to_json
from ncsos.words import GROUP, MONOID, count_words

from test_acceptance import SOS_FIXTURES, WITNESS_FIXTURES

FIXTURES = {**SOS_FIXTURES, **WITNESS_FIXTURES}
NUMBERS = [0, 5e-324, -5e-324, 1e154, 1e160, 1e200, -1e200, 1.7e308, -1.7e308, 2 ** 70, -1]
# json.dumps writes the non-finite floats as the NaN, Infinity and -Infinity tokens
VALUES = NUMBERS + [float("nan"), float("inf"), float("-inf"), "x1", "x1^-1", "1", "group", "witness", "",
                    None, True, False, [], [0.0, 0.0], [[1.0, 0.0]], {}, {"x": 1},
                    "x0", "x3", "X1", "x01", "x\u0661", "x1^2", "x1 x1^-1", "x1^-1 x1"]
DEGREES = [0, 1, -1, 2 ** 70, "1e154", "NaN", "x"]
# a KeyError's text is its key alone, and these are TypeErrors' texts from indexing
BARE_KEY = re.compile(r": '[^']*'$")
INDEXING = ("object is not subscriptable", "indices must be integers")


def bare_exception(reason: str) -> bool:
    """Whether an input error's reason ends in a bare KeyError, or holds an
    indexing TypeError's text outside the "no usable ... evidence (...)"
    wrapper that names the exception and what was being read."""
    unwrapped = re.sub(r"no usable \w+ evidence \(.*\)", "", reason)
    return bool(BARE_KEY.search(unwrapped)) or any(text in unwrapped for text in INDEXING)


def as_json(obj):
    """obj as the plain lists and dicts json.loads gives, arrays included."""
    return json.loads(jsonio.dumps(obj))


def _places(node, parent=None, key=None):
    """Every (parent, key, node) of a JSON tree, the root's parent None."""
    yield parent, key, node
    for child in (node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()):
        yield from _places(node[child], node, child)


def mutate(data, rng):
    """A copy of data with one or two mutations: a value replaced by one of
    VALUES (a number, most of the time by one of NUMBERS, which keeps the
    file well formed), a key deleted or a list truncated.  The place is
    drawn from all of the tree's nodes, most of them matrix entries, or half
    the time by a walk from the root that stops at each level with
    probability 0.2."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            parent, key, node = rng.choice(list(_places(data)))
        else:
            parent, key, node = None, None, data
            while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
                parent, key = node, rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
                node = node[key]
        op = rng.random()
        if op < 0.15 and isinstance(parent, dict):
            del parent[key]
        elif op < 0.3 and isinstance(node, list) and node:
            del node[rng.randrange(len(node)):]
        else:
            number = type(node) in (int, float) and rng.random() < 0.7
            value = copy.deepcopy(rng.choice(NUMBERS if number else VALUES))
            if parent is None:
                data = value
            else:
                parent[key] = value
    return data


def decide_case(rng, outcomes):
    f = rng.choice(list(FIXTURES.values()))
    argv = [rng.choice(["certify", "decompose", "witness"]), "{f}"]
    return argv, {"f": mutate(as_json(poly_to_json(f)), rng)}


def spotcheck_case(rng, outcomes):
    name = rng.choice(list(FIXTURES))
    return ["spotcheck", "{f}", "{c}"], {"f": as_json(poly_to_json(FIXTURES[name])),
                                         "c": mutate(outcomes[name], rng)}


def eval_case(rng, outcomes):
    mode = rng.choice([MONOID, GROUP])
    f = rng.choice([f for f in FIXTURES.values() if f.mode == mode])
    draw = np.random.default_rng(rng.randrange(2 ** 32))
    n = rng.randint(1, 3)
    entries = []
    for _ in range(f.g + rng.randint(0, 1)):
        A = draw.standard_normal((n, n)) + 1j * draw.standard_normal((n, n))
        entries.append((A + A.conj().T) / 2 if mode == MONOID else np.linalg.qr(A)[0])
    files = {"f": as_json(poly_to_json(f)), "at": {"mode": mode, "entries": [matrix_to_json(X) for X in entries]}}
    target = rng.choice(["at", "at", "f"])
    files[target] = mutate(files[target], rng)
    return ["eval", "{f}", "--at", "{at}"], files


def extract_case(rng, outcomes):
    flags = {"--g": rng.randint(1, 2), "--l": rng.randint(1, 2)}
    side = count_words(flags["--g"], flags["--l"], MONOID) * rng.randint(1, 2)  # the side sets k
    draw = np.random.default_rng(rng.randrange(2 ** 32))
    E = matrix_to_json(draw.standard_normal((side, side)) + 1j * draw.standard_normal((side, side)))
    data = {"matrix": E} if rng.random() < 0.5 else E
    if rng.random() < 0.1:
        flags[rng.choice(list(flags))] = rng.choice(DEGREES)
    argv = ["extract", "--eval", "{e}"] + [str(a) for pair in flags.items() for a in pair]
    return argv, {"e": mutate(data, rng)}


def fock_dump_case(rng, outcomes):
    sizes = [1, 2, 3, *DEGREES, 10 ** 9]
    argv = ["fock-dump", "--g", str(rng.choice(sizes)), "--l", str(rng.choice(sizes))]
    return argv + (["--group"] if rng.random() < 0.5 else []), {}


@pytest.fixture(scope="module")
def outcomes():
    """certify's outcome file of each fixture, as json.loads reads it."""
    return {name: as_json(_outcome_json(f, certify(f))) for name, f in FIXTURES.items()}


@pytest.mark.parametrize("make, cases", [(decide_case, 420), (spotcheck_case, 280), (eval_case, 280),
                                         (extract_case, 140), (fock_dump_case, 80)],
                         ids=["decide", "spotcheck", "eval", "extract", "fock-dump"])
def test_mutated_inputs_end_with_a_stated_reason(tmp_path, capsys, outcomes, make, cases):
    rng = random.Random(make.__name__)
    failures = []
    for case in range(cases):
        argv, files = make(rng, outcomes)
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        argv = [a.format(**paths) for a in argv]
        code = main(argv)
        err = capsys.readouterr().err.strip()
        prefix = {EX_USAGE: "usage error: ", EX_DATA: "input error: "}.get(code)
        stated = prefix and err.startswith(prefix) and len(err) > len(prefix)
        if not (0 <= code <= EX_UNDECIDED or stated and not (code == EX_DATA and bare_exception(err))):
            failures.append(f"case {case}: exit {code}, {err.splitlines()[-1:]}, argv {argv[:1] + argv[2:]}, "
                            f"files {json.dumps(files)[:300]}")
    assert not failures, f"{len(failures)} of {cases} cases failed:\n" + "\n".join(failures[:10])
