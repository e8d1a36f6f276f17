"""The benchmark's tracer (perfbench/tracer.py) wraps ncsos functions by
name; every name it binds must resolve, and uninstalling must restore them."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ncsos.cli import main

from test_cli import sos_fixture, witness_fixture, write_poly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ncsos_bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "ncsos" or name.startswith("ncsos.")
            for attr, value in vars(mod).items()}


def test_tracer_resolves_every_name_and_uninstalls():
    tracer = _load_tracer()
    functions = [(getattr(importlib.import_module(mod), attr), mod, attr)
                 for mod, attr, _ in tracer.FUNCTIONS]
    functions += [(getattr(importlib.import_module("ncsos.sdp"), attr), "ncsos.sdp", attr)
                  for attr in tracer.PROJECTIONS]
    methods = [(getattr(importlib.import_module(mod), cls).__dict__[attr], mod, cls, attr)
               for mod, cls, attr, _ in tracer.METHODS]
    before = _ncsos_bindings()
    t = tracer.Tracer()
    try:
        t.install()
        for original, mod, attr in functions:
            assert getattr(importlib.import_module(mod), attr).__wrapped__ is original, attr
        for original, mod, cls, attr in methods:
            assert getattr(importlib.import_module(mod), cls).__dict__[attr].__wrapped__ is original, attr
    finally:
        t.uninstall()
    after = _ncsos_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    for original, mod, cls, attr in methods:
        assert getattr(importlib.import_module(mod), cls).__dict__[attr] is original


DECISIONS = ("certify.certify", "certify.run_primal", "certify.run_dual")


@pytest.mark.parametrize("command, f, spans", [
    ("certify", sos_fixture(), DECISIONS[:2]),
    ("certify", witness_fixture(), DECISIONS),
    ("decompose", sos_fixture(), DECISIONS[1:2]),
    ("witness", witness_fixture(), DECISIONS[2:]),
], ids=["certify-sos", "certify-witness", "decompose", "witness"])
def test_tracer_sees_every_decision_command(tmp_path, capsys, command, f, spans):
    # each command calls through the bindings the tracer swaps, so a
    # dispatch table holding the functions it had at import would hide them
    path = write_poly(tmp_path / "p.json", f)
    t = _load_tracer().Tracer()
    try:
        t.install()
        main([command, path])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert tuple(s["name"] for s in t.spans if s["name"] in DECISIONS) == spans
