import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ncsos
from ncsos import jsonio, sdp
from ncsos.certify import EPS_WIT, certify, infer_degree
from ncsos.cli import EX_DATA, EX_SOFTWARE, EX_UNDECIDED, EX_USAGE, EX_WITNESS, main
from ncsos.fock import extract_coeffs
from ncsos.gram import EPS_PSD
from ncsos.poly import NCPoly, matrix_from_json, matrix_to_json, poly_from_json, poly_to_json
from ncsos.words import GROUP, MONOID

from test_acceptance import SOS_FIXTURES, WITNESS_FIXTURES
from test_certify import group_witness_input


def x(i, g=2):
    return NCPoly.monomial((i,), g, MONOID)


def write_poly(path, p):
    path.write_text(jsonio.dumps(poly_to_json(p)))
    return str(path)


def sos_fixture():
    return x(1) * x(1) + x(2) * x(2)


def witness_fixture():
    return x(1) * x(2) + x(2) * x(1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_sos_file(tmp_path, capsys):
    path = write_poly(tmp_path / "p.json", sos_fixture())
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", path, "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["outcome"] == "sos"
    assert data["certificate"]["residual"] <= 1e-7
    assert len(data["input_sha256"]) == 64


def test_certify_witness_file(tmp_path, capsys):
    path = write_poly(tmp_path / "p.json", witness_fixture())
    code, out, _ = run(capsys, "certify", path)
    assert code == EX_WITNESS
    data = json.loads(out)
    assert data["outcome"] == "witness"
    assert data["witness"]["min_eig"] < -1e-6
    assert data["witness"]["model"]["gns_residual"] <= 1e-8


def test_certify_deterministic_bytes(tmp_path, capsys):
    path = write_poly(tmp_path / "p.json", witness_fixture())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "certify", path, "--out", str(a))
    run(capsys, "certify", path, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_decompose_and_witness_subcommands(tmp_path, capsys):
    sos_path = write_poly(tmp_path / "sos.json", sos_fixture())
    wit_path = write_poly(tmp_path / "wit.json", witness_fixture())
    code, out, _ = run(capsys, "decompose", sos_path)
    assert code == 0 and json.loads(out)["outcome"] == "sos"
    code, out, _ = run(capsys, "decompose", wit_path)
    assert code == EX_UNDECIDED
    code, out, _ = run(capsys, "witness", wit_path)
    assert code == EX_WITNESS and json.loads(out)["outcome"] == "witness"
    code, out, _ = run(capsys, "witness", sos_path)
    assert code == EX_UNDECIDED


SCIPY_PROBE = """
import sys
from ncsos.cli import main
codes = [main(["witness", path, "--out", path + ".out"])
         for path in sys.argv[1:]]
print("numpy.random loaded:", "numpy.random" in sys.modules)
print("_hashlib loaded:", "_hashlib" in sys.modules)
print(codes, sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_witness_runs_without_scipy(tmp_path):
    # the whole decision pipeline, GNS included, is numpy only
    group = (NCPoly.constant(1.0, 1, GROUP) + NCPoly.monomial((1,), 1, GROUP)
             + NCPoly.monomial((-1,), 1, GROUP))
    paths = [write_poly(tmp_path / "monoid.json", witness_fixture()),
             write_poly(tmp_path / "group.json", group)]
    env = dict(os.environ, PYTHONPATH=str(Path(ncsos.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *paths], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[EX_WITNESS, EX_WITNESS]} []"
    # GNS verification is exact and deterministic: nothing draws random numbers
    assert done.stdout.splitlines()[-3] == "numpy.random loaded: False"
    # the input digest comes from the interpreter's own SHA-256, not OpenSSL's
    assert done.stdout.splitlines()[-2] == "_hashlib loaded: False"


def test_input_digest_matches_hashlib(monkeypatch):
    import hashlib

    from ncsos.cli import _input_hash
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import FIXTURES
    for _, _, data in FIXTURES:
        f = poly_from_json(data)
        want = hashlib.sha256(jsonio.dumps(poly_to_json(f)).encode()).hexdigest()
        assert _input_hash(f) == want


def test_eval_constant_polynomial(tmp_path, capsys):
    p = NCPoly.constant(1.0, 2)
    p_path = write_poly(tmp_path / "p.json", p)
    X = {"mode": "monoid", "entries": [matrix_to_json(np.eye(3)), matrix_to_json(np.diag([1.0, 2.0, 3.0]))]}
    at = tmp_path / "X.json"
    at.write_text(jsonio.dumps(X))
    code, out, _ = run(capsys, "eval", p_path, "--at", str(at))
    assert code == 0
    m = json.loads(out)["matrix"]
    assert np.allclose([[e[0] for e in row] for row in m], np.eye(3))


@pytest.mark.parametrize("letter, want", [(1, 0), (-1, EX_DATA)])
def test_eval_takes_inverses_only_for_inverse_letters(tmp_path, capsys, letter, want):
    # a non-unitary group tuple without stored inverses: x1 is evaluated
    # without them, x1^-1 needs the inverse the tuple cannot supply
    p_path = write_poly(tmp_path / "p.json", NCPoly.monomial((letter,), 1, GROUP))
    at = tmp_path / "X.json"
    at.write_text(jsonio.dumps({"mode": "group", "entries": [matrix_to_json(np.diag([1.0, 2.0]))]}))
    code, out, err = run(capsys, "eval", p_path, "--at", str(at))
    assert code == want
    if want == 0:
        assert np.array_equal(matrix_from_json(json.loads(out)["matrix"]), np.diag([1.0, 2.0]))
    else:
        assert "group-mode entries are not unitary" in err


def test_extract_roundtrip(tmp_path, capsys):
    from ncsos.fock import build_symmetrized
    from ncsos.poly import poly_eval
    q = x(1) * x(2) + 0.5 * x(2)
    E = poly_eval(q, build_symmetrized(2, 2))
    epath = tmp_path / "E.json"
    epath.write_text(jsonio.dumps({"matrix": matrix_to_json(E)}))
    code, out, _ = run(capsys, "extract", "--eval", str(epath), "--g", "2", "--l", "2")
    assert code == 0
    rec = poly_from_json(json.loads(out))
    assert rec == q


def test_fock_dump_monoid(capsys):
    code, out, _ = run(capsys, "fock-dump", "--g", "2", "--l", "1")
    assert code == 0
    data = json.loads(out)
    assert data["coefficient_bound"] == 1.0  # extraction matrix is the identity at l=1
    A1 = data["symmetrized"][0]
    assert A1[0][1] == [1.0, 0.0]


def test_fock_dump_group(capsys):
    code, out, _ = run(capsys, "fock-dump", "--g", "1", "--l", "1", "--group")
    assert code == 0
    data = json.loads(out)
    # x1^-1 acts as the adjoint of the one unitary: no second list is written
    assert len(data["unitaries"]) == 1 and "unitary_inverses" not in data


def test_fock_dump_builds_the_symmetrized_tuple_once(capsys, monkeypatch):
    # the extraction matrix is read off the A the dump writes, not off a second A
    from ncsos import cli, fock
    calls = []
    build = fock.build_symmetrized

    def counted(g, l):
        calls.append((g, l))
        return build(g, l)
    for module in (cli, fock):
        monkeypatch.setattr(module, "build_symmetrized", counted)
    for g, l in ((1, 1), (2, 3)):
        calls.clear()
        assert run(capsys, "fock-dump", "--g", str(g), "--l", str(l))[0] == 0
        assert calls == [(g, l)]


def test_extract_k_flag_is_gone(tmp_path, capsys):
    # the matrix's side is k N(l): it sets k
    e = tmp_path / "e.json"
    e.write_text(json.dumps([[[1.0, 0.0]] * 3] * 3))
    assert run(capsys, "extract", "--eval", str(e), "--g", "2", "--l", "1", "--k", "1") == (
        EX_USAGE, "", "usage error: unrecognized arguments: --k 1\n")


@pytest.mark.parametrize("rows, cols", [(4, 4), (3, 4), (6, 3)], ids=["side-4", "3-by-4", "6-by-3"])
def test_extract_refuses_a_side_that_is_not_a_multiple_of_the_basis(tmp_path, capsys, rows, cols):
    # two letters at l = 1 have the 3 words 1, x1, x2: a side of 3 k fits, nothing else
    e = tmp_path / "e.json"
    e.write_text(json.dumps([[[1.0, 0.0]] * cols] * rows))
    assert run(capsys, "extract", "--eval", str(e), "--g", "2", "--l", "1") == (
        EX_DATA, "", f"input error: matrix has shape {(rows, cols)}: want a square whose side is a multiple "
                     "of the 3 words of degree <= 1 over 2 letters\n")


def test_spotcheck_cli(tmp_path, capsys):
    path = write_poly(tmp_path / "p.json", sos_fixture())
    cert = tmp_path / "cert.json"
    run(capsys, "certify", path, "--out", str(cert))
    code, out, _ = run(capsys, "spotcheck", path, str(cert))
    assert code == 0
    rep = json.loads(out)
    G = matrix_from_json(json.loads(cert.read_text())["certificate"]["gram"])
    assert rep["ok"] is True and rep["min_eig"] == float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())
    assert "trials" not in rep


def test_spotcheck_witness_cli(tmp_path, capsys):
    path = write_poly(tmp_path / "p.json", witness_fixture())
    cert = tmp_path / "cert.json"
    run(capsys, "certify", path, "--out", str(cert))
    code, out, _ = run(capsys, "spotcheck", path, str(cert))
    assert code == 0
    assert json.loads(out)["min_eig"] <= -1e-6


ACCEPTANCE = {**SOS_FIXTURES, **WITNESS_FIXTURES}


@pytest.mark.parametrize("f", ACCEPTANCE.values(), ids=ACCEPTANCE.keys())
def test_spotcheck_passes_what_certify_writes(tmp_path, capsys, f):
    # one gate per kind of evidence: spotcheck runs on the file the gate that
    # certify ran in memory, and reports the number that gate computed
    path = write_poly(tmp_path / "p.json", f)
    cert = tmp_path / "cert.json"
    run(capsys, "certify", path, "--out", str(cert))
    data = json.loads(cert.read_text())
    code, out, _ = run(capsys, "spotcheck", path, str(cert))
    rep = json.loads(out)
    assert code == 0 and rep["ok"] is True and rep["note"] == "" and rep["kind"] == data["outcome"]
    if data["outcome"] == "witness":
        assert rep["threshold"] == -EPS_WIT and rep["min_eig"] == data["witness"]["min_eig"]
    else:
        G = matrix_from_json(data["certificate"]["gram"])
        assert rep["threshold"] == -EPS_PSD
        assert rep["min_eig"] == float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())


def u(i, g=1):
    return NCPoly.monomial((i,), g, GROUP)


@pytest.mark.parametrize("f, forged, kind", [
    # Y^2 = -I puts eigenvalue -1 into x1^2, which is SOS, because Y is not self-adjoint
    (x(1, g=1) * x(1, g=1), {"mode": "monoid", "entries": [[[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]]},
     "self-adjointness"),
    # 2 - u1 - u1^-1 is SOS but reads -2 at the non-unitary U = 2, whose u1^-1 is its adjoint 2
    (NCPoly.constant(2.0, 1, GROUP) - u(1) - u(-1), {"mode": "group", "entries": [[[[2.0, 0.0]]]]}, "unitarity"),
    # -1 reads -1 at every tuple, but U = 1 may not bring its own "inverse" -1,
    # which no unitary representation of the free group has: the key is refused
    (NCPoly.constant(-1.0, 1, GROUP), {"mode": "group", "entries": [[[[1.0, 0.0]]]],
                                       "inverses": [[[[-1.0, 0.0]]]]}, None),
], ids=["monoid", "group", "group-inverse"])
def test_spotcheck_refuses_forged_witness(tmp_path, capsys, monkeypatch, f, forged, kind):
    path = write_poly(tmp_path / "p.json", f)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"outcome": "witness", "witness": {"model": {"operators": forged}}}))
    code, out, err = run(capsys, "spotcheck", path, str(cert))
    if kind is None:
        assert code == EX_DATA and out == ""
        assert '"inverses" is not read' in err
        return
    rep = json.loads(out)
    assert code == 1
    assert rep["ok"] is False and kind in rep["note"]
    # min_eig is f(Y) as the benchmark's independent checker reads it, x1^-1 as Y1*
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import ncalg
    g, mode, k, terms = ncalg.poly_from_json(json.loads(Path(path).read_text()))
    ops = [ncalg.matrix_from_json(m) for m in forged["entries"]]
    assert rep["min_eig"] == ncalg.min_eig(ncalg.evaluate(terms, k, ops, mode)) < -0.5


@pytest.mark.parametrize("command", ["certify", "witness"])
@pytest.mark.parametrize("f", [u(1) + u(-1) - NCPoly.constant(3.0, 1, GROUP), group_witness_input(1, 1, 2, 2)],
                         ids=["g1-k1", "g1-d2-k2"])
def test_group_witness_is_its_entries(tmp_path, capsys, f, command):
    # a group witness stores the g unitaries alone, x_i^-1 acting as Y_i*,
    # and passes spotcheck as it is
    path = write_poly(tmp_path / "p.json", f)
    cert = tmp_path / "cert.json"
    assert run(capsys, command, path, "--out", str(cert))[0] == EX_WITNESS
    operators = json.loads(cert.read_text())["witness"]["model"]["operators"]
    assert set(operators) == {"mode", "entries"} and operators["mode"] == "group"
    code, out, _ = run(capsys, "spotcheck", path, str(cert))
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("command", ["eval", "spotcheck"])
def test_tuple_carrying_inverses_is_refused(tmp_path, capsys, command):
    # files written when tuples stored their inverses are refused, not read
    # with the stored list ignored
    path = write_poly(tmp_path / "p.json", u(1) + u(-1) - NCPoly.constant(3.0, 1, GROUP))
    tup = {"mode": "group", "entries": [[[[1.0, 0.0]]]], "inverses": [[[[1.0, 0.0]]]]}
    other = tmp_path / "other.json"
    if command == "eval":
        other.write_text(json.dumps(tup))
        argv = ["eval", path, "--at", str(other)]
    else:
        other.write_text(json.dumps({"outcome": "witness", "witness": {"model": {"operators": tup}}}))
        argv = ["spotcheck", path, str(other)]
    code, out, err = run(capsys, *argv)
    assert code == EX_DATA and out == ""
    assert err.strip() == (f"input error: {other}: bad tuple JSON: \"inverses\" is not read; "
                           "a group tuple evaluates x_i^-1 as the adjoint of its entry X_i")


SIZE_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, 4 * 2 ** 30))
from ncsos.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["eval", "spotcheck"])
def test_oversized_evaluation_is_refused_before_it_is_allocated(tmp_path, command):
    # f(X) of a coeff_dim 100000 input at a 1 x 1 tuple would be 149 GiB: the
    # tuple is refused where it enters, under a 4 GiB address-space limit
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"g": 1, "mode": "monoid", "coeff_dim": 100000, "terms": []}))
    tup = {"mode": "monoid", "entries": [[[[1.0, 0.0]]]]}
    other = tmp_path / "other.json"
    if command == "eval":
        other.write_text(json.dumps(tup))
        argv = ["eval", str(path), "--at", str(other)]
    else:
        other.write_text(json.dumps({"outcome": "witness", "witness": {"model": {"operators": tup}}}))
        argv = ["spotcheck", str(path), str(other)]
    env = dict(os.environ, PYTHONPATH=str(Path(ncsos.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SIZE_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EX_DATA and done.stdout == ""
    assert done.stderr.strip() == (f"input error: {other}: f(X) of side 100000 would take 149 GiB, "
                                   "over the 0.25 GiB budget")


TIMED_SIZE_PROBE = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, 4 * 2 ** 30))
from ncsos.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)  # seconds in main, on stdout
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code, reason", [
    (["fock-dump", "--g", "2", "--l", "40"], EX_USAGE,
     "usage error: --l 40: 6 complex arrays of side at least 2199023255551 would take 4.32e+17 GiB"),
    (["fock-dump", "--g", "2", "--l", "200000"], EX_USAGE,
     "usage error: --l 200000: 6 complex arrays of side at least 200001 would take 3.58e+03 GiB"),
    (["fock-dump", "--g", "2", "--l", "30", "--group"], EX_USAGE,
     "usage error: --l 30: 2 complex arrays of side at least 411782264189297 would take 5.05e+21 GiB"),
    (["extract", "--eval", "{e}", "--g", "2", "--l", "200000"], EX_DATA,
     "input error: {e}: matrix has shape (1, 1), but --l 200000 needs a side of at least 200001"),
], ids=["fock-dump-monoid", "fock-dump-long", "fock-dump-group", "extract-long"])
def test_oversized_fock_space_is_refused_before_it_is_counted(tmp_path, argv, code, reason):
    # count_words(g, l) >= l + 1 is bounded by l before it is counted (counting
    # is quadratic in l), and the Fock arrays by sdp.MARGIN_MAX_BYTES before
    # they are built: each refusal is immediate under a 4 GiB address-space limit
    e = tmp_path / "e.json"
    e.write_text(json.dumps([[[1.0, 0.0]]]))
    env = dict(os.environ, PYTHONPATH=str(Path(ncsos.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", TIMED_SIZE_PROBE, *[a.format(e=e) for a in argv]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code and float(done.stdout) < 1.0
    budget = ", over the 0.25 GiB budget" if code == EX_USAGE else ""
    assert done.stderr.strip() == reason.format(e=e) + budget


def test_oversized_factor_stack_is_refused_before_a_factor_is_parsed(tmp_path):
    # 300,000 empty factors of one letter on a degree-255 Gram matrix would
    # stack to (300000, 256, 1, 1), 1.14 GiB: the certificate (18 MB) is refused
    # on that count, under a 4 GiB address-space limit
    path = write_poly(tmp_path / "p.json", x(1, g=1) * x(1, g=1))
    empty = jsonio.dumps(poly_to_json(NCPoly.zero(1, MONOID, 1)))
    cert = tmp_path / "cert.json"
    cert.write_text('{"outcome": "sos", "degree": 255, "certificate": {"gram": ' + jsonio.dumps(np.eye(256))
                    + ', "factors": [' + ",".join([empty] * 300000) + "]}}")
    env = dict(os.environ, PYTHONPATH=str(Path(ncsos.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", TIMED_SIZE_PROBE, "spotcheck", path, str(cert)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EX_DATA and float(done.stdout) < 2.0
    assert done.stderr.strip() == (f"input error: {cert}: 300000 factors on 256 words would take 1.14 GiB, "
                                   "over the 0.25 GiB budget")


def test_one_budget_bounds_every_allocation(tmp_path, capsys, monkeypatch):
    # sdp.MARGIN_MAX_BYTES alone bounds the max-margin handover, the dual's
    # f(Y), the f(X) of eval and spotcheck, spotcheck's factor stack and the
    # Fock arrays: at 0 each is refused with sdp.refuse_bytes's one text
    monkeypatch.setattr(sdp, "MARGIN_MAX_BYTES", 0)
    paths = {name: tmp_path / f"{name}.json" for name in ("laplacian", "anti", "square", "at", "wit", "sos")}
    write_poly(paths["laplacian"], NCPoly.constant(2.0, 1, GROUP) - NCPoly.monomial((1,), 1, GROUP)
               - NCPoly.monomial((-1,), 1, GROUP))
    write_poly(paths["anti"], witness_fixture())
    tup = {"mode": "monoid", "entries": [[[[1.0, 0.0]]]]}
    for name, data in (("square", poly_data()), ("at", tup), ("sos", SOS_EVIDENCE),
                       ("wit", {"outcome": "witness", "witness": {"model": {"operators": tup}}})):
        paths[name].write_text(json.dumps(data))
    for argv, code, reason in [
        (["certify", "{laplacian}"], EX_UNDECIDED, "max-margin handover would take 2.38e-06"),
        (["witness", "{anti}"], EX_UNDECIDED, "f(X) of side 3 would take 5.36e-07"),
        (["eval", "{square}", "--at", "{at}"], EX_DATA, "input error: {at}: f(X) of side 1 would take 5.96e-08"),
        (["spotcheck", "{square}", "{wit}"], EX_DATA, "input error: {wit}: f(X) of side 1 would take 5.96e-08"),
        (["spotcheck", "{square}", "{sos}"], EX_DATA,
         "input error: {sos}: 1 factors on 2 words would take 2.98e-08"),
        (["fock-dump", "--g", "1", "--l", "1"], EX_USAGE,
         "usage error: --l 1: 4 complex arrays of side at least 2 would take 2.38e-07"),
    ]:
        got, out, err = run(capsys, *[a.format(**paths) for a in argv])
        reason = reason.format(**paths) + " GiB, over the 0.00 GiB budget"
        assert got == code
        if code == EX_UNDECIDED:  # the reason ends the solve's note
            assert json.loads(out)["diagnostics"]["note"].split("; ")[-1] == reason
        else:
            assert out == "" and err.strip() == reason


def test_spotcheck_counts_the_basis_before_building_its_table(tmp_path, capsys, monkeypatch):
    # a 13 x 13 Gram matrix fits degree 12 by the side bound (degree + 1) k,
    # but three letters have count_words(3, 12) = 797,161 words of degree <= 12:
    # the evidence is refused on that count, before the basis's table is built
    gram_module = importlib.import_module("ncsos.gram")
    builds = []
    monkeypatch.setattr(gram_module, "word_pair_table", lambda words, mode: builds.append(len(words)))
    path = write_poly(tmp_path / "p.json", x(1, g=3) * x(1, g=3))
    cert = tmp_path / "cert.json"
    cert.write_text(jsonio.dumps({"outcome": "sos", "degree": 12, "certificate": {
        "gram": np.eye(13), "factors": [poly_to_json(x(1, g=3))]}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "spotcheck", path, str(cert))
    assert time.perf_counter() - start < 1.0
    assert code == EX_DATA and out == "" and builds == []
    assert err.strip() == (f"input error: {cert}: no usable sos evidence "
                           "(ValueError: degree 12 does not fit a Gram matrix of side 13)")


def test_spotcheck_refuses_a_factor_above_the_gram_degree(tmp_path, capsys, monkeypatch):
    # a factor must fit the Gram basis: one of degree 30 is refused on its
    # degree, with no table built but the Gram matrix's own degree-1 one
    path = write_poly(tmp_path / "p.json", sos_fixture())
    cert = tmp_path / "cert.json"
    run(capsys, "certify", path, "--out", str(cert))
    data = json.loads(cert.read_text())
    data["certificate"]["factors"].append(poly_to_json(NCPoly.monomial((1,) * 30, 2, MONOID, 1e-3)))
    cert.write_text(jsonio.dumps(data))
    gram_module = importlib.import_module("ncsos.gram")
    sizes = []
    monkeypatch.setattr(gram_module, "word_pair_table", lambda words, mode, _f=gram_module.word_pair_table:
                        sizes.append(len(words)) or _f(words, mode))
    start = time.perf_counter()
    code, out, err = run(capsys, "spotcheck", path, str(cert))
    assert time.perf_counter() - start < 1.0
    assert code == EX_DATA and out == "" and sizes == [3]
    assert err.strip() == f"input error: {cert}: a factor of degree above 1 does not fit the Gram basis"


@pytest.mark.parametrize("forge", ["gram-not-psd", "factors-miss"])
def test_spotcheck_refuses_forged_sos_certificate(tmp_path, capsys, forge):
    path = write_poly(tmp_path / "p.json", sos_fixture())
    cert = tmp_path / "cert.json"
    run(capsys, "certify", path, "--out", str(cert))
    data = json.loads(cert.read_text())
    evidence = data["certificate"]
    if forge == "gram-not-psd":
        evidence["gram"] = [[[-re, -im] for re, im in row] for row in evidence["gram"]]
    else:
        evidence["factors"] = evidence["factors"][:1]
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "spotcheck", path, str(cert))
    rep = json.loads(out)
    assert code == 1
    assert rep["ok"] is False and (rep["min_eig"] < rep["threshold"]) == (forge == "gram-not-psd")
    assert ("not psd" if forge == "gram-not-psd" else "factors miss") in rep["note"]


def test_poly_json_roundtrip_identity():
    p = sos_fixture() + 0.25 * x(2)
    text1 = jsonio.dumps(poly_to_json(p))
    p2 = poly_from_json(json.loads(text1))
    text2 = jsonio.dumps(poly_to_json(p2))
    assert text1 == text2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "certify")[0] == EX_USAGE
    assert run(capsys, "no-such-command")[0] == EX_USAGE


def test_malformed_json_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g": 2, "mode": ')
    code, _, err = run(capsys, "certify", str(bad))
    assert code == EX_DATA
    assert "line" in err and "column" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "certify", "/nonexistent/p.json")
    assert code == EX_DATA


def poly_data(**changes):
    return dict({"g": 1, "mode": "monoid", "coeff_dim": 1,
                 "terms": [{"word": "x1 x1", "matrix": [[[1.0, 0.0]]]}]}, **changes)


GROUP_TUPLE = {"mode": "group", "entries": [[[[1.0, 0.0]]]]}
# x1 x1 = r* r with r = x1: valid evidence at degree 1
SOS_EVIDENCE = {"outcome": "sos", "degree": 1, "certificate": {
    "gram": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "factors": [dict(poly_data(), terms=[{"word": "x1", "matrix": [[[1.0, 0.0]]]}])]}}
# matrix entries that are not a [re, im] pair of floats: an integer too large
# for a float, a pair with a third number, and pairs of booleans, strings or null
BAD_ENTRIES = {"huge-int": [10 ** 400, 0], "three-parts": [1, 0, 5], "bool-pair": [True, False],
               "string-pair": ["1", "0"], "null-pair": [None, 0]}


def _bad_entry_cases():
    for name, entry in BAD_ENTRIES.items():
        yield pytest.param(["certify", "{p}"], {"p": poly_data(terms=[{"word": "x1 x1", "matrix": [[entry]]}])},
                           EX_DATA, id=f"certify-{name}")
        yield pytest.param(["eval", "{p}", "--at", "{x}"],
                           {"p": poly_data(), "x": {"mode": "monoid", "entries": [[[entry]]]}},
                           EX_DATA, id=f"eval-at-{name}")
        gram = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], entry]]
        yield pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": dict(
            SOS_EVIDENCE, certificate=dict(SOS_EVIDENCE["certificate"], gram=gram))},
                           EX_DATA, id=f"spotcheck-gram-{name}")


@pytest.mark.parametrize("argv, files, code", [
    pytest.param(["certify", "{p}"], {"p": poly_data(g="x")}, EX_DATA, id="g-not-integer"),
    pytest.param(["certify", "{p}"], {"p": poly_data(g=0, terms=[])}, EX_DATA, id="g-zero"),
    pytest.param(["certify", "{p}"], {"p": poly_data(g=1.5)}, EX_DATA, id="g-fraction"),
    pytest.param(["certify", "{p}"], {"p": poly_data(g=True)}, EX_DATA, id="g-bool"),
    pytest.param(["certify", "{p}"], {"p": poly_data(coeff_dim=1.0)}, EX_DATA, id="coeff-dim-float"),
    pytest.param(["certify", "{p}"], {"p": poly_data(terms=5)}, EX_DATA, id="terms-not-list"),
    pytest.param(["certify", "{p}"], {"p": poly_data(terms=[["x1", 1.0]])}, EX_DATA, id="term-not-object"),
    pytest.param(["certify", "{p}"],
                 {"p": poly_data(coeff_dim=2, terms=[{"word": "1", "matrix": [[[1, 0], [0, 0]], [[1, 0]]]}])},
                 EX_DATA, id="ragged-matrix"),
    pytest.param(["certify", "{p}"], {"p": poly_data(terms=[{"word": "1", "matrix": [[[float("nan"), 0]]]}])},
                 EX_DATA, id="nan-coefficient"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": [1]}, EX_DATA, id="certificate-list"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "witness", "witness": []}},
                 EX_DATA, id="witness-list"),
    pytest.param(["spotcheck", "{p}", "{c}"],
                 {"p": poly_data(), "c": {"outcome": "witness", "witness": {"model": {"operators": GROUP_TUPLE}}}},
                 EX_DATA, id="witness-tuple-wrong-mode"),
    # true would be read as degree 1, and count_words(1, 200000) takes minutes
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": dict(SOS_EVIDENCE, degree=True)},
                 EX_DATA, id="sos-degree-bool"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": dict(SOS_EVIDENCE, degree=200000)},
                 EX_DATA, id="sos-degree-huge"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": dict(SOS_EVIDENCE, certificate=dict(
        SOS_EVIDENCE["certificate"], factors=[dict(poly_data(), g=2, terms=[{"word": "x2", "matrix": [[[1.0, 0.0]]]}])]))},
                 EX_DATA, id="sos-factor-wrong-g"),
    # list() reads an object's keys: {} would be "no factors", not malformed evidence
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": dict(SOS_EVIDENCE, certificate=dict(
        SOS_EVIDENCE["certificate"], factors={}))}, EX_DATA, id="sos-factors-object"),
    # int() would read x+1 as x1, and the input as x1 x1, a sum of squares
    pytest.param(["certify", "{p}"], {"p": poly_data(terms=[{"word": "x+1 x1", "matrix": [[[1.0, 0.0]]]}])},
                 EX_DATA, id="word-signed-index"),
    pytest.param(["fock-dump", "--g", "0", "--l", "1"], {}, EX_USAGE, id="fock-dump-g-0"),
    pytest.param(["fock-dump", "--g", "1", "--l", "0", "--group"], {}, EX_USAGE, id="fock-dump-group-l-0"),
    pytest.param(["extract", "--eval", "{e}", "--g", "1", "--l", "-1"], {"e": [[[1.0, 0.0]]]}, EX_USAGE,
                 id="extract-l-negative"),
    pytest.param(["spotcheck", "{p}", "{c}", "--trials", "0"], {"p": poly_data(), "c": {"outcome": "sos"}},
                 EX_USAGE, id="spotcheck-trials-0"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "sos"}},
                 EX_DATA, id="sos-without-evidence"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "undecided"}},
                 EX_DATA, id="spotcheck-undecided"),
    pytest.param(["spotcheck", "{p}", "{c}"],
                 {"p": poly_data(mode="group", terms=[{"word": "1", "matrix": [[[1.0, 0.0]]]}]),
                  "c": {"outcome": "witness", "witness": {"model": {"operators": dict(
                      GROUP_TUPLE, inverses=[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]])}}}},
                 EX_DATA, id="witness-inverse-wrong-size"),  # refused for carrying "inverses" at all
    pytest.param(["extract", "--eval", "{e}", "--g", "0", "--l", "1"], {"e": [[[1.0, 0.0]]]}, EX_USAGE,
                 id="extract-g-0"),
    pytest.param(["extract", "--eval", "{e}", "--g", "1", "--l", "1", "--k", "0"], {"e": [[[1.0, 0.0]]]},
                 EX_USAGE, id="extract-k-0"),
    pytest.param(["extract", "--eval", "{e}", "--g", "1", "--l", "0"], {"e": [[[1.0, 0.0]]]}, EX_USAGE,
                 id="extract-l-0"),
    # the flags are checked before the file is read
    pytest.param(["extract", "--eval", "{e}.missing", "--g", "0", "--l", "1"], {"e": [[[1.0, 0.0]]]}, EX_USAGE,
                 id="extract-g-0-unreadable"),
    *_bad_entry_cases(),
])
def test_malformed_input_ends_with_stated_reason(tmp_path, capsys, argv, files, code):
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    got, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert got == code
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, files, reason", [
    (["extract", "--eval", "{e}", "--g", "1", "--l", "1"], {"e": {"x": 1}},
     "{e}: bad evaluation JSON: missing 'matrix'"),
    (["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "witness"}},
     "{c}: no usable witness evidence (KeyError: 'witness')"),
    (["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "witness", "witness": {"model": 1.5}}},
     "{c}: no usable witness evidence (TypeError: 'float' object is not subscriptable)"),
    (["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "witness", "witness": []}},
     "{c}: no usable witness evidence (TypeError: list indices must be integers or slices, not str)"),
], ids=["extract-no-matrix", "witness-missing", "model-number", "witness-list"])
def test_missing_evidence_is_named_not_a_bare_exception(tmp_path, capsys, argv, files, reason):
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert (code, out, err.strip()) == (EX_DATA, "", "input error: " + reason.format(**paths))


# iterating an object or a string reads its keys or its characters, which
# used to end in "not enough values to unpack" on the [re, im] pairs
BAD_TUPLE_ENTRIES = {
    "entries-object": ({"a": 1}, "bad tuple JSON: entries must be a list of matrices"),
    "entries-string": ("ab", "bad tuple JSON: entries must be a list of matrices"),
    "matrix-object": ([{"x": 1}], "bad matrix encoding: want a list of rows, each a list of [re, im] pairs"),
    "row-object": ([[{"x": 1}]], "bad matrix encoding: want a list of rows, each a list of [re, im] pairs"),
    "row-string": ([["ab"]], "bad matrix encoding: want a list of rows, each a list of [re, im] pairs"),
}


def test_spotcheck_refuses_a_gram_matrix_that_is_not_hermitian(tmp_path, capsys):
    # the off-diagonal pair differs by 2e-10
    gram = [[[0.0, 0.0], [0.0, 0.0]], [[2e-10, 0.0], [1.0, 0.0]]]
    p_path = tmp_path / "p.json"
    p_path.write_text(json.dumps(poly_data()))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(SOS_EVIDENCE, certificate=dict(SOS_EVIDENCE["certificate"], gram=gram))))
    code, out, err = run(capsys, "spotcheck", str(p_path), str(path))
    assert code == EX_DATA and out == ""
    assert err.strip().endswith("(GramError: Gram matrix is not Hermitian)")


@pytest.mark.parametrize("command", ["eval", "spotcheck"])
@pytest.mark.parametrize("entries, reason", BAD_TUPLE_ENTRIES.values(), ids=BAD_TUPLE_ENTRIES.keys())
def test_tuple_of_the_wrong_shape_is_refused_with_the_shape_it_needs(tmp_path, capsys, command, entries, reason):
    p_path = write_poly(tmp_path / "p.json", x(1) * x(1))
    tup = {"mode": "monoid", "entries": entries}
    path = tmp_path / "X.json"
    path.write_text(json.dumps(tup if command == "eval" else
                               {"outcome": "witness", "witness": {"model": {"operators": tup}}}))
    argv = ["eval", p_path, "--at", str(path)] if command == "eval" else ["spotcheck", p_path, str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EX_DATA and out == ""
    assert err.strip() == f"input error: {path}: {reason}"


def test_delta_flag_is_gone(tmp_path, capsys):
    # the dual solves one system, so there is no margin to set
    path = write_poly(tmp_path / "p.json", sos_fixture())
    code, out, err = run(capsys, "certify", path, "--delta", "1e-4")
    assert code == EX_USAGE
    assert err.strip() == "usage error: unrecognized arguments: --delta 1e-4"


@pytest.mark.parametrize("command", ["certify", "decompose", "witness"])
@pytest.mark.parametrize("flag", ["--tol", "--max-iter", "--degree"])
def test_solver_flags_are_gone(tmp_path, capsys, command, flag):
    # the solver's budget and tolerance are constants, not settings, and the
    # Gram degree follows from the input (certify.infer_degree)
    path = write_poly(tmp_path / "p.json", sos_fixture())
    assert run(capsys, command, path, flag, "2") == (
        EX_USAGE, "", f"usage error: unrecognized arguments: {flag} 2\n")


REQUIRED = inspect.Parameter.empty
# certify and each library function below it: its parameters and their defaults
SIGNATURES = {
    certify: {"f": REQUIRED},
    infer_degree: {"f": REQUIRED},
    sdp.solve_feasibility: {"sys": REQUIRED, "interior": REQUIRED},
    sdp.max_margin: {"sys": REQUIRED},
    sdp.project_affine: {"X": REQUIRED, "sys": REQUIRED},
    sdp._Farkas: {"sys": REQUIRED, "interior": REQUIRED},
    sdp.AffineSystem: {"m": REQUIRED, "labels": REQUIRED, "targets": REQUIRED},
    sdp.AffineSystem.nearest: {"self": REQUIRED, "X": REQUIRED},
    NCPoly.is_hermitian: {"self": REQUIRED},
    extract_coeffs: {"E": REQUIRED, "g": REQUIRED, "l": REQUIRED, "mode": REQUIRED},
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_library_settings_are_gone(fn):
    # budgets and tolerances below certify are module constants too, and the
    # solver takes the one system it is given: its interior point is required
    # and the projection has no switch
    got = {name: p.default for name, p in inspect.signature(fn).parameters.items()}
    assert got == SIGNATURES[fn]


@pytest.mark.parametrize("flag", ["--trials", "--n-max", "--seed"])
def test_spotcheck_sampling_flags_are_gone(tmp_path, capsys, flag):
    # spotcheck checks the stored evidence only, so there is nothing to sample
    paths = [tmp_path / "p.json", tmp_path / "c.json"]
    for path, data in zip(paths, (poly_data(), SOS_EVIDENCE)):
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, "spotcheck", *map(str, paths), flag, "5")
    assert code == EX_USAGE
    assert err.strip() == f"usage error: unrecognized arguments: {flag} 5"


def test_sos_evidence_fixture_is_accepted(tmp_path, capsys):
    # the malformed degree cases above differ from this accepted evidence in "degree" alone
    paths = [tmp_path / "p.json", tmp_path / "c.json"]
    for path, data in zip(paths, (poly_data(), SOS_EVIDENCE)):
        path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "spotcheck", *map(str, paths))
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("command", ["certify", "decompose", "witness"])
@pytest.mark.parametrize("power, degree, side", [(26, 13, 16383), (2000, 1000, 1001)],
                         ids=["x1^26", "x1^2000"])
def test_oversized_degree_is_refused_before_anything_is_built(tmp_path, capsys, command, power, degree, side):
    # 1 + x1^26 over two letters: the degree-13 Gram system alone has side
    # 16,383, and its word-pair table would have 2.7e8 entries; at degree 1000
    # the side is bounded below by d + 1 before any word is counted
    path = write_poly(tmp_path / "p.json", NCPoly.constant(1.0, 2) + NCPoly.monomial((1,) * power, 2))
    start = time.perf_counter()
    code, out, err = run(capsys, command, path)
    assert time.perf_counter() - start < 1.0
    assert code == EX_DATA and out == ""
    assert err == f"input error: degree {degree} needs a Gram system of side at least {side}, above the limit 512\n"


@pytest.mark.parametrize("command", ["certify", "decompose", "witness"])
def test_oversized_zero_input_is_refused_before_the_hermitian_test(tmp_path, capsys, monkeypatch, command):
    # the Hermitian test builds a k x k zero block; at coeff_dim 100000 that is
    # 149 GiB, so the size check must come first
    def refuse(self):
        raise AssertionError("Hermitian test before the size check")

    monkeypatch.setattr(NCPoly, "is_hermitian", refuse)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"g": 1, "mode": "monoid", "coeff_dim": 600, "terms": []}))
    code, out, err = run(capsys, command, str(path))
    assert code == EX_DATA and out == ""
    assert err.strip().endswith("side at least 600, above the limit 512")


def _poly_json(g, mode, *terms):
    """A scalar polynomial's JSON from (word, real coefficient) pairs, built
    without an NCPoly, whose norms would overflow on the largest ones."""
    return {"g": g, "mode": mode, "coeff_dim": 1,
            "terms": [{"word": word, "matrix": [[[c, 0]]]} for word, c in terms]}


INTERIOR = "the interior point is not positive definite on the classes"
# (input, argv after the command, exit code, reason, run under SIZE_PROBE)
EDGE_INPUTS = {
    "x1^34": (_poly_json(1, "monoid", (" ".join(["x1"] * 34), 1.0)), EX_UNDECIDED, INTERIOR),
    "1+x1^40": (_poly_json(1, "monoid", ("1", 1.0), (" ".join(["x1"] * 40), 1.0)), EX_UNDECIDED, INTERIOR),
    "1e4-group-laplacian": (_poly_json(1, "group", ("1", 2e4), ("x1", -1e4), ("x1^-1", -1e4)), EX_UNDECIDED,
                            "max-margin handover, "),
}
EDGE_CASES = [pytest.param(p, [command, "{p}"], code, reason, False, id=f"{name}-{command}")
              for name, (p, code, reason) in EDGE_INPUTS.items()
              for command in ("certify", "decompose", "witness")] + [
    pytest.param(_poly_json(1, "monoid", ("1", -1e155)), ["certify", "{p}"], EX_DATA,
                 "input error: a coefficient's real or imaginary part 1.000e+155 is above the limit 1e+150",
                 False, id="minus-1e155-certify"),
    pytest.param(_poly_json(1, "monoid", ("x1 x1 x1", 1e150)), ["eval", "{p}", "--at", "{at}"], EX_DATA,
                 "input error: f(X) is not finite: it overflows float64", False, id="1e150-x1^3-eval"),
    pytest.param(_poly_json(10 ** 9, "monoid", ("1", -1.0)), ["certify", "{p}"], EX_DATA,
                 "input error: 1000000000 letters are above the limit 512 on the Gram side", True,
                 id="minus-1-over-1e9-letters-certify"),
] + [
    pytest.param({"g": 1, "mode": "monoid", "coeff_dim": 150,
                  "terms": [{"word": "1", "matrix": matrix_to_json(-np.eye(150))}]}, [command, "{p}"],
                 EX_UNDECIDED, "f(X) of side 22500 would take 7.59 GiB, over the 0.25 GiB budget", True,
                 id=f"minus-I150-{command}")
    for command in ("certify", "witness")
]


@pytest.mark.parametrize("poly, argv, code, reason, probe", EDGE_CASES)
def test_edge_inputs_end_with_a_stated_reason(tmp_path, capsys, poly, argv, code, reason, probe):
    # each of these inputs once ended in exit 70: one-letter degrees from 17
    # on (no interior point), a scaled boundary input (a Newton step off the
    # cone), coefficients whose squares overflow, an f(X) that overflows, a
    # constant over 10^9 letters and a witness whose f(Y) is over the
    # evaluation budget; the last two run in a subprocess under an
    # address-space limit
    path, at = tmp_path / "p.json", tmp_path / "at.json"
    path.write_text(json.dumps(poly))
    at.write_text(json.dumps({"mode": "monoid", "entries": [[[[1e60, 0.0]]]]}))
    argv = [a.format(p=path, at=at) for a in argv]
    if probe:
        env = dict(os.environ, PYTHONPATH=str(Path(ncsos.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", SIZE_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        got, out, err = done.returncode, done.stdout, done.stderr
    else:
        got, out, err = run(capsys, *argv)
    assert got == code != EX_SOFTWARE
    if code == EX_DATA:
        assert out == "" and err.strip().splitlines()[-1] == reason  # after any numpy warning
    else:
        assert reason in json.loads(out)["diagnostics"]["note"]


def _certify_own_evidence(gram):
    """certify's file for f = 1, its Gram matrix replaced by gram."""
    return {"outcome": "sos", "degree": 0, "certificate": {
        "gram": gram, "factors": [_poly_json(1, "monoid", ("1", 1.0))], "residual": 0.0}}


GROUP_SQUARES = 8e307  # three of them overflow float64
# forged evidence whose arithmetic overflows float64: the NaN it made passed
# the gates' comparisons, or the overflow ended in exit 70
OVERFLOWING_EVIDENCE = {
    "group-minus-1-identity-class": (
        _poly_json(1, "group", ("1", -1.0)),
        {"outcome": "sos", "degree": 1, "certificate": {
            "gram": matrix_to_json(GROUP_SQUARES * np.eye(3)),
            "factors": [_poly_json(1, "group", (w, GROUP_SQUARES ** 0.5)) for w in ("1", "x1", "x1^-1")]}},
        GROUP_SQUARES, "Gram matrix miss the input by inf: it overflows float64"),
    "group-laplacian-unitarity": (
        _poly_json(1, "group", ("1", 2.0), ("x1", -1.0), ("x1^-1", -1.0)),
        {"outcome": "witness", "witness": {"model": {"operators": {"mode": "group", "entries": [[[[1e155, 0.0]]]]}}}},
        -2e155, "the operators' unitarity defect overflows float64"),
    # X X* is not finite, and an SVD of it does not converge
    "group-laplacian-unitarity-not-finite": (
        _poly_json(1, "group", ("1", 2.0), ("x1", -1.0), ("x1^-1", -1.0)),
        {"outcome": "witness", "witness": {"model": {"operators": {
            "mode": "group", "entries": [[[[1.7e308, 1.7e308], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}}}},
        None, "the operators' unitarity defect overflows float64"),
    "square-f-of-y": (
        _poly_json(1, "monoid", ("x1 x1", 1.0)),
        {"outcome": "witness", "witness": {"model": {"operators": {"mode": "monoid", "entries": [[[[1e155, 0.0]]]]}}}},
        None, "f(Y) overflows float64"),
    "one-gram-plus-1.7e308": (_poly_json(1, "monoid", ("1", 1.0)), _certify_own_evidence([[[1.7e308, 0.0]]]),
                              1.7e308, "Gram matrix miss the input by 1.700e+308"),
    "one-gram-minus-1.7e308": (_poly_json(1, "monoid", ("1", 1.0)), _certify_own_evidence([[[-1.7e308, 0.0]]]),
                               -1.7e308, "Gram matrix is not psd (min eigenvalue -1.700e+308)"),
}


@pytest.mark.parametrize("f, evidence, min_eig, note", OVERFLOWING_EVIDENCE.values(),
                         ids=OVERFLOWING_EVIDENCE.keys())
def test_spotcheck_refuses_evidence_that_overflows(tmp_path, capsys, f, evidence, min_eig, note):
    # they used to exit 0, 0, 70, 70, 70 and 70; min_eig is null when f(Y) is not finite
    paths = [tmp_path / "p.json", tmp_path / "c.json"]
    for path, data in zip(paths, (f, evidence)):
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, "spotcheck", *map(str, paths))
    assert code == 1 and err == ""
    rep = json.loads(out)
    assert rep.pop("min_eig") == (None if min_eig is None else pytest.approx(min_eig, rel=1e-12))
    assert rep == {"kind": evidence["outcome"], "note": note, "ok": False,
                   "threshold": -EPS_WIT if evidence["outcome"] == "witness" else -EPS_PSD}


GROUP_LAPLACIAN = _poly_json(1, "group", ("1", 2.0), ("x1", -1.0), ("x1^-1", -1.0))


@pytest.mark.parametrize("entry", [[1.7e308, 1.7e308], [1e200, 0.0]], ids=["svd-of-inf", "nan-defect"])
def test_eval_refuses_a_tuple_whose_unitarity_defect_overflows(tmp_path, capsys, entry):
    # X X* - I overflows: its SVD ended in exit 70, and a NaN defect passed
    # the unitarity test, so f(X) was evaluated with X* standing for X^-1
    paths = [tmp_path / "p.json", tmp_path / "X.json"]
    tup = {"mode": "group", "entries": [[[entry, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    for path, data in zip(paths, (GROUP_LAPLACIAN, tup)):
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, "eval", str(paths[0]), "--at", str(paths[1]))
    assert code == EX_DATA and out == ""
    assert err.strip() == "input error: group-mode entries are not unitary within 1e-08 (defect inf)"


@pytest.mark.parametrize("scale, eval_code, note", [
    (1 + 2.5e-9, 0, ""),
    (1 + 1e-8, EX_DATA, "operators miss unitarity by 2.000e-08"),
], ids=["defect-5e-9", "defect-2e-8"])
def test_eval_and_the_witness_gate_share_one_unitarity_tolerance(tmp_path, capsys, scale, eval_code, note):
    # 1 + u1 + u1^-1 at a 3 x 3 unitary with eigenvalue -1, scaled off unitarity:
    # eval evaluates the tuples the witness gate accepts, and refuses the others
    Q = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
    X = scale * (Q * [-1, 1j, 1]) @ Q.T
    tup = {"mode": "group", "entries": [matrix_to_json(X)]}
    p, at, wit = tmp_path / "p.json", tmp_path / "X.json", tmp_path / "w.json"
    write_poly(p, NCPoly.constant(1.0, 1, GROUP) + NCPoly.monomial((1,), 1, GROUP) + NCPoly.monomial((-1,), 1, GROUP))
    at.write_text(json.dumps(tup))
    wit.write_text(json.dumps({"outcome": "witness", "witness": {"model": {"operators": tup}}}))
    code, out, err = run(capsys, "eval", str(p), "--at", str(at))
    assert code == eval_code
    if eval_code:
        assert err.strip() == "input error: group-mode entries are not unitary within 1e-08 (defect 2.000e-08)"
    code, out, err = run(capsys, "spotcheck", str(p), str(wit))
    rep = json.loads(out)
    assert code == (1 if note else 0) and rep["note"] == note and rep["min_eig"] == pytest.approx(1 - 2 * scale)


# numbers whose arithmetic overflows: numpy's RuntimeWarning reached stderr
# before the refusal, and ended the run in exit 70 where warnings are errors
OVERFLOWING_NUMBERS = {
    "certify-coefficient": (["certify", "{p}"], {"p": _poly_json(1, "monoid", ("1", 1.7e308), ("x1 x1", 1.0))},
                            "a coefficient's real or imaginary part 1.700e+308 is above the limit 1e+150"),
    "spotcheck-gram": (["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": dict(SOS_EVIDENCE, certificate=dict(
        SOS_EVIDENCE["certificate"], gram=[[[0.0, 0.0], [1.7e308, 0.0]], [[-1.7e308, 0.0], [1.0, 0.0]]]))},
                       "{c}: no usable sos evidence (GramError: Gram matrix is not Hermitian)"),
    "eval-value": (["eval", "{p}", "--at", "{x}"], {"p": poly_data(), "x": {"mode": "monoid", "entries": [[[[1e200, 0.0]]]]}},
                   "f(X) is not finite: it overflows float64"),
    # the constant term 1.7e308 - (-1.7e308) overflows; it used to fail in the JSON writer
    "extract-coefficient": (["extract", "--g", "1", "--l", "2", "--eval", "{e}"],
                            {"e": {"matrix": [[[1.7e308, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                                              [[-1.7e308, 0], [0, 0], [0, 0]]]}},
                            "the recovered coefficients are not finite: they overflow float64"),
}


@pytest.mark.parametrize("argv, files, reason", OVERFLOWING_NUMBERS.values(), ids=OVERFLOWING_NUMBERS.keys())
def test_numbers_that_overflow_are_refused_without_a_warning(tmp_path, capsys, argv, files, reason):
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == EX_DATA and out == ""
    assert err == f"input error: {reason.format(**paths)}\n"


def test_internal_error_is_not_a_witness(tmp_path, capsys, monkeypatch):
    # an exception escaping a subcommand must not end with EX_WITNESS = 1
    import ncsos.cli

    def crash(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(ncsos.cli, "certify", crash)
    path = write_poly(tmp_path / "p.json", sos_fixture())
    code, out, err = run(capsys, "certify", path)
    assert code == EX_SOFTWARE != EX_WITNESS
    assert out == ""
    assert err.strip() == "internal error: LinAlgError: SVD did not converge"


def test_non_hermitian_input_rejected(tmp_path, capsys):
    p = 1j * x(1)
    path = write_poly(tmp_path / "p.json", p)
    code, _, err = run(capsys, "certify", str(path))
    assert code == EX_DATA


def test_jsonio_float_format():
    assert jsonio.dumps(0.1) == "0.10000000000000001"
    assert jsonio.dumps({"b": 1, "a": [1.5, None, True]}) == '{"a":[1.5,null,true],"b":1}'
    with pytest.raises(ValueError):
        jsonio.dumps(float("nan"))


@pytest.mark.parametrize("value, text", [
    (-0.0, "0"),
    (np.array([-0.0, 1.0]), "[[0,0],[1,0]]"),
    (np.array([[complex(-0.0, -0.0), 1.0], [2.0, complex(0.0, -0.0)]]), "[[[0,0],[1,0]],[[2,0],[0,0]]]"),
    (2.0, "2"),
    (5e-324, "4.9406564584124654e-324"),
    (1e300, "1.0000000000000001e+300"),
    (np.zeros(0), "[]"),
    (np.zeros((2, 0)), "[[],[]]"),
    ((1, "a", None), '[1,"a",null]'),
    ("é", '"\\u00e9"'),
    ({"é": (2.0, -0.0)}, '{"\\u00e9":[2,0]}'),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float64(-0.0), "0"),
], ids=["minus-zero", "minus-zero-1d", "minus-zero-2d", "two", "subnormal", "1e300", "empty-1d", "empty-2x0",
        "tuple", "non-ascii", "non-ascii-key", "float64", "float64-minus-zero"])
def test_jsonio_edge_values(value, text):
    assert jsonio.dumps(value) == text


# NaN, and non-finite entries of arrays: test_jsonio_float_format, test_jsonio_rejects_nonfinite_arrays
@pytest.mark.parametrize("value, error", [({1: 2.0}, TypeError), (np.zeros((1, 1, 1)), TypeError),
                                          (float("inf"), ValueError), (-np.inf, ValueError)],
                         ids=["int-key", "3d-array", "inf", "minus-inf"])
def test_jsonio_refuses(value, error):
    with pytest.raises(error):
        jsonio.dumps(value)


def _as_lists(obj):
    """obj with every array replaced by its matrix_to_json encoding."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj) if obj.ndim == 2 else matrix_to_json(obj)[0]
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(value) for value in obj]
    return obj


def test_jsonio_arrays_match_matrix_encoding():
    A = np.array([[complex(-0.0, 5e-324), complex(1e300, -3.0)],
                  [complex(2.0, -0.0), complex(0.1, 7.0)]])
    assert jsonio.dumps(A) == jsonio.dumps(matrix_to_json(A))
    v = A.ravel()
    assert jsonio.dumps(v) == jsonio.dumps(matrix_to_json(v)[0])
    payload = {"m": A, "rows": [v, A.T]}
    assert jsonio.dumps(payload) == jsonio.dumps(_as_lists(payload))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_jsonio_rejects_nonfinite_arrays(bad):
    with pytest.raises(ValueError):
        jsonio.dumps(np.array([[1.0, bad]], dtype=complex))
    with pytest.raises(ValueError):
        jsonio.dumps(np.array([bad], dtype=complex))


@pytest.mark.parametrize("f", [witness_fixture(), u(1) + u(-1) - NCPoly.constant(3.0, 1, GROUP)],
                         ids=["monoid", "group"])
def test_witness_file_matches_list_payload(tmp_path, capsys, f):
    from ncsos.certify import run_dual
    from ncsos.cli import _outcome_json
    path = write_poly(tmp_path / "p.json", f)
    out = tmp_path / "w.json"
    code, _, _ = run(capsys, "witness", path, "--out", str(out))
    assert code == EX_WITNESS
    f = poly_from_json(json.loads(Path(path).read_text()))  # the term order the CLI sees
    assert out.read_text() == jsonio.dumps(_as_lists(_outcome_json(f, run_dual(f, 1)))) + "\n"


@pytest.mark.parametrize("f", [u(1) + u(-1) - NCPoly.constant(3.0, 1, GROUP),
                               group_witness_input(1, 1, 2, 2)], ids=["g1-k1", "g1-d2-k2"])
def test_certify_and_witness_write_the_same_group_witness(tmp_path, capsys, f):
    # certify reads the group-mode dual off the primal's solve, witness solves
    # the same system alone: the files must not differ by a byte
    path = write_poly(tmp_path / "p.json", f)
    files = [run(capsys, command, path) for command in ("certify", "witness")]
    assert files[0][0] == files[1][0] == EX_WITNESS
    assert files[0][1] == files[1][1]


@pytest.mark.parametrize("f", ACCEPTANCE.values(), ids=ACCEPTANCE.keys())
def test_certify_writes_the_file_of_the_branch_it_answers_with(tmp_path, capsys, f):
    # one decision, one solve, one record: certify's file is decompose's on
    # an SOS input and witness's on a refuted one, to the byte
    path = write_poly(tmp_path / "p.json", f)
    code, certified, _ = run(capsys, "certify", path)
    command = {0: "decompose", EX_WITNESS: "witness"}[code]
    assert run(capsys, command, path)[:2] == (code, certified)


@pytest.mark.parametrize("command, f, kind, evidence", [
    ("certify", sos_fixture(), "sos", {"certificate": {"gram", "residual", "factors"}}),
    ("certify", witness_fixture(), "witness", {"witness": {"min_eig", "refuted_value", "model", "functional"}}),
    ("decompose", witness_fixture(), "undecided", {}),
], ids=["sos", "witness", "undecided"])
def test_outcome_file_keys(tmp_path, capsys, command, f, kind, evidence):
    # the one schema of certify, decompose and witness: the record of the one
    # Gram solve, then the evidence of a decided outcome
    code, out, err = run(capsys, command, write_poly(tmp_path / "p.json", f))
    data = json.loads(out)
    assert data["outcome"] == kind
    assert data.keys() == {"outcome", "degree", "input_sha256", "diagnostics", *evidence}
    assert data["diagnostics"].keys() == {"iterations", "gap", "note"}
    assert all(data[key].keys() == keys for key, keys in evidence.items())
    if kind == "witness":  # the tuple fixes the mode and dim, the functional k, the top level the degree
        assert data["witness"]["model"].keys() == {"operators", "gamma", "gns_residual"}
        assert data["witness"]["functional"].keys() == {"blocks"}
    assert err == f"{command}: outcome={kind} degree=1 iterations={data['diagnostics']['iterations']}\n"
