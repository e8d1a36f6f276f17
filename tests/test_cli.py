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
from ncsos.cli import EX_DATA, EX_SOFTWARE, EX_UNDECIDED, EX_USAGE, EX_WITNESS, main
from ncsos.fock import extract_coeffs
from ncsos.poly import NCPoly, matrix_from_json, matrix_to_json, poly_from_json, poly_to_json
from ncsos.words import GROUP, MONOID, Word

from test_certify import group_witness_input


def x(i, g=2):
    return NCPoly.monomial(Word(MONOID, g, (i,)))


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
    group = (NCPoly.constant(1.0, 1, GROUP) + NCPoly.monomial(Word(GROUP, 1, (1,)))
             + NCPoly.monomial(Word(GROUP, 1, (-1,))))
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
    p_path = write_poly(tmp_path / "p.json", NCPoly.monomial(Word(GROUP, 1, (letter,))))
    at = tmp_path / "X.json"
    at.write_text(jsonio.dumps({"mode": "group", "entries": [matrix_to_json(np.diag([1.0, 2.0]))]}))
    code, out, err = run(capsys, "eval", p_path, "--at", str(at))
    assert code == want
    if want == 0:
        assert np.array_equal(matrix_from_json(json.loads(out)["matrix"]), np.diag([1.0, 2.0]))
    else:
        assert "group-mode entries are not unitary" in err


def test_extract_roundtrip(tmp_path, capsys):
    from ncsos.fock import FockBasis, build_symmetrized
    from ncsos.poly import poly_eval
    q = x(1) * x(2) + 0.5 * x(2)
    basis = FockBasis(2, 2, MONOID)
    E = poly_eval(q, build_symmetrized(basis))
    epath = tmp_path / "E.json"
    epath.write_text(jsonio.dumps({"matrix": matrix_to_json(E)}))
    code, out, _ = run(capsys, "extract", "--eval", str(epath), "--g", "2", "--l", "2", "--k", "1")
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


def u(i, g=1):
    return NCPoly.monomial(Word(GROUP, g, (i,)))


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
    assert done.stderr.strip() == (f"input error: {other}: f(X) of side 100000 would take 149.0 GiB, "
                                   "over the 0.25 GiB budget")


def test_spotcheck_counts_the_basis_before_building_its_table(tmp_path, capsys, monkeypatch):
    # a 13 x 13 Gram matrix fits degree 12 by the side bound (degree + 1) k,
    # but three letters have count_words(3, 12) = 797,161 words of degree <= 12:
    # the evidence is refused on that count, before the basis's table is built
    gram_module = importlib.import_module("ncsos.gram")
    builds = []
    monkeypatch.setattr(gram_module, "word_pair_table", lambda words: builds.append(len(words)))
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
# for a float, and a pair with a third number
BAD_ENTRIES = {"huge-int": [10 ** 400, 0], "three-parts": [1, 0, 5]}


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
    pytest.param(["fock-dump", "--g", "0", "--l", "1"], {}, EX_USAGE, id="fock-dump-g-0"),
    pytest.param(["fock-dump", "--g", "1", "--l", "0", "--group"], {}, EX_USAGE, id="fock-dump-group-l-0"),
    pytest.param(["extract", "--eval", "{e}", "--g", "1", "--l", "-1"], {"e": [[[1.0, 0.0]]]}, EX_USAGE,
                 id="extract-l-negative"),
    pytest.param(["spotcheck", "{p}", "{c}", "--trials", "0"], {"p": poly_data(), "c": {"outcome": "sos"}},
                 EX_USAGE, id="spotcheck-trials-0"),
    pytest.param(["spotcheck", "{p}", "{c}"], {"p": poly_data(), "c": {"outcome": "sos"}},
                 EX_DATA, id="sos-without-evidence"),
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


def test_delta_flag_is_gone(tmp_path, capsys):
    # the dual solves one system, so there is no margin to set
    path = write_poly(tmp_path / "p.json", sos_fixture())
    code, out, err = run(capsys, "certify", path, "--delta", "1e-4")
    assert code == EX_USAGE
    assert err.strip() == "usage error: unrecognized arguments: --delta 1e-4"


@pytest.mark.parametrize("command", ["certify", "decompose", "witness"])
@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_solver_flags_are_gone(tmp_path, capsys, command, flag):
    # the solver's budget and tolerance are constants, not settings
    path = write_poly(tmp_path / "p.json", sos_fixture())
    code, out, err = run(capsys, command, path, flag, "5")
    assert code == EX_USAGE
    assert err.strip() == f"usage error: unrecognized arguments: {flag} 5"


REQUIRED = inspect.Parameter.empty
# each library function below certify: its parameters and their defaults
SIGNATURES = {
    sdp.solve_feasibility: {"sys": REQUIRED, "interior": None},
    sdp.max_margin: {"sys": REQUIRED},
    sdp.project_affine: {"X": REQUIRED, "sys": REQUIRED},
    sdp._Farkas: {"sys": REQUIRED, "interior": REQUIRED},
    sdp.AffineSystem: {"m": REQUIRED, "labels": REQUIRED, "targets": REQUIRED},
    NCPoly.is_hermitian: {"self": REQUIRED},
    extract_coeffs: {"E": REQUIRED, "basis": REQUIRED, "k": REQUIRED},
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_library_settings_are_gone(fn):
    # budgets and tolerances below certify are module constants too; the one
    # default left is solve_feasibility's interior point, which tests leave
    # out on systems with no positive definite class-constant point
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
@pytest.mark.parametrize("degree", ["12", "200000"])
def test_oversized_degree_is_refused_before_anything_is_built(tmp_path, capsys, command, degree):
    # 1 + x1^2 over two letters: the degree-13 Gram system alone has side
    # 16,383, and its word-pair table would have 2.7e8 entries
    path = write_poly(tmp_path / "p.json", NCPoly.constant(1.0, 2) + x(1) * x(1))
    start = time.perf_counter()
    code, out, err = run(capsys, command, path, "--degree", degree)
    assert time.perf_counter() - start < 1.0
    assert code == EX_DATA and out == ""
    assert err.startswith(f"input error: degree {degree} needs a Gram system of side at least ")
    assert err.strip().endswith("above the limit 512")


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
    assert err.strip().endswith("side at least 1200, above the limit 512")


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
    from ncsos.certify import CertifyOutcome, run_dual
    from ncsos.cli import _input_hash, _witness_json
    path = write_poly(tmp_path / "p.json", f)
    out = tmp_path / "w.json"
    code, _, _ = run(capsys, "witness", path, "--out", str(out))
    assert code == EX_WITNESS
    f = poly_from_json(json.loads(Path(path).read_text()))  # the term order the CLI sees
    model, min_eig, refuted, _ = run_dual(f, 1)
    outcome = CertifyOutcome("witness", model=model, min_eig=min_eig, refuted_value=refuted)
    payload = {"outcome": "witness", "degree": 1, "input_sha256": _input_hash(f),
               "witness": _as_lists(_witness_json(outcome))}
    assert out.read_text() == jsonio.dumps(payload) + "\n"


@pytest.mark.parametrize("f", [u(1) + u(-1) - NCPoly.constant(3.0, 1, GROUP),
                               group_witness_input(1, 1, 2, 2)], ids=["g1-k1", "g1-d2-k2"])
def test_certify_and_witness_write_the_same_group_witness(tmp_path, capsys, f):
    # certify reads the group-mode dual off the primal's solve, witness solves
    # the same system alone: the evidence must not differ by a byte
    path = write_poly(tmp_path / "p.json", f)
    witnesses = []
    for command in ("certify", "witness"):
        code, out, _ = run(capsys, command, path)
        assert code == EX_WITNESS
        witnesses.append(out[out.index('"witness":'):])  # the last key of the sorted payload
    assert witnesses[0] == witnesses[1]
