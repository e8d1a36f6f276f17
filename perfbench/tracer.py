"""Spans around the calls into each ncsos module, installed from outside.

Tracer.install() swaps module attributes (and three methods) for timing
wrappers; Tracer.uninstall() puts the originals back.  A function imported
by name into several modules is wrapped wherever it is bound, so calls
between modules are seen.  Spans stay in memory until write_jsonl().

project_psd and project_affine run once per Dykstra iteration, so they get
no span of their own: their call counts and times are added to the
enclosing span, which is the solve_feasibility span.  The first
project_affine call on each system builds the constraint stack and its
pseudo-inverse; it is counted as preparation, not as a projection.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from time import perf_counter

# (module, attribute, span name)
FUNCTIONS = [
    ("ncsos.certify", "certify", "certify.certify"),
    ("ncsos.certify", "run_primal", "certify.run_primal"),
    ("ncsos.certify", "run_dual", "certify.run_dual"),
    ("ncsos.certify", "gram_system", "certify.gram_system"),
    ("ncsos.certify", "hankel_system", "certify.hankel_system"),
    ("ncsos.certify", "functional_from_solution", "certify.functional_from_solution"),
    ("ncsos.sdp", "solve_feasibility", "sdp.solve_feasibility"),
    ("ncsos.gram", "constraint_index", "gram.constraint_index"),
    ("ncsos.gram", "factor_gram", "gram.factor_gram"),
    ("ncsos.gns", "gns_construct", "gns.construct"),
    ("ncsos.gns", "gns_construct_unitary", "gns.construct"),
    ("ncsos.gns", "gns_verify", "gns.verify"),
    ("ncsos.poly", "poly_eval", "poly.eval"),
    ("ncsos.words", "enumerate_words", "words.enumerate"),
    ("ncsos.jsonio", "dumps", "jsonio.dumps"),
    ("ncsos.jsonio", "loads", "jsonio.loads"),
    # the CLI parses its input with json.loads inside _read_json
    ("ncsos.cli", "_read_json", "jsonio.loads"),
]
# (module, class, method, span name)
METHODS = [
    ("ncsos.sdp", "AffineSystem", "__post_init__", "sdp.construct"),
    ("ncsos.gram", "SOSCertificate", "reconstruction", "gram.reconstruction"),
    ("ncsos.gns", "HankelFunctional", "validate", "gns.validate"),
]
PROJECTIONS = ("project_psd", "project_affine")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._patches: list[tuple] = []
        self.request = None
        self._built = weakref.WeakValueDictionary()     # systems gram/hankel_system returned
        self._prepared = weakref.WeakValueDictionary()  # systems already projected onto

    # -- spans -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a new span, as the root span when none is open."""
        return self._wrap(name, fn)(*args, **kwargs)

    def begin_request(self, request_id: str):
        self.request = request_id
        self._built.clear()
        self._prepared.clear()

    def _wrap(self, name, fn, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = {"id": len(tracer.spans), "request": tracer.request, "name": name,
                   "parent": tracer._open[-1]["id"] if tracer._open else None}
            if name == "sdp.solve_feasibility":
                rec["face_retry"] = id(args[0]) not in tracer._built
            tracer.spans.append(rec)
            tracer._open.append(rec)
            rec["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = perf_counter()
                tracer._open.pop()
            if post is not None:
                post(tracer, rec, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _projection(self, attr, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            key = attr
            if attr == "project_affine":
                system = args[1] if len(args) > 1 else kwargs["sys"]
                if id(system) not in tracer._prepared:
                    tracer._prepared[id(system)] = system
                    key = "prepare"
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec = tracer._open[-1] if tracer._open else {}
                rec[key + ".calls"] = rec.get(key + ".calls", 0) + 1
                rec[key + "_s"] = rec.get(key + "_s", 0.0) + dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "ncsos" and not modname.startswith("ncsos."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for modname, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr)
            self._patch_everywhere(fn, self._wrap(name, fn, _POST.get(name)))
        for attr in PROJECTIONS:
            fn = getattr(importlib.import_module("ncsos.sdp"), attr)
            self._patch_everywhere(fn, self._projection(attr, fn))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, _POST.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children and projections."""
        covered = [sum(s.get(k + "_s", 0.0) for k in ("project_psd", "project_affine", "prepare"))
                   for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**s, "self_s": self_s}, sort_keys=True) + "\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric, summed over all spans recorded."""
        spans = self.spans
        dur = [s["end"] - s["start"] for s in spans]
        self_s = self.self_times()

        def total(name, key=None):
            return sum((s.get(key, 0) if key else d) for s, d in zip(spans, dur) if s["name"] == name)

        def count(name, pred=lambda s: True):
            return sum(1 for s in spans if s["name"] == name and pred(s))

        def projected(key):  # summed over every span the projections ran in
            return sum(s.get(key, 0) for s in spans)

        solves = [(s, d) for s, d in zip(spans, dur) if s["name"] == "sdp.solve_feasibility"]
        iters = sum(s.get("iterations", 0) for s, _ in solves)
        feasible_iters = sum(s.get("iterations", 0) for s, _ in solves if s.get("feasible"))
        solve_s = sum(d - s.get("prepare_s", 0.0) for s, d in solves)
        systems = [s for s in spans if s["name"] == "sdp.construct" and "m" in s]
        return {
            "sdp.iterations": iters,
            "sdp.iterations_wasted": iters - feasible_iters,
            "sdp.useful_ratio": feasible_iters / iters if iters else 0.0,
            "sdp.us_per_iter": 1e6 * solve_s / iters if iters else 0.0,
            "sdp.project_psd.calls": projected("project_psd.calls"),
            "sdp.project_psd_s": projected("project_psd_s"),
            "sdp.project_affine.calls": projected("project_affine.calls"),
            "sdp.project_affine_s": projected("project_affine_s"),
            "sdp.construct_s": total("sdp.construct"),
            "sdp.prepare_s": projected("prepare_s"),
            "sdp.m_max": max((s["m"] for s in systems), default=0),
            "sdp.constraints_max": max((s["constraints"] for s in systems), default=0),
            "sdp.stack_bytes": max((16 * s["constraints"] * s["m"] ** 2 for s in systems), default=0),
            "sdp.normal_bytes": max((8 * s["constraints"] ** 2 for s in systems), default=0),
            "sdp.inconsistent": count("sdp.solve_feasibility",
                                      lambda s: s.get("error") == "InconsistentSystemError"),
            "certify.primal_s": total("certify.run_primal"),
            "certify.dual_s": total("certify.run_dual"),
            "certify.gram_system_s": total("certify.gram_system"),
            "certify.hankel_system_s": total("certify.hankel_system"),
            "certify.systems_built": count("certify.hankel_system"),
            "certify.face_retries": sum(1 for s, _ in solves if s["face_retry"]),
            "certify.face_retry_s": sum(d for s, d in solves if s["face_retry"]),
            "certify.readback_s": total("certify.functional_from_solution"),
            "gram.constraint_index_s": total("gram.constraint_index"),
            "gram.factor_s": total("gram.factor_gram"),
            "gram.reconstruct_s": total("gram.reconstruction"),
            "gram.factors": total("gram.factor_gram", "factors"),
            "gns.construct_s": total("gns.construct"),
            "gns.verify_s": total("gns.verify"),
            "gns.verify.calls": count("gns.verify"),
            "gns.failures": sum(1 for s in spans if s["name"] in ("gns.construct", "gns.validate")
                                and s.get("error")),
            "gns.model_dim_max": max((s.get("dim", 0) for s in spans if s["name"] == "gns.construct"),
                                     default=0),
            "poly.eval_s": total("poly.eval"),
            "poly.eval.calls": count("poly.eval"),
            "words.enumerate_s": total("words.enumerate"),
            "jsonio.dumps_s": total("jsonio.dumps"),
            "jsonio.loads_s": total("jsonio.loads"),
            "jsonio.bytes_out": total("jsonio.dumps", "bytes"),
            "cli.self_s": sum(t for s, t in zip(spans, self_s) if s["name"] == "cli.main"),
        }


def _post_built(tracer, rec, args, system):
    tracer._built[id(system)] = system


def _post_construct(tracer, rec, args, out):
    rec["m"], rec["constraints"] = args[0].m, len(args[0].constraints)


def _post_solve(tracer, rec, args, result):
    rec["iterations"], rec["feasible"] = result.iterations, bool(result.feasible)


_POST = {
    "certify.gram_system": _post_built,
    "certify.hankel_system": _post_built,
    "sdp.construct": _post_construct,
    "sdp.solve_feasibility": _post_solve,
    "gram.factor_gram": lambda t, rec, a, cert: rec.update(factors=len(cert.factors)),
    "gns.construct": lambda t, rec, a, model: rec.update(dim=model.dim),
    "jsonio.dumps": lambda t, rec, a, text: rec.update(bytes=len(text)),
}
