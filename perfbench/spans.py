"""Spans and counters for the traced run, recorded from the benchmark's side.

The Tracer replaces library functions at the place each is looked up, so
the library's own code runs unchanged between the spans:

- verify imports check_identity and mat_mul by name, and full_verify
  resolves its checks as verify globals;
- realize imports to_matrix by name, and cross_check resolves
  realize_generators, abstract_counterpart and poly_to_matrix as globals;
- WeylElement.__mul__ resolves weyl.multiply as a module global;
- EchelonSpan and Scalar methods are patched on the class;
- check_identity walks fock.basis_states, which is patched to count the
  states it hands out.

A span is (name, start, end, parent).  Spans are kept in memory and written
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  Scalar arithmetic is counted, not timed, because timing
each call would measure the wrapper.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

from fockrep import catalogue, fock, linalg, realize, scalars, verify, weyl

# (owner, attribute, span name); several owners share a name where a
# function is imported by name elsewhere.
SPANS = [
    (catalogue, "build", "catalogue.build"),
    (verify, "check_relations", "verify.check_relations"),
    (verify, "check_relations_symbolic", "verify.check_relations_symbolic"),
    (verify, "closure", "verify.closure"),
    (verify, "closure_symbolic", "verify.closure_symbolic"),
    (verify, "jacobi", "verify.jacobi"),
    (verify, "killing_form", "verify.killing_form"),
    (verify, "casimir_check", "verify.casimir_check"),
    (verify, "invariant_subspace", "verify.invariant_subspace"),
    (verify, "check_alt_forms", "verify.check_alt_forms"),
    (verify, "burnside_irreducibility", "verify.burnside_irreducibility"),
    (fock, "check_identity", "fock.check_identity"),
    (verify, "check_identity", "fock.check_identity"),
    (fock, "to_matrix", "fock.to_matrix"),
    (realize, "to_matrix", "fock.to_matrix"),
    (weyl, "multiply", "weyl.multiply"),
    (linalg.EchelonSpan, "insert", "linalg.EchelonSpan.insert"),
    (linalg.EchelonSpan, "express", "linalg.EchelonSpan.express"),
    (linalg, "mat_mul", "linalg.mat_mul"),
    (verify, "mat_mul", "linalg.mat_mul"),
    (realize, "poly_to_matrix", "realize.poly_to_matrix"),
    (realize, "realize_generators", "realize.realize_generators"),
    (realize, "abstract_counterpart", "realize.abstract_counterpart"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in SPANS))
COUNTERS = ["fock.states_probed", "linalg.EchelonSpan.insert.useful_ratio",
            "scalars.Scalar.mul.calls", "scalars.Scalar.add.calls",
            "scalars.Scalar.inverse.calls", "scalars.max_bits"]


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = []
        self.counts = Counter()
        self.max_bits = 0
        self._probing = False
        self._saved = []

    # -- spans -------------------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for owner, attr, name in SPANS:
            fn = wrapped.get(name)
            if fn is None:
                fn = wrapped[name] = self.spanned(name, self._counted(name, getattr(owner, attr)))
            self._set(owner, attr, fn)
        # check_identity walks basis_states once, front to back, and stops
        # at the first mismatch: count the states it takes
        self._set(fock, "basis_states", self._probe_counter(fock.basis_states))
        self._patch_scalar()

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _counted(self, name, fn):
        if name == "fock.check_identity":
            def check_identity(*args, **kwargs):
                self._probing = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._probing = False
            return check_identity
        if name == "linalg.EchelonSpan.insert":
            def insert(span, vec):
                grew = fn(span, vec)
                if grew:
                    self.counts["insert.useful"] += 1
                return grew
            return insert
        return fn

    def _probe_counter(self, basis_states):
        counts = self.counts

        def probed(states):
            for key in states:
                counts["fock.states_probed"] += 1
                yield key

        def wrapper(modes, cutoff):
            states = basis_states(modes, cutoff)
            if self._probing:
                self._probing = False
                return probed(states)
            return states
        return wrapper

    def _patch_scalar(self):
        S = scalars.Scalar
        counts = self.counts
        mul = S.__dict__["__mul__"]

        def counted_mul(a, b):
            counts["scalars.Scalar.mul.calls"] += 1
            out = mul(a, b)
            if out is not NotImplemented:
                bits = max(_bits(out.rat), _bits(out.irr))
                if bits > self.max_bits:
                    self.max_bits = bits
            return out

        def counter(fn, key):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        self._set(S, "__mul__", counted_mul)
        self._set(S, "__rmul__", counted_mul)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            self._set(S, attr, counter(S.__dict__[attr], "scalars.Scalar.add.calls"))
        self._set(S, "inverse", counter(S.__dict__["inverse"], "scalars.Scalar.inverse.calls"))

    # -- results -----------------------------------------------------------

    def self_times(self, roots) -> dict:
        """name -> [self seconds, calls] over spans under a root named in
        `roots` (the roots themselves excluded)."""
        n = len(self.names)
        covered = [0.0] * n
        root_of = [0] * n
        for idx in range(n):
            parent = self.parents[idx]
            root_of[idx] = idx if parent < 0 else root_of[parent]
            if parent >= 0:
                covered[parent] += self.ends[idx] - self.starts[idx]
        out = {}
        for idx in range(n):
            if self.parents[idx] < 0 or self.names[root_of[idx]] not in roots:
                continue
            entry = out.setdefault(self.names[idx], [0.0, 0])
            entry[0] += self.ends[idx] - self.starts[idx] - covered[idx]
            entry[1] += 1
        return out

    def metrics(self) -> dict:
        """Every per-layer metric: catalogue.build from the set-up spans, the
        other layers from the spans inside ops."""
        in_setup = self.self_times({"setup"})
        in_ops = self.self_times({"op"})
        out = {}
        for name in SPAN_NAMES:
            s, calls = (in_setup if name == "catalogue.build" else in_ops).get(name, (0.0, 0))
            out[name + ".s"] = (s, "s")
            out[name + ".calls"] = (calls, "count")
        inserts = out["linalg.EchelonSpan.insert.calls"][0]
        useful = self.counts["insert.useful"]
        out["fock.states_probed"] = (self.counts["fock.states_probed"], "count")
        out["linalg.EchelonSpan.insert.useful_ratio"] = (
            useful / inserts if inserts else 0.0, "ratio")
        for key in ("scalars.Scalar.mul.calls", "scalars.Scalar.add.calls",
                    "scalars.Scalar.inverse.calls"):
            out[key] = (self.counts[key], "count")
        out["scalars.max_bits"] = (self.max_bits, "bits")
        return out

    def write(self, path):
        """All spans, columnar, gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(dict.fromkeys(self.names))
        index = {name: i for i, name in enumerate(names)}
        payload = {"names": names, "name": [index[n] for n in self.names],
                   "start": self.starts, "end": self.ends, "parent": self.parents}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
