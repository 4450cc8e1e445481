"""The benchmark's traced run (perfbench/spans.py) replaces library
functions where they are looked up, reading each from its owner's
__dict__; every name it spans must still be there, and the library must
still call it through that name."""

import importlib
from pathlib import Path

from fockrep import catalogue, realize, verify
from fockrep.scalars import rat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_tracer_installs_every_span_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in spans.SPANS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        # at delta != 0 the J- alt form is still probed (fock.check_identity)
        rep = catalogue.build("sl2q", {"alpha": 2, "q": rat(2), "delta": rat(1)})
        assert verify.full_verify(rep).passed
        assert all(c.passed for c in realize.cross_check(rep, "jackson"))
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    assert {"catalogue.build", "verify.check_relations", "verify.casimir_check",
            "fock.check_identity", "realize.realize_generators",
            "realize.abstract_counterpart"} <= set(tracer.names)
