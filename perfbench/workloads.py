"""The benchmark's workloads: the instances each one runs, why it runs them,
and the known answer every operation is checked against.

A workload is a list of Ops built from the seed.  The seed fixes the order
the ops run in (qheis keeps an lru_cache, so order can matter) and, for
negative_controls, each bump's positive rational coefficient.  The library
sees only the generated inputs.  Known answers come from the catalogue's
claims, never from recorded output:

- grid_full: every report of the acceptance grid passes.
- irreducible_large: the Burnside verdict is the one `claims.irreducible`
  states ("irreducible" for all four instances).
- cross_realize: every CheckResult of every cross check passes.
- negative_controls: every bumped generator makes the report fail, and every
  failing check carries a non-empty witness.

Each op calls the library through module attributes (`verify.full_verify`,
`realize.cross_check`, ...), looked up at call time, so a traced run sees
the patched functions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

from fockrep import catalogue, grids, realize, verify
from fockrep.fock import Poly
from fockrep.scalars import Scalar, rat
from fockrep.weyl import WeylElement


@dataclasses.dataclass
class Op:
    """One closed-loop request: `call()` gives a result, `check(result)`
    returns "" when it is the known answer and a reason otherwise."""

    label: str
    call: object
    check: object
    known_defect: bool = False
    grid_index: int = -1


def _label(rep_id, params) -> str:
    return " ".join([rep_id] + ["%s=%s" % kv for kv in sorted(params.items())])


# -- grid_full -----------------------------------------------------------------
# All 190 acceptance-grid instances through full_verify with the shipped
# Burnside cap: the `report-all --grid full` sweep.  Many small ops; fock,
# verify and weyl carry the work.

TINY_GRID = [("sl2_standard", {"n": rat(1)}), ("osp22", {"n": rat(1)})]


def _report_passes(report) -> str:
    if report.passed:
        return ""
    return "report FAIL: %s" % ", ".join(c.name for c in report.checks if not c.passed)


def grid_full(tiny=False) -> list:
    instances = TINY_GRID if tiny else list(grids.acceptance_grid())
    ops = []
    for idx, (rep_id, params) in enumerate(instances):
        rep = catalogue.build(rep_id, params)
        ops.append(Op(_label(rep_id, params),
                      lambda rep=rep: verify.full_verify(rep),
                      _report_passes, grid_index=idx))
    return ops


def grid_digest(ops, results) -> str:
    """sha256 of the bytes `report-all --grid full --format json` prints,
    with the reports put back in grid order."""
    reports = [r for _, r in sorted(zip((op.grid_index for op in ops), results),
                                    key=lambda pair: pair[0])]
    text = json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# -- irreducible_large ---------------------------------------------------------
# Burnside spans above the cap.  Two cases where coefficients grow (the
# translated and deformed families) and two where only the dimension is
# large, so a certificate or modular change that helps one kind and costs
# the other shows on the same workload.  Sizes are smaller than the stress
# instances in ROADMAP.md but of the same character.

LARGE_IRREDUCIBLE = [
    ("sl2_translated", {"n": rat(8), "delta": rat(1, 2)}),              # d = 9
    ("sl2q", {"alpha": rat(7), "q": rat(3, 5), "delta": rat(1)}),      # d = 8
    ("sl2_standard", {"n": rat(20)}),                                   # d = 21
    ("gl_super", {"k": rat(2), "r": rat(2), "n": rat(3)}),              # d = 25
]
TINY_IRREDUCIBLE = [("sl2_standard", {"n": rat(2)}),
                    ("sl2_translated", {"n": rat(2), "delta": rat(1, 2)})]


def _verdict_matches_claim(rep):
    expected = "irreducible" if rep.claims.irreducible else "reducible"

    def check(result) -> str:
        (verdict, _), outcome = result
        if verdict != expected or not outcome.passed:
            return "verdict %s, claim %s" % (verdict, expected)
        return ""
    return check


def irreducible_large(tiny=False) -> list:
    ops = []
    for rep_id, params in TINY_IRREDUCIBLE if tiny else LARGE_IRREDUCIBLE:
        rep = catalogue.build(rep_id, params)
        ops.append(Op(_label(rep_id, params),
                      lambda rep=rep: verify.burnside_irreducibility(rep),
                      _verdict_matches_claim(rep)))
    return ops


# -- cross_realize -------------------------------------------------------------
# realize.cross_check on every (grid instance, realization) pair that
# realize_generators accepts: 227 ops, the only workload that runs realize
# and fock.to_matrix.

REALIZATIONS = ("differential", "fd", "jackson")


def jackson_defect(rep, kind) -> bool:
    """Known defect: for the shift-transformed sl2q (delta != 0),
    abstract_counterpart returns the transformed rep while JacksonX realizes
    the spectral embedding, so the cross check fails on a true claim."""
    return kind == "jackson" and rep.rep_id == "sl2q" and bool(rep.params.get("delta"))


def _all_pass(results) -> str:
    bad = [c.name for c in results if not c.passed]
    if not results:
        return "no results"
    return "FAIL: %s" % ", ".join(bad) if bad else ""


TINY_CROSS = [("sl2_standard", {"n": rat(1)}),
              ("sl2q", {"alpha": rat(0), "q": rat(2), "delta": rat(1)})]


def cross_realize(tiny=False) -> list:
    ops = []
    for rep_id, params in TINY_CROSS if tiny else grids.acceptance_grid():
        rep = catalogue.build(rep_id, params)
        for kind in REALIZATIONS:
            try:
                realize.realize_generators(rep, kind)
            except realize.RealizeError:
                continue
            ops.append(Op("%s --realization %s" % (_label(rep_id, params), kind),
                          lambda rep=rep, kind=kind: realize.cross_check(rep, kind),
                          _all_pass, known_defect=jackson_defect(rep, kind)))
    return ops


# -- negative_controls ---------------------------------------------------------
# Every single-monomial bump of every generator of sl2_standard and osp22,
# n = 0..7: 146 ops, each of which must FAIL with a witness.  The same
# fock/verify code as grid_full, but fail-fast: check_identity stops at the
# first mismatch and closure at the first bracket leaving the span.

NEGATIVE_FAMILIES = ("sl2_standard", "osp22")
NEGATIVE_NS = range(8)


def _fails_with_witnesses(report) -> str:
    failing = [c for c in report.checks if not c.passed]
    if not failing:
        return "bumped generator passes"
    bare = [c.name for c in failing if not c.witness]
    return "no witness on %s" % ", ".join(bare) if bare else ""


def negative_control_op(rep, name, mono, coeff) -> Op:
    """full_verify on rep with coeff * mono added to generator `name`."""
    bumped = rep.generators[name].as_weyl() + WeylElement(rep.modes, {mono: Scalar(coeff)})
    gens = dict(rep.generators)
    gens[name] = Poly(bumped)
    bad = dataclasses.replace(rep, generators=gens)
    return Op("%s %s += (%s)*%s" % (_label(rep.rep_id, rep.params), name, coeff, mono),
              lambda: verify.full_verify(bad), _fails_with_witnesses)


def negative_controls(rng, tiny=False) -> list:
    ops = []
    for rep_id in NEGATIVE_FAMILIES[:1] if tiny else NEGATIVE_FAMILIES:
        for n in range(1) if tiny else NEGATIVE_NS:
            rep = catalogue.build(rep_id, {"n": rat(n)})
            for name, g in rep.generators.items():
                for mono in list(g.as_weyl().terms):
                    coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    ops.append(negative_control_op(rep, name, mono, coeff))
    return ops


# -- registry ------------------------------------------------------------------


def build_ops(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's ops for this seed, in the order they run."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "grid_full":
        ops = grid_full(tiny)
    elif workload == "irreducible_large":
        ops = irreducible_large(tiny)
    elif workload == "cross_realize":
        ops = cross_realize(tiny)
    elif workload == "negative_controls":
        ops = negative_controls(rng, tiny)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(ops)
    return ops
