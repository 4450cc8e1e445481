"""Pinned output: one ledger and one sha256 per corpus, in tests/pins/.

A report corpus is a list of verification reports in a fixed order: the
full and the small acceptance grid, as `fockrep report-all --grid ...
--format json` prints them, and the 70 negative controls (each +1
single-monomial bump of sl2_standard and osp22, n = 0..3), as
json.dumps(reports, sort_keys=True).  Three more corpora pin the catalogue
listing, as `fockrep list --format json` prints it, the cross-check
results of every accepted (grid instance, realization) pair
(cross_check_results), and the matrices both sides of each such cross
check compare on the small grid (cross_check_matrices).

A ledger has one tab-separated line per entry, in corpus order, with empty
trailing fields dropped.  In a report corpus an entry is a report line:
the report's index and label (rep and params), then the line's name,
status, detail and witness.  Check lines come first, then the alt forms
(`alt form <generator>`), then the Killing rank (`killing rank`, status
`<rank> of <generators>`).  In the listing an entry is a family: its id,
parameter signature and description.  In the cross results it is one
CheckResult: the pair's index and label (rep, params and realization), then
the result's name, status, detail and witness.  In the matrices it is one
nonzero row of one side's matrix: the record's index and label (rep,
params, realization and generator), the side (`realized` or `abstract`),
the row's basis state, and its entries as `state=value` in column order; a
side with overflow columns adds a line `overflow` naming them.  A basis
state (alpha|beta) lists the bosonic occupations and the fermionic mask.
The digest is the sha256 of the corpus's exact bytes, so it still proves
byte-identity of format, key order and whitespace, while the ledger says
which lines moved.

    PYTHONPATH=src python tests/pinning.py [corpus ...]

rewrites the ledgers and digests of the named corpora (all by default) from
the engine; the git diff of the ledgers is then the entry-by-entry diff of
what moved.
"""

import contextlib
import dataclasses
import difflib
import hashlib
import io
import json
import sys
from pathlib import Path

from fockrep.catalogue import build
from fockrep.cli import main
from fockrep.fock import Poly, to_matrix
from fockrep.grids import acceptance_grid
from fockrep.realize import RealizeError, abstract_counterpart, cross_check, realize_generators
from fockrep.verify import full_verify
from fockrep.weyl import WeylElement

PINS = Path(__file__).resolve().parent / "pins"
SHOWN = 12  # moved ledger lines printed on a mismatch


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def negative_control_reports() -> list:
    """The report JSON of every +1 single-monomial bump of sl2_standard and
    osp22 generators, n = 0..3, each generator's monomials in sorted order
    (WeylElement.sorted_terms), so the corpus does not hang on the order in
    which a formula happens to form a normal form's terms."""
    reports = []
    for rep_id in ("sl2_standard", "osp22"):
        for n in range(4):
            rep = build(rep_id, {"n": n})
            for name, g in rep.generators.items():
                w = g.as_weyl()
                for mono, _ in w.sorted_terms():
                    gens = dict(rep.generators)
                    gens[name] = Poly(w + WeylElement(rep.modes, {mono: 1}))
                    reports.append(full_verify(dataclasses.replace(rep, generators=gens)).to_json())
    return reports


def cross_check_results() -> list:
    """[rep, sorted [param, value] pairs, realization, [CheckResult as a dict]]
    for every (grid instance, realization) pair that realize accepts, in
    grid order."""
    lists = []
    for rep_id, params in acceptance_grid():
        rep = build(rep_id, params)
        for kind in ("differential", "fd", "jackson"):
            try:
                realize_generators(rep, kind)
            except RealizeError:
                continue
            lists.append([rep_id, sorted([k, str(v)] for k, v in params.items()), kind,
                          [dataclasses.asdict(r) for r in cross_check(rep, kind)]])
    return lists


def _matrix_record(mat):
    return [[[list(alpha), beta] for alpha, beta in mat.basis],
            [sorted([row, str(c)] for row, c in col.items()) for col in mat.cols],
            list(mat.overflow_columns)]


def cross_check_matrices() -> list:
    """[rep, sorted [param, value] pairs, realization, generator, realized
    matrix, abstract matrix] for every generator of every (small-grid
    instance, realization) pair that realize accepts, each matrix as [basis,
    sorted sparse columns, overflow columns] at the rep's cutoff."""
    records = []
    for rep_id, params in acceptance_grid(small=True):
        rep = build(rep_id, params)
        for kind in ("differential", "fd", "jackson"):
            try:
                realized = realize_generators(rep, kind)
            except RealizeError:
                continue
            abstract = abstract_counterpart(rep, kind)
            for name, op in realized.items():
                records.append([rep_id, sorted([k, str(v)] for k, v in params.items()), kind,
                                name, _matrix_record(to_matrix(op, rep.default_cutoff)),
                                _matrix_record(to_matrix(abstract[name],
                                                         rep.default_cutoff))])
    return records


def _line(fields) -> str:
    if any("\t" in f or "\n" in f for f in fields):
        raise ValueError("a ledger field holds a tab or a newline: %r" % (fields,))
    return "\t".join(fields).rstrip("\t")


def ledger(text: str) -> list:
    """The ledger lines of a report corpus's bytes."""
    lines = []
    for idx, report in enumerate(json.loads(text)):
        label = " ".join([report["rep"]] + ["%s=%s" % kv for kv in report["params"].items()])
        rows = [(c["name"], c["status"], c.get("detail", ""), c.get("witness", ""))
                for c in report["checks"]]
        rows += [("alt form " + a["generator"], a["status"], a["detail"], "")
                 for a in report.get("alt_forms", ())]
        if "killing_rank" in report:
            rows.append(("killing rank", "%(rank)d of %(of)d" % report["killing_rank"], "", ""))
        lines.extend(_line([str(idx), label, *row]) for row in rows)
    return lines


def list_ledger(text: str) -> list:
    """The ledger lines of the listing's bytes, one per family."""
    return [_line([e["id"], e["params"], e["family"]]) for e in json.loads(text)]


def cross_ledger(text: str) -> list:
    """The ledger lines of the cross results' bytes, one per CheckResult."""
    lines = []
    for idx, (rep_id, params, kind, results) in enumerate(json.loads(text)):
        label = " ".join([rep_id] + ["%s=%s" % tuple(kv) for kv in params] + [kind])
        lines.extend(_line([str(idx), label, r["name"], r["status"], r["detail"], r["witness"]])
                     for r in results)
    return lines


def _basis_state(state) -> str:
    alpha, beta = state
    return "(%s|%s)" % (",".join(map(str, alpha)), beta)


def matrix_ledger(text: str) -> list:
    """The ledger lines of the matrices' bytes, one per nonzero matrix row."""
    lines = []
    for idx, (rep_id, params, kind, name, *sides) in enumerate(json.loads(text)):
        label = " ".join([rep_id] + ["%s=%s" % tuple(kv) for kv in params] + [kind, name])
        for side, (basis, cols, overflow) in zip(("realized", "abstract"), sides):
            rows = {}
            for j, col in enumerate(cols):
                for i, c in col:
                    rows.setdefault(i, []).append("%s=%s" % (_basis_state(basis[j]), c))
            lines.extend(_line([str(idx), label, side, _basis_state(basis[i]), " ".join(row)])
                         for i, row in sorted(rows.items()))
            if overflow:
                lines.append(_line([str(idx), label, side, "overflow",
                                    " ".join(_basis_state(basis[j]) for j in overflow)]))
    return lines


# corpus -> (its bytes, from the engine; the ledger of such bytes)
CORPORA = {
    "full_grid": (lambda: _cli("report-all", "--grid", "full", "--format", "json"), ledger),
    "small_grid": (lambda: _cli("report-all", "--grid", "small", "--format", "json"), ledger),
    "negative_controls": (lambda: json.dumps(negative_control_reports(), sort_keys=True),
                          ledger),
    "list": (lambda: _cli("list", "--format", "json"), list_ledger),
    "cross_results": (lambda: json.dumps(cross_check_results(), sort_keys=True), cross_ledger),
    "matrices": (lambda: json.dumps(cross_check_matrices(), sort_keys=True), matrix_ledger),
}


def _paths(corpus):
    return PINS / (corpus + ".ledger"), PINS / (corpus + ".sha256")


def check_pinned(corpus: str, text: str):
    """Raise AssertionError unless text has the pinned ledger and digest;
    the message prints the first moved ledger lines, old (-) and new (+)."""
    ledger_path, digest_path = _paths(corpus)
    old = ledger_path.read_text().splitlines()
    new = CORPORA[corpus][1](text)
    if old != new:
        moved = [line for line in difflib.unified_diff(old, new, n=0, lineterm="")
                 if line[:1] in "-+" and line[:3] not in ("---", "+++")]
        raise AssertionError(
            "%s: %d ledger lines moved (rewrite with tests/pinning.py); first ones:\n%s"
            % (corpus, len(moved), "\n".join(moved[:SHOWN])))
    digest = hashlib.sha256(text.encode()).hexdigest()
    pinned = digest_path.read_text().strip()
    if digest != pinned:
        raise AssertionError("%s: same ledger, other bytes: sha256 %s, pinned %s"
                             % (corpus, digest, pinned))


def rewrite(corpus: str):
    make, ledger_of = CORPORA[corpus]
    text = make()
    ledger_path, digest_path = _paths(corpus)
    PINS.mkdir(exist_ok=True)
    ledger_path.write_text("".join(line + "\n" for line in ledger_of(text)))
    digest_path.write_text(hashlib.sha256(text.encode()).hexdigest() + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or CORPORA:
        rewrite(name)
