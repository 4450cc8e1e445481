import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fockrep import catalogue, fock
from fockrep.catalogue import build
from fockrep.cli import main, parse_params
from fockrep.fock import NotLeftDivisible, Poly
from fockrep.realize import cross_check
from fockrep.scalars import rat
from fockrep.verify import casimir_check, full_verify
from fockrep.weyl import WeylElement
from pinning import check_pinned, ledger


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_params():
    params = parse_params(["n=3", "delta=-1/3"])
    assert params == {"n": rat(3), "delta": rat(-1, 3)}
    with pytest.raises(Exception):
        parse_params(["oops"])


def test_list_has_sixteen(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 16


def test_list_json_is_pinned(capsys):
    # every id, parameter signature and description, byte for byte
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    check_pinned("list", out)


def test_list_filter_super(capsys):
    code, out, _ = run(capsys, "list", "--filter", "super", "--format", "json")
    assert code == 0
    ids = {e["id"] for e in json.loads(out)}
    assert ids == {"osp22", "osp22_translated", "osp22_metaplectic", "gl_super"}


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "sl2_standard", "n=2")
    assert code == 0
    assert "result: PASS" in out


def test_two_digit_mode_indices_name_distinct_generators(capsys):
    # T0_1,11 and T0_11,1 are two generators, where run-together indices
    # would merge them into T0_111 and report a closure FAIL; glk k=21 is
    # only built, since its verify is slow
    names = list(build("gl_super", {"k": 11, "r": 1, "n": 1}).generators)
    assert len(names) == 169
    assert {"T0_1,11", "T0_11,1", "T0_11", "Q-_1,11", "J0_11"} <= set(names)
    code, out, _ = run(capsys, "verify", "gl_super", "k=11", "r=1", "n=1")
    assert code == 0 and "FAIL" not in out and "result: PASS" in out
    assert len(build("glk", {"k": 21, "n": 1}).generators) == 441


def test_verify_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "verify", "sl2q", "alpha=2", "q=1")
    assert code == 2 and "q = 1" in err
    code, _, err = run(capsys, "verify", "does_not_exist")
    assert code == 2 and "unknown representation" in err
    code, _, err = run(capsys, "verify", "sl2_standard", "n=abc")
    assert code == 2


def test_verify_failure_exit_one(capsys, monkeypatch):
    # a deliberately corrupted catalogue entry must drive exit code 1
    standard = catalogue.FAMILIES["sl2_standard"]

    def broken(kit, params):
        gens = standard.formula(kit, params)
        gens["J0"] = gens["J0"] + Poly(WeylElement.one(kit.one.modes))
        return gens

    monkeypatch.setitem(catalogue.FAMILIES, "broken_demo",
                        dataclasses.replace(standard, formula=broken))
    code, out, _ = run(capsys, "verify", "broken_demo", "n=2")
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_matrix_diagonal_output(capsys):
    code, out, _ = run(capsys, "matrix", "sl2_standard", "n=2",
                       "--gen", "J0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    mat = data["matrix"]
    assert mat[0][0] == {"r": "-1"}
    assert mat[1][1] == {"r": "0"}
    assert mat[2][2] == {"r": "1"}
    assert data["overflow_columns"] == []


def test_matrix_metaplectic_no_overflow_from_lowering(capsys):
    code, out, _ = run(capsys, "matrix", "sl2_metaplectic",
                       "--gen", "J+", "--cutoff", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["overflow_columns"] == []


def test_matrix_glk_raising(capsys):
    code, out, _ = run(capsys, "matrix", "glk", "k=2", "n=1",
                       "--gen", "J2+", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["matrix"]) == 2
    assert data["matrix"][1][0] == {"r": "1"}  # J2+ |0> = b |0> at n = 1


def test_matrix_realizations(capsys):
    code, out, _ = run(capsys, "matrix", "sl2_standard", "n=2", "--gen", "J-",
                       "--realization", "diff", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "matrix", "sl2_standard", "n=2", "--gen", "J-",
                        "--format", "json")
    assert json.loads(out)["matrix"] == json.loads(out2)["matrix"]


def test_output_determinism(capsys):
    _, out1, _ = run(capsys, "verify", "osp22", "n=2", "--format", "json")
    _, out2, _ = run(capsys, "verify", "osp22", "n=2", "--format", "json")
    assert out1 == out2  # byte-identical
    _, m1, _ = run(capsys, "matrix", "osp22", "n=2", "--gen", "T+", "--format", "json")
    _, m2, _ = run(capsys, "matrix", "osp22", "n=2", "--gen", "T+", "--format", "json")
    assert m1 == m2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "sl2_standard", "n=1",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["rep"] == "sl2_standard"


def test_unwritable_out_exits_two(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "f.json")
    for argv in (["list", "--out", missing],
                 ["verify", "sl2_standard", "n=1", "--out", missing]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_repeated_parameter_exits_two(capsys):
    code, out, err = run(capsys, "verify", "gl_super", "k=1", "r=1", "n=1", "n=2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "more than once" in err


def test_a_zero_denominator_exits_two(capsys):
    code, out, err = run(capsys, "verify", "osp22_translated", "n=1", "delta=1/0")
    assert code == 2 and out == ""
    assert err == "error: bad rational '1/0' for delta: zero denominator\n"


@pytest.mark.parametrize("value", ["x", "nan"])
def test_a_malformed_rational_names_the_expected_form(capsys, value):
    code, out, err = run(capsys, "verify", "osp22_translated", "n=1", "delta=" + value)
    assert code == 2 and out == ""
    assert err == "error: bad rational %r for delta: expected an integer or p/q\n" % value


def test_casimir_command(capsys):
    code, out, _ = run(capsys, "casimir", "sl2_metaplectic", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["measured"] == "3/16" and data["claim_status"] == "MATCH"
    code, _, err = run(capsys, "casimir", "sl2_clifford")
    assert code == 2 and "no Casimir" in err


def test_cross_command(capsys):
    code, out, _ = run(capsys, "cross", "sl2_translated", "n=2", "delta=1/2",
                       "--realization", "fd")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cross_jackson_on_shifted_sl2q(capsys):
    # the Jackson pair realizes the spectral sl2q whatever delta is
    code, out, _ = run(capsys, "cross", "sl2q", "alpha=0", "q=2", "delta=1",
                       "--realization", "jackson")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_fd_without_a_formula_exits_two(capsys):
    # the formula lookup must come before the fd pairs, which refuse delta = 0
    for argv in (["matrix", "sl2q", "alpha=0", "q=2", "delta=0", "--gen", "J0",
                  "--realization", "fd"],
                 ["cross", "sl2q", "alpha=0", "q=2", "delta=0", "--realization", "fd"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: no finite-difference realization for sl2q\n"


def test_negative_cutoff_exits_two(capsys):
    for argv in (["matrix", "sl2_standard", "n=2", "--gen", "J0", "--cutoff", "-1"],
                 ["verify", "sl2_standard", "n=2", "--cutoff", "-5"],
                 ["casimir", "sl2_standard", "n=2", "--cutoff", "x"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--cutoff" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "sl2_translated", "n=2", "delta=1/2", "--cutoff", "12"],
    ["casimir", "sl2q", "alpha=2", "q=2", "--cutoff", "0"],
    ["cross", "sl2q", "alpha=2", "q=2", "--realization", "jackson", "--cutoff", "6"],
])
def test_cutoff_flag_is_the_reps_cutoff(capsys, argv):
    # --cutoff N prints the bytes of the library run on the rep built with
    # default_cutoff N, the one cutoff every check reads
    command, rep_id = argv[:2]
    rep = dataclasses.replace(catalogue.build(rep_id, parse_params([a for a in argv if "=" in a])),
                              default_cutoff=int(argv[-1]))
    if command == "verify":
        payload = full_verify(rep).to_json()
    elif command == "casimir":
        measured, checks, claim = casimir_check(rep)
        payload = {"rep": rep_id, "params": {k: str(v) for k, v in sorted(rep.params.items())},
                   "name": rep.casimir.name, "claimed": str(rep.casimir.claimed),
                   "measured": str(measured), "checks": [c.to_json() for c in checks],
                   "claim_status": claim.status}
    else:
        payload = [c.to_json() for c in cross_check(rep, "jackson")]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_all_small(capsys):
    code, out, _ = run(capsys, "report-all", "--grid", "small")
    assert code == 0
    assert "all PASS" in out
    assert len([l for l in out.splitlines() if l.startswith("PASS")]) == 16


def test_report_all_small_json_is_pinned(capsys):
    # byte-identity oracle: any change to what a report says shows here,
    # line by line in tests/pins/small_grid.ledger
    code, out, _ = run(capsys, "report-all", "--grid", "small", "--format", "json")
    assert code == 0
    check_pinned("small_grid", out)


def test_report_all_full_json_is_pinned(capsys):
    # every check on all 190 grid instances, so a kernel that changes any
    # PASS detail shows here
    code, out, _ = run(capsys, "report-all", "--grid", "full", "--format", "json")
    assert code == 0
    check_pinned("full_grid", out)


def test_a_flipped_verdict_moves_exactly_its_ledger_line(capsys):
    # a pin mismatch prints the moved line, old and new, and nothing else;
    # a byte change that moves no line is caught by the digest
    _, out, _ = run(capsys, "report-all", "--grid", "small", "--format", "json")
    reports = json.loads(out)
    line = reports[3]["checks"][1]
    assert line["status"] == "PASS"
    line["status"] = "FAIL"
    old = [entry for entry in ledger(out) if entry.startswith("3\t")][1]
    with pytest.raises(AssertionError) as caught:
        check_pinned("small_grid", json.dumps(reports, indent=2, sort_keys=True) + "\n")
    assert str(caught.value).splitlines()[1:] == ["-" + old,
                                                  "+" + old.replace("\tPASS", "\tFAIL", 1)]
    with pytest.raises(AssertionError, match="same ledger, other bytes"):
        check_pinned("small_grid", out.replace("\n", "\n ", 1))


def test_pretty_report_all_is_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "report-all", "--grid", "small")
    _, out2, _ = run(capsys, "report-all", "--grid", "small")
    assert out1 == out2
    assert " ms)" not in out1


def test_timing_flag(capsys):
    code, out, _ = run(capsys, "report-all", "--grid", "small", "--timing")
    assert code == 0
    runs = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(runs) == 16 and all(re.search(r"checks, \d+ ms\)$", l) for l in runs)
    code, out, _ = run(capsys, "verify", "sl2_standard", "n=2", "--timing")
    assert code == 0 and re.search(r"^elapsed: \d+ ms$", out, re.M)
    check_lines = [l for l in out.splitlines() if re.match(r"  (PASS|FAIL|SKIP) ", l)]
    assert len(check_lines) == 9
    assert all(re.search(r"  \(\d+(\.\d+)? ms\)$", l) for l in check_lines)
    _, out, _ = run(capsys, "verify", "sl2_standard", "n=2", "--timing", "--format", "json")
    report = json.loads(out)
    assert isinstance(report["elapsed_ms"], int)
    assert len(report["checks"]) == 9
    assert all(isinstance(c["elapsed_ms"], (int, float)) and c["elapsed_ms"] >= 0
               for c in report["checks"])
    _, out, _ = run(capsys, "verify", "sl2_standard", "n=2", "--format", "json")
    report = json.loads(out)
    assert "elapsed_ms" not in report
    assert not any("elapsed_ms" in c for c in report["checks"])
    _, out, _ = run(capsys, "verify", "sl2_standard", "n=2")
    assert " ms)" not in out and "elapsed" not in out


def test_verify_says_skip_for_a_check_that_did_not_run(capsys):
    code, out, _ = run(capsys, "verify", "sl2_clifford")
    assert code == 0
    assert "  SKIP invariant_subspace  [no claim]" in out.splitlines()
    code, out, _ = run(capsys, "verify", "sl2_standard", "n=1/2")
    assert code == 0 and out.splitlines()[-1] == "result: PASS"
    assert "  SKIP invariant_subspace  [no claim]" in out.splitlines()
    assert not re.search(r"^  \S+ +killing_rank", out, re.M)
    assert "  killing rank 3 of 3" in out.splitlines()
    _, out, _ = run(capsys, "verify", "sl2_standard", "n=1/2", "--format", "json")
    report = json.loads(out)
    assert report["killing_rank"] == {"rank": 3, "of": 3}
    assert "killing_rank" not in [c["name"] for c in report["checks"]]


def test_report_all_counts_only_the_checks_that_ran(capsys):
    code, out, _ = run(capsys, "report-all", "--grid", "small")
    assert code == 0
    assert "PASS  sl2_metaplectic   (7 checks)" in out.splitlines()
    _, out, _ = run(capsys, "verify", "sl2_metaplectic")
    statuses = [l.split()[0] for l in out.splitlines() if re.match(r"  (PASS|FAIL|SKIP) ", l)]
    assert len(statuses) == 8 and statuses.count("SKIP") == 1


# the bytes `fockrep matrix` printed when every entry went through a Scalar
# JSON round trip: native entries must render the same
@pytest.mark.parametrize("argv, digest", [
    # sqrt2 entries
    (["osp22_metaplectic", "--gen", "Q2"],
     "a24c716ec368f4c008b8eb9c11650fdcb4185347c22896be56db9ecb1556c817"),
    (["osp22_metaplectic", "--gen", "Q2", "--decimal", "--format", "json"],
     "6ff0cf3af2256a168751cf62a3c90e5c15aee73008e5a0d819490394ebe186d9"),
    # integer entries
    (["sl2_standard", "n=2", "--gen", "J+"],
     "94480af3eaff5e4ccc8bbfbd08fe45de6139062059524610f73f4f1a59cf6e59"),
    (["sl2_standard", "n=2", "--gen", "J+", "--decimal", "--format", "json"],
     "062c736cd03dd9b70e66633f08d45521ea3a563405cbb81de5715d4cff28181b"),
    # --decimal prints the approximate entries in pretty output
    (["osp22_metaplectic", "--gen", "Q2", "--decimal"],
     "eeb4d63b5d2278c139809fb79b88c7b93ba7a0e52d5a70c23a2c4be08d8d4e50"),
])
def test_matrix_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "matrix", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, params, options", [
    ("verify", ["sl2_standard", "n=2"], ["--cutoff", "3"]),
    ("matrix", ["osp22", "n=2"], ["--gen", "Q1", "--cutoff", "3"]),
    ("cross", ["sl2_translated", "n=3", "delta=1/2"], ["--realization", "fd"]),
])
def test_parameters_may_follow_an_option(capsys, command, params, options):
    # the params positional ends at the first option; a name=value after
    # one is a parameter all the same, and every order prints the same bytes
    rep, *pairs = params
    first = run(capsys, command, rep, *pairs, *options)
    assert first[0] == 0 and first[1]
    assert run(capsys, command, rep, *options, *pairs) == first
    assert run(capsys, command, rep, pairs[0], *options, *pairs[1:]) == first


@pytest.mark.parametrize("argv", [
    ["verify", "sl2_standard", "--bogus", "n=2"],
    ["verify", "sl2_standard", "--cutoff", "3", "oops"],
    ["list", "n=2"],
])
def test_a_leftover_that_is_no_parameter_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


def test_unavailable_realization_exits_two(capsys):
    code, _, err = run(capsys, "cross", "sl2q", "alpha=2", "q=2",
                       "--realization", "fd")
    assert code == 2 and "finite-difference" in err
    code, _, err = run(capsys, "matrix", "sl2_translated", "n=1", "delta=1",
                       "--gen", "J0", "--realization", "diff")
    assert code == 2 and "differential" in err


def test_a_left_division_that_fails_exits_two(capsys, monkeypatch, fresh_kits):
    # the q-pair's lowering node divides by b (fock.LeftDivB): a division
    # that fails is a domain error, one line and exit 2, not a traceback.
    # verify probes the J- alt form and matrix applies J-; casimir decides
    # C over its preimage and applies no tree, so it never divides
    def refuse(self, terms):
        raise NotLeftDivisible("not left-divisible: forced")

    monkeypatch.setattr(fock.LeftDivB, "apply", refuse)
    for command in (("verify",), ("matrix", "--gen", "J-")):
        code, out, err = run(capsys, *command[:1], "sl2q", "alpha=2", "q=3/5", "delta=1",
                             *command[1:])
        assert (code, out, err) == (2, "", "error: not left-divisible: forced\n")
    assert run(capsys, "casimir", "sl2q", "alpha=2", "q=3/5", "delta=1")[0] == 0


def test_decimal_flag(capsys):
    code, out, _ = run(capsys, "matrix", "sl2_oscillator", "n=1",
                       "--gen", "J-", "--decimal", "--format", "json")
    assert code == 0
    assert "matrix_decimal" in json.loads(out)


_SIGNATURES = {rid: [name.rstrip("?") for name in sig.split(", ") if name]
               for rid, sig, _ in catalogue.list_catalogue()}
_VALUES = ["0", "1", "2", "-1", "-1/2", "1/2", "3/5", "1/0", "1.5", "two", ""]


@st.composite
def _argv(draw):
    """Mostly well-formed command lines with small or bad values; some with
    a missing, repeated or unknown parameter."""
    command = draw(st.sampled_from(["verify", "casimir", "matrix", "cross", "list"]))
    if command == "list":
        return [command] + draw(st.sampled_from([[], ["--filter", "sl2"], ["sl2"]]))
    rep_id = draw(st.sampled_from(sorted(_SIGNATURES) + ["no_such_rep"]))
    names = [name for name in _SIGNATURES.get(rep_id, ["n"]) if draw(st.integers(0, 5))]
    names += draw(st.lists(st.sampled_from(["n", "q", "delta", "x"]), max_size=1))
    argv = [command, rep_id] + ["%s=%s" % (name, draw(st.sampled_from(_VALUES)))
                                for name in names]
    argv += draw(st.sampled_from([[], ["--cutoff", "0"], ["--cutoff", "2"],
                                  ["--cutoff", "4"], ["--cutoff", "-1"],
                                  ["--cutoff", "x"]]))
    if command == "matrix":
        argv += ["--gen", draw(st.sampled_from(["J0", "J+", "J-", "T0", "Q1", "nope"]))]
    if command in ("matrix", "cross"):
        argv += draw(st.sampled_from([["--realization", "diff"], ["--realization", "fd"],
                                      ["--realization", "jackson"], []]))
    return argv


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_exit_codes_and_no_traceback(argv):
    # exit 0 pass, 1 failed check, 2 usage or domain error, never an
    # uncaught exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "error:" in err.getvalue().strip().splitlines()[-1], argv


@pytest.mark.parametrize("argv, code", [
    (["verify", "sl2_standard", "n=1"], 0),
    (["verify", "no_such_rep"], 2),
])
def test_python_dash_m_runs_the_cli_from_a_checkout(argv, code):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "fockrep"] + argv, cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    else:
        assert "PASS" in done.stdout
