import argparse
import ast
import csv
import io
import json
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import zpcount
from conftest import subprocess_env
from zpcount import Subset, extremal, power_sigma, s_count, s_k_count, sigma_vector
from zpcount.counting import count_vector_to_json
from zpcount.cli import (
    _NOT_PARAMS, _params_from_args, _parse_residues, _parse_sizes, _strip_elapsed,
    build_parser, main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


def test_parse_residues():
    assert _parse_residues("-1..12", 17) == [16] + list(range(0, 13))
    assert _parse_residues("0,5,-2", 11) == [0, 5, 9]
    with pytest.raises(ValueError):
        _parse_residues("3,10", 7)  # 10 = 3 mod 7
    with pytest.raises(ValueError):
        _parse_residues("5..2", 11)
    with pytest.raises(ValueError):
        _parse_residues("0..11", 11)
    with pytest.raises(ValueError):
        _parse_sizes("")


def test_count_single_set(capsys):
    doc = run_json(capsys, "count", "--p", "17", "--k", "3", "--set", "-1..12")
    assert doc["result"]["count"] == "2255"
    assert doc["command"] == "count"


def test_count_explicit_sets(capsys):
    doc = run_json(capsys, "count", "--p", "7",
                   "--set", "1,2,4", "--set", "0..2", "--set", "3,5")
    expect = s_count(Subset.from_residues(7, [1, 2, 4]),
                     [Subset.from_residues(7, [0, 1, 2]),
                      Subset.from_residues(7, [3, 5])])
    assert doc["result"]["count"] == str(expect)
    assert doc["result"]["k"] == 2


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--p", "7", "--set", "0,1")
    assert code == 1 and "needs --k" in err
    code, _, err = run(capsys, "count", "--p", "7", "--set", "0,1",
                       "--set", "2,3", "--k", "3")
    assert code == 1 and "fix k" in err
    code, _, err = run(capsys, "count", "--p", "6", "--set", "0,1", "--k", "2")
    assert code == 1 and "odd prime" in err


@pytest.mark.parametrize("argv", [
    ("count", "--p", "0", "--set", "1", "--k", "2"),
    ("count", "--p", "-7", "--set", "1..3", "--k", "2"),
], ids=["p-zero", "p-negative-with-range"])
def test_prime_guard_runs_before_set_literals(capsys, argv):
    # p = 0 used to reach residue parsing (ZeroDivisionError), and p = -7 was
    # reported as a range longer than the group.
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: p must be an odd prime") and err.count("\n") == 1


def test_every_parser_flag_reaches_params():
    # params are built from every parsed flag but the documented exclusions,
    # so a new flag cannot be dropped from reports (and from recheck) silently.
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert ("--p" in flags) == (name != "recheck"), name
        if name == "recheck":  # replays stored params; it has none of its own
            continue
        argv = [name]
        dests = set()
        for action in sub._actions:
            if action.dest == "help":
                continue
            dests.add(action.dest)
            value = {"p": "7", "set": "0", "sizes": "1,2"}.get(
                action.dest, str(action.choices[0]) if action.choices else "7")
            if not action.option_strings:
                argv.append(value)
            elif action.nargs == 0:
                argv.append(action.option_strings[0])
            else:
                argv += [action.option_strings[0], value]
        params = _params_from_args(parser.parse_args(argv))
        assert sorted(d for d in dests if d not in params and d not in _NOT_PARAMS) == [], name


def test_argparse_usage_is_exit_1(capsys):
    assert main(["count", "--p", "7"]) == 1  # missing --set
    assert main(["no-such-command"]) == 1
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_sigma_power(capsys):
    doc = run_json(capsys, "sigma", "--p", "5", "--set", "0..2", "--k", "2")
    assert doc["result"]["sigma"] == ["1", "2", "3", "2", "1"]


def test_pollard_sizes_mode(capsys):
    doc = run_json(capsys, "pollard", "--p", "11", "--sizes", "3,7,7")
    assert doc["result"]["r0"] == 3
    assert doc["result"]["interval_profile"]["n"][0] == 11


def test_pollard_set_mode_with_classification(capsys):
    doc = run_json(capsys, "pollard", "--p", "11", "--a0", "3",
                   "--set", "0,1,2,3,4,5,7", "--set", "0,1,2,3,4,5,7")
    res = doc["result"]
    assert res["r0"] == 3
    assert res["classification"]["tag"] == "LARGE_SUM"
    assert all(row["lhs"] >= row["rhs"] for row in res["partial_sums"])


def test_spectrum(capsys):
    doc = run_json(capsys, "spectrum", "--p", "13", "--a", "3")
    assert len(doc["result"]["levels"]) == 3


def test_optimal_t(capsys):
    doc = run_json(capsys, "optimal-t", "--p", "13", "--a", "5", "--k", "3")
    assert doc["result"]["t"] == [1, 8]


def test_angle_check_single_and_sweep(capsys):
    doc = run_json(capsys, "angle-check", "--p", "13", "--a", "3")
    assert doc["result"]["passed"] is True
    doc = run_json(capsys, "angle-check", "--p", "11")
    assert doc["result"]["all_passed"] is True
    assert len(doc["result"]["checks"]) == len(range(3, 9))


@pytest.mark.parametrize("p", ["3", "5"])
def test_angle_check_sweep_without_a_size_is_exit_1(capsys, p):
    # p < 7 has no a in 3..p-3: an empty sweep checks nothing, so it is a
    # usage error, never a passing report
    code, out, err = run(capsys, "angle-check", "--p", p)
    assert code == 1 and out == ""
    assert err == f"error: angle-check: the range holds no point to test (p={p})\n"


# `zpcount angle-check --p P` sweeps frozen before F_value stopped reading
# the profile's mirror half: SHA-256 of the report with elapsed removed, for
# every prime 7 <= P <= 31 at --precision 8, 24, 64 and 256.  The low
# precisions are where a changed rounding path shows first.
_ANGLE_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "angle_fvalue_digests.json").read_text())["angle_check"]


@pytest.mark.parametrize("case", _ANGLE_DIGESTS, ids=lambda c: " ".join(c["argv"][1:]))
def test_angle_check_sweeps_match_frozen_digests(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"], err
    assert len(json.loads(out)["result"]["checks"]) == case["checks"]
    assert _cli_menu().digest(out.encode()) == case["sha256"]


def test_minimize_sizes_mode(capsys):
    doc = run_json(capsys, "minimize", "--p", "11", "--sizes", "3,4,2",
                   "--mode", "interval")
    assert doc["result"]["min_value"] == "0"


@pytest.mark.parametrize("sizes", ["3,,4", "3,4,", " ,3", "3, ,4"])
def test_sizes_empty_entry_is_exit_1(capsys, sizes):
    code, out, err = run(capsys, "minimize", "--p", "7", "--sizes", sizes)
    assert (code, out, err) == (1, "", "error: empty entry in size list\n")


def test_verify_thm1_all_sizes(capsys):
    doc = run_json(capsys, "verify", "thm1", "--p", "5", "--k", "2", "--all-sizes")
    assert doc["result"]["all_passed"] is True
    assert len(doc["result"]["verdicts"]) == 125


def test_verify_thm3(capsys):
    doc = run_json(capsys, "verify", "thm3", "--p", "7", "--a", "3",
                   "--k-max", "20")
    assert doc["result"]["passed"] is True
    xs = [pt["x"] for pt in doc["result"]["points"]]
    assert all(x % 7 != 1 for x in xs)


def test_verify_thm5(capsys):
    doc = run_json(capsys, "verify", "thm5", "--p", "7", "--a", "4",
                   "--s-max", "6")
    assert doc["result"]["passed"] is True


def test_verify_cor7(capsys):
    doc = run_json(capsys, "verify", "cor7", "--p", "13")
    assert doc["result"]["all_passed"] is True
    rows = {(r["p"], r["a"]): r for r in doc["result"]["rows"]}
    assert rows[(7, 3)]["orbits"] == 2
    assert rows[(13, 3)]["orbits"] >= 3


def test_verify_cor7_guard_fails_before_any_catalog(capsys, monkeypatch):
    import zpcount.core

    builds = []

    def build(p, a):
        builds.append((p, a))
        raise AssertionError(f"catalog ({p}, {a}) built before the guard")

    monkeypatch.setattr(zpcount.core, "build_orbit_catalog", build)
    zpcount.core.orbit_catalog.cache_clear()
    code, out, err = run(capsys, "verify", "cor7", "--p", "31")
    assert (code, out, err) == (
        1, "", "error: C(31,12) = 141120525 exceeds the enumeration guard\n")
    assert builds == []


def test_scan_k0(capsys):
    doc = run_json(capsys, "scan-k0", "--p", "7", "--a", "3",
                   "--mode", "knot1", "--k-limit", "40")
    assert doc["result"]["threshold"] == 2


def test_scan_k0_negative_window_is_exit_1(capsys):
    code, out, err = run(capsys, "scan-k0", "--p", "11", "--a", "3", "--mode", "knot1",
                         "--k-limit", "40", "--window", "-1")
    assert (code, out, err) == (1, "", "error: window must be >= 0, got -1\n")


@pytest.mark.parametrize("argv", [
    ("verify", "thm3", "--p", "7", "--a", "3", "--k-min", "10", "--k-max", "5"),
    ("verify", "thm3", "--p", "7", "--a", "3", "--k-min", "8", "--k-max", "8"),
    ("verify", "thm5", "--p", "7", "--a", "3", "--s-min", "5", "--s-max", "2"),
    ("scan-k0", "--p", "7", "--a", "3", "--mode", "knot1", "--k-limit", "1", "--window", "0"),
], ids=["thm3-descending", "thm3-only-1-mod-p", "thm5-descending", "scan-k0-empty"])
def test_empty_claim_range_is_exit_1(capsys, argv):
    # nothing was tested: a usage error, not a failed claim (exit 2)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.endswith(": the range holds no point to test\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("scan-k0", "--p", "7", "--a", "3", "--mode", "knot1", "--k-limit", "0"),
    ("scan-k0", "--p", "7", "--a", "4", "--mode", "k1-even", "--k-limit", "3"),
], ids=["knot1", "k1-even"])
def test_scan_k0_k_limit_below_every_point_is_exit_1(capsys, monkeypatch, argv):
    # every point may hold, but no threshold candidate was tested: not exit 2,
    # and no point is evaluated before the limit is checked
    calls = []
    for name in ("minimize_sk", "_class_minima", "_translate_rows"):
        monkeypatch.setattr(extremal, name, lambda *args, name=name: calls.append(name))
    code, out, err = run(capsys, *argv)
    assert calls == []
    assert code == 1 and out == ""
    assert err == (f"error: scan-{argv[6]}: no point of the range lies at or below "
                   f"k_limit={argv[8]}\n")


@pytest.mark.parametrize("argv", [
    ("scan-k0", "--p", "7", "--a", "2", "--mode", "knot1"),
    ("scan-k0", "--p", "5", "--a", "2", "--mode", "k1-even"),
], ids=["a-below-3", "p-below-7"])
def test_scan_k0_outside_claim_range_is_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: need p >= 7 and 3 <= a <= p-3") and err.count("\n") == 1


def test_orbits(capsys):
    doc = run_json(capsys, "orbits", "--p", "7", "--a", "3")
    assert doc["result"]["orbit_count"] == 2
    assert sorted(doc["result"]["orbit_sizes"]) == [14, 21]


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "spectrum", "--p", "11", "--a", "4")
    _, out2, _ = run(capsys, "spectrum", "--p", "11", "--a", "4")
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "thm3", "--p", "7", "--a", "3",
                       "--k-max", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("schema,verify/")
    assert lines[1] == "x,status,threshold,passed"
    assert len(lines) > 3


def test_csv_scan_k0_rows(capsys):
    code, out, _ = run(capsys, "scan-k0", "--p", "7", "--a", "3", "--mode", "knot1",
                       "--k-limit", "10", "--window", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:3] == ["schema,scan-k0/1", "k,status,threshold,passed", "2,holds,2,True"]


def test_human_format(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "7", "--a", "3",
                       "--format", "human")
    assert code == 0
    assert out.startswith("orbits:")
    assert "orbit_count: 2" in out


_SIGMA_SETS = ([0, 1, 2], [0, 3], [1, 5])
_COUNT_P7 = s_k_count(Subset.from_residues(7, [0, 1, 2]), 2)
_POWER_P61 = json.dumps(count_vector_to_json(power_sigma(Subset.from_residues(61, range(30)), 3)))


@pytest.mark.parametrize("argv, rows", [
    # several --set literals: the count vector of the set list
    (("sigma", "--p", "7", *(x for s in _SIGMA_SETS for x in ("--set", ",".join(map(str, s)))),
      "--format", "human"),
     ["sigma:", "  p: 7", "  sigma: " + json.dumps(count_vector_to_json(
         sigma_vector([Subset.from_residues(7, s) for s in _SIGMA_SETS])))]),
    # a result without points: one key,value row per key
    (("count", "--p", "7", "--set", "0..2", "--k", "2", "--format", "csv"),
     [["schema", "count/1"], ["key", "value"], ["count", f'"{_COUNT_P7}"'], ["k", "2"],
      ["p", "7"], ["sets", "[[0, 1, 2]]"]]),
    # a value past 120 characters is cut to 117 and "..."
    (("sigma", "--p", "61", "--set", "0..29", "--k", "3", "--format", "human"),
     ["sigma:", "  p: 61", f"  sigma: {_POWER_P61[:117]}..."]),
], ids=["sigma-sets-human", "csv-key-value", "human-truncated"])
def test_output_formats(capsys, argv, rows):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    parsed = list(csv.reader(io.StringIO(out))) if "csv" in argv else out.splitlines()
    assert parsed == rows


def test_recheck_roundtrip(capsys, tmp_path):
    for argv in (
        ("count", "--p", "17", "--k", "3", "--set", "-1..12"),
        ("orbits", "--p", "7", "--a", "3"),
        ("verify", "thm3", "--p", "7", "--a", "3", "--k-max", "12"),
        ("minimize", "--p", "7", "--a", "3", "--k", "4"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        f = tmp_path / "report.json"
        f.write_text(out)
        code, out2, _ = run(capsys, "recheck", str(f))
        assert code == 0, out2
        assert json.loads(out2)["result"]["match"] is True


def test_counts_beyond_the_int_string_limit(capsys, tmp_path):
    # s_k and the power's entries here run past 4300 digits, where str(int)
    # stops by default; the reports carry every digit and recheck them
    a = Subset.from_residues(61, range(30))
    count = s_k_count(a, 3000)
    assert len(str(Decimal(count))) > sys.get_int_max_str_digits()
    for command in ("count", "sigma"):
        code, out, err = run(capsys, command, "--p", "61", "--set", "0..29", "--k", "3000")
        assert code == 0, err
        result = json.loads(out)["result"]
        # int(Decimal(text)) parses exactly at any length; int(text) stops at the limit
        if command == "count":
            assert int(Decimal(result["count"])) == count
        else:
            assert sum(int(Decimal(result["sigma"][x])) for x in a.members()) == count
        f = tmp_path / f"{command}.json"
        f.write_text(out)
        code, out2, _ = run(capsys, "recheck", str(f))
        assert code == 0, out2
        assert json.loads(out2)["result"]["match"] is True


def test_recheck_detects_tampering(capsys, tmp_path):
    _, out, _ = run(capsys, "count", "--p", "7", "--set", "0..2", "--k", "2")
    doc = json.loads(out)
    doc["result"]["count"] = "999"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out2, _ = run(capsys, "recheck", str(f))
    assert code == 2
    assert json.loads(out2)["result"]["match"] is False


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),  # no such file
    ('{"command": "count", "params": {"p": 7}}', "is not a zpcount report"),  # no result
    ('{"command": "frobnicate", "params": {}, "result": {}}', "cannot recheck command"),
    ('{"command": "minimize", "params": {}, "result": {}}', "p must be an odd prime"),
    ('{"command": "verify", "params": {"p": 7, "a": 3, "s_max": 2}, "result": {}}',
     "malformed verify params (KeyError: 'claim')"),
    ('{"command": "verify", "params": {"p": 7, "claim": "thm9"}, "result": {}}',
     "malformed verify params (KeyError: 'thm9')"),
    ('{"command": "minimize", "params": {"p": 7, "a": "x", "k": 3}, "result": {}}',
     "malformed minimize params (TypeError: "),
], ids=["missing", "no-result", "unknown-command", "no-p", "no-claim", "unknown-claim",
        "wrong-type"])
def test_recheck_bad_input_is_exit_1(capsys, tmp_path, content, message):
    f = tmp_path / "report.json"
    if content is not None:
        f.write_text(content)
    code, out, err = run(capsys, "recheck", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    if "malformed" in message:
        assert str(f) in err


def test_precision_error_is_exit_1(capsys, monkeypatch):
    def unresolved(*args, **kwargs):
        raise zpcount.PrecisionError("spectral gaps unresolved")

    monkeypatch.setattr("zpcount.fourier.spectral_levels", unresolved)
    code, out, err = run(capsys, "spectrum", "--p", "7", "--a", "3")
    assert (code, out, err) == (1, "", "error: spectral gaps unresolved\n")


@pytest.mark.parametrize("argv", [
    ("thm3", "--p", "11", "--a", "4"),
    ("thm5", "--p", "11", "--k-max", "20"),
    ("thm3", "--p", "11", "--k-max", "20"),
    ("thm5", "--p", "11", "--s-max", "3"),
], ids=["thm3-no-k-max", "thm5-no-s-max", "thm3-no-a", "thm5-no-a"])
def test_verify_missing_flag_is_exit_1(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: verify {argv[0]} needs --a and --") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ("--cache-dir", "D"), ("--threads", "2"), ("--threads", "0"), ("--threads", "-3"),
], ids=["cache-dir", "threads-2", "threads-0", "threads-negative"])
def test_removed_settings_are_exit_1(capsys, tmp_path, monkeypatch, flags):
    # Searches run in one process with no result cache: --cache-dir is gone
    # and --threads accepts only 1, the value every report records.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "minimize", "--p", "7", "--a", "3", "--k", "5", *flags)
    assert code == 1 and out == "" and "error:" in err
    assert list(tmp_path.iterdir()) == []


def test_threads_1_is_recorded(capsys):
    doc = run_json(capsys, "minimize", "--p", "7", "--a", "3", "--k", "5", "--threads", "1")
    assert doc["params"]["threads"] == 1


def test_env_cache_dir(capsys, tmp_path, monkeypatch):
    # ZPCOUNT_CACHE_DIR no longer means anything: same stdout, no files.
    argv = ("minimize", "--p", "7", "--a", "3", "--k", "5")
    plain = run_json(capsys, *argv)
    cache = tmp_path / "cache"
    monkeypatch.setenv("ZPCOUNT_CACHE_DIR", str(cache))
    with_env = run_json(capsys, *argv)
    assert _strip_elapsed(with_env) == _strip_elapsed(plain)
    assert "cache_dir" not in with_env["params"]
    assert not cache.exists()


def test_recheck_ignores_forged_cache(capsys, tmp_path):
    # An old report whose params name a cache holding a self-consistent forgery
    # (a non-minimal set stored with its own true count) and two threads: the
    # replay reads neither key and recomputes from scratch.
    cache = tmp_path / "cache"
    cache.mkdir()
    forged_set = [0, 1, 2, 3]
    forged_value = s_k_count(Subset.from_residues(13, forged_set), 3)
    line = {"key": "sk:p=13:a=4:k=3:m=EXHAUSTIVE_ORBITS:v=0.1.0", "p": 13, "sizes": [4],
            "k": 3, "min_value": str(forged_value), "extremal_orbits": [forged_set],
            "extremal_kind": "dilation-class", "method": "EXHAUSTIVE_ORBITS",
            "elapsed": 0.0, "checked": 0}
    (cache / "sk.jsonl").write_text(json.dumps(line, sort_keys=True) + "\n")
    doc = run_json(capsys, "minimize", "--p", "13", "--a", "4", "--k", "3")
    assert int(doc["result"]["min_value"]) < forged_value
    doc["params"].update(cache_dir=str(cache), threads=2)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "recheck", str(report))
    assert code == 0 and json.loads(out)["result"]["match"] is True
    doc["result"].update(min_value=str(forged_value), extremal_orbits=[forged_set])
    report.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "recheck", str(report))
    assert code == 2 and json.loads(out)["result"]["match"] is False
    assert (cache / "sk.jsonl").read_text().count("\n") == 1  # nothing appended


@pytest.mark.parametrize("argv", [
    ("spectrum", "--p", "7", "--a", "3", "--precision", "-40"),
    ("spectrum", "--p", "7", "--a", "3", "--precision", "0"),
    ("angle-check", "--p", "11", "--a", "4", "--precision", "-20"),
    ("angle-check", "--p", "11", "--precision", "0"),
    ("spectrum", "--p", "7", "--a", "3", "--precision", "5000"),
    ("angle-check", "--p", "11", "--a", "4", "--precision", "5000"),
], ids=["spectrum-negative", "spectrum-zero", "angle-negative", "angle-sweep-zero",
        "spectrum-above-cap", "angle-above-cap"])
def test_precision_below_one_is_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --precision must be a positive") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("count", "--p", "7", "--set", "0,1,2", "--k", "3"),
    ("sigma", "--p", "7", "--set", "0,1,2", "--k", "3"),
    ("pollard", "--p", "7", "--sizes", "3,2,2"),
    ("optimal-t", "--p", "7", "--a", "3", "--k", "2"),
    ("minimize", "--p", "7", "--a", "3", "--k", "2"),
    ("verify", "thm3", "--p", "7", "--a", "3", "--k-max", "6"),
    ("scan-k0", "--p", "7", "--a", "3", "--mode", "knot1", "--k-limit", "20"),
    ("orbits", "--p", "7", "--a", "3"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("bits", ["64", "-5"])
def test_precision_on_a_non_spectral_command_is_exit_1(capsys, argv, bits):
    # only spectrum and angle-check read --precision; elsewhere it is unknown
    code, out, err = run(capsys, *argv, "--precision", bits)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --precision" in err


@pytest.mark.parametrize("argv, message", [
    (("minimize", "--p", "7", "--sizes", "3,2", "--a", "3"), "minimize --sizes does not read --a"),
    (("minimize", "--p", "7", "--a", "3", "--k", "2", "--sizes", "3,3,3"),
     "minimize --sizes does not read --a, --k"),
    (("minimize", "--p", "7", "--a", "3", "--k", "2", "--mode", "full"),
     "minimize --a/--k does not read --mode"),
    (("minimize", "--p", "7", "--sizes", "3,2,2", "--method", "raw"),
     "minimize --sizes does not read --method"),
    (("verify", "thm1", "--p", "7", "--sizes", "3,3", "--k", "5"),
     "verify thm1 --sizes does not read --k"),
    (("verify", "thm1", "--p", "5", "--k", "2", "--all-sizes", "--sizes", "2,2,2"),
     "verify thm1 --all-sizes does not read --sizes"),
    (("verify", "thm3", "--p", "7", "--a", "3", "--k-max", "6", "--s-max", "4"),
     "verify thm3 does not read --s-max"),
    (("verify", "thm5", "--p", "7", "--a", "3", "--s-max", "2", "--k-min", "3"),
     "verify thm5 does not read --k-min"),
    (("verify", "cor7", "--p", "7", "--a", "3"), "verify cor7 does not read --a"),
    (("pollard", "--p", "7", "--sizes", "3,2,2", "--a0", "3"), "pollard --sizes does not read --a0"),
], ids=["minimize-sizes-a", "minimize-sizes-a-k", "minimize-a-k-mode", "minimize-sizes-method",
        "thm1-sizes-k", "thm1-all-sizes-sizes", "thm3-s-max", "thm5-k-min", "cor7-a",
        "pollard-sizes-a0"])
def test_flag_the_lane_never_reads_is_exit_1(capsys, argv, message):
    # each would otherwise run and record a flag that nothing reads
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("minimize", "--p", "7"), "minimize needs --sizes, or --a and --k"),
    (("minimize", "--p", "7", "--k", "3"), "minimize needs --sizes, or --a and --k"),
    (("pollard", "--p", "7"), "pollard needs --sizes, or --set and --a0"),
    (("pollard", "--p", "7", "--set", "0,1"), "pollard needs --sizes, or --set and --a0"),
    (("verify", "thm1", "--p", "5"), "verify thm1 needs --all-sizes and --k, or --sizes"),
    (("verify", "thm1", "--p", "5", "--all-sizes"),
     "verify thm1 needs --all-sizes and --k, or --sizes"),
    (("verify", "thm3", "--p", "7", "--a", "3"), "verify thm3 needs --a and --k-max"),
    (("verify", "thm5", "--p", "7", "--s-max", "2"), "verify thm5 needs --a and --s-max"),
    (("pollard", "--p", "7", "--sizes", "3,2,2", "--set", "0,1"),
     "pollard --sizes does not read --set"),
    (("pollard", "--p", "7", "--a0", "3", "--set", "0,1", "--sizes", "3,2,2"),
     "pollard --sizes does not read --a0, --set"),
], ids=["minimize", "minimize-k", "pollard", "pollard-set", "thm1", "thm1-all-sizes", "thm3",
        "thm5", "pollard-sizes-set", "pollard-sizes-a0-set"])
def test_lane_table_errors_are_exit_1(capsys, argv, message):
    # no lane's choosing flags all given, or a flag the chosen lane never reads
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command, params, message", [
    ("count", {"p": 7, "k": 2}, "count needs --set"),
    ("sigma", {"p": 7}, "sigma needs --k, or --set"),
    ("pollard", {"p": 7, "a0": 3}, "pollard needs --sizes, or --set and --a0"),
    ("spectrum", {"p": 7, "depth": 3}, "spectrum needs --a"),
    ("optimal-t", {"p": 7, "a": 3}, "optimal-t needs --a and --k"),
    ("minimize", {"p": 7, "a": 3, "method": "auto"}, "minimize needs --sizes, or --a and --k"),
    ("verify", {"p": 7, "claim": "thm1", "k": 2}, "verify thm1 needs --all-sizes and --k, or --sizes"),
    ("verify", {"p": 7, "claim": "thm3", "k_max": 6}, "verify thm3 needs --a and --k-max"),
    ("scan-k0", {"p": 7, "a": 3, "k_limit": 20}, "scan-k0 needs --a and --mode"),
    ("orbits", {"p": 7}, "orbits needs --a"),
], ids=["count", "sigma", "pollard", "spectrum", "optimal-t", "minimize", "thm1", "thm3",
        "scan-k0", "orbits"])
def test_recheck_without_a_lane_is_exit_1(capsys, tmp_path, command, params, message):
    # stored params go through the same lane table as fresh ones
    f = tmp_path / "report.json"
    f.write_text(json.dumps({"command": command, "params": params, "result": {}}))
    assert run(capsys, "recheck", str(f)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, key, value", [
    (("minimize", "--p", "7", "--a", "3", "--k", "2"), "k", 2.5),
    (("minimize", "--p", "5", "--sizes", "2,2,2"), "sizes", [2, 2.5, 2]),
    (("verify", "thm1", "--p", "5", "--sizes", "2,2,2"), "sizes", [2, 2.5, 2]),
    (("pollard", "--p", "7", "--a0", "3", "--set", "0,1", "--set", "0,2,3"), "a0", 2.5),
], ids=["minimize-k", "minimize-sizes", "thm1-sizes", "pollard-a0"])
def test_recheck_of_a_non_integer_param_is_exit_1(capsys, tmp_path, argv, key, value):
    # k = 2.5 used to end in a traceback, sizes to run truncated by int() and
    # a0 = 2.5 to run as is
    doc = run_json(capsys, *argv)
    doc["params"][key] = value
    f = tmp_path / "report.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "recheck", str(f))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {f}: malformed {argv[0]} params (TypeError: ")
    assert err.endswith(" must be an integer, got 2.5)\n")


def test_recheck_of_a_pollard_report_with_sizes_and_sets_replays_sizes(capsys, tmp_path):
    doc = run_json(capsys, "pollard", "--p", "11", "--sizes", "3,7,7")
    doc["params"]["sets"] = [[0, 1, 2]]
    f = tmp_path / "report.json"
    f.write_text(json.dumps(doc))
    assert run_json(capsys, "recheck", str(f))["result"] == {"target": "pollard", "match": True}


def test_recorded_defaults_are_read_by_every_lane(capsys):
    # every report records these defaults whichever lane it takes, so giving
    # one explicitly is no unread flag
    doc = run_json(capsys, "minimize", "--p", "7", "--sizes", "3,2", "--method", "auto")
    assert (doc["params"]["method"], doc["params"]["mode"]) == ("auto", "auto")
    doc = run_json(capsys, "verify", "thm3", "--p", "7", "--a", "3", "--k-max", "6",
                   "--s-min", "1")
    assert (doc["params"]["k_min"], doc["params"]["s_min"]) == (2, 1)


def test_recheck_ignores_stored_params_no_lane_reads(capsys, tmp_path):
    doc = run_json(capsys, "minimize", "--p", "7", "--a", "3", "--k", "4")
    doc["params"].update(mode="full", s_max=4)
    f = tmp_path / "report.json"
    f.write_text(json.dumps(doc))
    assert run_json(capsys, "recheck", str(f))["result"] == {"target": "minimize", "match": True}


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_depth_below_one_is_exit_1(capsys, depth):
    code, out, err = run(capsys, "spectrum", "--p", "7", "--a", "3", "--depth", depth)
    assert code == 1 and out == ""
    assert err == f"error: --depth must be >= 1, got {depth}\n"


# Reports written by the float-accumulating DFT kernel that preceded the
# integer one: recheck must reproduce every printed digit.
@pytest.mark.parametrize("name", ["spectrum_p13_a5_prec64.json", "angle_check_p11.json"])
def test_older_spectral_reports_recheck(capsys, name):
    report = Path(__file__).parent / "fixtures" / name
    code, out, err = run(capsys, "recheck", str(report))
    assert code == 0, err or out
    assert json.loads(out)["result"]["match"] is True


# Reports frozen while SearchReport and TheoremVerdict carried their own
# elapsed field: recheck still drops elapsed at every depth, so they replay.
@pytest.mark.parametrize("name", ["timed_records_minimize_p11_a4_k3.json",
                                  "timed_records_thm1_all_sizes_p3_k2.json"])
def test_reports_with_record_times_recheck(capsys, name):
    report = Path(__file__).parent / "fixtures" / name
    code, out, err = run(capsys, "recheck", str(report))
    assert code == 0, err or out
    assert json.loads(out)["result"]["match"] is True


def _elapsed_paths(obj, path=()):
    """The path of every "elapsed" key in obj, each checked to hold a number."""
    if isinstance(obj, list):
        return [found for i, v in enumerate(obj) for found in _elapsed_paths(v, (*path, i))]
    if not isinstance(obj, dict):
        return []
    found = []
    for key, v in obj.items():
        if key == "elapsed":
            assert isinstance(v, float) and v >= 0, (path, v)
            found.append(path)
        else:
            found += _elapsed_paths(v, (*path, key))
    return found


_TOP = [()]


@pytest.mark.parametrize("argv, paths", [
    (["minimize", "--p", "7", "--a", "3", "--k", "2"], _TOP),
    (["minimize", "--p", "7", "--a", "3", "--k", "2", "--method", "raw"], _TOP),
    (["minimize", "--p", "5", "--sizes", "2,2,2"], _TOP),
    (["verify", "thm1", "--p", "5", "--sizes", "2,2,3"], _TOP),
    (["verify", "thm1", "--p", "3", "--k", "2", "--all-sizes"],
     [("verdicts", i) for i in range(27)]),
    (["verify", "thm3", "--p", "7", "--a", "3", "--k-max", "5"], _TOP),
    (["verify", "thm5", "--p", "7", "--a", "3", "--s-max", "2"], _TOP),
    (["scan-k0", "--p", "7", "--a", "3", "--mode", "knot1", "--k-limit", "5"], _TOP),
    (["verify", "cor7", "--p", "7"], []),
    (["pollard", "--p", "7", "--sizes", "3,3,3"], []),
    (["count", "--p", "7", "--set", "0,1,2", "--k", "3"], []),
    (["orbits", "--p", "7", "--a", "3"], []),
    (["optimal-t", "--p", "7", "--a", "3", "--k", "4"], []),
], ids=["minimize", "minimize-raw", "minimize-sizes", "thm1", "thm1-all-sizes", "thm3", "thm5",
        "scan-k0", "cor7", "pollard", "count", "orbits", "optimal-t"])
def test_elapsed_is_stamped_on_the_timed_reports_only(capsys, argv, paths):
    # the CLI stamps the wall time of each search on that search's JSON, at
    # the result's top level or on each verdict of --all-sizes
    code, out, err = run(capsys, *argv)
    assert code in (0, 2), err
    assert _elapsed_paths(json.loads(out)) == [("result", *path) for path in paths]


# Pollard reports frozen before the cached extremality records and the
# run-count progression kernel: --sizes mode, and --set mode with and without
# a classification (each equality tag that needs a reflection point or a
# progression step included).  A pollard report has no elapsed field, so
# stdout must match byte for byte.
_POLLARD_REPORTS = json.loads(
    (Path(__file__).parent / "fixtures" / "pollard_reports.json").read_text())


@pytest.mark.parametrize("case", _POLLARD_REPORTS, ids=lambda c: " ".join(c["argv"][1:]))
def test_pollard_reports_are_byte_identical(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == 0, err
    assert out == case["stdout"]


# `zpcount orbits` reports frozen before the primitive-root dilation chain
# and the longest-gap translate kernel: SHA-256 of the report with elapsed
# removed (the benchmark menu's digest).  The brute catalog oracle stops at
# p = 17 and the benchmark menu runs no `orbits`.
_ORBIT_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "orbit_digests.json").read_text())


@pytest.mark.parametrize("case", _ORBIT_DIGESTS, ids=lambda c: " ".join(c["argv"][1:]))
def test_orbit_reports_match_frozen_digests(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == 0, err
    assert json.loads(out)["result"]["orbit_count"] == case["orbit_count"]
    assert _cli_menu().digest(out.encode()) == case["sha256"]


# `zpcount spectrum` reports frozen before the kernel kept integer keys and
# computed arguments on first read: SHA-256 of the report with elapsed
# removed, for every (p, a) with p <= 19 at --precision 8, 64 and 256 and for
# (23, a), a = 3..20, at 256 bits.  Single-level reports (one orbit:
# a in {1, 2, p-2, p-1}) are left out; their gap is null now, see below.
_SPECTRUM_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "spectrum_digests.json").read_text())


def _strict_json(text: str):
    """json.loads that refuses the non-RFC 8259 constants NaN and
    +-Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("case", _SPECTRUM_DIGESTS, ids=lambda c: " ".join(c["argv"][1:]))
def test_spectrum_reports_match_frozen_digests(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == 0, err
    assert len(_strict_json(out)["result"]["levels"]) == case["levels"]
    assert _cli_menu().digest(out.encode()) == case["sha256"]


# `count --k` and `sigma --k` reports frozen before the centred power chain:
# SHA-256 of the report with elapsed removed, at p = 31 and 61, for the
# interval {0, ..., a-1}, the punctured interval {0, ..., a-2} + {a} and a
# seeded random a-set (a = (p-1)/2), k in {2, 3, 1023, 2047, 4096}.  No menu
# digest counts at large k.
_POWER_COUNT_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "power_count_digests.json").read_text())


@pytest.mark.parametrize("case", _POWER_COUNT_DIGESTS,
                         ids=lambda c: " ".join(c["argv"][:5:2] + c["argv"][6:]))
def test_power_count_reports_match_frozen_digests(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == 0, err
    assert _cli_menu().digest(out.encode()) == case["sha256"]


_SINGLE_LEVEL = [(p, a) for p in (3, 5, 7, 11, 13, 17, 19)
                 for a in sorted({1, 2, p - 2, p - 1})]


@pytest.mark.parametrize("p, a", _SINGLE_LEVEL)
def test_single_level_spectrum_is_json_and_rechecks(capsys, tmp_path, p, a):
    # one level has no gap to report: null, where the report used to print
    # the non-JSON token Infinity
    code, out, err = run(capsys, "spectrum", "--p", str(p), "--a", str(a), "--precision", "64")
    assert code == 0, err
    result = _strict_json(out)["result"]
    assert len(result["levels"]) == 1 and result["min_gap_over_err"] is None
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, err = run(capsys, "recheck", str(report))
    assert code == 0, err or out
    assert _strict_json(out)["result"]["match"] is True


def _cli_menu():
    """perfbench/cli_menu.py, imported (never written) for the frozen
    extremal_cli references and the digest they were taken with."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import cli_menu

    return cli_menu


_CLI_REFERENCE = _cli_menu().load_reference()


@pytest.mark.parametrize("key", sorted(_CLI_REFERENCE))
def test_cli_reference_digests_reproduce(capsys, key):
    # every benchmark menu command, run in process: same exit code, and the
    # same stdout apart from elapsed
    entry = _CLI_REFERENCE[key]
    code, out, err = run(capsys, *entry["args"])
    assert code == entry["exit"], err
    assert _cli_menu().digest(out.encode()) == entry["sha256"]


def test_recheck_validates_stored_precision(capsys, tmp_path):
    doc = run_json(capsys, "spectrum", "--p", "7", "--a", "3", "--precision", "64")
    assert doc["params"]["precision"] == 64 and doc["result"]["precision"] == 64
    doc["params"]["precision"] = -40
    f = tmp_path / "report.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "recheck", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: --precision must be a positive") and err.count("\n") == 1


# A broken step patched into the library (module, name, replacement) and a
# command that reaches it: an off-by-one recount of each search's attainers,
# or level sets that are not nested.
_BROKEN = {
    "s_k_count": ("zpcount.extremal", "s_k_count", "lambda *args: real(*args) + 1",
                  ["minimize", "--p", "7", "--a", "3", "--k", "4"]),
    # the raw search counts every subset by the half power and recounts its
    # attainers by the sweep's row, on both lanes
    "s_k_count_minimize_raw": ("zpcount.extremal", "s_k_count", "lambda *args: real(*args) + 1",
                               ["minimize", "--p", "7", "--a", "3", "--k", "4",
                                "--method", "raw"]),
    "s_k_count_minimize_raw_k1": ("zpcount.extremal", "s_k_count",
                                  "lambda *args: real(*args) + 1",
                                  ["minimize", "--p", "7", "--a", "3", "--k", "8",
                                   "--method", "raw"]),
    # k = 1 mod p: the sweep reads its rows off the stepped correlation and
    # recounts by the half power, so an s_k_count that is off by one
    # everywhere is caught on every command using it
    "s_k_count_minimize_k1": ("zpcount.extremal", "s_k_count", "lambda *args: real(*args) + 1",
                              ["minimize", "--p", "7", "--a", "3", "--k", "15"]),
    "s_k_count_thm5": ("zpcount.extremal", "s_k_count", "lambda *args: real(*args) + 1",
                       ["verify", "thm5", "--p", "7", "--a", "3", "--s-max", "2"]),
    "s_k_count_scan_k1_even": ("zpcount.extremal", "s_k_count", "lambda *args: real(*args) + 1",
                               ["scan-k0", "--p", "7", "--a", "4", "--mode", "k1-even",
                                "--k-limit", "20"]),
    "s_k_count_scan_k1_part2": ("zpcount.extremal", "s_k_count", "lambda *args: real(*args) + 1",
                                ["scan-k0", "--p", "7", "--a", "3", "--mode", "k1-part2",
                                 "--k-limit", "20"]),
    # a sweep that zeroes the interval {0, 1, 2}'s row at one k, after a
    # step from the first k, makes it the minimizer, and the s_k_count
    # recount catches it, on both lanes (k = 3, and k = 15 = 1 mod 7)
    "rotate_sum_thm3": ("zpcount.extremal", "_translate_rows",
                        "lambda reps, ks: ([(0,) * len(row) if k == 3 and rep.mask == 0b111 "
                        "else row for rep, row in zip(reps, rows)] "
                        "for k, rows in zip(ks, real(reps, ks)))",
                        ["verify", "thm3", "--p", "7", "--a", "3", "--k-max", "12"]),
    "rotate_sum_thm5": ("zpcount.extremal", "_translate_rows",
                        "lambda reps, ks: ([(0,) * len(row) if k == 15 and rep.mask == 0b111 "
                        "else row for rep, row in zip(reps, rows)] "
                        "for k, rows in zip(ks, real(reps, ks)))",
                        ["verify", "thm5", "--p", "7", "--a", "3", "--s-max", "2"]),
    # a shift-add that zeroes the interval {0, 1, 2}'s convolution lies in
    # step on every route through counting's kernel, so the raw search's
    # s_k_count agrees with its recount; the sweep's start still checks that
    # its correlation sums to |A|^(k+1), on both lanes
    "shared_rotate_sum_minimize_raw": ("zpcount.counting", "_rotate_sum",
                                       "lambda c, mask, *rest: 0 if mask in (0b111, 0b1100001) "
                                       "else real(c, mask, *rest)",
                                       ["minimize", "--p", "7", "--a", "3", "--k", "3",
                                        "--method", "raw"]),
    "shared_rotate_sum_minimize_raw_k1": ("zpcount.counting", "_rotate_sum",
                                          "lambda c, mask, *rest: 0 if mask in (0b111, 0b1100001) "
                                          "else real(c, mask, *rest)",
                                          ["minimize", "--p", "7", "--a", "3", "--k", "8",
                                           "--method", "raw"]),
    # a slot one byte too narrow in power_sigma's packed chain carries into
    # its neighbour, and the entries no longer sum to |A|^k
    "narrow_slot_sigma": ("zpcount.counting", "_slot_bytes", "lambda bound: max(1, real(bound) - 1)",
                          ["sigma", "--p", "7", "--set", "0,1,2", "--k", "20"]),
    # the same in s_k_count's centred chain, past its re-centring threshold:
    # the split of sigma^(n) = m + e no longer sums to |A|^n
    "narrow_slot_count_centred": ("zpcount.counting", "_slot_bytes",
                                  "lambda bound: max(1, real(bound) - 1)",
                                  ["count", "--p", "61", "--set", "0..29", "--k", "2047"]),
    # a squaring off by one in its lowest bit (at every halving) moves the
    # entries' total, and the next split of sigma^(n) = m + e catches it
    "square_residue": ("zpcount.counting", "_square", "lambda n, bits: real(n, bits) ^ 1",
                       ["count", "--p", "61", "--set", "0..29", "--k", "2047"]),
    # the same in sigma_vector's chain: five factors of size 6 at p = 7 put
    # entries near 6^5 / 7 > 255 in one-byte slots, and they no longer sum
    # to the product of the sizes
    "narrow_slot_sigma_sets": ("zpcount.counting", "_slot_bytes",
                               "lambda bound: max(1, real(bound) - 1)",
                               ["sigma", "--p", "7", *["--set", "0..5"] * 5]),
    "s_count": ("zpcount.extremal", "s_count", "lambda *args: real(*args) + 1",
                ["minimize", "--p", "5", "--sizes", "2,2,3", "--mode", "full"]),
    # a dilation multiplier of order (p-1)/2 passes the catalog's coverage
    # sum (subgroup orbits partition the subsets too) but not its orbit
    # count; the table builder refuses it first, by its own order check
    "subgroup_multiplier": ("zpcount.core", "_primitive_root", "lambda p: real(p) ** 2 % p",
                            ["orbits", "--p", "13", "--a", "5"]),
    "non_nested_profile": ("zpcount.pollard", "profile_from_sigma",
                           "lambda p, sigma: M.ThresholdProfile(p, ((1 << p) - 1, 1, 2, 0))",
                           ["pollard", "--p", "7", "--sizes", "3,2,2"]),
    # the same in set mode, where the tail's own profile is thresholded too
    "non_nested_profile_sets": ("zpcount.pollard", "profile_from_sigma",
                                "lambda p, sigma: M.ThresholdProfile(p, ((1 << p) - 1, 1, 2, 0))",
                                ["pollard", "--p", "7", "--a0", "3", "--set", "0,1",
                                 "--set", "0,2,3"]),
}


@pytest.mark.parametrize("name", sorted(_BROKEN))
def test_invariant_error_exit_3_under_optimize(name):
    module, attr, patch, argv = _BROKEN[name]
    script = (
        "import sys\n"
        f"import {module} as M\n"
        f"real = M.{attr}\n"
        f"M.{attr} = {patch}\n"
        "from zpcount.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invariant violated:")


def test_no_assert_statements_in_src():
    # Checks must survive `python -O`, which strips assert statements.
    src = Path(zpcount.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_dataclasses_import_in_src():
    # Records derive from core._Record: dataclasses (and the inspect it
    # imports) would cost most of every CLI start-up.
    src = Path(zpcount.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


# --- lazy layers: a command imports only what it runs ----------------------------

_EXACT_COMMANDS = [
    ["minimize", "--p", "7", "--a", "3", "--k", "2"],
    ["verify", "thm3", "--p", "7", "--a", "3", "--k-max", "6"],
    ["verify", "thm5", "--p", "7", "--a", "3", "--s-max", "2"],
    ["scan-k0", "--p", "7", "--a", "3", "--mode", "knot1", "--k-limit", "20"],
    ["count", "--p", "7", "--set", "0,1,2", "--k", "3"],
    ["orbits", "--p", "7", "--a", "3"],
    ["optimal-t", "--p", "7", "--a", "3", "--k", "2"],
]
_LAYERS = ("mpmath", "zpcount.fourier", "zpcount.pollard", "dataclasses", "inspect")


def _loaded_after(commands: list[list[str]]) -> tuple[list[int], list[str]]:
    """Exit codes of the commands run through cli.main in one fresh process,
    and which of _LAYERS that process then holds in sys.modules."""
    script = (
        "import contextlib, io, json, sys\n"
        "from zpcount.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        f"print(json.dumps([codes, [m for m in {_LAYERS!r} if m in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    return codes, loaded


def test_exact_commands_load_no_spectral_or_pollard_layer():
    codes, loaded = _loaded_after(_EXACT_COMMANDS)
    assert codes == [0] * len(_EXACT_COMMANDS)
    assert loaded == []


@pytest.mark.parametrize("argv, layers", [
    (["spectrum", "--p", "7", "--a", "3"], ["mpmath", "zpcount.fourier"]),
    (["angle-check", "--p", "7", "--a", "3"], ["mpmath", "zpcount.fourier"]),
    (["pollard", "--p", "7", "--sizes", "3,2,2"], ["zpcount.pollard"]),
], ids=["spectrum", "angle-check", "pollard"])
def test_layer_commands_load_their_layer(argv, layers):
    codes, loaded = _loaded_after([argv])
    assert codes == [0]
    assert loaded == layers
