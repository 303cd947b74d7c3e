import json

import numpy as np
import pytest

from bentfn import BoolFn, ParameterError, XorShift64Star, load_table, save_table
from bentfn.cli import main
from bentfn.verify import CriterionResult

from helpers import naive_save_scan, naive_scan

QUAD_TABLE = [((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1)
              for i in range(16)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        key, _, val = line.partition(": ")
        pairs.setdefault(key, []).append(val)
    return {k: v[0] if len(v) == 1 else v for k, v in pairs.items()}


def test_construct_psap(tmp_path, capsys):
    out = tmp_path / "f.tt"
    code, text, _ = run(capsys, "construct", "--family", "psap", "--m", "3",
                        "--P", "trace", "--out", str(out))
    assert code == 0
    report = parse_kv(text)
    assert report["n"] == "6"
    assert report["bent"] == "true"
    assert report["degree"] == "3"
    assert load_table(str(out)).n == 6


def test_construct_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "f.tt"
    code, text, _ = run(capsys, "construct", "--family", "gpsap", "--m", "4",
                        "--k", "2", "--e", "2", "--out", str(out))
    assert code == 0
    built = parse_kv(text)
    code, text, _ = run(capsys, "analyze", str(out))
    assert code == 0
    analyzed = parse_kv(text)
    assert analyzed["n"] == built["n"]
    assert analyzed["degree"] == built["degree"]
    assert analyzed["bent"] == built["bent"] == "true"
    # the dual file is itself a loadable bent table
    from bentfn import dual, is_bent

    d = load_table(analyzed["dual"])
    assert is_bent(d)
    assert d == dual(load_table(str(out)))


def test_construct_parameter_error(capsys):
    code, _, err = run(capsys, "construct", "--family", "psffff",
                       "--m", "2", "--k", "1")
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("option", ["--perm", "--Q"])
def test_construct_bad_gold_exponent(tmp_path, capsys, option):
    family = "mm" if option == "--perm" else "gpsap-trace"
    code, _, err = run(capsys, "construct", "--family", family, "--m", "3",
                       option, "gold:x", "--out", str(tmp_path / "f.tt"))
    assert code == 2
    assert err.startswith("error:") and "gold:x" in err


@pytest.mark.parametrize("args", [("--family", "mm", "--m", "3", "--perm", "gold:-1"),
                                  ("--family", "gpsap-trace", "--m", "3", "--Q", "gold:-2"),
                                  ("--family", "cor-ex2", "--m", "5", "--k", "2",
                                   "--gold-k", "-1")],
                         ids=["perm", "Q", "cor-ex2"])
def test_construct_negative_gold_parameter(tmp_path, capsys, args):
    code, _, err = run(capsys, "construct", *args, "--out", str(tmp_path / "f.tt"))
    assert code == 2
    assert err.startswith("error:") and "k >= 0" in err


@pytest.mark.parametrize("family", ["mm", "gmm", "psap", "gpsap-trace"])
def test_construct_c0_only_for_gpsap(tmp_path, capsys, family):
    out = tmp_path / "f.tt"
    args = ("construct", "--family", family, "--m", "4", "--k", "2", "--e", "2",
            "--out", str(out))
    code, _, err = run(capsys, *args, "--c0", "1")
    assert code == 2
    assert err.startswith("error:") and "--c0" in err
    assert not out.exists()
    assert run(capsys, *args, "--c0", "0")[0] == 0
    assert run(capsys, "construct", "--family", "gpsap", *args[3:], "--c0", "1")[0] == 0


@pytest.mark.parametrize("family", ["mm", "gmm", "psap", "gpsap", "gpsap-trace", "cor-ex1",
                                    "cor-ex2", "psffff", "partition"])
def test_construct_rejects_tables_above_n16(tmp_path, capsys, family):
    # m = 9 gives n >= 18, which no .tt file holds: refused before building
    out = tmp_path / "f.tt"
    code, text, err = run(capsys, "construct", "--family", family, "--m", "9",
                          "--out", str(out))
    assert code == 2 and not text
    assert err.startswith(f"error: --family {family} at m=9 has n=") and "n <= 16" in err
    assert not out.exists()


def test_save_table_rejects_n_above_16(tmp_path):
    out = tmp_path / "f.tt"
    with pytest.raises(ParameterError, match="n=18"):
        save_table(BoolFn(np.zeros(1 << 18, dtype=np.uint8)), str(out))
    assert not out.exists()


_HUGE = "1" + "0" * 21   # 22 hex digits: 2^84, beyond int64


@pytest.mark.parametrize("args, body, code, message", [
    (("--family", "mm", "--m", "2", "--perm"), f"m=2\n0\n1\n{_HUGE}\n3\n", 3,
     "error: table is not a bijection"),
    (("--family", "gpsap", "--m", "4", "--k", "2", "--e", "2", "--P"),
     f"m=4 k=2\n0\n1\n{_HUGE}\n0\n", 2, "error: balanced-form table must contain bits"),
    (("--family", "psap", "--m", "2", "--P"), f"m=2 k=2\n0\n1\n{_HUGE}\n0\n", 2,
     "error: balanced-form table must contain bits"),
    (("--family", "psffff", "--m", "3", "--k", "1", "--P"), f"m=3 k=1\n{_HUGE}\n1\n", 2,
     "error: permutation-form table must be a bijection on S_k"),
], ids=["perm", "gpsap", "psap", "psffff"])
def test_construct_oversized_file_value(tmp_path, capsys, args, body, code, message):
    # a value beyond int64 fails the same check as any other value off
    # range: one error line, no traceback, no file
    src, out = tmp_path / "in.txt", tmp_path / "f.tt"
    src.write_text(body)
    got, text, err = run(capsys, "construct", *args, str(src), "--out", str(out))
    assert (got, text, err) == (code, "", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("family", ["mm", "psap"])
def test_construct_on_gf2(tmp_path, capsys, family):
    out = tmp_path / "f.tt"
    code, text, _ = run(capsys, "construct", "--family", family, "--m", "1",
                        "--out", str(out))
    assert code == 0
    assert parse_kv(text)["bent"] == "true"
    assert load_table(str(out)).table.tolist() == [0, 0, 0, 1]


def test_bad_thread_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BENT_THREADS", "abc")
    code, _, err = run(capsys, "construct", "--family", "psap", "--m", "2",
                       "--out", str(tmp_path / "f.tt"))
    assert code == 2
    assert err.startswith("error:") and "BENT_THREADS" in err


@pytest.mark.parametrize("argv, env, source", [
    (["--threads", "0"], None, "--threads"),
    (["--threads", "-2"], None, "--threads"),
    ([], "-3", "BENT_THREADS"),
    ([], "0", "BENT_THREADS"),
], ids=["flag-0", "flag-minus-2", "env-minus-3", "env-0"])
def test_thread_count_below_one(tmp_path, capsys, monkeypatch, argv, env, source):
    # from either source, a count below 1 is refused before any work
    p = tmp_path / "q.tt"
    save_table(BoolFn(QUAD_TABLE), str(p))
    if env is not None:
        monkeypatch.setenv("BENT_THREADS", env)
    code, out, err = run(capsys, "msubspace", str(p), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and source in err and len(err.splitlines()) == 1
    # --threads overrides an invalid environment, and 1 is accepted
    code, _, _ = run(capsys, "msubspace", str(p), "--threads", "1")
    assert code == 0


def test_analyze_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.tt"
    p.write_text("n=4\nzz\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3
    assert "line 2" in err


def test_analyze_oversized_table(tmp_path, capsys):
    p = tmp_path / "big.tt"
    p.write_text("n=17\n0\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3
    assert err.startswith("error: line 1:") and "out of range" in err


def test_analyze_undecodable_file(tmp_path, capsys):
    p = tmp_path / "bin.tt"
    p.write_bytes(b"n=4\n\xff\xfe\xfd\xfc\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3
    assert err.startswith("error: line 2:") and "UTF-8" in err


def test_analyze_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "none.tt"))
    assert code == 2


def test_msubspace(tmp_path, capsys):
    out = tmp_path / "mm3.tt"
    run(capsys, "construct", "--family", "mm", "--m", "3",
        "--perm", "inverse", "--out", str(out))
    code, text, _ = run(capsys, "msubspace", str(out))
    assert code == 0
    report = parse_kv(text)
    assert report["index"] == "3"
    assert report["subspace"] == "0x4 0x2 0x1"


def test_msubspace_negative_cap(tmp_path, capsys):
    p = tmp_path / "quad.tt"
    save_table(BoolFn(QUAD_TABLE), str(p))
    code, text, err = run(capsys, "msubspace", str(p), "--max-dim", "-1")
    assert code == 2
    assert text == "" and err.startswith("error:") and "-1" in err


def test_decompose_plane(tmp_path, capsys):
    p = tmp_path / "quad.tt"
    save_table(BoolFn(QUAD_TABLE), str(p))
    code, text, _ = run(capsys, "decompose", str(p), "--u", "1", "--v", "2")
    assert code == 0
    report = parse_kv(text)
    assert report["classification"] == "AllBent"
    assert report["dual_second_derivative"] == "ConstantOne"


def test_decompose_small_dimension(tmp_path, capsys):
    p = tmp_path / "n2.tt"
    save_table(BoolFn([0, 0, 0, 1]), str(p))
    code, text, err = run(capsys, "decompose", str(p), "--u", "1", "--v", "2")
    assert code == 2
    assert text == "" and err.startswith("error:") and "n=2" in err


def test_decompose_scan_small_dimension(tmp_path, capsys):
    p = tmp_path / "mm_n2.tt"
    code, _, _ = run(capsys, "construct", "--family", "mm", "--m", "1", "--out", str(p))
    assert code == 0
    code, text, err = run(capsys, "decompose", str(p), "--scan")
    assert code == 2
    assert text == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "mm_n2.scan.csv").exists()


def test_decompose_scan(tmp_path, capsys):
    # the README's gpsap n = 8 example, and the CSV of the per-plane loop
    p = tmp_path / "gpsap_n8.tt"
    code, _, _ = run(capsys, "construct", "--family", "gpsap", "--m", "4",
                     "--k", "2", "--e", "2", "--out", str(p))
    assert code == 0
    code, text, _ = run(capsys, "decompose", str(p), "--scan",
                        "--out", str(tmp_path / "scan.csv"))
    assert code == 0
    report = parse_kv(text)
    assert {k: v for k, v in report.items() if k.startswith(("planes", "classes"))} == {
        "planes": "10795", "classes.AllSemibent": "35", "classes.Mixed": "10760"}
    naive_save_scan(naive_scan(load_table(str(p))), str(tmp_path / "naive.csv"))
    assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()
    code, text, _ = run(capsys, "decompose", str(p), "--scan", "--json",
                        "--out", str(tmp_path / "scan.csv"))
    assert code == 0
    assert json.loads(text)["classes"] == {"AllSemibent": 35, "Mixed": 10760}


def test_decompose_scan_guard(tmp_path, capsys):
    p = tmp_path / "big.tt"
    save_table(BoolFn(np.zeros(1 << 14, dtype=np.uint8)), str(p))
    code, _, err = run(capsys, "decompose", str(p), "--scan")
    assert code == 4
    assert "--allow-large" in err


def test_decompose_needs_directions(tmp_path, capsys):
    p = tmp_path / "quad.tt"
    save_table(BoolFn(QUAD_TABLE), str(p))
    code, _, err = run(capsys, "decompose", str(p))
    assert code == 2


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = CriterionResult(1, "stub", False, 0.0, "forced failure")
    monkeypatch.setattr("bentfn.verify.run_suite", lambda *a, **kw: [failing])
    code, text, _ = run(capsys, "verify", "--level", "fast")
    assert code == 1
    assert "result: FAIL (0/1)" in text


def test_json_output(tmp_path, capsys):
    out = tmp_path / "f.tt"
    code, text, _ = run(capsys, "construct", "--family", "psap", "--m", "2",
                        "--json", "--out", str(out))
    assert code == 0
    doc = json.loads(text)
    assert doc["n"] == 4 and doc["bent"] is True


def test_seeded_construct_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.tt", tmp_path / "b.tt"
    run(capsys, "construct", "--family", "mm", "--m", "3", "--perm", "random",
        "--seed", "7", "--out", str(a))
    run(capsys, "construct", "--family", "mm", "--m", "3", "--perm", "random",
        "--seed", "7", "--out", str(b))
    assert load_table(str(a)) == load_table(str(b))
    run(capsys, "construct", "--family", "mm", "--m", "3", "--perm", "random",
        "--seed", "8", "--out", str(b))
    assert load_table(str(a)) != load_table(str(b))


def _mutate(rng, data: bytes) -> bytes:
    """data with one to three characters edited, inserted or deleted."""
    alphabet = b"0123456789abcdefgmnk=-# \t\n\xff"
    for _ in range(1 + rng.randrange(3)):
        i = rng.randrange(len(data) + 1)
        c = bytes([alphabet[rng.randrange(len(alphabet))]])
        op = rng.randrange(3)
        if op == 0 and i < len(data):
            data = data[:i] + c + data[i + 1:]
        elif op == 1:
            data = data[:i] + c + data[i:]
        else:
            data = data[:i] + data[i + 1:]
    return data


def test_mutated_input_files_exit_cleanly(tmp_path, capsys):
    """Valid .tt, .perm and .sf files, mutated: every verb that reads one
    returns 0, 2 or 3, and no exception escapes main."""
    tt, perm, sf = tmp_path / "f.tt", tmp_path / "q.perm", tmp_path / "p.sf"
    out = str(tmp_path / "out.tt")
    verbs = [(tt, ["analyze", str(tt)]),
             (tt, ["msubspace", str(tt), "--max-dim", "2"]),
             (tt, ["decompose", str(tt), "--u", "1", "--v", "2"]),
             (perm, ["construct", "--family", "mm", "--m", "2", "--perm", str(perm),
                     "--out", out]),
             (sf, ["construct", "--family", "psap", "--m", "2", "--P", str(sf),
                   "--out", out])]
    # x1x2 + x3x4, a permutation and a balanced function of GF(4)
    valid = {tt: b"n=4\n8887\n", perm: b"m=2\n0\n1\n3\n2\n", sf: b"m=2 k=2\n0\n1\n1\n0\n"}
    rng = XorShift64Star(23)
    codes = []
    for _ in range(80):
        for path, argv in verbs:
            data = _mutate(rng, valid[path])
            path.write_bytes(data)
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3), (argv[0], data)
            codes.append(code)
    assert {0, 2, 3} <= set(codes)
