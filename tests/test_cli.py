import json
import os
import resource
import shutil
import subprocess
import sys

import pytest

from rsmld import cli
from rsmld.cli import main
from rsmld.code import DecodeOutcome, RSCode, corrupt
from rsmld.fields import Field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WORD_75 = '{"v": 1, "field": "p:7", "n": 7, "k": 5, "symbols": [3, 2, 6, 3, 4, 2, 4]}'
WORD_74 = '{"v": 1, "field": "p:7", "n": 7, "k": 4, "symbols": [3, 2, 6, 3, 2, 2, 4]}'


def test_encode(capsys):
    code, out, _ = run_cli(capsys, "encode", "--field", "p:7", "--n", "7",
                           "--k", "5", "--msg", "3,1,2")
    assert code == 0
    assert json.loads(out) == {"v": 1, "field": "p:7", "n": 7, "k": 5,
                               "symbols": [3, 6, 6, 3, 4, 2, 4]}


def test_encode_with_eval_points(capsys):
    code, out, _ = run_cli(capsys, "encode", "--field", "2^3", "--n", "7",
                           "--k", "3", "--eval-points", "1,2,3,4,5,6,7",
                           "--msg", "1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["eval_points"] == [1, 2, 3, 4, 5, 6, 7]


def test_encode_validation_error(capsys):
    code, out, err = run_cli(capsys, "encode", "--field", "p:7", "--n", "9",
                             "--k", "2", "--msg", "1,2")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("field, bad", [("p:7", "9"), ("p:7", "-1"),
                                        ("2^3", "8")])
@pytest.mark.parametrize("option", ["--msg", "--eval-points"])
def test_encode_out_of_range_exit_code(capsys, field, bad, option):
    # values outside 0..q-1 are rejected, never reduced modulo the field
    argv = {"--msg": [f"--msg={bad},1"],
            "--eval-points": [f"--eval-points=0,1,{bad}", "--msg", "1"]}
    code, out, err = run_cli(capsys, "encode", "--field", field, "--n", "3",
                             "--k", "2", *argv[option])
    assert code == 2
    assert out == ""
    assert "is not a canonical element" in err


def test_encode_field_past_int64_exit_code(capsys):
    # 2^64 - 59 is prime, but arrays take the characteristic as an int64
    code, out, err = run_cli(capsys, "encode", "--field",
                             "p:18446744073709551557", "--n", "3", "--k", "2",
                             "--msg", "1,2")
    assert code == 2
    assert out == ""
    assert "2^63" in err


@pytest.mark.parametrize("option, value", [
    ("--msg", "1,,2"), ("--msg", "1,2,"), ("--msg", ""),
    ("--eval-points", "0,1,2,,3,4,5,6"), ("--eval-points", ",0,1,2,3,4,5,6"),
], ids=["msg-inner", "msg-trailing", "msg-empty", "points-inner",
        "points-leading"])
def test_encode_empty_entry_exit_code(capsys, option, value):
    # an empty entry is an error, never dropped: "1,,2" is not the message 1 + 2x
    argv = ["encode", "--field", "p:7", "--n", "7", "--k", "3",
            f"{option}={value}"]
    if option == "--eval-points":
        argv += ["--msg", "1"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "not a comma-separated integer list" in captured.err


def test_corrupt_deterministic(tmp_path, capsys):
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_75)
    code1, out1, _ = run_cli(capsys, "corrupt", "--word", str(word_file),
                             "--weight", "2", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "corrupt", "--word", str(word_file),
                             "--weight", "2", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    base = json.loads(WORD_75)["symbols"]
    got = json.loads(out1)["symbols"]
    assert sum(a != b for a, b in zip(base, got)) == 2
    # a different seed gives a different word
    _, out3, _ = run_cli(capsys, "corrupt", "--word", str(word_file),
                         "--weight", "2", "--seed", "6")
    assert out3 != out1


def test_corrupt_requires_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["corrupt", "--word", "-", "--weight", "1"])
    assert info.value.code == 2


def test_decode_text(tmp_path, capsys):
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_75)
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file))
    assert code == 0
    assert "min_distance: 1" in out
    assert "[3, 1, 2]" in out
    assert "2x^2 + x + 3" in out
    assert "ell1=6 ell2=5" in out


def test_decode_json_all_methods(tmp_path, capsys):
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_74)
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                           "--method", "all", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_distance"] == 2
    assert doc["messages"] == [[3, 1, 2], [3, 3, 5, 5], [5, 3, 5, 3]]
    assert doc["methods_agreed"] == ["division", "division-reencoded",
                                     "rational", "oracle"]


def test_decode_all_leaves_out_oracle_past_its_budget(tmp_path, capsys):
    # 32^15 codewords exceed the default budget: the other three decoders
    # still run and agree, and only they are listed; the oracle alone fails
    code31 = RSCode(Field(2, 5), 31, 15)
    sent = list(range(1, 16))
    word_file = tmp_path / "w.json"
    word_file.write_text(corrupt(code31.encode(sent), 9, seed=3).to_json())
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                           "--method", "all", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["min_distance"], doc["messages"]) == (9, [sent])
    assert doc["methods_agreed"] == ["division", "division-reencoded",
                                     "rational"]
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                           "--method", "all")
    assert code == 0
    assert "methods_agreed: division, division-reencoded, rational\n" in out
    code, _, err = run_cli(capsys, "decode", "--word", str(word_file),
                           "--method", "oracle")
    assert code == 2 and "oracle budget" in err
    # the budget is inclusive: 7^4 = 2401 codewords
    word_file.write_text(WORD_74)
    for budget, with_oracle in ((2401, True), (2400, False)):
        code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                               "--method", "all", "--output", "json",
                               "--oracle-budget", str(budget))
        assert code == 0
        assert ("oracle" in json.loads(out)["methods_agreed"]) == with_oracle


def test_decode_all_disagreement_prints_messages(tmp_path, capsys,
                                                 monkeypatch):
    # an oracle that drops one of the three messages at distance 2: same d,
    # different lists, so the report must show both lists
    real = cli._METHOD_RUNNERS["oracle"]

    def short_oracle(code, word, args):
        out = real(code, word, args)
        return DecodeOutcome(out.min_distance, out.messages[1:], out.method)

    monkeypatch.setitem(cli._METHOD_RUNNERS, "oracle", short_oracle)
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_74)
    code, out, err = run_cli(capsys, "decode", "--word", str(word_file),
                             "--method", "all", "--output", "json")
    assert code == 1
    assert out == ""
    assert err == ("error: method oracle disagrees with division: "
                   "d=2 messages=[[3, 3, 5, 5], [5, 3, 5, 3]] "
                   "vs d=2 messages=[[3, 1, 2], [3, 3, 5, 5], [5, 3, 5, 3]]\n")


def test_decode_dump_basis(tmp_path, capsys):
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_75)
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                           "--output", "json", "--dump-basis")
    doc = json.loads(out)
    assert doc["basis"]["g2"]["f1"] == [3, 5, 1, 5]
    assert doc["basis"]["g2"]["f2"] == [6, 1]
    assert doc["basis"]["g1"]["wdeg"] == 6


# `decode --dump-basis --output json` of both README words
DUMP_BASIS = {
    WORD_75: (
        '{"v": 1, "min_distance": 1, "messages": [[3, 1, 2]]'
        ', "method": "division", "methods_agreed": ["division"]'
        ', "search_level": 0, "ell1": 6, "ell2": 5, "params": []'
        ', "basis": {"order": {"weights": [0, 4], "kind": "top"}'
        ', "g1": {"f1": [6, 3, 5, 1, 1, 1, 1], "f2": [5], "wdeg": 6}'
        ', "g2": {"f1": [3, 5, 1, 5], "f2": [6, 1], "wdeg": 5}}}'),
    WORD_74: (
        '{"v": 1, "min_distance": 2'
        ', "messages": [[3, 1, 2], [3, 3, 5, 5], [5, 3, 5, 3]]'
        ', "method": "division", "methods_agreed": ["division"]'
        ', "search_level": 0, "ell1": 5, "ell2": 5, "params": []'
        ', "basis": {"order": {"weights": [0, 3], "kind": "top"}'
        ', "g1": {"f1": [3, 1, 6, 6, 5, 1], "f2": [6, 4], "wdeg": 5}'
        ', "g2": {"f1": [2, 4, 1, 2, 5], "f2": [4, 2, 1], "wdeg": 5}}}'),
}


@pytest.mark.parametrize("word", [WORD_75, WORD_74], ids=["k5", "k4"])
def test_decode_dump_basis_pinned(tmp_path, capsys, word):
    word_file = tmp_path / "w.json"
    word_file.write_text(word)
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                           "--dump-basis", "--output", "json")
    assert code == 0
    assert out == DUMP_BASIS[word] + "\n"


def test_decode_reencode_flag(tmp_path, capsys):
    # the re-encoded decoder is a --method; the old --reencode flag is gone
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_74)
    code, out, _ = run_cli(capsys, "decode", "--word", str(word_file),
                           "--method", "division-reencoded", "--output", "json")
    assert code == 0
    assert json.loads(out)["method"] == "division-reencoded"
    with pytest.raises(SystemExit) as info:
        main(["decode", "--word", str(word_file), "--reencode"])
    assert info.value.code == 2
    assert "--reencode" in capsys.readouterr().err


def test_decode_radius_cap_exit_code(tmp_path, capsys):
    word_file = tmp_path / "far.json"
    word_file.write_text(
        '{"v": 1, "field": "p:7", "n": 7, "k": 5, "symbols": [5, 1, 4, 3, 5, 6, 4]}')
    code, out, err = run_cli(capsys, "decode", "--word", str(word_file))
    assert code == 3
    assert "radius" in err
    code2, out2, _ = run_cli(capsys, "decode", "--word", str(word_file),
                             "--beyond-johnson", "--output", "json")
    assert code2 == 0
    assert json.loads(out2)["min_distance"] == 2


@pytest.mark.parametrize("method", [["--method", "division"],
                                    ["--method", "division-reencoded"],
                                    ["--method", "rational"]],
                         ids=["division", "reencoded", "rational"])
def test_decode_negative_level_cap_exit_code(tmp_path, capsys, method):
    word_file = tmp_path / "w.json"
    word_file.write_text(WORD_75)
    code, out, err = run_cli(capsys, "decode", "--word", str(word_file),
                             "--j-cap", "-1", *method)
    assert code == 2
    assert out == ""
    assert "level cap" in err


def test_decode_bad_word_file(capsys):
    code, _, err = run_cli(capsys, "decode", "--word", "/nonexistent/file.json")
    assert code == 2


@pytest.mark.parametrize("doc", [
    '{"v": 1, "n": 7, "k": 5, "symbols": [3, 2, 6, 3, 4, 2, 4]}',
    '{"v": 1, "field": "p:7", "n": 7, "k": 5, "symbols": ["3", 2, 6, 3, 4, 2, 4]}',
    '{"v": 1, "field": "p:7", "n": 7, "k": 5, "symbols": [3.5, 2, 6, 3, 4, 2, 4]}',
    '{"v": 1, "field": "p:7", "n": 7, "k": 5, "symbols": [9, -1, 6, 3, 4, 2, 4]}',
    '{"v": 1, "field": "p:7", "n": 3, "k": 1, "symbols": [1, 1, 1], '
    '"eval_points": [0, 1, 9]}',
    '{"v": 1, "field": "2^3", "n": 3, "k": 1, "symbols": [1, 1, 1], '
    '"eval_points": [0, 8, 1]}',
    # refused before the code would list its 10^12 default points
    '{"v": 1, "field": "p:2305843009213693951", "n": 1000000000000, "k": 1, '
    '"symbols": [1]}',
], ids=["no-field", "string-symbol", "float-symbol", "out-of-range-symbol",
        "out-of-range-point-prime", "out-of-range-point-binary", "huge-n"])
def test_decode_malformed_word_exit_code(tmp_path, capsys, doc):
    word_file = tmp_path / "w.json"
    word_file.write_text(doc)
    code, out, err = run_cli(capsys, "decode", "--word", str(word_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: word JSON")


def test_encode_huge_n_exit_code():
    # refused before the code would list its 10^12 default points; under a
    # 2 GB address space listing them would end in a MemoryError traceback
    cap = 2 * 10**9

    def limit_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "rsmld.cli", "encode", "--field",
         "p:2305843009213693951", "--n", "1000000000000", "--k", "1",
         "--msg", "1"],
        capture_output=True, text=True, timeout=120,
        preexec_fn=limit_address_space,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: n=1000000000000 exceeds the longest "
                           "supported code length 1048576\n")


def test_params_text(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "127", "--k", "24",
                           "--t", "64", "--k1", "15", "--k2", "9")
    assert code == 0
    assert "optimum: s=2 M=4 rho=88 N=381 U=385" in out
    assert "closed form: s=2 M=5 rho=82 N=381 U=408" in out
    assert "M=5 rho=78 N=381 U=384" in out


def test_params_json(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "15", "--k", "5",
                           "--t", "7", "--k1", "2", "--k2", "1",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["best"] == {"t": 7, "k1": 2, "k2": 1, "s": 7, "M": 15,
                           "rho": 33, "N": 420, "U": 424, "cost": 6360,
                           "source": "optimized"}
    assert doc["scan"][0]["feasible"] is False
    assert doc["rows"][2]["M"] == 17


# the (15,5), t = 7 document, byte for byte
PARAMS_15_5_T7 = (
    '{"v": 1, "n": 15, "k": 5, "t": 7, "k1": 2, "k2": 1, "s_low": 6, '
    '"s_high": 8, "scan": [{"s": 6, "N": 315, "disc": "9/4", "M1": 13.0, '
    '"M2": 14.0, "feasible": false}, {"s": 7, "N": 420, "disc": "121/4", '
    '"M1": 14.0, "M2": 17.666666666666668, "feasible": true}], '
    '"rows": [{"t": 7, "k1": 2, "k2": 1, "s": 7, "M": 15, "rho": 33, '
    '"N": 420, "U": 424, "cost": 6360, "source": "optimized"}, {"t": 7, '
    '"k1": 2, "k2": 1, "s": 7, "M": 16, "rho": 32, "N": 420, "U": 425, '
    '"cost": 6800, "source": "optimized"}, {"t": 7, "k1": 2, "k2": 1, '
    '"s": 7, "M": 17, "rho": 31, "N": 420, "U": 423, "cost": 7191, '
    '"source": "optimized"}], "best": {"t": 7, "k1": 2, "k2": 1, "s": 7, '
    '"M": 15, "rho": 33, "N": 420, "U": 424, "cost": 6360, '
    '"source": "optimized"}, "wu": {"t": 7, "k1": 2, "k2": 1, "s": 7, '
    '"M": 16, "rho": 32, "N": 420, "U": 425, "cost": 6800, '
    '"source": "wu"}}'
)


def test_params_json_document(capsys):
    # the second call reads the cached scan: the same document
    for _ in range(2):
        code, out, _ = run_cli(capsys, "params", "--n", "15", "--k", "5",
                               "--t", "7", "--k1", "2", "--k2", "1",
                               "--output", "json")
        assert code == 0
        assert out == PARAMS_15_5_T7 + "\n"


def test_params_infeasible_exit_code(capsys):
    code, _, err = run_cli(capsys, "params", "--n", "15", "--k", "5",
                           "--t", "8", "--k1", "3", "--k2", "2")
    assert code == 4
    assert "error" in err


def test_params_shape_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "params", "--n", "15", "--k", "5",
                           "--t", "7", "--k1", "3", "--k2", "1")
    assert code == 2


def test_repro_json(capsys):
    code, out, _ = run_cli(capsys, "repro", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] > 20
    names = [s["name"] for s in doc["suites"]]
    assert "(7,5) over GF(7), one error" in names


def test_repro_text(capsys):
    code, out, _ = run_cli(capsys, "repro")
    assert code == 0
    assert "passed:" in out
    assert "failed: 0" in out


@pytest.mark.skipif(shutil.which("rsmld") is None,
                    reason="console script not on PATH")
def test_console_script_round_trip():
    enc = subprocess.run(["rsmld", "encode", "--field", "p:7", "--n", "7",
                          "--k", "5", "--msg", "3,1,2"],
                         capture_output=True, text=True, check=True)
    cor = subprocess.run(["rsmld", "corrupt", "--word", "-", "--weight", "1",
                          "--seed", "3"], input=enc.stdout,
                         capture_output=True, text=True, check=True)
    dec = subprocess.run(["rsmld", "decode", "--word", "-", "--output", "json"],
                         input=cor.stdout, capture_output=True, text=True,
                         check=True)
    doc = json.loads(dec.stdout)
    assert doc["min_distance"] == 1
    assert doc["messages"] == [[3, 1, 2]]
    # byte-identical reruns
    cor2 = subprocess.run(["rsmld", "corrupt", "--word", "-", "--weight", "1",
                           "--seed", "3"], input=enc.stdout,
                          capture_output=True, text=True, check=True)
    assert cor2.stdout == cor.stdout
