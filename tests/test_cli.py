"""CLI behavior: rendering, exit codes, determinism, tracing, ingestion."""

import json
import os

import pytest

from sigzero.blocks import Block, builtin_block, serialize_block
from sigzero.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# signature

def test_signature_examples(capsys):
    rc, out, _ = run(capsys, "signature", "--group", "sl2r", "--parity", "+1", "--nu", "3/2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert any(l.startswith("PS0") and l.endswith("1") for l in lines)
    assert any(l.startswith("DS+(1)") and "-1+s" in l for l in lines)
    rc, out, _ = run(capsys, "signature", "--parity", "+1", "--nu", "0")
    assert rc == 0 and out.strip() == "PS0  1"
    rc, out, _ = run(capsys, "signature", "--parity", "-1", "--nu", "0")
    assert rc == 0
    assert [l.split()[0] for l in out.strip().splitlines()] == ["LDS+", "LDS-"]


def test_signature_json_is_byte_deterministic(capsys):
    rc1, out1, _ = run(capsys, "signature", "--nu", "7/2", "--format", "json")
    rc2, out2, _ = run(capsys, "signature", "--nu", "7/2", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["basis"] == "final_tempered"
    assert obj["group"] == "sl2r"


def test_signature_trace_streams_ndjson(capsys):
    rc, out, _ = run(capsys, "signature", "--nu", "7/2", "--trace")
    assert rc == 0
    lines = out.strip().splitlines()
    records = []
    for line in lines:
        if line.startswith("{"):
            records.append(json.loads(line))
    events = [r["event"] for r in records]
    assert "crossing" in events and "recurse" in events
    # data rows follow the stream
    assert any(l.startswith("PS0") for l in lines)


# ---------------------------------------------------------------------------
# unitary

def test_unitary_verdicts(capsys):
    rc, out, _ = run(capsys, "unitary", "--parity", "+1", "--nu", "1/2")
    assert rc == 0 and out.splitlines()[0] == "verdict: unitary"
    rc, out, _ = run(capsys, "unitary", "--parity", "+1", "--nu", "3/2")
    assert rc == 0 and out.splitlines()[0] == "verdict: nonunitary"
    rc, out, _ = run(capsys, "unitary", "--parity", "-1", "--nu", "1/2")
    assert rc == 0 and out.splitlines()[0] == "verdict: nonunitary"


def test_unitary_json(capsys):
    rc, out, _ = run(capsys, "unitary", "--nu", "1", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "unitary"
    assert obj["B"]["terms"]


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_missing_block(capsys):
    rc, out, err = run(capsys, "block", "show", "g2:1")
    assert rc == 2 and not out and "g2" in err


def test_exit_code_validation(capsys):
    rc, _, err = run(capsys, "signature", "--nu", "1.5")
    assert rc == 3 and err
    rc, _, err = run(capsys, "scan", "--parity", "+1", "--from", "2", "--to", "1")
    assert rc == 3


def test_exit_code_unsupported(capsys):
    rc, _, err = run(capsys, "unitary", "--group", "sl2c", "--m", "0", "--nu", "1")
    assert rc == 4 and err
    rc, _, err = run(capsys, "scan", "--group", "sl2c", "--from", "0", "--to", "1")
    assert rc == 4


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize(
    "family, at, golden",
    [
        # symmetric, a pole at t0 = 1/2, levels -1 .. 2
        ("sym_pole.json", "1/2", "sym_pole_at_1_2.out.json"),
        # not symmetric, poles at t0 = -2/3
        ("gen_pole.json", "-2/3", "gen_pole_at_-2_3.out.json"),
    ],
)
def test_jantzen_json_golden(capsys, family, at, golden):
    rc, out, _ = run(
        capsys, "jantzen", os.path.join(FIXTURES, family), "--at=" + at,
        "--format", "json",
    )
    assert rc == 0
    with open(os.path.join(FIXTURES, golden)) as fh:
        assert out == fh.read()


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as e:
        main(["signature"])  # missing required --nu
    assert e.value.code == 3


# ---------------------------------------------------------------------------
# scan

def test_scan_bargmann_segment(capsys):
    rc, out, _ = run(capsys, "scan", "--parity", "+1", "--from", "0", "--to", "2")
    assert rc == 0
    rows = [tuple(l.rsplit(None, 1)) for l in out.strip().splitlines()]
    assert rows == [
        ("(0, 1)", "unitary"),
        ("{1}", "unitary"),
        ("(1, 2)", "nonunitary"),
    ]


def test_scan_zero_length_segment(capsys):
    rc, out, _ = run(capsys, "scan", "--parity", "-1", "--from", "0", "--to", "0")
    assert rc == 0
    assert out.strip() == "{0}  unitary"


def test_scan_single_facet(capsys):
    rc, out, _ = run(capsys, "scan", "--parity", "+1", "--from", "1/4", "--to", "3/4")
    assert rc == 0
    assert len(out.strip().splitlines()) == 1


def test_scan_endpoint_wall(capsys):
    rc, out, _ = run(capsys, "scan", "--parity", "+1", "--from", "1", "--to", "2")
    assert rc == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("{1}")
    assert rows[1].startswith("(1, 2)")


# ---------------------------------------------------------------------------
# hyperplanes

def test_hyperplanes_table(capsys):
    rc, out, _ = run(capsys, "hyperplanes", "--parity", "+1", "--radius", "4")
    assert rc == 0
    body = out.strip().splitlines()[1:]
    kinds = [l.split()[1] for l in body]
    assert kinds == [
        "reducibility",
        "reorient_positive",
        "reducibility",
        "reorient_positive",
    ]


def test_hyperplanes_json_deterministic(capsys):
    rc1, out1, _ = run(capsys, "hyperplanes", "--group", "sl2c", "--m", "3", "--format", "json")
    rc2, out2, _ = run(capsys, "hyperplanes", "--group", "sl2c", "--m", "3", "--format", "json")
    assert rc1 == rc2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert obj["walls"][0]["level"] == "1/2"


# ---------------------------------------------------------------------------
# jantzen

def test_jantzen_cli(tmp_path, capsys):
    fam = [
        [{"num": [1]}, {"num": [0]}],
        [{"num": [0]}, {"num": [-1, 1]}],
    ]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    rc, out, _ = run(capsys, "jantzen", str(path), "--at", "1")
    assert rc == 0
    assert "D = 1" in out
    rc, out, _ = run(capsys, "jantzen", str(path), "--at", "1", "--format", "json")
    obj = json.loads(out)
    assert obj["D"] == 1 and obj["symmetric"] is True
    assert [lv["r"] for lv in obj["levels"]] == [0, 1]


def test_jantzen_cli_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('[[{"num": [1]}], [{"num": [1]}]]')
    rc, _, err = run(capsys, "jantzen", str(path), "--at", "0")
    assert rc == 3 and err


def test_jantzen_cli_singular_family(tmp_path, capsys):
    fam = [
        [{"num": [1]}, {"num": [1]}],
        [{"num": [1]}, {"num": [1]}],
    ]
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(fam))
    rc, _, err = run(capsys, "jantzen", str(path), "--at", "1")
    assert rc == 3 and "vanishes" in err


# ---------------------------------------------------------------------------
# block files

def _library_file(tmp_path, name="lib.json"):
    b3, single = builtin_block("sl2r", (5,))
    merged = Block(
        b3.group,
        b3.inf_char,
        tuple(b3.elements) + tuple(single.elements),
        {**b3.Q, **single.Q},
    )
    path = tmp_path / name
    path.write_text(serialize_block(merged))
    return path


def test_block_load(tmp_path, capsys):
    path = _library_file(tmp_path)
    rc, out, _ = run(capsys, "block", "load", str(path))
    assert rc == 0
    assert out.strip() == "loaded sl2r:5 (2 components, 4 elements)"
    rc, out, _ = run(capsys, "block", "load", str(path), "--format", "json")
    assert json.loads(out) == {"components": 2, "elements": 4, "key": "sl2r:5"}


@pytest.mark.parametrize(
    "path,value",
    [
        (("inf_char",), 5),
        (("elements",), 5),
        (("Q",), 5),
        (("Q", 0, "coeffs"), 7),
        (("elements", 0, "tau"), 5),
        (("elements", 0, "param"), 5),
    ],
)
def test_block_load_malformed_exits_3(tmp_path, capsys, path, value):
    obj = json.loads(_library_file(tmp_path).read_text())
    cur = obj
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "block", "load", str(bad))
    assert rc == 3 and err.startswith("error:")


def test_block_search_path(tmp_path, capsys, monkeypatch):
    _library_file(tmp_path)
    monkeypatch.setenv("SIGZERO_BLOCK_PATH", str(tmp_path))
    rc, out, _ = run(capsys, "block", "load", "lib.json")
    assert rc == 0 and "sl2r:5" in out
    monkeypatch.delenv("SIGZERO_BLOCK_PATH")
    rc, _, err = run(capsys, "block", "load", "lib.json")
    assert rc == 3 and "not found" in err


def test_block_show_round_trip(capsys):
    rc, out1, _ = run(capsys, "block", "show", "sl2r:2", "--format", "json")
    assert rc == 0
    rc, out2, _ = run(capsys, "block", "show", "sl2r:2", "--format", "json")
    assert out1 == out2
    comps = json.loads(out1)
    assert len(comps) == 2


def test_block_show_sl2c_coordinate_order(capsys):
    for a, b in (("1/2", "1"), ("1", "2")):
        rc, out1, _ = run(capsys, "block", "show", "sl2c:%s,%s" % (a, b), "--format", "json")
        assert rc == 0
        rc, out2, _ = run(capsys, "block", "show", "sl2c:%s,%s" % (b, a), "--format", "json")
        assert rc == 0 and out1 == out2


def test_signature_with_ingested_library(capsys, tmp_path):
    path = _library_file(tmp_path)
    rc, out, _ = run(
        capsys,
        "signature",
        "--parity",
        "+1",
        "--nu",
        "5",
        "--block",
        str(path),
    )
    assert rc == 0
    labels = [l.split()[0] for l in out.strip().splitlines()]
    assert "PS0" in labels and "DS+(1)" in labels


# ---------------------------------------------------------------------------
# negative continuous parameters and block-key arity

@pytest.mark.parametrize(
    "argv",
    [
        ["signature", "--nu=-3/2"],
        ["signature", "--parity", "-1", "--nu=-1/2"],
        ["unitary", "--nu=-3/2"],
        ["signature", "--group", "sl2c", "--m", "1", "--nu", "-3"],
        ["unitary", "--group", "sl2c", "--m", "1", "--nu", "-3"],
        ["scan", "--from=-1", "--to", "1"],
    ],
)
def test_negative_nu_exits_3(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and not out
    assert ">= 0" in err


@pytest.mark.parametrize(
    "key, group, coords",
    [("sl2c:1", "sl2c", "2"), ("sl2c:1,2,3", "sl2c", "2"), ("sl2r:1,2", "sl2r", "1")],
)
def test_block_show_key_arity_exits_3(capsys, key, group, coords):
    rc, out, err = run(capsys, "block", "show", key)
    assert rc == 3 and not out
    assert repr(group) in err and "needs %s" % coords in err
    assert "unpack" not in err
