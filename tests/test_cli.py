"""CLI behavior: rendering, exit codes, determinism, tracing, ingestion."""

import contextlib
import io
import json
import dataclasses
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from sigzero import cli, jantzen
from sigzero.blocks import (SL2R, Block, BlockElement, BlockProvider, builtin_block,
                            serialize_block, sl2r_ds_param)
from sigzero.cli import main
from sigzero.errors import DegenerateResidual, SingularFamily
from sigzero.sigengine import SignatureChar, unitary_test
from sigzero.jantzen import RatFn, ratmatrix_to_json_obj


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


def test_unitary_table_names_each_term_once(capsys, monkeypatch):
    # the table and the parity bits each name the terms of B once, however
    # many rows B has
    calls = []
    items = SignatureChar.items

    def counting(self):
        calls.append(self)
        return items(self)

    monkeypatch.setattr(SignatureChar, "items", counting)
    rc, out, _ = run(capsys, "unitary", "--parity", "-1", "--nu", "161/2")
    assert rc == 0 and len(out.splitlines()) > 40
    assert len(calls) == 2


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


def test_tempered_sl2c_parameter_answers(capsys):
    rc, out, _ = run(capsys, "unitary", "--group", "sl2c", "--m", "3", "--nu", "0")
    assert rc == 0 and out.splitlines()[0] == "verdict: unitary"
    rc, out, _ = run(capsys, "scan", "--group", "sl2c", "--m", "3", "--from", "0", "--to", "0")
    assert rc == 0 and out == "{0}  unitary\n"


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize(
    "family, at, golden",
    [
        # symmetric, a pole at t0 = 1/2, levels -1 .. 2
        ("sym_pole.json", "1/2", "sym_pole_at_1_2.out.json"),
        # not symmetric, poles at t0 = -2/3
        ("gen_pole.json", "-2/3", "gen_pole_at_-2_3.out.json"),
        # sl2_intertwining(1, 12) at the wall nu = 5: thirteen 1x1
        # components
        ("sl2_intertwining_p+1_12.json", "5", "sl2_intertwining_p+1_12_at_5.out.json"),
        # symmetric 6x6 at t0 = 1/2: a zero-diagonal mirrored pair of order
        # 2, a 3x3 block with an off-diagonal pole, and a 1x1 entry of
        # order 2 that ties the pair
        ("sym_mirrored.json", "1/2", "sym_mirrored_at_1_2.out.json"),
        # not symmetric, pentadiagonal 8x8 at t0 = 2: a multi-step
        # elimination with planted leading coefficients 2 and -3, non-unit
        # pivots and rational basis entries
        ("banded8.json", "2", "banded8_at_2.out.json"),
        # symmetric 8x8 at t0 = -2/3 with denominators: two hyperbolic
        # pairs send the congruence elimination down its off-diagonal branch
        ("sym_offdiag.json", "-2/3", "sym_offdiag_at_-2_3.out.json"),
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


@pytest.mark.parametrize(
    "family, at, golden",
    [
        ("sym_mirrored.json", "1/2", "sym_mirrored_at_1_2.out.txt"),
        ("banded8.json", "2", "banded8_at_2.out.txt"),
        # a signature column and rational basis entries
        ("sym_offdiag.json", "-2/3", "sym_offdiag_at_-2_3.out.txt"),
    ],
)
def test_jantzen_table_golden(capsys, family, at, golden):
    rc, out, _ = run(capsys, "jantzen", os.path.join(FIXTURES, family), "--at=" + at)
    assert rc == 0
    with open(os.path.join(FIXTURES, golden)) as fh:
        assert out == fh.read()


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as e:
        main(["signature"])  # missing required --nu
    assert e.value.code == 3


@pytest.mark.parametrize("argv", [
    ("hyperplanes",),
    # found on SIGZERO_BLOCK_PATH, which jantzen FILE still reads
    ("jantzen", "sym_mirrored.json", "--at", "1/2"),
])
def test_block_option_only_where_blocks_are_read(capsys, monkeypatch, argv):
    monkeypatch.setenv("SIGZERO_BLOCK_PATH", FIXTURES)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out
    with pytest.raises(SystemExit) as e:
        main(list(argv) + ["--block", "/nonexistent.json"])
    assert e.value.code == 3
    assert "unrecognized arguments: --block" in capsys.readouterr().err


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


def test_scan_has_no_steps_option(capsys):
    with pytest.raises(SystemExit) as e:
        main(["scan", "--from", "0", "--to", "3", "--steps", "2"])
    assert e.value.code == 3
    assert "--steps" in capsys.readouterr().err


def _scan_facets(capsys, parity, lo, hi, *extra):
    rc, out, _ = run(capsys, "scan", "--parity", parity, "--from", str(lo),
                     "--to", str(hi), "--format", "json", *extra)
    assert rc == 0
    return json.loads(out)["facets"]


def _seeded_segments(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        d = rng.choice([1, 2, 3, 5])
        lo, hi = sorted(Fraction(rng.randint(1, 60 * d), d) for _ in range(2))
        yield lo, hi


@pytest.mark.parametrize("parity", ["+1", "-1"])
def test_scan_representative_B_equals_the_old_samples(capsys, parity):
    # the B at each open facet's representative is the B at every point
    # the sampling check deformed, for two and for eight samples
    segments = [(Fraction(0), Fraction(4))] + list(_seeded_segments(15, 4))
    provider = BlockProvider()
    sign = int(parity)
    checked = 0
    for lo, hi in segments:
        for f in _scan_facets(capsys, parity, lo, hi):
            if f["kind"] != "interval":
                continue
            a, b = Fraction(f["from"]), Fraction(f["to"])
            rep = unitary_test(SL2R.line(sign, 0, (a + b) / 2), provider).B
            for n in (2, 8):
                for i in range(1, n + 1):
                    nu = a + (b - a) * Fraction(i, n + 1)
                    assert unitary_test(SL2R.line(sign, 0, nu), provider).B == rep
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("parity", ["+1", "-1"])
def test_scan_walls_are_the_reducibility_levels(capsys, parity):
    facets = _scan_facets(capsys, parity, 0, 60)
    rc, out, _ = run(capsys, "hyperplanes", "--parity", parity, "--radius", "60",
                     "--format", "json")
    assert rc == 0
    levels = [h["level"] for h in json.loads(out)["walls"] if h["kind"] == "reducibility"]
    assert [f["at"] for f in facets if f["kind"] == "point"] == levels
    # the facets cover the segment, each starting where the last one ends
    spans = [(f["at"], f["at"]) if f["kind"] == "point" else (f["from"], f["to"])
             for f in facets]
    assert spans[0][0] == "0" and spans[-1][1] == "60"
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("parity, facets", [("+1", 61), ("-1", 60)])
def test_scan_calls_unitary_test_once_per_facet(capsys, monkeypatch, parity, facets):
    calls = []

    def counting(g, provider, group="sl2r"):
        calls.append(g.nu)
        return unitary_test(g, provider, group)

    monkeypatch.setattr(cli, "unitary_test", counting)
    assert len(_scan_facets(capsys, parity, 0, 60)) == facets
    assert len(calls) == len(set(calls)) == facets


def _swapped_library(tmp_path):
    """The sl2r:2 library with the parameters of PS-(2) and PS+(2) swapped:
    PS+(2) tops the chain, so it is reducible at nu = 2."""
    chain, single = builtin_block("sl2r", (2,))
    e0, e1, e2 = chain.elements
    (e3,) = single.elements
    swapped = Block(
        chain.group,
        chain.inf_char,
        (e0, e1,
         dataclasses.replace(e2, param=e3.param),
         dataclasses.replace(e3, param=e2.param)),
        {**chain.Q, **single.Q},
    )
    path = tmp_path / "swapped.json"
    path.write_text(serialize_block(swapped))
    return path


def test_scan_certificate_fires_on_a_reducible_representative(tmp_path, capsys):
    # the reducible PS+(2) off its walls is refused when the library is
    # registered, so neither scan reaches a facet; without that check,
    # scan --from 3/2 --to 3 reported (3/2, 3) as one facet
    path = str(_swapped_library(tmp_path))
    for argv in (("block", "load", path),
                 ("scan", "--from", "3/2", "--to", "5/2", "--block", path),
                 ("scan", "--from", "3/2", "--to", "3", "--block", path)):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == ""
        assert err.startswith("error: reducible-on-wall: element 2 (PS+(2)) ")


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


def test_hyperplanes_radius_is_inclusive(capsys):
    rc, out, _ = run(capsys, "hyperplanes", "--group", "sl2c", "--m", "0", "--radius", "6")
    assert rc == 0
    levels = [l.split()[0] for l in out.strip().splitlines()[1:]]
    assert levels == ["1", "2", "3", "4", "5", "6"]


@pytest.mark.parametrize("radius", ["-1", "-1/2"])
def test_hyperplanes_negative_radius_exits_3(capsys, radius):
    rc, out, err = run(capsys, "hyperplanes", "--radius", radius)
    assert rc == 3 and out == ""
    assert "--radius must be >= 0" in err


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
        # JSON types are not coerced: element 2 is PS+(5), element 3 PS-(5)
        (("elements", 2, "param", "final"), "false"),
        (("elements", 2, "param", "grading", "0"), 1.5),
        (("elements", 2, "param", "grading", "0"), True),
        (("elements", 3, "param", "grading", "0"), "-1"),
        (("elements", 2, "param", "ktype_parity"), 0.0),
        (("elements", 2, "param", "ktype_parity"), True),
        (("inf_char", 0), True),
        (("elements", 0, "param", "cartan"), 7),
        (("elements", 3, "param", "grading"), [["0", -1]]),
        (("elements", 0, "param", "imaginary_grading"), {"0": 5}),
        # element 2 is PS+(5) on the split Cartan, index 1 of sl2r
        (("elements", 2, "param", "cartan"), "bogus"),
        (("elements", 2, "cartan"), 0),
        # integers are JSON integers: no decimal string is read, however
        # plain or padded
        (("elements", 0, "id"), "0"),
        (("elements", 0, "length"), " 0_0 "),
        (("elements", 0, "orient"), "+0"),
        (("elements", 0, "tau", 0), "0"),
        (("Q", 0, "coeffs"), ["\t1 "]),
        # a grading key is the plain decimal index of a root: each of these
        # was read as root 0 of PS-(5)
        (("elements", 3, "param", "grading"), {"00": -1}),
        (("elements", 3, "param", "grading"), {" +0 ": -1}),
        (("elements", 3, "param", "grading"), {"0": 1, "0_0": -1}),
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


def test_block_load_empty_library_exits_3(tmp_path, capsys):
    # an empty file registers nothing, so a later lookup would silently
    # serve the built-in partition
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"group": "sl2r", "inf_char": ["3"], "elements": [], "Q": []}))
    rc, out, err = run(capsys, "block", "load", str(path))
    assert (rc, out) == (3, "")
    assert err == "error: elements must be a nonempty list\n"


@pytest.mark.parametrize(
    "path,value,text",
    [
        # element 2 is PS+(5), element 3 PS-(5): DiscreteParam refuses the
        # value, and the reader adds no text of its own
        (("elements", 2, "param", "final"), "false", "final must be a boolean (got 'false')"),
        (("elements", 2, "param", "grading", "0"), 1.5, "grading values must be +-1 (root 0)"),
        (("elements", 2, "param", "grading", "0"), True, "grading values must be +-1 (root 0)"),
        (("elements", 3, "param", "grading", "0"), "-1", "grading values must be +-1 (root 0)"),
        (("elements", 2, "param", "ktype_parity"), 0.0, "ktype_parity must be 0, 1, or None"),
        (("elements", 2, "param", "ktype_parity"), True, "ktype_parity must be 0, 1, or None"),
    ],
)
def test_block_load_param_refusal_is_the_constructors_text(tmp_path, capsys, path, value, text):
    obj = json.loads(_library_file(tmp_path).read_text())
    cur = obj
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "block", "load", str(bad))
    assert rc == 3 and err == "error: bad param: %s\n" % text


def test_unitary_with_unknown_cartan_in_block_exits_3(tmp_path, capsys):
    obj = json.loads(_library_file(tmp_path).read_text())
    obj["elements"][2]["param"]["cartan"] = "bogus"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "unitary", "--parity", "+1", "--nu", "11/2",
                     "--block", str(bad))
    assert rc == 3 and "'bogus' is not a Cartan of sl2r" in err


@pytest.mark.parametrize(
    "field,value",
    # element 2 is PS+(5); JSON strings are not read as vectors
    [("dlambda", "5"), ("dlambda", []), ("nu", ["5", "1"]), ("nu_im", "0")],
)
def test_block_load_malformed_vectors_exit_3(tmp_path, capsys, field, value):
    obj = json.loads(_library_file(tmp_path).read_text())
    obj["elements"][2]["param"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "block", "load", str(bad))
    assert rc == 3 and err.startswith("error: bad param: ")


@pytest.mark.parametrize("nu_im", [["1/2", "3"], ["1/2"]])
def test_block_load_imaginary_nu_exits_3(tmp_path, capsys, nu_im):
    obj = json.loads(_library_file(tmp_path).read_text())
    obj["elements"][0]["param"]["nu_im"] = nu_im
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "block", "load", str(bad))
    assert rc == 3 and err.startswith("error:") and "nu_im" in err


def test_block_search_path(tmp_path, capsys, monkeypatch):
    _library_file(tmp_path)
    monkeypatch.setenv("SIGZERO_BLOCK_PATH", str(tmp_path))
    rc, out, _ = run(capsys, "block", "load", "lib.json")
    assert rc == 0 and "sl2r:5" in out
    monkeypatch.delenv("SIGZERO_BLOCK_PATH")
    rc, _, err = run(capsys, "block", "load", "lib.json")
    assert rc == 3 and "not found" in err


@pytest.mark.parametrize("argv,rc_want", [
    (("unitary", "--parity", "-1", "--nu", "3"), 2),
    (("scan", "--parity", "-1", "--from", "2", "--to", "4"), 2),
    # the top point itself is never crossed, so PS-(3) is never looked up
    (("signature", "--parity", "-1", "--nu", "3"), 0),
])
def test_library_without_the_parameter_exits_2(tmp_path, capsys, argv, rc_want):
    # the sl2r:3 chain alone: DS+(3), DS-(3), PS+(3), without PS-(3)
    path = tmp_path / "chain.json"
    path.write_text(serialize_block(builtin_block("sl2r", (3,))[0]))
    rc, out, err = run(capsys, *argv, "--block", str(path))
    assert rc == rc_want
    if rc_want:
        assert out == ""
        assert err.strip() == ("error: no block at infinitesimal character ['3'] "
                               "contains the parameter PS-(3)")


def test_tempered_term_without_a_parity_bit_exits_3(tmp_path, capsys):
    # the sl2r:1 chain with no K-type parity bit on DS+(1): J(PS+(1)) reads
    # DS+(1) off the file, and no verdict is given without its bit
    obj = json.loads(serialize_block(builtin_block("sl2r", (1,))[0]))
    (ds_plus,) = [e for e in obj["elements"] if e["param"]["dlambda"] == ["1"]]
    ds_plus["param"]["ktype_parity"] = None
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "unitary", "--nu", "1", "--block", str(path))
    assert (rc, out) == (3, "")
    assert err.strip() == "error: tempered parameter DS+(1) carries no K-type parity bit"


def test_block_show_round_trip(capsys):
    rc, out1, _ = run(capsys, "block", "show", "sl2r:2", "--format", "json")
    assert rc == 0
    rc, out2, _ = run(capsys, "block", "show", "sl2r:2", "--format", "json")
    assert out1 == out2
    comps = json.loads(out1)
    assert len(comps) == 2


def test_block_show_prints_each_power_of_q(tmp_path, capsys):
    # Q[0,1] = 1 + q across lengths 0 and 3, Q[0,2] = 3 q^2 across 0 and 5:
    # the degree bound (l(c) - l(r) - 1)/2 holds for both
    elements = tuple(BlockElement(i, 0, l, 0, sl2r_ds_param(1, i + 1))
                     for i, l in enumerate((0, 3, 5)))
    path = tmp_path / "synth.json"
    path.write_text(serialize_block(
        Block("synth", (1,), elements, {(0, 1): (1, 1), (0, 2): (0, 0, 3)})))
    rc, out, _ = run(capsys, "block", "show", "synth:1", "--block", str(path))
    assert rc == 0
    assert out.splitlines()[-2:] == ["Q[0,1] = 1 + q", "Q[0,2] = 3 q^2"]


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
    "argv",
    [
        ["signature", "--nu", "-3/2"],
        ["unitary", "--nu", "-3/2"],
        ["scan", "--from", "-1/2", "--to", "2"],
    ],
)
def test_negative_fraction_argument_exits_3(capsys, argv):
    # a separate "-p/q" is a value, so it reaches the nu >= 0 check
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and not out
    assert err.startswith("error:") and ">= 0" in err


@pytest.mark.parametrize(
    "key, group, coords",
    [("sl2c:1", "sl2c", "2"), ("sl2c:1,2,3", "sl2c", "2"), ("sl2r:1,2", "sl2r", "1")],
)
def test_block_show_key_arity_exits_3(capsys, key, group, coords):
    rc, out, err = run(capsys, "block", "show", key)
    assert rc == 3 and not out
    assert repr(group) in err and "needs %s" % coords in err
    assert "unpack" not in err


@pytest.mark.parametrize("content", [b"\xff[", b"[" * 100000 + b"]" * 100000])
@pytest.mark.parametrize("argv", [["jantzen", "FILE", "--at", "1"], ["block", "load", "FILE"]])
def test_undecodable_file_exits_3(tmp_path, capsys, content, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert rc == 3 and not out and err.startswith("error: not valid JSON")


@st.composite
def _jantzen_families(draw):
    """(family, t0) up to 5 x 5 with entries f = (c + d U) U^r / (e + g U),
    U = bt - a for t0 = a/b and c, e != 0: zero, polynomial (r >= 0, e = 1,
    g = 0) or rational, with zeros and poles at t0.  A symmetric family may
    have a zero diagonal, whose off-diagonal entries then come in mirrored
    pairs."""
    t0 = draw(st.sampled_from([Fraction(x)
                               for x in ("0", "1", "-2", "1/2", "-2/3", "5/3")]))
    n = draw(st.integers(1, 5))
    U = RatFn((-t0.numerator, t0.denominator))
    nonzero = st.integers(-3, 3).filter(bool)

    def entry():
        kind = draw(st.sampled_from(["zero", "poly", "rational"]))
        if kind == "zero":
            return RatFn(())
        r = draw(st.integers(0, 3) if kind == "poly" else st.integers(-2, 3))
        f = RatFn((draw(nonzero),)) + RatFn((draw(st.integers(-2, 2)),)) * U
        if kind == "rational":
            f = f / (RatFn((draw(nonzero),)) + RatFn((draw(st.integers(-2, 2)),)) * U)
        for _ in range(abs(r)):
            f = f * U if r > 0 else f / U
        return f

    if draw(st.booleans()):
        zero_diagonal = draw(st.booleans())
        L = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                L[i][j] = L[j][i] = RatFn(()) if i == j and zero_diagonal else entry()
    else:
        L = [[entry() for _ in range(n)] for _ in range(n)]
    return L, t0


@seed(13)
@settings(max_examples=300, deadline=None)
@given(_jantzen_families())
def test_jantzen_main_fuzzed_families_exit_0_or_3(family):
    L, t0 = family
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(ratmatrix_to_json_obj(L), fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["jantzen", path, "--at", str(t0), "--format", "json"])
    finally:
        os.unlink(path)
    assert rc in (0, 3)
    # every family is well formed, so exit 3 means a singular one
    local = jantzen._local(L, t0)
    D = None if local is None else local[0]
    assert (rc == 3) == (D is None)
    if rc == 3:
        assert not out.getvalue() and err.getvalue().startswith("error: ")
        return
    obj = json.loads(out.getvalue())
    levels = obj["levels"]
    assert sum(lv["dim"] for lv in levels) == len(L)
    assert obj["D"] == sum(lv["r"] * lv["dim"] for lv in levels) == D
    for lv in levels:
        assert len(lv["basis"]) == lv["dim"]
        if obj["symmetric"]:
            assert sum(lv["signature"]) == lv["dim"]


def _assert_both_eliminations_agree(L, t0):
    """The row-column elimination (jantzen_levels) and the congruence one
    (level_signatures) of a symmetric family: the same (r, dim), or both
    find it singular."""
    try:
        levels = [(r, d) for r, d, _ in jantzen.jantzen_levels(L, t0)]
    except SingularFamily:
        with pytest.raises(DegenerateResidual):
            jantzen.level_signatures(L, t0)
        return
    assert levels == [(r, w.forget()) for r, w in jantzen.level_signatures(L, t0)]


@pytest.mark.parametrize(
    "family, at",
    [("sym_pole.json", "1/2"), ("sl2_intertwining_p+1_12.json", "5"),
     ("sym_mirrored.json", "1/2")],
)
def test_both_eliminations_agree_on_the_symmetric_goldens(family, at):
    with open(os.path.join(FIXTURES, family), "rb") as fh:
        L = jantzen.parse_ratmatrix(fh.read())
    assert all(L[i][j] == L[j][i] for i in range(len(L)) for j in range(i))
    _assert_both_eliminations_agree(L, Fraction(at))


@seed(14)
@settings(max_examples=300, deadline=None)
@given(_jantzen_families())
def test_both_eliminations_agree_on_fuzzed_symmetric_families(family):
    L, t0 = family
    assume(all(L[i][j] == L[j][i] for i in range(len(L)) for j in range(i)))
    _assert_both_eliminations_agree(L, t0)


# ---------------------------------------------------------------------------
# the error contract of the parameter commands

def _mostly(valid, mutated):
    """A valid value three times in four, else a mutated one."""
    return st.integers(0, 3).flatmap(lambda k: mutated if k == 3 else valid)


# each value that parses lies in [-60, 60]: hyperplanes --radius walks every
# level up to the radius
_RATIONALS = _mostly(
    st.tuples(st.integers(0, 60), st.integers(1, 7)).map(
        lambda pq: "%d/%d" % pq if pq[1] > 1 else str(pq[0])),
    st.one_of(
        st.tuples(st.integers(-60, -1), st.integers(1, 7)).map(lambda pq: "%d/%d" % pq),
        st.sampled_from(["", " ", "3/0", "-3/0", "0/0", "1.5", "-0.5", ".5", "2.",
                         "1e1", "3/", "/2", "1/-2", "--1", "+1", "1_0", "x"]),
    ),
)
_JUNK_INTEGERS = st.sampled_from(["", "x", "1.0", "1/2", "--1"])
_PARITIES = _mostly(st.sampled_from(["1", "-1", "+1"]),
                    st.integers(-60, 60).map(str) | _JUNK_INTEGERS)
_INTEGERS = _mostly(st.integers(-60, 60).map(str), _JUNK_INTEGERS)
_GROUPS = _mostly(
    st.sampled_from(["sl2r", "sl2c"]),
    st.sampled_from(["", "g2", "SL2R", "sl2r:", "sl2c:1"]),
)
_KEYS = _mostly(
    st.tuples(_GROUPS, st.lists(_RATIONALS, min_size=1, max_size=3)).map(
        lambda gc: "%s:%s" % (gc[0], ",".join(gc[1]))),
    st.sampled_from(["sl2r:", "sl2c:1/3,1/5", ":3", "sl2r", "", ":", "sl2r:1,,2",
                     "sl2c:,", "sl2c:1/2,1/2"]),
)
_OPTIONS = {
    "unitary": ("--nu",),
    "scan": ("--from", "--to"),
    "hyperplanes": ("--radius",),
}


@st.composite
def _parameter_calls(draw):
    """argv of unitary, scan, hyperplanes or block show with mutated
    arguments, each option present or not, as --opt=value or --opt value."""
    cmd = draw(st.sampled_from(sorted(_OPTIONS) + ["block show"]))
    if cmd == "block show":
        argv = ["block", "show", draw(_KEYS)]
    else:
        argv = [cmd]
        opts = [("--group", _GROUPS), ("--parity", _PARITIES), ("--m", _INTEGERS)]
        for opt, values in opts + [(o, _RATIONALS) for o in _OPTIONS[cmd]]:
            if draw(st.integers(0, 5)) < 5:
                value = draw(values)
                joined = draw(st.booleans())
                argv += ["%s=%s" % (opt, value)] if joined else [opt, value]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@seed(15)
@settings(max_examples=400, deadline=None)
@given(_parameter_calls())
def test_parameter_commands_fuzzed_exit_0_2_3_or_4(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
    if rc:
        assert not out.getvalue() and err.getvalue(), argv


# ---------------------------------------------------------------------------
# one parser per process

def _outcome(capsys, argv):
    try:
        rc = main(list(argv))
    except SystemExit as e:
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    lib5 = _library_file(tmp_path)
    (chain7, _) = builtin_block("sl2r", (7,))
    lib7 = tmp_path / "lib7.json"
    lib7.write_text(serialize_block(chain7))
    calls = [
        ["signature", "--nu", "7/2", "--format", "json"],
        ["signature"],  # usage error: --nu is required
        ["unitary", "--parity", "-1", "--nu", "5/2"],
        ["scan", "--from", "0", "--to", "3", "--format", "json"],
        ["block", "load", str(lib5), "--format", "json"],
        ["signature", "--nu", "9", "--block", str(lib5), "--block", str(lib7)],
        ["block", "show", "sl2r:7", "--block", str(lib7)],
        ["signature", "--nu", "9", "--block", str(lib7)],
        ["block", "load", str(lib5), "--block", str(lib5)],  # duplicate: exit 3
        ["hyperplanes", "--radius", "4"],
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_outcome(capsys, argv))
    assert [rc for rc, _, _ in fresh] == [0, 3, 0, 0, 0, 0, 0, 0, 3, 0]
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_outcome(capsys, argv) for argv in calls]
    parser = cli._PARSER
    reused += [_outcome(capsys, argv) for argv in calls]
    assert parser is not None and cli._PARSER is parser
    assert reused == fresh + fresh
