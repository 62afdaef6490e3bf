"""Golden outputs: the stdout of CLI commands and of the two demos, compared
byte for byte with files in tests/fixtures/golden/.

The fixtures were captured before the built-in groups were gathered into
group models, so they pin the refactor to the old behaviour.  To write them
again from the sources on PYTHONPATH, run

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import os
import runpy
import sys

import pytest

from sigzero.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "fixtures", "golden")
DEMOS = os.path.join(os.path.dirname(HERE), "demos")


def _both_formats(name, argv):
    return [(name + ".txt", argv), (name + ".json", argv + ["--format", "json"])]


CLI_CASES = (
    [
        ("signature_sl2r_p%s_nu%s.json" % (p, nu.replace("/", "_")),
         ["signature", "--parity", p, "--nu", nu, "--format", "json"])
        for p in ("+1", "-1")
        for nu in ("0", "3/2", "7/2")
    ]
    + [
        ("signature_sl2c_m1_nu4.json",
         ["signature", "--group", "sl2c", "--m", "1", "--nu", "4", "--format", "json"]),
        ("signature_nu7_2_trace.txt", ["signature", "--nu", "7/2", "--trace"]),
        # one trace per built-in group, with recursion below the top walk
        ("signature_sl2r_p-1_nu15_2_trace.txt",
         ["signature", "--parity", "-1", "--nu", "15/2", "--trace"]),
        ("signature_sl2c_m3_nu41_2_trace.txt",
         ["signature", "--group", "sl2c", "--m", "3", "--nu", "41/2", "--trace"]),
    ]
    # deep queries: 20 to 80 walls of one translation family below nu
    + [
        ("signature_sl2r_p%s_nu81_2.json" % p,
         ["signature", "--parity", p, "--nu", "81/2", "--format", "json"])
        for p in ("+1", "-1")
    ]
    + [
        ("signature_sl2c_m%s_nu%s.json" % (m, nu.replace("/", "_")),
         ["signature", "--group", "sl2c", "--m", m, "--nu", nu, "--format", "json"])
        for m, nu in (("3", "41/2"), ("0", "45/2"))
    ]
    + [
        ("unitary_p-1_nu161_2.json",
         ["unitary", "--parity", "-1", "--nu", "161/2", "--format", "json"]),
    ]
    + _both_formats("unitary_nu1_2", ["unitary", "--nu", "1/2"])
    + _both_formats("unitary_nu3_2", ["unitary", "--nu", "3/2"])
    # a wall point with one wall below it: the terms other than PS+(3) carry s
    + _both_formats("unitary_nu3", ["unitary", "--nu", "3"])
    + _both_formats("scan_p+1_0_4", ["scan", "--parity", "+1", "--from", "0", "--to", "4"])
    + _both_formats("scan_p-1_0_4", ["scan", "--parity", "-1", "--from", "0", "--to", "4"])
    + _both_formats("hyperplanes_sl2r", ["hyperplanes"])
    + _both_formats("hyperplanes_sl2c_m1", ["hyperplanes", "--group", "sl2c", "--m", "1"])
    # half-integer levels, and a header row over no walls
    + _both_formats("hyperplanes_sl2c_m3_r17_2",
                    ["hyperplanes", "--group", "sl2c", "--m", "3", "--radius", "17/2"])
    + _both_formats("hyperplanes_r0", ["hyperplanes", "--radius", "0"])
    + [
        case
        for key in ("sl2r:0", "sl2r:2", "sl2r:5/2", "sl2c:3,1", "sl2c:1/2,1")
        for case in _both_formats(
            "block_show_" + key.replace(":", "_").replace("/", "_").replace(",", "_"),
            ["block", "show", key],
        )
    ]
)

DEMO_CASES = [
    ("demo_" + name[:-3] + ".txt", os.path.join(DEMOS, name))
    for name in ("bargmann_sweep.py", "jantzen_window.py")
]


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    assert rc == 0
    return buf.getvalue()


def _run_demo(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(path, run_name="__main__")
    return buf.getvalue()


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name, argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_golden(name, argv):
    assert _run_cli(argv) == _golden(name)


@pytest.mark.parametrize("name, path", DEMO_CASES, ids=[c[0] for c in DEMO_CASES])
def test_demo_golden(name, path):
    assert _run_demo(path) == _golden(name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    os.makedirs(GOLDEN, exist_ok=True)
    outputs = [(n, _run_cli(a)) for n, a in CLI_CASES]
    outputs += [(n, _run_demo(p)) for n, p in DEMO_CASES]
    for name, text in outputs:
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print("wrote %d files to %s" % (len(outputs), GOLDEN))
