"""The benchmark's traced run (bench/spans.py) wraps sigzero functions
under the names their callers look them up by.  A traced deformation must
give the untraced result, and every wrapped name must still exist and be
called, so that a renamed or bypassed function fails here and not only in
a benchmark smoke run."""

import os
from fractions import Fraction

from sigzero import blocks, rootdata, sigengine

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

QUERIES = [
    ("sl2r", blocks.sl2r_ps_param(0, Fraction(23, 2))),
    ("sl2c", blocks.sl2c_param(3, Fraction(17, 2))),
]

# layers a cold deformation or a partition lookup passes through, by their
# span names: a wall reads one block through BlockProvider.find, and only
# get serves a whole partition through builtin_block
CALLED = [
    "blocks.provider_get",
    "blocks.builtin_block",
    "rootdata.length",
    "rootdata.orientation_number",
    "params.crossing_times",
    "sigengine.deform_step",
    "sigengine.hs_rewrite",
    "sigengine.deform_to_zero",
]


def _deform(group, g):
    return sigengine.deform_to_zero(g, blocks.BlockProvider(), group)


def test_traced_deformation_equals_untraced(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    originals = (sigengine.deform_to_zero, blocks.length, blocks.BlockProvider.get)
    untraced = [_deform(group, g) for group, g in QUERIES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sigengine.deform_to_zero is not originals[0]
        traced = [tracer.run_op(i, lambda: _deform(group, g))
                  for i, (group, g) in enumerate(QUERIES)]
        partition = tracer.run_op(len(QUERIES), lambda: blocks.BlockProvider().get("sl2r", (3,)))
    finally:
        tracer.uninstall()
    assert (sigengine.deform_to_zero, blocks.length, blocks.BlockProvider.get) == originals
    assert blocks.length is rootdata.length
    for (group, g), got, want in zip(QUERIES, traced, untraced):
        assert got.group == group and got == want
    assert list(map(blocks.serialize_block, partition)) == list(
        map(blocks.serialize_block, blocks.builtin_block("sl2r", (3,))))
    summary = tracer.summary()
    assert [name for name in CALLED if summary.get(name, (0,))[0] == 0] == []
