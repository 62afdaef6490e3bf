"""The exactness table: every exported entry point that reads a number
refuses a float, a decimal string and a bool, each with its documented
refusal.  Exact readers (``parse_frac``) name the value they refuse;
integer fields and element ids take an int that is not a bool; the CLI
exits 3 on such an option value or block key."""

import os
from fractions import Fraction

import pytest

from sigzero.blocks import (
    SL2R_SPLIT,
    Block,
    BlockElement,
    BlockProvider,
    builtin_block,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
)
from sigzero.cli import main
from sigzero.errors import NonIntegerData
from sigzero.jantzen import (
    RatFn,
    jantzen_levels,
    level_signatures,
    oracle_signature,
    oracle_unitary,
)
from sigzero.params import DiscreteParam, LanglandsParam, frac_str, hyperplanes, parse_frac
from sigzero.sigengine import deform_step, irreducible_in_standards

F = Fraction
HERE = os.path.dirname(os.path.abspath(__file__))
MATRIX = os.path.join(HERE, "fixtures", "banded8.json")

CHAIN, _ = builtin_block("sl2r", (3,))
SPLIT = DiscreteParam("split", (F(0),), {0: 1})
DS1 = sl2r_ds_param(1, 1)
FAMILY = [[RatFn((-2, 1))]]
VALUES = {"float": 0.5, "decimal": "0.5", "bool": True}


def _rational(x):
    return ValueError, "not an exact rational: %r" % (x,)


def _element_field(name):
    def build(x):
        fields = dict(id=0, cartan=0, length=0, orient=0, param=DS1)
        fields[name] = x
        return Block("sl2r", (1,), (BlockElement(**fields),))

    def refusal(x):
        return NonIntegerData, "integer-data: element %r has %s %r, not an int" % (
            x if name == "id" else 0, name, x)
    return build, refusal


def _cli(*argv):
    """Run the CLI with X replaced by the value's text; raise SystemExit
    with its exit code."""
    def run(x):
        raise SystemExit(main([str(x) if a == "X" else a for a in argv]))
    return run


def _exit_3(x):
    return SystemExit, 3


TABLE = {
    # the parse_frac readers
    "parse_frac": (parse_frac, _rational),
    "frac_str": (frac_str, _rational),
    "sl2r_ps_param nu": (lambda x: sl2r_ps_param(0, x), _rational),
    "sl2r_ds_param k": (lambda x: sl2r_ds_param(1, x), _rational),
    "sl2c_param m": (lambda x: sl2c_param(x, 1), _rational),
    "sl2c_param v": (lambda x: sl2c_param(1, x), _rational),
    "DiscreteParam dlambda": (lambda x: DiscreteParam("split", (x,)), _rational),
    "LanglandsParam nu": (lambda x: LanglandsParam(SPLIT, (x,)), _rational),
    "LanglandsParam nu_im": (lambda x: LanglandsParam(SPLIT, (1,), (x,)), _rational),
    "Block inf_char": (lambda x: Block("sl2r", (x,), ()), _rational),
    "builtin_block": (lambda x: builtin_block("sl2r", (x,)), _rational),
    "BlockProvider.get": (lambda x: BlockProvider().get("sl2r", (x,)), _rational),
    "hyperplanes": (lambda x: hyperplanes(SPLIT, SL2R_SPLIT, x), _rational),
    "jantzen_levels": (lambda x: jantzen_levels(FAMILY, x), _rational),
    "level_signatures": (lambda x: level_signatures(FAMILY, x), _rational),
    "oracle_signature": (lambda x: oracle_signature(1, x, 4), _rational),
    "oracle_unitary": (lambda x: oracle_unitary(1, x), _rational),
    "RatFn.valuation": (lambda x: FAMILY[0][0].valuation(x), _rational),
    "RatFn.residual": (lambda x: FAMILY[0][0].residual(x), _rational),
    "RatFn.evaluate": (lambda x: FAMILY[0][0].evaluate(x), _rational),
    # the integer fields
    "BlockElement id": _element_field("id"),
    "BlockElement cartan": _element_field("cartan"),
    "BlockElement length": _element_field("length"),
    "BlockElement orient": _element_field("orient"),
    "Block Q index": (
        lambda x: Block(CHAIN.group, CHAIN.inf_char, CHAIN.elements, {**CHAIN.Q, (0, x): (1,)}),
        lambda x: (NonIntegerData, "integer-data: Q[0,%r] = (1,) is not made of ints" % (x,))),
    "Block Q coefficient": (
        lambda x: Block(CHAIN.group, CHAIN.inf_char, CHAIN.elements, {**CHAIN.Q, (0, 2): (x,)}),
        lambda x: (NonIntegerData, "integer-data: Q[0,2] = %r is not made of ints" % ((x,),))),
    "RatFn num": (lambda x: RatFn((1, x)),
                  lambda x: (TypeError, "RatFn coefficients must be ints (got %r)" % (x,))),
    "RatFn den": (lambda x: RatFn((1,), (x,)),
                  lambda x: (TypeError, "RatFn coefficients must be ints (got %r)" % (x,))),
    # element ids and selectors
    "Block.element": (CHAIN.element, lambda x: (KeyError, "no element %r in block" % (x,))),
    "irreducible_in_standards": (lambda x: irreducible_in_standards(CHAIN, x),
                                 lambda x: (KeyError, "no element %r in block" % (x,))),
    "deform_step": (lambda x: deform_step(CHAIN, x),
                    lambda x: (KeyError, "no element %r in block" % (x,))),
    "sl2r_ps_param eps": (lambda x: sl2r_ps_param(x, F(3, 2)),
                          lambda x: (ValueError, "parity must be 0 or 1")),
    "sl2r_ds_param sign": (lambda x: sl2r_ds_param(x, 3), lambda x: (
        ValueError, "discrete series needs sign +-1 and integer k >= 0")),
    "DiscreteParam grading": (lambda x: DiscreteParam("split", (0,), {0: x}),
                              lambda x: (ValueError, "grading values must be +-1 (root 0)")),
    "DiscreteParam final": (lambda x: DiscreteParam("split", (0,), final=x),
                            lambda x: (ValueError, "final must be a boolean (got %r)" % (x,))),
    "DiscreteParam ktype_parity": (lambda x: DiscreteParam("split", (0,), ktype_parity=x),
                                   lambda x: (ValueError, "ktype_parity must be 0, 1, or None")),
    # the CLI's options and block keys
    "--nu": (_cli("signature", "--nu", "X"), _exit_3),
    "--from": (_cli("scan", "--from", "X", "--to", "4"), _exit_3),
    "--to": (_cli("scan", "--from", "0", "--to", "X"), _exit_3),
    "--radius": (_cli("hyperplanes", "--radius", "X"), _exit_3),
    "--at": (_cli("jantzen", MATRIX, "--at", "X"), _exit_3),
    "--parity": (_cli("unitary", "--parity", "X", "--nu", "1"), _exit_3),
    "--m": (_cli("signature", "--group", "sl2c", "--m", "X", "--nu", "1"), _exit_3),
    "block show": (_cli("block", "show", "sl2r:X"), _exit_3),
}

# the finality flag is a bool: there the int 1 stands in for the bool
FINAL_VALUES = {"float": 0.5, "decimal": "0.5", "int": 1}
CASES = [(entry, kind, x) for entry in TABLE
         for kind, x in (FINAL_VALUES if entry == "DiscreteParam final" else VALUES).items()]


@pytest.mark.parametrize("entry, x", [(e, x) for e, _, x in CASES],
                         ids=["%s-%s" % (e, k) for e, k, _ in CASES])
def test_exactness_table(entry, x):
    call, refusal = TABLE[entry]
    exc, text = refusal(x)
    with pytest.raises(exc) as err:
        call(x)
    assert err.value.args[0] == text
