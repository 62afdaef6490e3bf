"""
Sweeping the SL(2,R) principal series
=====================================

Walk the spherical principal series $I(\\nu)$ from $\\nu = 0$ out past the
first reducibility walls, watching the deformed signature character and the
unitarity verdict change facet by facet.  Everything is exact: coefficients
live in $\\mathbb{W} = \\mathbb{Z}[s]/(s^2 - 1)$ and parameters in
$\\mathbb{Q}$.
"""

from fractions import Fraction

from sigzero import (
    BlockProvider,
    deform_to_zero,
    hyperplanes,
    ktype_signature,
    sl2r_ps_param,
    unitary_test,
)
from sigzero.blocks import SL2R

F = Fraction
provider = BlockProvider()
split = SL2R.cartan("split")

##############################################################################
# The arrangement
# ---------------
#
# For the spherical grading the reducibility walls of the split Cartan sit
# at the odd integers and the reorienting walls at the even ones; none pass
# through the origin, so every statement below is about open facets.

d = sl2r_ps_param(0, 1).discrete
print("walls up to level 6:")
for h in hyperplanes(d, split, 6):
    print("  level %s  %s" % (h.level, h.kind))

##############################################################################
# Deforming to nu = 0
# -------------------
#
# On each facet the deformed character is constant.  Inside (0, 1) the
# standard stays irreducible all the way down and lands on the spherical
# tempered parameter with coefficient 1: the complementary series.

for nu in (F(1, 2), F(3, 2), F(7, 2)):
    sc = deform_to_zero(sl2r_ps_param(0, nu), provider)
    print("\ndeform I(nu=%s):" % nu)
    for label, w in sc.items():
        print("  %-8s %s" % (label.text, w))

##############################################################################
# Past nu = 1 the crossing at the wall contributes (s - 1) times the two
# discrete series at infinitesimal character 1, and the form goes
# indefinite.  From nu = 7/2 the path crosses two walls; the wall at 3 is
# crossed with the wall at 1 still below it, so its delta carries an extra
# factor of s and enters as 1 - s.  On the K-type 4 the contributions
# cancel back to 1, visible in the K-type expansion:

sc = deform_to_zero(sl2r_ps_param(0, F(7, 2)), provider)
print("\nK-type signatures at nu = 7/2 (cutoff 6):")
for n, w in ktype_signature(sc, 6).items():
    print("  n = %+d   %s" % (n, w))

##############################################################################
# Verdicts
# --------
#
# The unitarity test reads the deformed character: unitary iff every
# tempered coefficient is a nonnegative multiple of a power of s matching
# the parity bookkeeping.  The spherical answer is the classical one:
# unitary exactly on [0, 1].

print("\nunitarity along the spherical line:")
for nu in (F(0), F(1, 2), F(1), F(5, 4), F(2), F(7, 2)):
    r = unitary_test(sl2r_ps_param(0, nu), provider)
    print("  nu = %-4s %-10s %s" % (nu, r.verdict, r.reason))

##############################################################################
# The nonspherical line has no complementary range: the form is indefinite
# for every nu > 0, and only the nu = 0 limit (sum of the two limits of
# discrete series) is unitary.

print("\nunitarity along the nonspherical line:")
for nu in (F(0), F(1, 2), F(2)):
    r = unitary_test(sl2r_ps_param(1, nu), provider)
    print("  nu = %-4s %-10s %s" % (nu, r.verdict, r.reason))
