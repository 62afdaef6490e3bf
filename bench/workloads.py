"""The four seeded workloads of the benchmark and their references.

A workload is built once per run from ``--seed``.  It fixes a sequence of
operations (one *round*); the harness runs that round again and again, each
time on fresh state, so every round does the same work.  Each operation is a
call a user would make: into the library, or into the in-process CLI
``main()``.  The benchmark always calls through module attributes
(``sigengine.deform_to_zero``, ``cli.main``), which is where the traced run
puts its wrappers.

``verify(i, result)`` checks the result of operation ``i`` against a
reference that does not come from the code path under test: the Bargmann
classification, the closed-form signs of the intertwining operator, the
K-character property, planted Jantzen data, the block identities
``m M = 1`` and ``P^c Q^c = signed identity`` in the benchmark's own
arithmetic, and the same query on a fresh provider.  ``faults`` names the
operations that fail every time because of a known fault in the program.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from sigzero import blocks, cli, jantzen, sigengine

WORKLOADS = ("sweep-warm", "deep-cold", "jantzen-families", "block-files")


class Raised:
    """Result of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.text = str(exc)

    def __repr__(self):
        return "Raised(%s: %s)" % (self.kind, self.text)


def call_main(argv):
    """Run the CLI in process the way a caller captures it: exit code and
    stdout text.  A traceback escaping ``main()`` propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# independent references for SL(2,R) and SL(2,C)

def bargmann_unitary(eps: int, nu: F) -> bool:
    """Bargmann: the spherical series is unitary iff 0 <= nu <= 1, the
    nonspherical one iff nu = 0."""
    return 0 <= nu <= 1 if eps == 0 else nu == 0


def oracle_signs(eps: int, nu: F, cutoff: int) -> dict:
    """Signs of the intertwining operator per K-type just below ``nu``, as
    (p, q) pairs of W = Z[s]/(s^2-1): (1, 0) positive, (0, 1) negative.

    From the closed forms c_{2m} = prod_{j<m} (2j+1-nu)/(2j+1+nu) and
    c_{2m+1} = prod_{1<=j<=m} (2j-nu)/(2j+nu): every denominator is positive
    and a numerator is negative exactly when its integer is below nu (a
    vanishing numerator is positive just below the wall)."""
    out = {}
    if eps == 0:
        for n in range(0, cutoff + 1, 2):
            neg = sum(1 for j in range(n // 2) if 2 * j + 1 < nu)
            out[n] = out[-n] = (0, 1) if neg % 2 else (1, 0)
    else:
        for n in range(1, cutoff + 1, 2):
            neg = sum(1 for j in range(1, (n - 1) // 2 + 1) if 2 * j < nu)
            out[n] = out[-n] = (0, 1) if neg % 2 else (1, 0)
    return out


def forget_terms(sc) -> dict:
    """Label text -> integer coefficient after forgetting s (s -> 1)."""
    out = {}
    for label, w in sc.items():
        v = w.p + w.q
        if v:
            out[label.text] = out.get(label.text, 0) + v
    return {k: v for k, v in out.items() if v}


def tempered_at_zero(group: str, eps_or_m: int) -> dict:
    """The standard at nu = 0 written in final tempered parameters: PS0 for
    the spherical series, LDS+ + LDS- (Hecht-Schmid) for the nonspherical
    one, PS(m,0) for SL(2,C)."""
    if group == "sl2c":
        return {"PS(%d,0)" % eps_or_m: 1}
    return {"PS0": 1} if eps_or_m == 0 else {"LDS+": 1, "LDS-": 1}


def check_sl2r_deformation(sc, eps: int, nu: F, library_oracle: bool) -> bool:
    """K-character property and the intertwining-operator oracle."""
    if sc.group != "sl2r" or sc.basis != "final_tempered":
        return False
    if forget_terms(sc) != tempered_at_zero("sl2r", eps):
        return False
    cutoff = math.floor(nu) + 2
    engine = {n: (w.p, w.q) for n, w in sigengine.ktype_signature(sc, cutoff).items()}
    want = oracle_signs(eps, nu, cutoff)
    if engine != want:
        return False
    if library_oracle:
        # the library's own oracle must agree with the closed form above
        lib = jantzen.oracle_signature(1 if eps == 0 else -1, nu, cutoff)
        if {n: (w.p, w.q) for n, w in lib.items()} != want:
            return False
    return True


# library oracle_signature grows roughly cubically in nu (0.4 s at 81/2,
# 3 s at 161/2), so it cross-checks the closed form only up to here
LIBRARY_ORACLE_MAX_NU = 24


def _seeded_fraction(rng, lo: int) -> F:
    """A rational in (lo, lo + 1], distinct denominators 2..8 or an integer."""
    b = rng.randint(2, 8)
    a = rng.randint(1, b)
    return lo + F(a, b)


def expected_facets(parity: int, lo: F, hi: F) -> list:
    """Facets of the segment [lo, hi] cut by the reducibility walls (odd
    integers for the spherical series, even ones for the nonspherical),
    each with its Bargmann verdict."""
    eps = 0 if parity == 1 else 1
    walls = [k for k in range(math.ceil(lo), math.floor(hi) + 1)
             if k > 0 and k % 2 == (1 if eps == 0 else 0)]

    def verdict(ok):
        return "unitary" if ok else "nonunitary"

    facets = []
    prev = lo
    for w in walls + [hi]:
        w = F(w)
        if prev < w:
            facets.append({"kind": "interval", "from": str(prev), "to": str(w),
                           "verdict": verdict(bargmann_unitary(eps, (prev + w) / 2))})
        if w < hi or (w == hi and w != prev and w in walls):
            facets.append({"kind": "point", "at": str(w),
                           "verdict": verdict(bargmann_unitary(eps, w))})
        prev = w
    return facets


def _unitary_json_ok(result, eps: int, nu: F) -> bool:
    rc, text = result
    if rc != 0:
        return False
    want = "unitary" if bargmann_unitary(eps, nu) else "nonunitary"
    return json.loads(text)["verdict"] == want


def _scan_json_ok(result, parity: int, lo: F, hi: F) -> bool:
    rc, text = result
    return rc == 0 and json.loads(text)["facets"] == expected_facets(parity, lo, hi)


# ---------------------------------------------------------------------------
# workload base

class Workload:
    """Subclasses set ``specs`` (one per operation of a round), ``kinds``
    (the kind of each) and, where the program has a known fault, ``faults``
    (positions that fail every time)."""

    name = ""
    # what the set-up time covers beside the imports: "provider" builds a
    # BlockProvider, "session" a cli.Session, "nothing" nothing
    setup_builds = "provider"
    faults = frozenset()

    def new_round(self):
        """Fresh state and the thunks of one round."""
        raise NotImplementedError

    def verify(self, i: int, result) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep-warm

class SweepWarm(Workload):
    """unitary_test and deform_to_zero on SL(2,R) at distinct nu in (0, 40],
    both parities, sharing one provider per round, with short scan and
    unitary calls through main() mixed in."""

    name = "sweep-warm"

    def __init__(self, seed, workdir):
        rng = random.Random("sweep-warm/%d" % seed)
        seen = set()
        specs = []
        for j in range(40):
            for kind, eps in (("unitary_test", j % 2), ("deform_to_zero", (j + 1) % 2)):
                nu = _seeded_fraction(rng, j)
                while nu in seen:
                    nu = _seeded_fraction(rng, j)
                seen.add(nu)
                specs.append((kind, eps, nu))
        cli_specs = []
        for i, base in enumerate((0, 10, 20, 30)):
            parity = 1 if i % 2 == 0 else -1
            lo = base + F(rng.randint(1, 3), 4)
            hi = lo + 2 + F(rng.randint(0, 3), 4)
            cli_specs.append(("main-scan", parity, lo, hi))
        for i, base in enumerate((0, 12, 25, 38)):
            parity = 1 if i % 2 == 0 else -1
            cli_specs.append(("main-unitary", parity, _seeded_fraction(rng, base)))
        # one CLI call after every tenth library query
        self.specs = []
        for i, s in enumerate(specs):
            self.specs.append(s)
            if i % 10 == 9:
                self.specs.append(cli_specs[i // 10])
        self.kinds = [s[0] for s in self.specs]

    def new_round(self):
        provider = blocks.BlockProvider()
        thunks = []
        for s in self.specs:
            if s[0] == "unitary_test":
                _, eps, nu = s
                thunks.append(lambda eps=eps, nu=nu: sigengine.unitary_test(
                    blocks.sl2r_ps_param(eps, nu), provider))
            elif s[0] == "deform_to_zero":
                _, eps, nu = s
                thunks.append(lambda eps=eps, nu=nu: sigengine.deform_to_zero(
                    blocks.sl2r_ps_param(eps, nu), provider))
            elif s[0] == "main-scan":
                _, parity, lo, hi = s
                thunks.append(lambda argv=("scan", "--parity", str(parity), "--from",
                                           str(lo), "--to", str(hi), "--format", "json"):
                              call_main(argv))
            else:
                _, parity, nu = s
                thunks.append(lambda argv=("unitary", "--parity", str(parity), "--nu",
                                           str(nu), "--format", "json"): call_main(argv))
        return thunks

    def verify(self, i, result):
        s = self.specs[i]
        if isinstance(result, Raised):
            return False
        if s[0] == "unitary_test":
            return result.is_unitary == bargmann_unitary(s[1], s[2])
        if s[0] == "deform_to_zero":
            return check_sl2r_deformation(result, s[1], s[2],
                                          s[2] <= LIBRARY_ORACLE_MAX_NU)
        if s[0] == "main-scan":
            return _scan_json_ok(result, s[1], s[2], s[3])
        return _unitary_json_ok(result, 0 if s[1] == 1 else 1, s[2])


# ---------------------------------------------------------------------------
# deep-cold

class DeepCold(Workload):
    """One fresh provider per operation and many walls below each query:
    SL(2,R) near nu = 41/2, 81/2, 161/2 and SL(2,C) with v up to 43."""

    name = "deep-cold"

    def __init__(self, seed, workdir):
        rng = random.Random("deep-cold/%d" % seed)
        specs = []
        for level in (20, 40, 80):
            for eps in (0, 1):
                for kind in ("deform_to_zero", "unitary_test"):
                    for _ in range(2):
                        b = rng.randint(2, 9)
                        specs.append((kind, eps, level + F(rng.randint(1, b - 1), b)))
        # the cost of an SL(2,C) deformation depends on m and on whether v
        # is an integer, so those are fixed per slot and the seed moves v
        for i in range(12):
            m = i % 7
            v = 20 + 2 * i + 2 * rng.randint(0, 1) + (F(1, 2) if i % 3 == 2 else 0)
            specs.append(("sl2c-deform", m, v))
        # interleave the three kinds so slow and fast operations alternate
        rng.shuffle(specs)
        self.specs = specs
        self.kinds = [s[0] for s in specs]

    def new_round(self):
        thunks = []
        for s in self.specs:
            if s[0] == "sl2c-deform":
                _, m, v = s
                thunks.append(lambda m=m, v=v: sigengine.deform_to_zero(
                    blocks.sl2c_param(m, v), blocks.BlockProvider(), group="sl2c"))
            elif s[0] == "deform_to_zero":
                _, eps, nu = s
                thunks.append(lambda eps=eps, nu=nu: sigengine.deform_to_zero(
                    blocks.sl2r_ps_param(eps, nu), blocks.BlockProvider()))
            else:
                _, eps, nu = s
                thunks.append(lambda eps=eps, nu=nu: sigengine.unitary_test(
                    blocks.sl2r_ps_param(eps, nu), blocks.BlockProvider()))
        return thunks

    def verify(self, i, result):
        s = self.specs[i]
        if isinstance(result, Raised):
            return False
        if s[0] == "sl2c-deform":
            return (result.group == "sl2c"
                    and forget_terms(result) == tempered_at_zero("sl2c", s[1]))
        if s[0] == "deform_to_zero":
            return check_sl2r_deformation(result, s[1], s[2],
                                          s[2] <= LIBRARY_ORACLE_MAX_NU)
        return result.is_unitary == bargmann_unitary(s[1], s[2])


# ---------------------------------------------------------------------------
# integer polynomials for planted families (ascending coefficients)

def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _planted_diag(rng, orders, t0):
    """Diagonal c_i (t - t0)^{r_i} for the given orders; returns the
    entries and the signs of the c_i."""
    n = len(orders)
    mat = [[[] for _ in range(n)] for _ in range(n)]
    signs = []
    for i, r in enumerate(orders):
        c = rng.choice([1, -1, 2, -3])
        f = [c]
        for _ in range(r):
            f = _pmul(f, [-t0, 1])
        mat[i][i] = f
        signs.append(c > 0)
    return mat, signs


def _linear(rng):
    """A multiplier a + b t with b = +-1."""
    return [rng.randint(-2, 2), rng.choice((-1, 1))]


def _banded_family(rng, orders, t0):
    n = len(orders)
    mat, _ = _planted_diag(rng, orders, t0)
    diag = [mat[i][i] for i in range(n)]

    lower = [[[1] if i == j else (_linear(rng) if i - j == 1 else []) for j in range(n)]
             for i in range(n)]
    upper = [[[1] if i == j else (_linear(rng) if j - i == 1 else []) for j in range(n)]
             for i in range(n)]
    out = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if lower[i][k] and upper[k][j]:
                    out[i][j] = _padd(out[i][j], _pmul(_pmul(lower[i][k], diag[k]), upper[k][j]))
    return out


def _row_op(mat, i, j, c):
    mat[i] = [_padd(x, _pmul(c, y)) for x, y in zip(mat[i], mat[j])]


def _col_op(mat, i, j, c):
    for row in mat:
        row[i] = _padd(row[i], _pmul(c, row[j]))


def _to_ratfn(mat):
    return [[jantzen.RatFn(tuple(e)) if e else jantzen.RatFn(()) for e in row]
            for row in mat]


def _level_orders(levels):
    return sorted(r for r, d, _ in levels for _ in range(d))


def _sig_pairs(sigs):
    return {r: (w.p, w.q) for r, w in sigs}


def _planted_sigs(orders, signs):
    out = {}
    for r, pos in zip(orders, signs):
        p, q = out.get(r, (0, 0))
        out[r] = (p + 1, q) if pos else (p, q + 1)
    return out


class JantzenFamilies(Workload):
    """Jantzen filtrations of planted families over Q(t): sparse ones as in
    acceptance criterion 5, denser ones from linear elementary operations,
    symmetric U^T D U ones, and intertwining diagonals at walls."""

    name = "jantzen-families"
    setup_builds = "nothing"

    def __init__(self, seed, workdir):
        rng = random.Random("jantzen-families/%d" % seed)
        specs = []
        t0s = (0, 1, -1, 2)
        # sparse planted families as in acceptance criterion 5: n cycling
        # 1..6, orders 0..3, two row and two column operations.  The cost of
        # one family swings several-fold with where the orders and the
        # operations fall, so those are fixed per slot; the seed moves the
        # coefficients and the multipliers.
        for i in range(64):
            n = 1 + i % 6
            t0 = t0s[i % 4]
            orders = [(i + j) % 4 for j in range(n)]
            mat, _ = _planted_diag(rng, orders, t0)
            if n > 1:
                for k, op in enumerate((_row_op, _col_op, _row_op, _col_op)):
                    a = (i + k) % n
                    op(mat, a, (a + 1) % n, _linear(rng))
            specs.append(("levels-sparse", _to_ratfn(mat), t0, orders))
        # denser families: tridiagonal L = A D B with A (B) unit lower
        # (upper) bidiagonal with linear entries, i.e. products of linear
        # elementary operations.  Their cost swings 4x with the pattern of
        # planted orders, so that pattern is fixed (alternating 0, 1) and
        # the seed moves t0 and the coefficients.
        for n in (6, 6, 7, 7, 8, 8, 9, 10):
            t0 = rng.choice(t0s)
            orders = [i % 2 for i in range(n)]
            specs.append(("levels-dense", _to_ratfn(_banded_family(rng, orders, t0)),
                          t0, orders))
        # symmetric U^T D U, both the levels and the layer signatures
        for i in range(10):
            n = 3 + i % 4
            t0 = t0s[i % 4]
            orders = [(i + j) % 3 for j in range(n)]
            mat, signs = _planted_diag(rng, orders, t0)
            for k in range(3):
                a = (i + k) % n
                c = _linear(rng)
                _row_op(mat, a, (a + 1) % n, c)
                _col_op(mat, a, (a + 1) % n, c)
            L = _to_ratfn(mat)
            specs.append(("levels-symmetric", L, t0, orders))
            specs.append(("signatures-symmetric", L, t0, _planted_sigs(orders, signs)))
        # intertwining diagonals at a wall k below the cutoff
        for i in range(8):
            parity = 1 if i % 2 == 0 else -1
            cutoff = 6 + 2 * (i // 2)
            ks = [k for k in range(1, cutoff) if k % 2 == (1 if parity == 1 else 0)]
            specs.append(("intertwining", parity, cutoff, rng.choice(ks)))
        rng.shuffle(specs)
        self.specs = specs
        self.kinds = [s[0] for s in specs]

    def new_round(self):
        thunks = []
        for s in self.specs:
            if s[0] == "signatures-symmetric":
                thunks.append(lambda L=s[1], t0=s[2]: jantzen.level_signatures(L, t0))
            elif s[0] == "intertwining":
                _, parity, cutoff, k = s

                def op(parity=parity, cutoff=cutoff, k=k):
                    L = jantzen.sl2_intertwining(parity, cutoff)
                    return jantzen.jantzen_levels(L, k), jantzen.level_signatures(L, k)
                thunks.append(op)
            else:
                thunks.append(lambda L=s[1], t0=s[2]: jantzen.jantzen_levels(L, t0))
        return thunks

    def verify(self, i, result):
        s = self.specs[i]
        if isinstance(result, Raised):
            return False
        if s[0] == "signatures-symmetric":
            return _sig_pairs(result) == s[3]
        if s[0] == "intertwining":
            levels, sigs = result
            orders, signs = _intertwining_planted(*s[1:])
            return (_level_orders(levels) == sorted(orders)
                    and _sig_pairs(sigs) == _planted_sigs(orders, signs))
        orders = s[3]
        return (_level_orders(result) == sorted(orders)
                and sum(r * d for r, d, _ in result) == sum(orders))


def _intertwining_planted(parity, cutoff, k):
    """Orders and residual signs of the c-functions at the wall nu = k: the
    factor of integer k vanishes to order one for |n| > k, with residual
    -1/(2k); every other factor (a - k)/(a + k) has the sign of a - k."""
    start = 0 if parity == 1 else 1
    ns = sorted({m for n in range(start, cutoff + 1, 2) for m in (n, -n)})
    orders, signs = [], []
    for n in ns:
        ints = ([2 * j + 1 for j in range(abs(n) // 2)] if parity == 1
                else [2 * j for j in range(1, (abs(n) - 1) // 2 + 1)])
        vanish = k in ints
        neg = sum(1 for a in ints if a < k) + (1 if vanish else 0)
        orders.append(1 if vanish else 0)
        signs.append(neg % 2 == 0)
    return orders, signs


# ---------------------------------------------------------------------------
# block files

def _w_mul(a, b):
    return (a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _w_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _qc_entry(coeffs, delta):
    """Q^c entry s^{delta/2} Q(sq) as {q-exponent: (p, q)}."""
    out = {}
    for k, c in enumerate(coeffs):
        if c:
            out[k] = (c, 0) if (k + delta // 2) % 2 == 0 else (0, c)
    return out


def _wpoly_pairs(wp):
    """A library W[q] polynomial as {q-exponent: (p, q)}; only integral
    q-powers occur in these matrices."""
    out = {}
    for e, c in wp.items():
        if e % 2:
            raise ValueError("half power in a block matrix")
        out[e // 2] = (c.p, c.q)
    return out


def _synthetic_library(rng, n, ic, extra_singletons):
    """A valid block file: n elements with lengths 0..7 evenly, orientation numbers
    of one parity, and Q entries at their degree bound
    deg Q = (l(col) - l(row) - 1) // 2, plus isolated elements that
    split_components separates.  Returns the JSON object and the data the
    references need."""
    total = n + extra_singletons
    lengths = [8 * i // n for i in range(n)]
    lengths += [rng.randint(0, 7) for _ in range(extra_singletons)]
    orients = [2 * rng.randint(0, 3) for _ in range(total)]
    # the inversion's cost follows where the Q entries are (it moves 15%
    # between random patterns), so the pattern, three in ten of the pairs
    # the length order allows, depends on n alone; the seed moves the
    # coefficients and the orientation numbers
    pairs = [(r, c) for c in range(n) for r in range(n) if lengths[r] < lengths[c]]
    shape = random.Random("synthetic-block/%d" % n)
    Q = {}
    for r, c in sorted(shape.sample(pairs, 3 * len(pairs) // 10)):
        Q[(r, c)] = [rng.randint(1, 2) for _ in range((lengths[c] - lengths[r] - 1) // 2 + 1)]
    elements = []
    for i in range(total):
        elements.append({
            "id": i, "cartan": 0, "length": lengths[i], "orient": orients[i],
            "tau": None,
            "param": {"cartan": "synthetic", "dlambda": [str(i + 1)],
                      "grading": {}, "imaginary_grading": None, "final": True,
                      "ktype_parity": 0, "nu": ["0"], "nu_im": None},
        })
    obj = {"group": "synth", "inf_char": [str(ic)], "elements": elements,
           "Q": [{"row": r, "col": c, "coeffs": v} for (r, c), v in sorted(Q.items())]}
    return obj, {"lengths": lengths, "orients": orients, "Q": Q}


def _components(ids, edges):
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in edges:
        parent[find(r)] = find(c)
    comps = {}
    for i in ids:
        comps.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in comps.values())


def _builtin_library(k):
    """The built-in SL(2,R) partition at k merged into one block file."""
    chain, lone = blocks.builtin_block("sl2r", (k,))
    merged = blocks.Block("sl2r", chain.inf_char,
                          tuple(chain.elements) + tuple(lone.elements),
                          {**chain.Q, **lone.Q})
    return json.loads(blocks.serialize_block(merged))


def _altered_library(k, how):
    obj = _builtin_library(k)
    if how == "drop-Q12":
        obj["Q"] = [e for e in obj["Q"] if (e["row"], e["col"]) != (1, 2)]
    elif how == "double-Q02":
        for e in obj["Q"]:
            if (e["row"], e["col"]) == (0, 2):
                e["coeffs"] = [2]
    else:  # "reorient": shift the principal series' orientation by 2
        for e in obj["elements"]:
            if e["id"] == 2:
                e["orient"] += 2
    return obj


def _library_key(obj):
    return "%s:%s" % (obj["group"], ",".join(str(F(x)) for x in obj["inf_char"]))


def _library_partition(obj):
    ids = [e["id"] for e in obj["elements"]]
    return _components(ids, [(e["row"], e["col"]) for e in obj["Q"]
                             if e["row"] != e["col"]])


class BlockFiles(Workload):
    """Writes (block load through main(); parse_block -> split_components ->
    register) beside reads (signature_P and irreducible_in_standards on
    synthetic blocks of 20-40 elements, and deformation queries on a
    provider that gains libraries between queries)."""

    name = "block-files"
    setup_builds = "session"

    def __init__(self, seed, workdir):
        rng = random.Random("block-files/%d" % seed)
        os.makedirs(workdir, exist_ok=True)
        # built-in round trips at three walls, altered chains at three
        # higher walls.  Queries go up in nu, so a library is registered
        # only at walls that no earlier query of the round has crossed.  A
        # query costs about one block per wall below it, so the walls are
        # fixed and the seed moves nu between them.
        ks = [2, 4, 6, 9, 11, 13]
        alterations = ["drop-Q12", "double-Q02", "reorient"]
        rng.shuffle(alterations)
        libs = [("roundtrip", _builtin_library(k)) for k in ks[:3]]
        libs += [("altered", _altered_library(k, how)) for k, how in zip(ks[3:], alterations)]
        self.synth = []
        for i, n in enumerate((24, 32, 40)):
            obj, data = _synthetic_library(rng, n, i + 1, 2)
            data["psi"] = _top_elements(data["lengths"][:n], rng, 2)
            self.synth.append((obj, data))
            libs.append(("synthetic", obj))
        self.libs = libs
        self.paths = []
        for i, (_, obj) in enumerate(libs):
            path = os.path.join(workdir, "library-%d.json" % i)
            _write_json(path, obj)
            self.paths.append(path)
        # a file whose inf_char is an integer: main() should exit 3
        bad = _builtin_library(3)
        bad["inf_char"] = 5
        self.bad_path = os.path.join(workdir, "bad-inf-char.json")
        _write_json(self.bad_path, bad)
        self.stale_lib = _altered_library(1, "drop-Q12")

        specs = [("main-load", i) for i in range(len(libs))]
        specs.append(("main-load-bad",))
        for i, k in enumerate(ks):
            specs.append(("register", i))
            # the parity that is reducible at k, so the path crosses k
            eps = 0 if k % 2 == 1 else 1
            for kind_q in ("deform_to_zero", "unitary_test"):
                specs.append((kind_q, eps, k + F(rng.randint(1, 3), 4), i))
        for j in range(3):
            specs.append(("register", 6 + j))
            specs.append(("signature_P", j))
            for psi in self.synth[j][1]["psi"]:
                specs.append(("irreducible_in_standards", j, psi))
        specs += [("stale-query", 0), ("stale-register",), ("stale-query", 1)]
        self.specs = specs
        self.kinds = [s[0] for s in specs]
        self.faults = {specs.index(("main-load-bad",)), specs.index(("stale-query", 1))}

    def new_round(self):
        provider = blocks.BlockProvider()
        stale = blocks.BlockProvider()
        texts = [json.dumps(obj) for _, obj in self.libs]
        stale_text = json.dumps(self.stale_lib)
        thunks = []
        for s in self.specs:
            kind = s[0]
            if kind == "main-load":
                thunks.append(lambda p=self.paths[s[1]]: call_main(
                    ("block", "load", p, "--format", "json")))
            elif kind == "main-load-bad":
                thunks.append(lambda p=self.bad_path: call_main(
                    ("block", "load", p, "--format", "json")))
            elif kind == "register":
                thunks.append(lambda t=texts[s[1]]: _register(provider, t))
            elif kind == "deform_to_zero":
                thunks.append(lambda eps=s[1], nu=s[2]: sigengine.deform_to_zero(
                    blocks.sl2r_ps_param(eps, nu), provider))
            elif kind == "unitary_test":
                thunks.append(lambda eps=s[1], nu=s[2]: sigengine.unitary_test(
                    blocks.sl2r_ps_param(eps, nu), provider))
            elif kind == "signature_P":
                thunks.append(lambda j=s[1]: sigengine.signature_P(
                    _component(provider, j + 1, self.synth[j][1]["psi"][0])))
            elif kind == "irreducible_in_standards":
                thunks.append(lambda j=s[1], psi=s[2]: sigengine.irreducible_in_standards(
                    _component(provider, j + 1, psi), psi))
            elif kind == "stale-register":
                thunks.append(lambda: _register(stale, stale_text))
            else:
                thunks.append(lambda: sigengine.deform_to_zero(
                    blocks.sl2r_ps_param(0, F(3, 2)), stale))
        return thunks

    # -- references ---------------------------------------------------------

    def _fresh_provider(self, lib_indices):
        p = blocks.BlockProvider()
        for i in lib_indices:
            _register(p, json.dumps(self.libs[i][1]))
        return p

    def verify(self, i, result):
        s = self.specs[i]
        kind = s[0]
        if kind == "main-load-bad":
            # exit code 3 (invalid input); a TypeError escaping main() fails
            return not isinstance(result, Raised) and result[0] == 3
        if isinstance(result, Raised):
            return False
        if kind == "main-load":
            obj = self.libs[s[1]][1]
            want = {"key": _library_key(obj), "components": len(_library_partition(obj)),
                    "elements": len(obj["elements"])}
            return result[0] == 0 and json.loads(result[1]) == want
        if kind == "register":
            return result == _library_partition(self.libs[s[1]][1])
        if kind == "stale-register":
            return result == _library_partition(self.stale_lib)
        if kind in ("deform_to_zero", "unitary_test"):
            _, eps, nu, upto = s
            g = blocks.sl2r_ps_param(eps, nu)
            # every library registered before this query, on a fresh provider
            fresh = self._fresh_provider(range(upto + 1))
            # Bargmann and the oracle hold only while no altered chain lies
            # below nu
            altered = any(self.libs[j][0] == "altered" for j in range(upto + 1))
            if kind == "unitary_test":
                ref = sigengine.unitary_test(g, fresh)
                same = (result.verdict, result.B, result.violations) == (
                    ref.verdict, ref.B, ref.violations)
                return same and (altered or result.is_unitary == bargmann_unitary(eps, nu))
            if result != sigengine.deform_to_zero(g, fresh):
                return False
            if forget_terms(result) != tempered_at_zero("sl2r", eps):
                return False
            return altered or check_sl2r_deformation(result, eps, nu, True)
        if kind == "signature_P":
            data = self.synth[s[1]][1]
            block = _component(self._fresh_provider(range(6 + s[1] + 1)), s[1] + 1,
                               data["psi"][0])
            return (result == sigengine.signature_P(block)
                    and _check_signature_P(result, block.ids(), data))
        if kind == "irreducible_in_standards":
            j, psi = s[1], s[2]
            data = self.synth[j][1]
            block = _component(self._fresh_provider(range(6 + j + 1)), j + 1, psi)
            return (result == sigengine.irreducible_in_standards(block, psi)
                    and _check_irreducible(result, block.ids(), psi, data))
        # stale-query: the same query on a fresh provider holding the same
        # libraries (none before the first query, the altered k = 1 chain
        # after the register)
        g = blocks.sl2r_ps_param(0, F(3, 2))
        fresh = blocks.BlockProvider()
        if s[1] == 1:
            _register(fresh, json.dumps(self.stale_lib))
        return (result == sigengine.deform_to_zero(g, fresh)
                and forget_terms(result) == tempered_at_zero("sl2r", 0))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _top_elements(lengths, rng, count):
    """Ids of elements with the largest lengths: their columns of the
    inverse are the longest."""
    top = max(lengths)
    cands = [i for i, l in enumerate(lengths) if l >= top - 1]
    return sorted(rng.sample(cands, min(count, len(cands))))


def _register(provider, text):
    """parse_block -> split_components -> register, the path a library
    takes into a provider; returns the partition it registered."""
    comps = blocks.split_components(blocks.parse_block(text))
    provider.register(comps)
    return sorted(tuple(sorted(c.ids())) for c in comps)


def _component(provider, ic, eid):
    for b in provider.get("synth", (ic,)):
        if eid in b.ids():
            return b
    raise KeyError("element %d not registered at synth:%d" % (eid, ic))


def _check_signature_P(P, ids, data):
    """P^c Q^c = signed identity over W[q], and m M = 1 at q = 1, in the
    benchmark's own arithmetic from the generated Q."""
    lengths, orients, Q = data["lengths"], data["orients"], data["Q"]
    ids = list(ids)
    Pc = {key: _wpoly_pairs(v) for key, v in P.items()}
    Qc = {(i, i): {0: (1, 0)} for i in ids}
    members = set(ids)
    for (r, c), coeffs in Q.items():
        if r in members and c in members:
            Qc[(r, c)] = _qc_entry(coeffs, orients[r] - orients[c])
    for r in ids:
        for c in ids:
            acc = {}
            for k in ids:
                p, q = Pc.get((r, k)), Qc.get((k, c))
                if not p or not q:
                    continue
                sign = -1 if (lengths[r] + lengths[k]) % 2 else 1
                for e1, w1 in p.items():
                    for e2, w2 in q.items():
                        w = _w_mul(w1, w2)
                        acc[e1 + e2] = _w_add(acc.get(e1 + e2, (0, 0)), (sign * w[0], sign * w[1]))
            acc = {e: w for e, w in acc.items() if w != (0, 0)}
            if acc != ({0: (1, 0)} if r == c else {}):
                return False
    # M = (-1)^{l(psi) - l(gamma)} P(1), P = P^c with s forgotten
    M = {}
    for (r, c), poly in Pc.items():
        val = sum(p + q for p, q in poly.values())
        M[(r, c)] = -val if (lengths[c] - lengths[r]) % 2 else val
    for r in ids:
        for c in ids:
            tot = 0
            for k in ids:
                m = 1 if r == k else sum(Q.get((r, k), ()))
                tot += m * M.get((k, c), 0)
            if tot != (1 if r == c else 0):
                return False
    return True


def _check_irreducible(sc, ids, psi, data):
    """sum_Gamma Q^c(1)[xi, Gamma] W^c[Gamma, psi] = delta_{xi, psi} in W."""
    orients, Q = data["orients"], data["Q"]
    by_id = {}
    for label, w in sc.items():
        by_id[int(label.param.discrete.dlambda[0]) - 1] = (w.p, w.q)
    if not set(by_id) <= set(ids):
        return False
    for xi in ids:
        acc = by_id.get(xi, (0, 0))
        for g, w in by_id.items():
            if g == xi or (xi, g) not in Q:
                continue
            q1 = (0, 0)
            for w2 in _qc_entry(Q[(xi, g)], orients[xi] - orients[g]).values():
                q1 = _w_add(q1, w2)
            acc = _w_add(acc, _w_mul(q1, w))
        if acc != ((1, 0) if xi == psi else (0, 0)):
            return False
    return True


def build(name: str, seed: int, workdir: str) -> Workload:
    return {"sweep-warm": SweepWarm, "deep-cold": DeepCold,
            "jantzen-families": JantzenFamilies, "block-files": BlockFiles}[name](seed, workdir)
