"""The traced run: spans and counts around calls into sigzero's layers.

Nothing under ``src/`` is edited.  ``Tracer.install()`` replaces module and
class attributes with wrappers, under the name each caller looks the
function up by: ``sigengine`` calls its own imported ``invert_multiplicity``
and ``crossing_times``, ``blocks`` calls its own imported
``orientation_number`` and ``length``, ``cli`` its own imported
``deform_to_zero`` and ``parse_block``.  ``uninstall()`` puts the originals
back.

A span wrapper records one span per call: name, start, end, parent span and
operation id, kept in memory in flat arrays and written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.  A count wrapper only counts calls; it is used for the hot arithmetic
(``RatFn``, ``WPoly``) and for ``classify_roots``, whose time therefore stays
in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from fractions import Fraction
from weakref import WeakKeyDictionary

from sigzero import blocks, cli, jantzen, params, rootdata, sigengine, sigring

_now = time.perf_counter_ns


def _inf_key(group, inf_char):
    vals = inf_char if isinstance(inf_char, (tuple, list)) else (inf_char,)
    return group, tuple(sorted((abs(Fraction(x)) for x in vals), reverse=True))


def _block_key(b):
    return (b.group, b.inf_char, tuple(e.id for e in b.elements),
            tuple(e.orient for e in b.elements), tuple(sorted(b.Q.items())))


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.sp_name = array("l")
        self.sp_parent = array("l")
        self.sp_op = array("l")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self._stack = []
        self.op_id = -1
        self.counts = {}
        self._patches = []
        # distinct keys per round (builtin blocks per provider, blocks
        # inverted); summed over rounds at each round end
        self._keys = {"blocks.builtin_block": set(), "sigengine.irreducible_in_standards": set()}
        self.distinct = dict.fromkeys(self._keys, 0)
        self._providers = WeakKeyDictionary()
        self._serials = itertools.count(1)
        self._provider = None

    # -- wrappers -----------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn, note=None):
        nid = self._nid(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.sp_start)
            self.sp_name.append(nid)
            self.sp_parent.append(stack[-1] if stack else -1)
            self.sp_op.append(self.op_id)
            self.sp_start.append(0)
            self.sp_end.append(0)
            if note is not None:
                note(args, kwargs)
            stack.append(idx)
            self.sp_start[idx] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sp_end[idx] = _now()
                stack.pop()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, kind, name, aliases, note=None):
        """Wrap the function at aliases[0] once and install the wrapper at
        every alias, so all callers share one name."""
        owner, attr = aliases[0]
        fn = owner.__dict__[attr]
        wrapper = self._span(name, fn, note) if kind == "span" else self._counter(name, fn)
        for owner, attr in aliases:
            self._set(owner, attr, wrapper)

    # -- notes for the distinct ratios --------------------------------------

    def _note_provider(self, args, kwargs):
        provider = args[0]
        serial = self._providers.get(provider)
        if serial is None:
            serial = self._providers[provider] = next(self._serials)
        self._provider = serial

    def _note_builtin(self, args, kwargs):
        group, inf_char = args[0], args[1]
        self._keys["blocks.builtin_block"].add((self._provider,) + _inf_key(group, inf_char))

    def _note_inversion(self, args, kwargs):
        self._keys["sigengine.irreducible_in_standards"].add(_block_key(args[0]))

    # -- install ------------------------------------------------------------

    def install(self):
        P, RatFn, WPoly = blocks.BlockProvider, jantzen.RatFn, sigring.WPoly
        spans = [
            ("cli.main", [(cli, "main")]),
            ("blocks.provider_get", [(P, "get")], self._note_provider),
            ("blocks.builtin_block", [(blocks, "builtin_block")], self._note_builtin),
            ("blocks.parse_block", [(blocks, "parse_block"), (cli, "parse_block")]),
            ("blocks.split_components", [(blocks, "split_components"), (cli, "split_components")]),
            ("blocks.register", [(P, "register")]),
            ("blocks.invert_multiplicity", [(blocks, "invert_multiplicity"),
                                            (sigengine, "invert_multiplicity")]),
            ("rootdata.orientation_number", [(rootdata, "orientation_number"),
                                             (blocks, "orientation_number")]),
            ("rootdata.length", [(rootdata, "length"), (blocks, "length")]),
            ("params.crossing_times", [(params, "crossing_times"), (sigengine, "crossing_times")]),
            ("sigengine.signature_Q", [(sigengine, "signature_Q")]),
            ("sigengine.signature_P", [(sigengine, "signature_P")]),
            ("sigengine.irreducible_in_standards", [(sigengine, "irreducible_in_standards")],
             self._note_inversion),
            ("sigengine.deform_step", [(sigengine, "deform_step")]),
            ("sigengine.hs_rewrite", [(sigengine, "hs_rewrite")]),
            ("sigengine.deform_to_zero", [(sigengine, "deform_to_zero"), (cli, "deform_to_zero")]),
            ("sigengine.unitary_test", [(sigengine, "unitary_test"), (cli, "unitary_test")]),
            ("jantzen.jantzen_levels", [(jantzen, "jantzen_levels"), (cli, "jantzen_levels")]),
            ("jantzen.level_signatures", [(jantzen, "level_signatures"),
                                          (cli, "level_signatures")]),
        ]
        counters = [
            ("rootdata.classify_roots", [(rootdata, "classify_roots"), (blocks, "classify_roots")]),
            ("jantzen.sl2_c_function", [(jantzen, "sl2_c_function")]),
            ("jantzen.RatFn.init", [(RatFn, "__post_init__")]),
            ("jantzen.RatFn.mul", [(RatFn, "__mul__")]),
            ("jantzen.RatFn.add", [(RatFn, "__add__")]),
            ("jantzen.RatFn.div", [(RatFn, "__truediv__")]),
            ("sigring.WPoly.mul", [(WPoly, "__mul__")]),
            ("sigring.WPoly.add", [(WPoly, "__add__")]),
        ]
        for entry in spans:
            self._wrap("span", *entry)
        for entry in counters:
            self._wrap("count", *entry)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the harness side ---------------------------------------------------

    def run_op(self, op_id, thunk):
        self.op_id = op_id
        return self._span("op", thunk)()

    def end_round(self):
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()
        self._provider = None

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its child spans."""
        n = len(self.sp_start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += self.sp_end[i] - self.sp_start[i]
        return [self.sp_end[i] - self.sp_start[i] - child[i] for i in range(n)]

    def summary(self):
        """name -> (calls, self ns, calls with no child span)."""
        selfs = self.self_times()
        has_child = bytearray(len(selfs))
        for p in self.sp_parent:
            if p >= 0:
                has_child[p] = 1
        out = {}
        for i, s in enumerate(selfs):
            name = self.names[self.sp_name[i]]
            calls, self_ns, leaf = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, self_ns + s, leaf + (0 if has_child[i] else 1))
        return out

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\top\tstart_ns\tend_ns\tself_ns\n")
            for i, s in enumerate(selfs):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\t%d\n" % (
                    i, self.names[self.sp_name[i]], self.sp_parent[i], self.sp_op[i],
                    self.sp_start[i], self.sp_end[i], s))


# name, kind of value; the order is the order of BENCHMARK.json
PER_LAYER = [
    ("cli.main", ("calls", "self_ms")),
    ("blocks.provider_get", ("calls", "self_ms")),
    ("blocks.builtin_block", ("calls", "self_ms", "distinct_ratio")),
    ("blocks.parse_block", ("calls", "self_ms")),
    ("blocks.split_components", ("self_ms",)),
    ("blocks.register", ("calls",)),
    ("blocks.invert_multiplicity", ("calls", "self_ms")),
    ("rootdata.orientation_number", ("calls", "self_ms")),
    ("rootdata.length", ("calls", "self_ms")),
    ("rootdata.classify_roots", ("calls",)),
    ("params.crossing_times", ("calls", "self_ms")),
    ("sigengine.signature_Q", ("calls", "self_ms")),
    ("sigengine.signature_P", ("calls", "self_ms")),
    ("sigengine.irreducible_in_standards", ("calls", "self_ms", "distinct_ratio")),
    ("sigengine.deform_step", ("calls", "self_ms")),
    ("sigengine.deform_to_zero", ("calls", "self_ms", "reuse_ratio")),
    ("sigengine.unitary_test", ("calls", "self_ms")),
    ("sigring.WPoly.mul", ("calls",)),
    ("sigring.WPoly.add", ("calls",)),
    ("jantzen.RatFn.init", ("calls",)),
    ("jantzen.RatFn.mul", ("calls",)),
    ("jantzen.RatFn.add", ("calls",)),
    ("jantzen.RatFn.div", ("calls",)),
    ("jantzen.jantzen_levels", ("calls", "self_ms")),
    ("jantzen.level_signatures", ("calls", "self_ms")),
    ("jantzen.sl2_c_function", ("calls",)),
]

UNITS = {"calls": "calls/op", "self_ms": "ms/op", "distinct_ratio": "ratio",
         "reuse_ratio": "ratio"}


def per_layer_metrics(tracer, n_ops, scale):
    """Per-layer metrics per operation; self times are rescaled by
    ``scale`` (reference machine speed over measured speed)."""
    summary = tracer.summary()
    out = {}
    for name, fields in PER_LAYER:
        calls, self_ns, leaf = summary.get(name, (tracer.counts.get(name, 0), 0, 0))
        for field in fields:
            if field == "calls":
                value = calls / n_ops
            elif field == "self_ms":
                value = self_ns * scale / 1e6 / n_ops
            elif field == "distinct_ratio":
                value = tracer.distinct[name] / calls if calls else 0.0
            else:
                value = leaf / calls if calls else 0.0
            out["%s.%s" % (name, field)] = {"value": value, "unit": UNITS[field]}
    return out
