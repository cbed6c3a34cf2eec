"""Per-layer tracing of seqdiv from outside the package.

The tracer wraps the public functions in FUNCTIONS at every place their
name is bound (``from .polyring import poly_gcd`` copies the function into
the importing module) and the Poly and field-descriptor methods in METHODS
on their classes.  Each call records one span: layer, request id, parent
span, start and end.  Spans stay in compact arrays until ``summary`` turns
them into calls and self time (span time minus the time its child spans
cover) per layer.  Nothing under ``src/`` is changed; ``uninstall`` puts the
original objects back.
"""

import cProfile
import pstats
import sys
import time
from array import array

# (layer, module, attribute): functions, wrapped at every binding.
FUNCTIONS = (
    ("polyring.poly_gcd", "polyring", "poly_gcd"),
    ("cyclokit.eval_form", "cyclokit", "eval_form"),
    ("factorization.factor_fp", "factorization", "factor_fp"),
    ("factorization.low_degree_factors_q", "factorization", "low_degree_factors_q"),
    ("sequences.term", "sequences", "term"),
    ("sequences.oracle_term", "sequences", "oracle_term"),
    ("sequences.cyclotomic_value", "sequences", "cyclotomic_value"),
    ("sequences.validate", "sequences", "validate"),
    ("divisibility.strong_div_check", "divisibility", "strong_div_check"),
    ("divisibility.primitive_part", "divisibility", "primitive_part"),
    ("divisibility.primitive_parts_factored", "divisibility", "primitive_parts_factored"),
    ("divisibility.term_divisors", "divisibility", "term_divisors"),
    ("verifier.run_campaign", "verifier", "run_campaign"),
    ("cli.main", "cli", "main"),
)

# (layer, module, class, method names): methods, wrapped on the class so
# that operator syntax (a * b, divmod, a != b) reaches the wrapper too.
METHODS = (
    ("polyring.mul", "polyring", "Poly", ("__mul__", "__rmul__")),
    ("polyring.divrem", "polyring", "Poly", ("__divmod__",)),
    ("polyring.addsub", "polyring", "Poly", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("coeff.field_eq", "coeff", "Rationals", ("__eq__",)),
    ("coeff.field_eq", "coeff", "PrimeField", ("__eq__",)),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in FUNCTIONS + METHODS))


class Tracer:
    """Span recorder for the seqdiv modules imported last."""

    def __init__(self):
        mods = {
            name.partition(".")[2] or name: mod
            for name, mod in list(sys.modules.items())
            if name == "seqdiv" or name.startswith("seqdiv.")
        }
        self._layer = array("H")
        self._request = array("I")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.current = -1
        self.request = 0
        self._originals = {}  # layer -> {id: original function}
        self._patches = []  # (owner, attribute, original, wrapper)
        wrappers = {}

        def wrap(layer, fn, after=None):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(layer, fn, after)
                self._originals.setdefault(layer, {})[id(fn)] = fn
            return wrappers[id(fn)]

        after = {
            "polyring.poly_gcd": self._after_gcd,
            "sequences.term": self._after_term,
            "polyring.mul": self._after_mul,
        }
        for layer, module, attr in FUNCTIONS:
            fn = getattr(mods[module], attr)
            w = wrap(layer, fn, after.get(layer))
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn, w))
        for layer, module, cls, names in METHODS:
            klass = getattr(mods[module], cls)
            for name in names:
                fn = klass.__dict__[name]
                self._patches.append((klass, name, fn, wrap(layer, fn, after.get(layer))))
        self._poly = mods["polyring"].Poly
        self._cyclotomic_form = mods["cyclokit"].cyclotomic_form
        self._pp_layer = LAYERS.index("divisibility.primitive_part")
        self.reset()

    # --- recording ---------------------------------------------------------

    def _wrap(self, layer, fn, after):
        lid = LAYERS.index(layer)
        layers, requests, parents = self._layer, self._request, self._parent
        starts, ends = self._start, self._end
        perf = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            idx = len(starts)
            parent = tracer.current
            layers.append(lid)
            requests.append(tracer.request)
            parents.append(parent)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                tracer.current = parent
            if after is not None:
                after(args, result, parent)
            return result

        return span

    def _after_gcd(self, args, result, parent):
        a, b = args
        self.deg_product += max(a.degree, 0) * max(b.degree, 0)
        key = (a.coeffs, b.coeffs)
        if key in self._seen_gcd:
            self.gcd_repeats += 1
        self._seen_gcd.add(key)
        if parent >= 0 and self._layer[parent] == self._pp_layer:
            self.strip_gcds += 1
            self.strip_useful += result.degree > 0

    def _after_term(self, args, result, parent):
        key = (id(args[0]), args[1])
        if key in self._seen_term:
            self.term_repeats += 1
        self._seen_term.add(key)

    def _after_mul(self, args, result, parent):
        a, b = args
        lb = len(b.coeffs) if isinstance(b, self._poly) else int(bool(b))
        self.coeff_products += len(a.coeffs) * lb

    def begin_request(self, request_id):
        """Spans recorded from here on belong to this request."""
        self.request = request_id
        self._seen_gcd = set()
        self._seen_term = set()

    def reset(self):
        """Drop every recorded span and counter."""
        for arr in (self._layer, self._request, self._parent, self._start, self._end):
            del arr[:]
        self.current = -1
        self.deg_product = self.coeff_products = 0
        self.gcd_repeats = self.term_repeats = 0
        self.strip_gcds = self.strip_useful = 0
        self.begin_request(0)
        info = getattr(self._cyclotomic_form, "cache_info", None)
        self._cache_start = info() if info else None

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # --- results -----------------------------------------------------------

    def counts(self):
        calls = [0] * len(LAYERS)
        for lid in self._layer:
            calls[lid] += 1
        return dict(zip(LAYERS, calls))

    def summary(self):
        """Per-layer metrics of the spans recorded since the last reset, and
        each layer's inclusive time (its outermost spans, children included)."""
        parent, layer = self._parent, self._layer
        dur = array("d", (e - s for s, e in zip(self._start, self._end)))
        covered = array("d", bytes(8 * len(dur)))
        for d, p in zip(dur, parent):
            if p >= 0:
                covered[p] += d
        self_s = [0.0] * len(LAYERS)
        incl = [0.0] * len(LAYERS)
        for lid, d, c, p in zip(layer, dur, covered, parent):
            self_s[lid] += d - c
            while p >= 0 and layer[p] != lid:
                p = parent[p]
            if p < 0:  # outermost span of its layer: count its whole time once
                incl[lid] += d
        calls = self.counts()
        out = {}
        for lid, name in enumerate(LAYERS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[lid]
        gcds, terms = calls["polyring.poly_gcd"], calls["sequences.term"]
        out["polyring.poly_gcd.repeat_ratio"] = self.gcd_repeats / gcds if gcds else 0.0
        out["polyring.poly_gcd.deg_product"] = self.deg_product
        out["polyring.mul.coeff_products"] = self.coeff_products
        out["sequences.term.repeat_ratio"] = self.term_repeats / terms if terms else 0.0
        out["divisibility.strip_gcd.useful_ratio"] = (
            self.strip_useful / self.strip_gcds if self.strip_gcds else 0.0
        )
        hits = misses = 0
        if self._cache_start is not None:
            now = self._cyclotomic_form.cache_info()
            hits = now.hits - self._cache_start.hits
            misses = now.misses - self._cache_start.misses
        out["cyclokit.cyclotomic_form.calls"] = hits + misses
        out["cyclokit.cyclotomic_form.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out, dict(zip(LAYERS, incl))

    def compare_with_cprofile(self, run_once):
        """Run one request under cProfile, then traced; return both results and
        the layers whose traced call count differs from cProfile's."""
        prof = cProfile.Profile()
        plain = prof.runcall(run_once)
        stats = pstats.Stats(prof).stats
        expected = {}
        for layer, fns in self._originals.items():
            keys = {(f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name) for f in fns.values()}
            expected[layer] = sum(stats[k][1] for k in keys if k in stats)
        self.reset()
        self.install()
        try:
            traced = run_once()
        finally:
            self.uninstall()
        got = self.counts()
        mismatches = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
        return plain, traced, mismatches
