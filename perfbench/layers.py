"""Span tracing of pclie's layers, installed from outside the package.

Modules call each other through names bound at import time
(``from .rules import normal_s_word``), so a span wraps the binding in the
calling module, e.g. ``pclie.gsb.normal_s_word``.  Calls a module makes
to its own functions stay unwrapped and count toward that module's self
time, as do methods called on values (``LiePoly.__sub__`` inside
``gsb.composition`` is gsb time).  The hottest helpers (``is_alsw``,
``deglex_key``, ``compare_*``, ``_coeff``) are never wrapped; their cost
stays with the caller.  A few gsb and quotient functions are wrapped at
their own module binding because the metrics need their arguments and
results; none of them recurses.

Spans (name, start, end, parent, job) are kept in memory and rolled up
when the pass ends.  A layer's self time is the sum over its spans of
duration minus the time covered by direct child spans; together with the
time outside any job span it adds up to the pass wall time.
"""

from __future__ import annotations

import time

LAYERS = ("words", "lie", "rules", "gsb", "quotient", "expr", "cli")

# (module holding the binding, attribute, span name)
BINDINGS = (
    ("cli", "parse_expr", "expr.parse_expr"),
    ("cli", "complete", "gsb.complete"),
    ("cli", "is_gsb", "gsb.is_gsb"),
    ("cli", "bracket", "lie.bracket"),
    ("cli", "assoc_hilbert_series", "quotient.assoc_hilbert_series"),
    ("cli", "clique_series_dims", "quotient.clique_series_dims"),
    ("cli", "generate_relations", "quotient.generate_relations"),
    ("cli", "irr_basis", "quotient.irr_basis"),
    ("cli", "pc_normal_form", "quotient.pc_normal_form"),
    ("cli", "enumerate_alsw", "words.enumerate_alsw"),
    ("cli", "lyndon_factorize", "words.lyndon_factorize"),
    ("expr", "expand", "lie.expand"),
    ("expr", "nlsw_decompose", "lie.nlsw_decompose"),
    ("gsb", "normal_s_word", "rules.normal_s_word"),
    ("gsb", "find_ambiguities", "gsb.find_ambiguities"),
    ("gsb", "composition", "gsb.composition"),
    ("gsb", "reduce", "gsb.reduce"),
    ("quotient", "bracket", "lie.bracket"),
    ("quotient", "expand", "lie.expand"),
    ("quotient", "nlsw_decompose", "lie.nlsw_decompose"),
    ("quotient", "normal_s_word", "rules.normal_s_word"),
    ("quotient", "enumerate_alsw", "words.enumerate_alsw"),
    ("quotient", "irr_words", "quotient.irr_words"),
    ("rules", "bracket", "lie.bracket"),
    ("rules", "commutator", "lie.commutator"),
    ("rules", "expand", "lie.expand"),
    ("rules", "nlsw_decompose", "lie.nlsw_decompose"),
    ("rules", "lyndon_factorize", "words.lyndon_factorize"),
    ("lie", "standard_split", "words.standard_split"),
)

# (class owner module, class, method, span name); classmethods and methods
# that other modules call on values
METHODS = (
    ("quotient", "CommGraph", "parse", "quotient.CommGraph.parse"),
    ("rules", "Rule", "monic", "rules.Rule.monic"),
    ("expr", "ExprAst", "to_lie_poly", "expr.to_lie_poly"),
)

CACHES = (
    ("words", "is_alsw", "words.is_alsw"),
    ("lie", "expand", "lie.expand"),
    ("lie", "bracket", "lie.bracket"),
    ("rules", "normal_s_word", "rules.normal_s_word"),
)

# name, unit, better; the order of the traced report
PER_LAYER = (
    ("words.self_s", "s", "lower"),
    ("words.enumerate_alsw.self_s", "s", "lower"),
    ("words.enumerate_alsw.words", "count", "lower"),
    ("words.word_constructions", "count", "lower"),
    ("words.is_alsw.cache_size", "count", "lower"),
    ("words.is_alsw.hit_ratio", "1", "higher"),
    ("lie.self_s", "s", "lower"),
    ("lie.nlsw_decompose.calls", "count", "lower"),
    ("lie.nlsw_decompose.self_s", "s", "lower"),
    ("lie.nlsw_decompose.terms_in", "count", "lower"),
    ("lie.nlsw_decompose.peak_terms", "count", "lower"),
    ("lie.expand.hit_ratio", "1", "higher"),
    ("lie.expand.cache_size", "count", "lower"),
    ("lie.bracket.calls", "count", "lower"),
    ("lie.bracket.cache_size", "count", "lower"),
    ("rules.self_s", "s", "lower"),
    ("rules.normal_s_word.calls", "count", "lower"),
    ("rules.normal_s_word.hit_ratio", "1", "higher"),
    ("rules.normal_s_word.cache_size", "count", "lower"),
    ("rules.special_bracket.calls", "count", "lower"),
    ("gsb.self_s", "s", "lower"),
    ("gsb.find_ambiguities.calls", "count", "lower"),
    ("gsb.find_ambiguities.self_s", "s", "lower"),
    ("gsb.find_ambiguities.rule_pairs", "count", "lower"),
    ("gsb.ambiguities.inclusion", "count", "lower"),
    ("gsb.ambiguities.intersection", "count", "lower"),
    ("gsb.composition.calls", "count", "lower"),
    ("gsb.composition.self_s", "s", "lower"),
    ("gsb.reduce.calls", "count", "lower"),
    ("gsb.reduce.self_s", "s", "lower"),
    ("gsb.reduce.steps", "count", "lower"),
    ("gsb.complete.rules_added", "count", "lower"),
    ("gsb.complete.compositions_per_rule", "1", "lower"),
    ("quotient.self_s", "s", "lower"),
    ("quotient.generate_relations.self_s", "s", "lower"),
    ("quotient.generate_relations.rules", "count", "lower"),
    ("quotient.irr_words.self_s", "s", "lower"),
    ("quotient.irr_words.screened", "count", "lower"),
    ("quotient.irr_words.kept_ratio", "1", "higher"),
    ("quotient.pc_normal_form.calls", "count", "lower"),
    ("quotient.pc_normal_form.self_s", "s", "lower"),
    ("quotient.pc_normal_form.rewrites", "count", "lower"),
    ("quotient.clique_series_dims.self_s", "s", "lower"),
    ("expr.self_s", "s", "lower"),
    ("expr.parse_expr.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


class Tracer:
    """Span store for one pass: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.jobs = []
        self.current = -1
        self.job = -1
        self.counts = {}
        self.word_constructions = 0
        self.output_bytes = 0
        self._caches = {}
        self.cache_hits = {}
        self.cache_misses = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def wrap(self, name, fn, on_return=None):
        names, starts, ends, parents, jobs = (
            self.names, self.starts, self.ends, self.parents, self.jobs
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(self.current)
            jobs.append(self.job)
            ends.append(0.0)
            self.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.current = parents[idx]
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, pclie_modules):
        """Patch the bindings, methods and counters; pclie_modules maps a
        short module name to the imported module."""
        m = pclie_modules
        # the owning modules' bindings are never patched, so these stay the
        # lru_cache objects
        self._caches = {name: getattr(m[mod], attr) for mod, attr, name in CACHES}
        hooks = {
            "gsb.complete": lambda a, r: self.count("rules_added", len(r) - len(a[0])),
            "gsb.find_ambiguities": self._on_ambiguities,
            "gsb.reduce": lambda a, r: self.count("reduce_steps", len(r.steps)),
            "quotient.generate_relations": lambda a, r: self.count("relations", len(r)),
            "quotient.irr_words": lambda a, r: self.count("irr_kept", len(r)),
            "words.enumerate_alsw": self._on_enumerate,
            "lie.nlsw_decompose": self._on_decompose,
        }
        for mod, attr, name in BINDINGS:
            setattr(m[mod], attr, self.wrap(name, getattr(m[mod], attr), hooks.get(name)))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(m[mod], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))

        # counting only: an intra-module call, kept out of the span tree
        special = m["rules"].special_bracket

        def counted_special(occ):
            self.count("special_bracket")
            return special(occ)

        m["rules"].special_bracket = counted_special

        word_cls = m["words"].Word
        word_init = word_cls.__init__

        def counted_init(word, alphabet, ranks):
            self.word_constructions += 1
            word_init(word, alphabet, ranks)

        word_cls.__init__ = counted_init

        return self.wrap("cli.main", m["cli"].main)

    def _on_ambiguities(self, args, result):
        self.count("rule_pairs", len(args[0]) ** 2)
        for amb in result:
            self.count("amb_" + amb.kind)

    def _on_enumerate(self, args, result):
        self.count("enumerated", len(result))
        if self.current >= 0 and self.names[self.current] == "quotient.irr_words":
            self.count("irr_screened", len(result))

    def _on_decompose(self, args, result):
        n = len(args[0].terms)
        self.count("terms_in", n)
        self.peak("peak_terms", n)

    # -- per-job cache accounting -----------------------------------------

    def cache_snapshot(self):
        return {name: fn.cache_info() for name, fn in self._caches.items()}

    def cache_delta(self, before):
        after = self.cache_snapshot()
        for name, info in after.items():
            self.cache_hits[name] = self.cache_hits.get(name, 0) + info.hits - before[name].hits
            self.cache_misses[name] = (
                self.cache_misses.get(name, 0) + info.misses - before[name].misses
            )

    # -- roll-up ----------------------------------------------------------

    def rollup(self, wall_s):
        """Per-layer metrics of the pass (trace.overhead_ratio is added by
        the caller, which has the untraced wall time)."""
        n = len(self.starts)
        self_time = [self.ends[i] - self.starts[i] for i in range(n)]
        root_time = 0.0
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_time[p] -= self.ends[i] - self.starts[i]
            else:
                root_time += self.ends[i] - self.starts[i]
        by_name, calls = {}, {}
        layer = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            name = self.names[i]
            by_name[name] = by_name.get(name, 0.0) + self_time[i]
            calls[name] = calls.get(name, 0) + 1
            layer[name.split(".", 1)[0]] += self_time[i]

        def under(name, ancestor):
            hits = 0
            for i in range(n):
                if self.names[i] != name:
                    continue
                p = self.parents[i]
                while p >= 0 and self.names[p] != ancestor:
                    p = self.parents[p]
                hits += p >= 0
            return hits

        def ratio(a, b):
            return a / b if b else 0.0

        def hit_ratio(name):
            h, mi = self.cache_hits.get(name, 0), self.cache_misses.get(name, 0)
            return ratio(h, h + mi)

        c = self.counts
        caches = self.cache_snapshot()
        added = c.get("rules_added", 0)
        return {
            "words.self_s": layer["words"],
            "words.enumerate_alsw.self_s": by_name.get("words.enumerate_alsw", 0.0),
            "words.enumerate_alsw.words": c.get("enumerated", 0),
            "words.word_constructions": self.word_constructions,
            "words.is_alsw.cache_size": caches["words.is_alsw"].currsize,
            "words.is_alsw.hit_ratio": hit_ratio("words.is_alsw"),
            "lie.self_s": layer["lie"],
            "lie.nlsw_decompose.calls": calls.get("lie.nlsw_decompose", 0),
            "lie.nlsw_decompose.self_s": by_name.get("lie.nlsw_decompose", 0.0),
            "lie.nlsw_decompose.terms_in": c.get("terms_in", 0),
            "lie.nlsw_decompose.peak_terms": c.get("peak_terms", 0),
            "lie.expand.hit_ratio": hit_ratio("lie.expand"),
            "lie.expand.cache_size": caches["lie.expand"].currsize,
            "lie.bracket.calls": calls.get("lie.bracket", 0),
            "lie.bracket.cache_size": caches["lie.bracket"].currsize,
            "rules.self_s": layer["rules"],
            "rules.normal_s_word.calls": calls.get("rules.normal_s_word", 0),
            "rules.normal_s_word.hit_ratio": hit_ratio("rules.normal_s_word"),
            "rules.normal_s_word.cache_size": caches["rules.normal_s_word"].currsize,
            "rules.special_bracket.calls": c.get("special_bracket", 0),
            "gsb.self_s": layer["gsb"],
            "gsb.find_ambiguities.calls": calls.get("gsb.find_ambiguities", 0),
            "gsb.find_ambiguities.self_s": by_name.get("gsb.find_ambiguities", 0.0),
            "gsb.find_ambiguities.rule_pairs": c.get("rule_pairs", 0),
            "gsb.ambiguities.inclusion": c.get("amb_inclusion", 0),
            "gsb.ambiguities.intersection": c.get("amb_intersection", 0),
            "gsb.composition.calls": calls.get("gsb.composition", 0),
            "gsb.composition.self_s": by_name.get("gsb.composition", 0.0),
            "gsb.reduce.calls": calls.get("gsb.reduce", 0),
            "gsb.reduce.self_s": by_name.get("gsb.reduce", 0.0),
            "gsb.reduce.steps": c.get("reduce_steps", 0),
            "gsb.complete.rules_added": added,
            "gsb.complete.compositions_per_rule": ratio(
                under("gsb.composition", "gsb.complete"), added
            ),
            "quotient.self_s": layer["quotient"],
            "quotient.generate_relations.self_s": by_name.get(
                "quotient.generate_relations", 0.0
            ),
            "quotient.generate_relations.rules": c.get("relations", 0),
            "quotient.irr_words.self_s": by_name.get("quotient.irr_words", 0.0),
            "quotient.irr_words.screened": c.get("irr_screened", 0),
            "quotient.irr_words.kept_ratio": ratio(
                c.get("irr_kept", 0), c.get("irr_screened", 0)
            ),
            "quotient.pc_normal_form.calls": calls.get("quotient.pc_normal_form", 0),
            "quotient.pc_normal_form.self_s": by_name.get("quotient.pc_normal_form", 0.0),
            "quotient.pc_normal_form.rewrites": under(
                "rules.normal_s_word", "quotient.pc_normal_form"
            ),
            "quotient.clique_series_dims.self_s": by_name.get(
                "quotient.clique_series_dims", 0.0
            ),
            "expr.self_s": layer["expr"],
            "expr.parse_expr.calls": calls.get("expr.parse_expr", 0),
            "cli.self_s": layer["cli"],
            "cli.output_bytes": self.output_bytes,
            "trace.unattributed_s": wall_s - root_time,
        }
