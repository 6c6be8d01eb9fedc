"""Outside-in tracer for magorder: wraps public functions where callers look
them up, records call counts and self time per function, and spans for the
coarse calls of each replication.

Nothing inside the library changes.  ``Tracer.install`` replaces every
module attribute of ``magorder.*`` that is one of the traced functions (so
``magorder.discovery.inducing_path_exists`` and ``magorder.search.
markov_boundaries`` are both caught), plus two methods on their classes,
and ``Tracer.uninstall`` puts the originals back.  A traced name that no
longer exists is an error, so a rename in the library cannot silently zero
a counter.

Self time of a call is its duration minus the time spent in wrapped calls
made from inside it.  Functions called thousands of times per replication
(``ancestors`` more than 1e5) only update counters; coarse calls also
append a span
``(id, parent id, name, replication, start, end)`` to an in-memory list.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, stat name, records a span); "Class.method" patches the
# method on the class.
TARGETS = (
    ("magorder.graph", "ancestors", "graph.ancestors", False),
    ("magorder.graph", "inducing_path_exists", "graph.inducing_path", False),
    ("magorder.graph", "m_separated", "graph.m_separated", False),
    ("magorder.ci", "CiTester.test", "ci.test", False),
    ("magorder.ci", "markov_boundaries", "ci.markov_boundaries", True),
    ("magorder.discovery", "NeighborFinder.neighbor_mask",
     "discovery.neighbor_mask", False),
    ("magorder.discovery", "cost_vector", "discovery.cost_vector", False),
    ("magorder.discovery", "learn_skeleton", "discovery.learn_skeleton", True),
    ("magorder.discovery", "orient", "discovery.orient", True),
    ("magorder.search", "initialize_order", "search.initialize_order", True),
    ("magorder.search", "hill_climb", "search.hill_climb", True),
    ("magorder.search", "value_iteration", "search.value_iteration", True),
    ("magorder.data", "erdos_renyi_dag", "data.erdos_renyi_dag", True),
    ("magorder.data", "load_bundled", "data.load_bundled", True),
    ("magorder.data", "make_latent_instance", "data.make_latent_instance",
     True),
    ("magorder.data", "random_sem", "data.random_sem", True),
    ("magorder.data", "standardize_sem", "data.standardize_sem", True),
    ("magorder.data", "sample_sem", "data.sample_sem", True),
    ("magorder.data", "score", "data.score", True),
    ("magorder.cli", "run", "cli.run", True),
    ("magorder.cli", "_run_replication", "cli.replication", True),
)

# Instance generation: the data functions that cli calls before searching.
INSTANCE = ("data.erdos_renyi_dag", "data.load_bundled",
            "data.make_latent_instance", "data.random_sem",
            "data.standardize_sem", "data.sample_sem")


class Stat:
    """Counters for one traced function."""

    __slots__ = ("calls", "incl", "self", "raised")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.raised = {}


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``stats``, ``spans`` and
    the per-replication lists after the block."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.rep = None
        # Distinct (x, remaining) neighbor queries, cleared per replication.
        self.seen_queries = set()
        self.distinct_per_rep = []
        self.windows = 0
        self.accepted_swaps = 0
        self.vi_states = 0
        self._children = [0.0]
        self._open = [None]
        self._origin = time.perf_counter()
        self._patched = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        hooks = {
            "discovery.neighbor_mask": (self._before_neighbor_mask, None),
            "discovery.cost_vector": (self._before_cost_vector, None),
            "search.hill_climb": (None, self._after_hill_climb),
            "search.value_iteration": (None, self._after_value_iteration),
            "cli.replication": (self._before_replication,
                                self._after_replication),
        }
        for module_name, attr, name, span in TARGETS:
            before, after = hooks.get(name, (None, None))
            self.stats[name] = Stat()
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__.get(meth)
                if original is None:
                    raise RuntimeError(f"trace target missing: "
                                       f"{module_name}.{attr}")
                self._patch(owner, meth, original,
                            self._wrap(original, name, span, before, after))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise RuntimeError(f"trace target missing: "
                                   f"{module_name}.{attr}")
            wrapper = self._wrap(original, name, span, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "magorder" and not mod_name.startswith(
                        "magorder."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, original, wrapper):
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, span, before, after):
        st = self.stats[name]
        children = self._children
        opened = self._open
        spans = self.spans
        clock = time.perf_counter
        origin = self._origin
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = opened[-1]
                opened.append(sid)
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                st.raised[kind] = st.raised.get(kind, 0) + 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                st.calls += 1
                st.incl += dt
                st.self += dt - children.pop()
                children[-1] += dt
                if span:
                    opened.pop()
                    spans[sid] = (sid, parent, name, tracer.rep,
                                  t0 - origin, t1 - origin)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _before_neighbor_mask(self, args, kwargs):
        self.seen_queries.add((args[1], args[2]))

    def _before_cost_vector(self, args, kwargs):
        if "last" in kwargs or len(args) > 3:
            self.windows += 1

    def _after_hill_climb(self, args, kwargs, result):
        self.accepted_swaps += len(result.trace) - 1

    def _after_value_iteration(self, args, kwargs, result):
        self.vi_states += int((result.actions >= 0).sum())

    def _before_replication(self, args, kwargs):
        self.rep = args[1]
        self.seen_queries.clear()

    def _after_replication(self, args, kwargs, result):
        self.distinct_per_rep.append(len(self.seen_queries))
        self.seen_queries.clear()
        self.rep = None

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rows):
        """Per-replication means of the per-layer metrics for ``rows``,
        the report rows of the traced run."""
        reps = len(rows)
        st = self.stats

        def per_rep(value):
            return value / reps

        def ratio(num, den):
            return num / den if den else 0.0

        def calls(name):
            return per_rep(st[name].calls)

        def self_s(name):
            return per_rep(st[name].self)

        def incl_s(name):
            return per_rep(st[name].incl)

        test_calls = st["ci.test"].calls
        evaluated = sum(r["ci_tests"] or 0 for r in rows)
        nm_calls = st["discovery.neighbor_mask"].calls
        distinct = sum(self.distinct_per_rep)
        conflicts = sum(r["orientation_conflict"] is not None for r in rows)
        # Harness time: run and replication time outside every wrapped call.
        overhead = st["cli.run"].self + st["cli.replication"].self
        return {
            "graph.ancestors.calls": calls("graph.ancestors"),
            "graph.ancestors.self_s": self_s("graph.ancestors"),
            "graph.inducing_path.calls": calls("graph.inducing_path"),
            "graph.inducing_path.self_s": self_s("graph.inducing_path"),
            "graph.m_separated.calls": calls("graph.m_separated"),
            "graph.m_separated.self_s": self_s("graph.m_separated"),
            "ci.test.calls": calls("ci.test"),
            "ci.evaluated": per_rep(evaluated),
            "ci.cache_hit_ratio": ratio(test_calls - evaluated, test_calls),
            "ci.test.self_s": self_s("ci.test"),
            "ci.markov_boundaries.calls": calls("ci.markov_boundaries"),
            "ci.markov_boundaries.s": incl_s("ci.markov_boundaries"),
            "discovery.neighbor_mask.calls": per_rep(nm_calls),
            "discovery.neighbor_mask.distinct": per_rep(distinct),
            "discovery.memo_hit_ratio": ratio(nm_calls - distinct, nm_calls),
            "discovery.neighbor_mask.self_s": self_s(
                "discovery.neighbor_mask"),
            "discovery.cost_vector.calls": calls("discovery.cost_vector"),
            "discovery.cost_vector.self_s": self_s("discovery.cost_vector"),
            "discovery.learn_skeleton.s": incl_s("discovery.learn_skeleton"),
            "discovery.orient.s": incl_s("discovery.orient"),
            "discovery.orient.conflicts": per_rep(conflicts),
            "search.initialize_order.s": incl_s("search.initialize_order"),
            "search.hill_climb.self_s": self_s("search.hill_climb"),
            "search.hc.swaps_tried": per_rep(self.windows),
            "search.hc.swaps_accepted": per_rep(self.accepted_swaps),
            "search.hc.accept_ratio": ratio(self.accepted_swaps,
                                            self.windows),
            "search.value_iteration.self_s": self_s("search.value_iteration"),
            "search.vi.states": per_rep(self.vi_states),
            "cli.instance.s": per_rep(sum(st[n].incl for n in INSTANCE)),
            "data.score.s": incl_s("data.score"),
            "cli.overhead_s": per_rep(overhead),
        }

    def span_records(self):
        keys = ("id", "parent", "name", "rep", "start_s", "end_s")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]

    def counter_records(self):
        return {name: {"calls": st.calls, "incl_s": st.incl,
                       "self_s": st.self, "raised": dict(st.raised)}
                for name, st in self.stats.items()}
