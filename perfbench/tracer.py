"""Spans at the boundaries between the package's modules, recorded from outside.

The tracer never edits the package.  While installed it replaces, in the
namespace of each layer module, every function that module imported from
another layer module (for example `verify.integrate_mellin` or
`zeta_family.zeta`), plus a few calls inside one module whose cost is a layer
metric of its own (`special.zeta`, `special._eta_borwein`, `verify.run_group`,
the kernel workspace).  Each replacement records a span -- name, start, end,
parent, run id -- in memory and updates work counters.  `uninstall` puts every
original back; `write` dumps the spans as JSON Lines once the run is over.

A span is named after the callee: `<layer>.<function>`.  A layer's self time
is the summed duration of its spans minus the time covered by their direct
children, so the self times of all layers add up to the duration of the root
spans.  Boundaries listed in BOUNDARIES that a refactor removes, and hooks
whose call no longer has the shape they read, are reported as absent; their
metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("arith", "special", "zeta_family", "kernels", "quadrature", "verify", "cli")
PACKAGE = "liouville_mellin"

# Calls inside one module that are metrics of their own.  Recursive calls
# (zeta through the functional equation, gamma through reflection,
# run_group("all") into each group) resolve through the module global, so
# they are spanned too.
INTRA_MODULE = (
    ("special", "zeta"),
    ("special", "gamma"),
    ("special", "_eta_borwein"),
    ("verify", "run_group"),
    ("kernels", "_Workspace.__init__"),
)

# The boundaries the per-layer metrics are derived from.  Each must exist at
# the commit that defined the benchmark; a later commit may drop some.
BOUNDARIES = (
    "cli.load_table", "cli.run_group",
    "verify.run_group", "verify.integrate_mellin", "verify.integrate_gamma_zeta_a",
    "verify._kernel_N_real_array", "verify._kernel_M_half_real_array",
    "verify._kernel_M_abel_real_array", "verify.kernel_N_with_bound",
    "verify.kernel_M_with_bound", "verify.kernel_M", "verify.residue_estimate",
    "verify.kernel_M_prime",
    "zeta_family.zeta", "zeta_family.gamma", "zeta_family.eta_continued",
    "special.zeta", "special.gamma", "special._eta_borwein",
    "special._borwein_order", "kernels._Workspace.__init__",
)

# span names (callee side) of each kernel route
KERNEL_ROUTES = {
    "M_plain_array": ("kernels._kernel_M_abel_real_array",),
    "N_array": ("kernels._kernel_N_real_array",),
    "M_half_array": ("kernels._kernel_M_half_real_array",),
    "point": ("kernels.kernel_N", "kernels.kernel_M", "kernels.kernel_N_with_bound",
              "kernels.kernel_M_with_bound"),
    "residue": ("kernels.residue_estimate",),
    "M_prime": ("kernels.kernel_M_prime",),
}
VERIFY_GROUPS = ("theorem1", "identity", "theorem2", "functional", "decay", "bounds")
SPECIAL_PARTS = {
    "zeta": ("special.zeta",),
    "gamma": ("special.gamma",),
    "eta": ("special._eta_borwein", "special.eta_continued", "special.zeta_alternating"),
}

# (name, unit, better, which end-to-end metric and workload it should move)
CERTIFY = "wall_s on certify-2e6"
ZETA = "wall_s on zeta-points; evals_per_s, eval_p50_us, eval_p99_us (recorded)"
TABLE = "cold_start_s on table-2e6 (not listed)"
PER_LAYER = (
    ("arith.build_table.s", "s", "lower", "setup_s on certify-2e6; " + TABLE),
    ("arith.save_table.s", "s", "lower", "setup_s on certify-2e6; " + TABLE),
    ("arith.save_table.MBps", "MB/s", "higher", "setup_s on certify-2e6; " + TABLE),
    ("arith.load_table.s", "s", "lower", "~1% of wall_s on certify-2e6; warm_start_s on table-2e6"),
    ("arith.load_table.MBps", "MB/s", "higher", "~1% of wall_s on certify-2e6"),
    ("arith.table.bytes", "bytes", "lower", "setup_s and ~1% of wall_s on certify-2e6"),
    ("arith.self_s", "s", "lower", "~1% of wall_s on certify-2e6 (the load)"),
    ("kernels.workspace.s", "s", "lower", "<1% of wall_s on certify-2e6; warm_start_s, table-2e6"),
    ("kernels.M_plain_array.nodes", "count", "lower", CERTIFY),
    ("kernels.M_plain_array.s", "s", "lower", CERTIFY),
    ("kernels.M_plain_array.ms_per_node", "ms", "lower", CERTIFY),
    ("kernels.N_array.nodes", "count", "lower", CERTIFY),
    ("kernels.N_array.terms", "count", "lower", CERTIFY),
    ("kernels.N_array.s", "s", "lower", CERTIFY),
    ("kernels.N_array.ns_per_term", "ns", "lower", CERTIFY),
    ("kernels.M_half_array.nodes", "count", "lower", CERTIFY),
    ("kernels.M_half_array.terms", "count", "lower", CERTIFY),
    ("kernels.M_half_array.s", "s", "lower", CERTIFY),
    ("kernels.M_half_array.ns_per_term", "ns", "lower", CERTIFY),
    ("kernels.point.calls", "count", "lower", CERTIFY),
    ("kernels.point.s", "s", "lower", "wall_s on certify-2e6; warm_start_s on table-2e6"),
    ("kernels.residue.calls", "count", "lower", CERTIFY),
    ("kernels.residue.s", "s", "lower", CERTIFY),
    ("kernels.M_prime.calls", "count", "lower", CERTIFY),
    ("kernels.M_prime.terms", "count", "lower", CERTIFY),
    ("kernels.M_prime.s", "s", "lower", CERTIFY),
    ("kernels.self_s", "s", "lower", CERTIFY),
    ("quadrature.integrals", "count", "lower", CERTIFY),
    ("quadrature.panels", "count", "lower", CERTIFY),
    ("quadrature.nodes_requested", "count", "lower", CERTIFY),
    ("quadrature.memo_hit_ratio", "ratio", "higher", CERTIFY),
    ("quadrature.self_s", "s", "lower", CERTIFY),
    ("special.zeta.calls", "count", "lower", ZETA),
    ("special.zeta.self_s", "s", "lower", ZETA),
    ("special.gamma.calls", "count", "lower", ZETA),
    ("special.gamma.self_s", "s", "lower", ZETA),
    ("special.eta.calls", "count", "lower", ZETA),
    ("special.eta.terms", "count", "lower", ZETA),
    ("special.eta.self_s", "s", "lower", ZETA),
    ("special.self_s", "s", "lower", "wall_s on zeta-points; <1% of wall_s on certify-2e6"),
    ("zeta_family.calls", "count", "lower", ZETA),
    ("zeta_family.self_s", "s", "lower", "wall_s on zeta-points; <1% of wall_s on certify-2e6"),
    ("verify.theorem1.s", "s", "lower", CERTIFY),
    ("verify.identity.s", "s", "lower", CERTIFY),
    ("verify.theorem2.s", "s", "lower", CERTIFY),
    ("verify.functional.s", "s", "lower", CERTIFY),
    ("verify.decay.s", "s", "lower", CERTIFY),
    ("verify.bounds.s", "s", "lower", CERTIFY),
    ("verify.checks", "count", "higher", "error_rate on certify-2e6"),
    ("verify.checks_failed", "count", "lower", "error_rate on certify-2e6"),
    ("verify.self_s", "s", "lower", CERTIFY),
    ("cli.self_s", "s", "lower", "wall_s on certify-2e6 (small)"),
    ("cli.report_bytes", "bytes", "lower", "wall_s on certify-2e6 (small)"),
    ("trace.wall_s", "s", "lower", "none: the traced pass itself"),
    ("trace.self_sum_s", "s", "lower", "none: sum of every layer's self time"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
    ("trace.spans", "count", "lower", "none: spans recorded in the traced pass"),
    ("trace.absent_boundaries", "count", "lower", "none: boundaries a refactor removed"),
)

# derived from array lengths and the kernel config, not counted inside the program
COMPUTED = ("kernels.N_array.terms", "kernels.M_half_array.terms",
            "kernels.M_prime.terms", "special.eta.terms")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, before=None, after=None, label=None):
        """`fn` recording a span named `name` per call.

        before(args, kwargs) -> (args, kwargs) runs ahead of the span,
        label(args, kwargs) -> str renames it, and after(args, kwargs, result)
        runs once it has ended.  A hook that no longer fits the call it
        watches marks `name` as broken instead of failing the call.
        """
        spans, stack, broken = self.spans, self._stack, self.broken

        def hook(fn_hook, *hook_args):
            try:
                return fn_hook(*hook_args)
            except (LookupError, TypeError, AttributeError, ValueError):
                broken.add(name)
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = hook(before, args, kwargs) or (args, kwargs)
            span_name = (label is not None and hook(label, args, kwargs)) or name
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [span_name, 0.0, 0.0, parent, spans[parent][4] if parent >= 0 else index]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, before=None, after=None, label=None) -> None:
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        self._patches.append((owner, leaf, original))
        setattr(owner, leaf, self.wrap(original, name, before, after, label))

    def install(self) -> None:
        """Patch every cross-module import and the INTRA_MODULE calls."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        hooks = _hooks(self, modules)
        targets = []
        for layer, module in modules.items():
            for attr, value in sorted(vars(module).items()):
                callee = getattr(value, "__module__", "") or ""
                if (isinstance(value, types.FunctionType) and callee.startswith(PACKAGE + ".")
                        and callee != module.__name__):
                    targets.append((layer, attr, callee.rsplit(".", 1)[1]))
        for layer, attr in INTRA_MODULE:
            if _resolve(modules[layer], attr) is not None:
                targets.append((layer, attr, layer))
        for layer, attr, callee_layer in targets:
            func = attr.split(".")[0] if "." in attr else attr
            name = f"{callee_layer}.{_span_suffix(func)}"
            before, after, label = hooks.get(func, (None, None, None))
            self.patch(modules[layer], attr, name, before, after, label)
        self.absent = [b for b in BOUNDARIES
                       if _resolve(modules[b.split(".")[0]], b.split(".", 1)[1]) is None]

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _resolve(module, attr: str):
    owner = module
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def _span_suffix(func: str) -> str:
    return "workspace" if func == "_Workspace" else func


def _table_terms(table, n_terms: int) -> int:
    return min(n_terms, (table.limit - 1) // 2 + 1)


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Per-function (before, after, span name) hooks that feed the counters."""
    count = tracer.count
    kernels, special = modules["kernels"], modules["special"]
    borwein_order = getattr(special, "_borwein_order", None)

    def config_of(args):
        config = args[2] if len(args) > 2 else None
        return config if config is not None else kernels.config_for_table(args[1])

    def n_array(args, kwargs, result):
        count("kernels.N_array.nodes", len(args[0]))
        count("kernels.N_array.terms", len(args[0]) * config_of(args).n_terms_N)

    def m_half_array(args, kwargs, result):
        count("kernels.M_half_array.nodes", len(args[0]))
        count("kernels.M_half_array.terms",
              len(args[0]) * _table_terms(args[1], config_of(args).n_terms_M))

    def m_plain_array(args, kwargs, result):
        count("kernels.M_plain_array.nodes", len(args[0]))

    def m_prime(args, kwargs, result):
        count("kernels.M_prime.terms", _table_terms(args[1], config_of(args).n_terms_M))

    def panels(args, kwargs, result):
        count("quadrature.panels", result.panels_used)

    def integrand_counter(args, kwargs):
        integrand = args[0]

        def requested(x):
            count("quadrature.nodes_requested", len(x))
            return integrand(x)

        layer = type(integrand).__module__.rsplit(".", 1)[-1]
        return (tracer.wrap(requested, f"{layer}.integrand"),) + args[1:], kwargs

    def eta_terms(args, kwargs, result):
        if borwein_order is not None:
            config = args[1] if len(args) > 1 else kwargs["config"]
            count("special.eta.terms", borwein_order(args[0], config))

    def group_label(args, kwargs):
        return f"verify.run_group[{args[0]}]"

    def checks(args, kwargs, result):
        if args[0] == "all":
            count("verify.checks", len(result))
            count("verify.checks_failed", sum(1 for r in result if not r.passed))

    return {
        "_kernel_N_real_array": (None, n_array, None),
        "_kernel_M_half_real_array": (None, m_half_array, None),
        "_kernel_M_abel_real_array": (None, m_plain_array, None),
        "kernel_M_prime": (None, m_prime, None),
        "integrate_mellin": (integrand_counter, panels, None),
        "integrate_gamma_zeta_a": (None, panels, None),
        "_eta_borwein": (None, eta_terms, None),
        "run_group": (None, checks, group_label),
    }


def per_layer_metrics(tracer: Tracer, setup: Tracer, table_bytes: int,
                      report_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric but trace.wall_s and trace.overhead_s.

    `tracer` holds the traced pass.  `setup` holds a traced set-up, which
    only certify-2e6 runs in process (the sieve and save of its table); it
    adds to the arith stage times and to nothing else.  table_bytes and
    report_bytes are the sizes of the table file and of the report the pass
    wrote, measured on disk by the caller.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for (name, start, end, _, _), mine in zip(tracer.spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + mine
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += mine
            layer_calls[layer] += 1

    def tot(names):
        return sum(total.get(n, 0.0) for n in names)

    def ncalls(names):
        return sum(calls.get(n, 0) for n in names)

    c = tracer.counts
    m: dict[str, float] = {}
    for stage in ("build_table", "save_table", "load_table"):
        m[f"arith.{stage}.s"] = tot((f"arith.{stage}",)) + sum(
            end - start for name, start, end, _, _ in setup.spans if name == f"arith.{stage}")
    m["arith.table.bytes"] = table_bytes
    m["arith.save_table.MBps"] = _ratio(table_bytes / 1e6, m["arith.save_table.s"])
    m["arith.load_table.MBps"] = _ratio(table_bytes / 1e6, m["arith.load_table.s"])
    m["kernels.workspace.s"] = tot(("kernels.workspace",))
    for route, names in KERNEL_ROUTES.items():
        m[f"kernels.{route}.s"] = tot(names)
    for route in ("M_plain_array", "N_array", "M_half_array"):
        m[f"kernels.{route}.nodes"] = c.get(f"kernels.{route}.nodes", 0)
    for route in ("N_array", "M_half_array"):
        m[f"kernels.{route}.terms"] = c.get(f"kernels.{route}.terms", 0)
        m[f"kernels.{route}.ns_per_term"] = _ratio(1e9 * m[f"kernels.{route}.s"],
                                                   m[f"kernels.{route}.terms"])
    m["kernels.M_plain_array.ms_per_node"] = _ratio(1e3 * m["kernels.M_plain_array.s"],
                                                    m["kernels.M_plain_array.nodes"])
    for route in ("point", "residue", "M_prime"):
        m[f"kernels.{route}.calls"] = ncalls(KERNEL_ROUTES[route])
    m["kernels.M_prime.terms"] = c.get("kernels.M_prime.terms", 0)

    evaluated = sum(m[f"kernels.{r}.nodes"] for r in ("M_plain_array", "N_array", "M_half_array"))
    requested = c.get("quadrature.nodes_requested", 0)
    m["quadrature.integrals"] = ncalls(("quadrature.integrate_mellin",
                                        "quadrature.integrate_gamma_zeta_a"))
    m["quadrature.panels"] = c.get("quadrature.panels", 0)
    m["quadrature.nodes_requested"] = requested
    m["quadrature.memo_hit_ratio"] = 1.0 - evaluated / requested if requested else 0.0

    for part, names in SPECIAL_PARTS.items():
        m[f"special.{part}.self_s"] = sum(self_by_name.get(n, 0.0) for n in names)
    m["special.zeta.calls"] = ncalls(("special.zeta",))
    m["special.gamma.calls"] = ncalls(("special.gamma",))
    m["special.eta.calls"] = ncalls(("special._eta_borwein",))
    m["special.eta.terms"] = c.get("special.eta.terms", 0)
    m["zeta_family.calls"] = layer_calls["zeta_family"]

    for group in VERIFY_GROUPS:
        m[f"verify.{group}.s"] = tot((f"verify.run_group[{group}]",))
    m["verify.checks"] = c.get("verify.checks", 0)
    m["verify.checks_failed"] = c.get("verify.checks_failed", 0)
    m["cli.report_bytes"] = report_bytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.self_sum_s"] = sum(layer_self.values())
    m["trace.spans"] = len(tracer.spans)
    m["trace.absent_boundaries"] = len(tracer.absent) + len(tracer.broken)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
