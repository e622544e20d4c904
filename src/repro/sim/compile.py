"""Compiled netlist kernel: levelized static scheduling + generated step.

The ``"compiled"`` scheduler turns the declared sensitivity graph that the
event kernel interprets at runtime into a *schedule computed once at
elaboration*, the way Verilator levelizes a netlist:

1. **Levelization** (:func:`levelize`). Every declared comb module is a
   node; a module that :meth:`~repro.sim.module.Module.drives` a signal
   another module is :meth:`~repro.sim.module.Module.sensitive_to` gets an
   edge to that reader. Tarjan's algorithm condenses the graph into
   strongly connected components; acyclic components are ranked by longest
   path from the sources (their *level*), while every true combinational
   cycle — a multi-module SCC or a self-loop — is demoted, alone, to a
   stage of its own at its level. Modules that declared no sensitivity
   at all stay on the every-pass fallback, exactly as under the event
   kernel. Every levelized module is numbered in stage order, then
   elaboration order (its *rank*).

2. **Code generation** (:func:`compile_kernel`). From the schedule we
   assemble the source of one fused per-cycle ``step`` function and
   ``exec`` it with the schedule's objects bound into its namespace:
   bound ``seq`` methods, the fallback module tuples, the signals read by
   the declared seq-idle guards. The generated function contains,
   straight line: the settle — the event kernel's work-list delta loop,
   each pass sorted by rank so that it evaluates drivers before their
   readers, and a demoted SCC iterating across passes under the same
   ``max_delta`` bound — the bound ``seq()`` calls in elaboration order,
   each wrapped in its module's inlined ``seq_idle_when`` guard when one
   was declared, and an inlined register commit replicating
   ``Signal._commit``. Like the event kernel, a quiescent cycle skips
   the settle, and on a warp-eligible design a quiet one calls the
   event kernel's time-warp poll, ``Simulator._warp``. The generated
   code is only what the schedule decides; every module behaviour it
   runs is that module's own method.

3. **Schedule caching**. Campaigns and sweeps build many structurally
   identical deployments that differ only by seed or fault plan. The
   generated source is *topology-pure* — it references objects through
   interned namespace slots, never through instance names — so the
   levelization + codegen + ``compile()`` work is cached in-process,
   keyed on a structural fingerprint of the design
   (:func:`schedule_key`). A cache hit re-binds the cached code object
   against the new instance's modules/signals via the recorded *binding
   recipe* and ``exec``\\ s it — microseconds instead of milliseconds.

Correctness story: ``comb()`` processes are required to be idempotent and
confluent (the contract the tests' declaration audit checks on the event
kernel), so evaluation *order* only affects how many delta passes are
needed, never the settled values reached. The generated settle iterates
until the work-list drains, so even a wrong rank assignment (missing
``drives()`` declarations, say) costs extra passes, not wrong values.
Sequential order, commit order and hook order are preserved exactly.

The compile is lazy — it happens on the first ``step()`` — so profiling
wrappers installed by ``enable_profiling()`` are captured. The binding
recipe resolves ``module.seq`` per instance, so a profiled simulator
binds the same cached schedule and runs the same source as an
unprofiled one; enabling profiling after stepping invalidates the
kernel and forces a rebind.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CombinationalLoopError, SimulationError
from repro.sim.module import Module
from repro.sim.signal import Signal


class Stage:
    """One settle stage: a rank of independent modules or a demoted SCC."""

    __slots__ = ("modules", "iterative", "level")

    def __init__(self, modules: Sequence[Module], iterative: bool, level: int):
        self.modules = tuple(modules)
        self.iterative = iterative
        self.level = level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "scc" if self.iterative else "rank"
        return f"<Stage {kind} level={self.level} n={len(self.modules)}>"


class Levelization:
    """The static schedule: ordered stages plus the fallback lists."""

    def __init__(self, stages: List[Stage], always: List[Module],
                 dynamic: List[Module]):
        self.stages = stages
        self.always = list(always)
        self.dynamic = list(dynamic)

    @property
    def rank_count(self) -> int:
        return len(self.stages)

    @property
    def demoted_sccs(self) -> int:
        return sum(1 for s in self.stages if s.iterative)


def _tarjan(nodes: Sequence[Module],
            adj: Dict[int, List[Module]]) -> List[List[Module]]:
    """Tarjan SCC, iterative (module graphs can outgrow Python's stack).

    Returns the components in reverse topological order of the
    condensation (every successor component before its predecessors).
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[Module] = []
    sccs: List[List[Module]] = []
    counter = 0
    for root in nodes:
        if id(root) in index:
            continue
        work: List[Tuple[Module, int]] = [(root, 0)]
        while work:
            node, edge_i = work.pop()
            nid = id(node)
            if edge_i == 0:
                index[nid] = low[nid] = counter
                counter += 1
                stack.append(node)
                on_stack[nid] = True
            advanced = False
            succs = adj.get(nid, ())
            while edge_i < len(succs):
                succ = succs[edge_i]
                sid = id(succ)
                edge_i += 1
                if sid not in index:
                    work.append((node, edge_i))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(sid):
                    if low[sid] < low[nid]:
                        low[nid] = low[sid]
            if advanced:
                continue
            if low[nid] == index[nid]:
                comp: List[Module] = []
                while True:
                    top = stack.pop()
                    on_stack[id(top)] = False
                    comp.append(top)
                    if top is node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                pid = id(parent)
                if low[nid] < low[pid]:
                    low[pid] = low[nid]
    return sccs


def levelize(declared: Sequence[Module], always: Sequence[Module],
             dynamic: Sequence[Module]) -> Levelization:
    """Rank the declared comb modules by their drives → sensitivity edges."""
    by_id = {id(m): m for m in declared}
    adj: Dict[int, List[Module]] = {}
    self_loops = set()   # module drives a signal it is sensitive to
    for module in declared:
        out: List[Module] = []
        seen = set()
        for sig in (module._drives or ()):
            for reader in sig._fanout:
                rid = id(reader)
                if reader is module:
                    self_loops.add(rid)
                    continue
                if rid not in by_id or rid in seen:
                    continue
                seen.add(rid)
                out.append(reader)
        adj[id(module)] = out
    sccs = _tarjan(list(declared), adj)
    scc_of: Dict[int, int] = {}
    for ci, comp in enumerate(sccs):
        for m in comp:
            scc_of[id(m)] = ci
    # Tarjan emits components in reverse topological order; walking the
    # emission list backwards visits predecessors before successors, so a
    # single sweep computes longest-path levels.
    level = [0] * len(sccs)
    for ci in range(len(sccs) - 1, -1, -1):
        for m in sccs[ci]:
            for succ in adj[id(m)]:
                si = scc_of[id(succ)]
                if si != ci and level[ci] + 1 > level[si]:
                    level[si] = level[ci] + 1
    # A component is a true combinational cycle (and demoted to a stage of
    # its own) when it has several members or a self-loop.
    stages: List[Stage] = []
    plain: Dict[int, List[Module]] = {}
    for ci, comp in enumerate(sccs):
        module = comp[0]
        cyclic = len(comp) > 1 or id(module) in self_loops
        if cyclic:
            comp.sort(key=lambda m: m._order)
            stages.append(Stage(comp, True, level[ci]))
        else:
            plain.setdefault(level[ci], []).append(module)
    for lvl, mods in plain.items():
        mods.sort(key=lambda m: m._order)
        stages.append(Stage(mods, False, lvl))
    stages.sort(key=lambda s: (s.level, s.modules[0]._order))
    return Levelization(stages, list(always), list(dynamic))


# ----------------------------------------------------------------------
# binding: interning objects with structural (re-resolvable) addresses
# ----------------------------------------------------------------------

class _Binder:
    """Interns objects into the generated function's namespace.

    Alongside the live ``namespace`` it records a *recipe* — a structural
    address per interned name — so a cached code object can be re-bound
    against a different (topology-identical) simulator instance. Interning
    an object without a structural address poisons cacheability (the
    kernel still compiles; it just cannot be shared).
    """

    def __init__(self, prefix: str, addr_of: Dict[int, tuple]):
        self.prefix = prefix
        self.names: Dict[int, str] = {}
        self.namespace: Dict[str, object] = {}
        self.recipe: Dict[str, tuple] = {}
        self._addr_of = addr_of
        self.cacheable = True

    def __call__(self, obj: object) -> str:
        name = self.names.get(id(obj))
        if name is None:
            name = f"_{self.prefix}{len(self.names)}"
            self.names[id(obj)] = name
            self.namespace[name] = obj
            addr = self._addr_of.get(id(obj))
            if addr is None:
                self.cacheable = False
            else:
                self.recipe[name] = addr
        return name


# ----------------------------------------------------------------------
# seq-idle guard expressions
# ----------------------------------------------------------------------

def _attr_expr(mod_name: str, path: str) -> str:
    if not path or not all(p.isidentifier() for p in path.split(".")):
        raise SimulationError(f"bad attribute path in seq_idle_when: {path!r}")
    return f"{mod_name}.{path}"


def _guard_expr(module: Module, mod_name: str,
                bind: "_Binder") -> Optional[str]:
    """The inlined idle conjunction for one module, or None (always run)."""
    terms = module._seq_idle
    if not terms:
        return None
    parts: List[str] = []
    for term in terms:
        kind = term[0]
        # Attribute-path kinds accept an optional explicit base object
        # (("falsy", obj, "path")) for guards that read another module's
        # state — e.g. a sink whose READY policy closes over its owner.
        if kind in ("falsy", "truthy", "none") and len(term) == 3:
            base, path = bind(term[1]), term[2]
            if kind == "falsy":
                parts.append(f"not {_attr_expr(base, path)}")
            elif kind == "truthy":
                parts.append(_attr_expr(base, path))
            else:
                parts.append(f"{_attr_expr(base, path)} is None")
            continue
        if kind == "low":
            sig = term[1]
            if not isinstance(sig, Signal):
                raise SimulationError(
                    f"{module.name}: ('low', …) wants a Signal, got {sig!r}")
            parts.append(f"not {bind(sig)}._value")
        elif kind == "nofire":
            ch = term[1]
            valid = getattr(ch, "valid", None)
            ready = getattr(ch, "ready", None)
            if not isinstance(valid, Signal) or not isinstance(ready, Signal):
                raise SimulationError(
                    f"{module.name}: ('nofire', …) wants a Channel, got {ch!r}")
            parts.append(
                f"not ({bind(valid)}._value and {bind(ready)}._value)")
        elif kind == "falsy":
            parts.append(f"not {_attr_expr(mod_name, term[1])}")
        elif kind == "truthy":
            parts.append(_attr_expr(mod_name, term[1]))
        elif kind == "none":
            parts.append(f"{_attr_expr(mod_name, term[1])} is None")
        elif kind == "sync":
            parts.append(f"{_attr_expr(mod_name, term[1])} == "
                         f"{_attr_expr(mod_name, term[2])}")
        else:
            raise SimulationError(
                f"{module.name}: unknown seq_idle_when term kind {kind!r}")
    return " and ".join(parts)


# Guard expression source → factory(module, *objects) returning the hint
# closure; modules of one class share their guard's shape, so each shape
# is exec'd once per process.
_HINT_FACTORIES: Dict[str, object] = {}


def _opaque_hint(cycle: int) -> int:
    return cycle


def guard_hint(module: Module):
    """``next_wake(cycle)`` read off ``module``'s ``seq_idle_when`` guard.

    The guard compiles to one Python expression, so a poll costs a call
    and the guard's attribute reads: ``None`` while it holds, ``cycle``
    otherwise. Without a guard the hint is always ``cycle`` (opaque).
    """
    objects: List[object] = []

    def bind(obj) -> str:
        for i, known in enumerate(objects):
            if known is obj:
                return f"_o{i}"
        objects.append(obj)
        return f"_o{len(objects) - 1}"

    expr = _guard_expr(module, "_m", bind)
    if expr is None:
        return _opaque_hint
    factory = _HINT_FACTORIES.get(expr)
    if factory is None:
        args = ", ".join(["_m"] + [f"_o{i}" for i in range(len(objects))])
        ns: Dict[str, object] = {}
        exec(f"def _factory({args}):\n"
             f"    def next_wake(cycle):\n"
             f"        return None if ({expr}) else cycle\n"
             f"    return next_wake\n", ns)
        factory = _HINT_FACTORIES[expr] = ns["_factory"]
    return factory(module, *objects)


# ----------------------------------------------------------------------
# structural fingerprint (the cache key)
# ----------------------------------------------------------------------

def _structural_maps(sim) -> Tuple[Dict[int, tuple], Dict[int, tuple]]:
    """Maps id(module)/id(signal) → structural address within ``sim``.

    Modules address as ``("module", order)``; signals as
    ``("signal", owner_order, index)`` (first owner wins for adopted
    signals — deterministic, since both fingerprinting and re-binding walk
    modules in elaboration order).
    """
    mod_addr: Dict[int, tuple] = {}
    sig_addr: Dict[int, tuple] = {}
    for module in sim.modules:
        mod_addr[id(module)] = ("module", module._order)
        for idx, sig in enumerate(module._signals):
            sig_addr.setdefault(id(sig), ("signal", module._order, idx))
    return mod_addr, sig_addr


def _term_key(term: tuple, mod_addr, sig_addr) -> Optional[tuple]:
    kind = term[0]
    if kind in ("falsy", "truthy", "none") and len(term) == 3:
        base = mod_addr.get(id(term[1]))
        if base is None:
            return None
        return (kind, base, term[2])
    if kind == "low":
        addr = sig_addr.get(id(term[1]))
        return None if addr is None else (kind, addr)
    if kind == "nofire":
        ch = term[1]
        va = sig_addr.get(id(getattr(ch, "valid", None)))
        ra = sig_addr.get(id(getattr(ch, "ready", None)))
        if va is None or ra is None:
            return None
        return (kind, va, ra)
    if kind in ("falsy", "truthy", "none"):
        return (kind, term[1])
    if kind == "sync":
        return (kind, term[1], term[2])
    return None


# Class → (qualified name, comb overridden, seq overridden), computed once
# per class: the key is taken for every simulator of a sweep, so the
# per-module work matters.
_CLASS_FACTS: Dict[type, tuple] = {}


def schedule_key(sim) -> Optional[tuple]:
    """A hashable fingerprint of everything the generated source depends on.

    Two simulators with equal keys are *structurally identical*: same
    module classes in the same order, same signal layout, same declared
    sensitivity/drives/guard graph — so they levelize to the same schedule
    and generate byte-identical source. Returns None when the design uses
    a construct the fingerprint cannot address (the kernel then simply
    isn't cached).
    """
    # Fingerprint-only addressing: signals encode as compact ints
    # (owner_order * 2**20 + index) rather than the recipe's
    # ("signal", order, idx) tuples — the key is hashed and compared,
    # never resolved, so the cheaper encoding is free speed on the
    # disk-hit path. Module addresses (only consulted by seq_idle guard
    # terms) are built lazily for the same reason. Nothing here reads a
    # module's ``__dict__``: on CPython 3.11 that materializes the
    # instance dict, which slows every attribute access on the module
    # for the rest of its run.
    modules = sim.modules
    sig_addr: Dict[int, int] = {}
    sig_put = sig_addr.setdefault
    for module in modules:
        base = module._order << 20
        idx = 0
        for sig in module._signals:
            sig_put(id(sig), base + idx)
            idx += 1
    mod_addr: Optional[Dict[int, int]] = None
    sig_get = sig_addr.get
    entries: List[tuple] = []
    emit = entries.append
    class_facts = _CLASS_FACTS
    for module in modules:
        cls = type(module)
        facts = class_facts.get(cls)
        if facts is None:
            facts = class_facts[cls] = (
                f"{cls.__module__}.{cls.__qualname__}",
                cls.comb is not Module.comb,
                cls.seq is not Module.seq)
        cls_name, comb_overridden, seq_overridden = facts
        sens: Optional[tuple]
        if module._sensitivity is None:
            sens = None
        else:
            addrs = []
            for s in module._sensitivity:
                addr = sig_get(id(s))
                if addr is None:
                    return None
                addrs.append(addr)
            sens = tuple(addrs)
        addrs = []
        for s in (module._drives or ()):
            addr = sig_get(id(s))
            if addr is None:
                return None
            addrs.append(addr)
        drv = tuple(addrs)
        terms: Optional[tuple] = None
        if module._seq_idle is not None:
            if mod_addr is None:
                mod_addr = {id(m): m._order for m in modules}
            keyed = [_term_key(t, mod_addr, sig_addr) for t in module._seq_idle]
            if any(k is None for k in keyed):
                return None
            terms = tuple(keyed)
        emit((
            cls_name,
            module.has_comb,
            module.comb_static,
            comb_overridden,
            seq_overridden,
            len(module._signals),
            sens, drv, terms,
        ))
    return (sim.max_delta, sim._warp_ok, tuple(entries))


# ----------------------------------------------------------------------
# the in-process schedule cache
# ----------------------------------------------------------------------

class _CacheEntry:
    __slots__ = ("source", "code", "recipe", "stage_shapes", "always_orders",
                 "dynamic_orders", "guarded_seq", "total_seq", "rank_count",
                 "demoted_sccs")

    def __init__(self, source, code, recipe, stage_shapes, always_orders,
                 dynamic_orders, guarded_seq, total_seq, rank_count,
                 demoted_sccs):
        self.source = source
        self.code = code
        self.recipe = recipe
        self.stage_shapes = stage_shapes     # ((orders...), iterative, level)
        self.always_orders = always_orders
        self.dynamic_orders = dynamic_orders
        self.guarded_seq = guarded_seq
        self.total_seq = total_seq
        self.rank_count = rank_count
        self.demoted_sccs = demoted_sccs


_SCHEDULE_CACHE: Dict[tuple, _CacheEntry] = {}
_CACHE_STATS = {"hits": 0, "misses": 0, "uncacheable": 0}

# Extra observability providers merged into schedule_cache_stats() —
# higher layers (the warm worker pool) register theirs at import so the
# sim layer never has to import the harness.
_EXTRA_STATS_PROVIDERS: List = []


def register_cache_stats_provider(provider) -> None:
    """Merge ``provider()`` (a dict) into every ``schedule_cache_stats()``."""
    if provider not in _EXTRA_STATS_PROVIDERS:
        _EXTRA_STATS_PROVIDERS.append(provider)


def schedule_cache_stats() -> Dict[str, int]:
    """Two-tier hit/miss counters plus entry counts (for ``--profile``).

    In-process tier: ``hits``/``misses``/``uncacheable``/``entries``.
    Disk tier (:mod:`repro.sim.schedule_store`): ``disk_hits``,
    ``disk_misses``, ``disk_invalidations``, ``disk_writes``,
    ``disk_entries``, ``disk_bytes``, ``disk_dir``. Registered providers
    (the warm worker pool's affinity counters) are merged last.
    """
    from repro.sim import schedule_store

    stats: Dict[str, int] = dict(_CACHE_STATS)
    stats["entries"] = len(_SCHEDULE_CACHE)
    stats.update(schedule_store.stats())
    for provider in list(_EXTRA_STATS_PROVIDERS):
        try:
            stats.update(provider())
        except Exception:   # a stats provider must never break a report
            pass
    return stats


def clear_schedule_cache() -> None:
    """Drop all cached schedules and zero the counters (tests).

    Clears the in-process tier and the disk tier's counters and RAM
    mirror; on-disk entry *files* survive (use
    :func:`repro.sim.schedule_store.clear` to delete those).
    """
    from repro.sim import schedule_store

    _SCHEDULE_CACHE.clear()
    for k in _CACHE_STATS:
        _CACHE_STATS[k] = 0
    schedule_store.reset_stats()
    schedule_store._PRELOADED.clear()


def _resolve(recipe: Dict[str, tuple], sim) -> Dict[str, object]:
    mods = sim.modules
    ns: Dict[str, object] = {}
    for name, addr in recipe.items():
        kind = addr[0]
        if kind == "signal":
            ns[name] = mods[addr[1]]._signals[addr[2]]
        elif kind == "const":
            ns[name] = addr[1]
        elif kind == "module":
            ns[name] = mods[addr[1]]
        elif kind == "seq":
            ns[name] = mods[addr[1]].seq
        elif kind == "modtuple":
            ns[name] = tuple(mods[o] for o in addr[1])
        else:  # pragma: no cover - recipe writer and reader live together
            raise SimulationError(f"unknown binding recipe {addr!r}")
    return ns


def _materialize_levelization(entry: _CacheEntry, sim) -> Levelization:
    mods = sim.modules
    stages = [Stage(tuple([mods[o] for o in orders]), iterative, level)
              for orders, iterative, level in entry.stage_shapes]
    always = [mods[o] for o in entry.always_orders]
    dynamic = [mods[o] for o in entry.dynamic_orders]
    return Levelization(stages, always, dynamic)


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

class CompiledKernel:
    """Handle for one generated step function plus its schedule metadata."""

    def __init__(self, step, source: str, levelization: Levelization,
                 guarded_seq: int, total_seq: int, cache_hit: bool = False):
        self.step = step
        self.source = source
        self.levelization = levelization
        self.guarded_seq = guarded_seq
        self.total_seq = total_seq
        self.cache_hit = cache_hit


def _base_recipe(sim) -> Dict[str, tuple]:
    return {
        "_md": ("const", sim.max_delta),
    }


def _bind_fixed(ns: Dict[str, object], sim) -> None:
    ns["_S"] = sim
    ns["_CombLoop"] = CombinationalLoopError
    ns["_rk"] = _rank_key
    ns["_hooks"] = sim._cycle_hooks
    ns["_revs"] = sim.rank_evals


def _stage_shapes(lev: Levelization) -> tuple:
    """``((orders...), iterative, level)`` per stage: the cacheable schedule."""
    return tuple((tuple(m._order for m in s.modules), s.iterative, s.level)
                 for s in lev.stages)


_rank_key = attrgetter("_rank")


def _assign_ranks(stage_shapes: tuple, modules: Sequence[Module]) -> None:
    """Number the levelized modules in stage order, then elaboration order.

    ``_rank`` is the settle's work-list sort key, so a pass evaluates
    drivers before their readers; ``_rank_stage`` picks the stage's
    ``rank_evals`` counter.
    """
    rank = 0
    for si, (orders, _iterative, _level) in enumerate(stage_shapes):
        for order in orders:
            module = modules[order]
            module._rank = rank
            module._rank_stage = si
            rank += 1


def _emit_settle(emit, dyn: Optional[str], alw: Optional[str],
                 n_always: int) -> None:
    """Emit the combinational settle of the generated step.

    Re-schedules the dynamic modules (``dyn`` names their tuple), then
    opens ``if <work pending>:`` and fills it with the event kernel's delta
    loop: each pass takes ``S._pending``, sorts it by levelized rank and
    evaluates it; modules pended meanwhile form the next pass, and a
    combinational cycle iterates across passes under the ``max_delta``
    bound. ``alw`` names the always-evaluated modules. The caller closes
    the branch (its body is indented eight spaces).
    """
    if dyn is not None:
        emit("    pend = S._pending")
        emit(f"    for m in {dyn}:")
        emit("        if not m._comb_scheduled:")
        emit("            m._comb_scheduled = True")
        emit("            pend.append(m)")
    emit(f"    if S._pending{' or True' if alw else ''}:")
    emit("        evals = 0")
    emit("        for _p in range(_md):")
    emit("            batch = S._pending")
    emit("            S._pending = []")
    emit("            S._dirty = False")
    emit("            if len(batch) > 1:")
    emit("                batch.sort(key=_rk)")
    emit("            for m in batch:")
    emit("                m._comb_scheduled = False")
    emit("                m.comb()")
    emit("                _revs[m._rank_stage] += 1")
    emit("            evals += len(batch)")
    if alw is not None:
        emit(f"            for m in {alw}:")
        emit("                m.comb()")
        emit(f"            evals += {n_always}")
        emit("            if not S._pending and not S._dirty:")
    else:
        emit("            if not S._pending:")
    emit("                break")
    emit("        else:")
    emit("            raise _CombLoop(")
    emit("                '%s: combinational logic did not settle in "
         "%d delta passes at cycle %d' % (S.name, _md, S.cycle))")
    emit("        S.comb_evals += evals")


def compile_kernel(sim) -> CompiledKernel:
    """Levelize ``sim``'s declared comb graph and generate its step.

    Topology-identical simulators share one cached code object: the first
    compile stores (source, code, binding recipe); later ones re-bind in
    microseconds. ``sim.schedule_cache_hit`` records which path ran.
    """
    from repro.sim import schedule_store

    key = schedule_key(sim)
    entry = _SCHEDULE_CACHE.get(key) if key is not None else None
    tier = "memory"
    if entry is None and key is not None:
        stored = schedule_store.load(key)
        if stored is not None:
            # Promote the disk artifact into the in-process tier so every
            # later topology-identical sim in this process binds from RAM.
            entry = _CacheEntry(
                stored["source"], stored["code"], stored["recipe"],
                stored["stage_shapes"], stored["always_orders"],
                stored["dynamic_orders"], stored["guarded_seq"],
                stored["total_seq"], stored["rank_count"],
                stored["demoted_sccs"])
            _SCHEDULE_CACHE[key] = entry
            tier = "disk"
    if entry is not None:
        _CACHE_STATS["hits"] += 1
        sim.schedule_cache_hit = True
        sim.schedule_cache_tier = tier
        sim.rank_count = entry.rank_count
        sim.demoted_sccs = entry.demoted_sccs
        sim.rank_evals = [0] * entry.rank_count
        _assign_ranks(entry.stage_shapes, sim.modules)
        ns = _resolve(entry.recipe, sim)
        _bind_fixed(ns, sim)
        exec(entry.code, ns)
        lev = _materialize_levelization(entry, sim)
        return CompiledKernel(ns["_step"], entry.source, lev,
                              entry.guarded_seq, entry.total_seq,
                              cache_hit=True)

    sim.schedule_cache_hit = False
    sim.schedule_cache_tier = "cold"
    lev = levelize(sim._event_comb, sim._always_comb, sim._dynamic_comb)
    stage_shapes = _stage_shapes(lev)
    _assign_ranks(stage_shapes, sim.modules)
    sim.rank_count = lev.rank_count
    sim.demoted_sccs = lev.demoted_sccs
    # One in-place-zeroable counter per stage (reset() clears them).
    sim.rank_evals = [0] * lev.rank_count

    mod_addr, sig_addr = _structural_maps(sim)
    addr_of: Dict[int, tuple] = {}
    addr_of.update(mod_addr)
    addr_of.update(sig_addr)
    sigbind = _Binder("g", addr_of)
    recipe = _base_recipe(sim)
    ns: Dict[str, object] = {"_md": sim.max_delta}
    _bind_fixed(ns, sim)

    src: List[str] = ["def _step(warp_limit=None):", "    S = _S"]
    emit = src.append

    has_always = bool(lev.always)
    has_dynamic = bool(lev.dynamic)
    if has_dynamic:
        ns["_dyn"] = tuple(lev.dynamic)
        recipe["_dyn"] = ("modtuple", tuple(m._order for m in lev.dynamic))
    if has_always:
        ns["_alw"] = tuple(lev.always)
        recipe["_alw"] = ("modtuple", tuple(m._order for m in lev.always))
    _emit_settle(emit, "_dyn" if has_dynamic else None,
                 "_alw" if has_always else None, len(lev.always))
    emit("        settled = True")
    emit("    else:")
    emit("        S.quiescent_cycles += 1")
    emit("        settled = False")
    if sim._warp_ok:
        # The same test as the event kernel's, so a busy cycle pays no call.
        emit("        if S._quiet_streak and not _hooks:")
        emit("            S._warp(warp_limit)")

    # --- sequential phase: straight line, elaboration order ---
    guarded = 0
    for mi, module in enumerate(sim._seq_modules):
        mod_name = f"_m{mi}"
        guard = _guard_expr(module, mod_name, sigbind)
        seq_name = f"_q{mi}"
        ns[seq_name] = module.seq
        recipe[seq_name] = ("seq", module._order)
        if guard is None:
            emit(f"    {seq_name}()")
        else:
            ns[mod_name] = module
            recipe[mod_name] = ("module", module._order)
            guarded += 1
            emit(f"    if not ({guard}):")
            emit(f"        {seq_name}()")

    # --- inlined commit (replicates Signal._commit) ---
    emit("    staged = S._staged")
    emit("    if staged:")
    emit("        committed = True")
    emit("        pend = S._pending")
    emit("        for sig in staged:")
    emit("            nxt = sig._next")
    emit("            if nxt is None:")
    emit("                continue")
    emit("            sig._next = None")
    emit("            if nxt != sig._value:")
    emit("                sig._value = nxt")
    emit("                for m in sig._fanout:")
    emit("                    if not m._comb_scheduled:")
    emit("                        m._comb_scheduled = True")
    emit("                        pend.append(m)")
    emit("        staged.clear()")
    emit("    else:")
    emit("        committed = False")
    emit("    S._quiet_streak = not settled and not committed")
    emit("    S.cycle += 1")
    emit("    if _hooks:")
    emit("        cyc = S.cycle")
    emit("        for hook in _hooks:")
    emit("            hook(cyc)")

    ns.update(sigbind.namespace)
    recipe.update(sigbind.recipe)
    source = "\n".join(src) + "\n"
    code = compile(source, "<compiled-kernel>", "exec")
    exec(code, ns)

    if key is not None and sigbind.cacheable:
        _CACHE_STATS["misses"] += 1
        always_orders = tuple(m._order for m in lev.always)
        dynamic_orders = tuple(m._order for m in lev.dynamic)
        _SCHEDULE_CACHE[key] = _CacheEntry(
            source, code, recipe, stage_shapes, always_orders, dynamic_orders,
            guarded, len(sim._seq_modules), lev.rank_count, lev.demoted_sccs)
        schedule_store.save(
            key, source, code, recipe, stage_shapes, always_orders,
            dynamic_orders, guarded, len(sim._seq_modules), lev.rank_count,
            lev.demoted_sccs)
    else:
        _CACHE_STATS["uncacheable"] += 1
    return CompiledKernel(ns["_step"], source, lev, guarded,
                          len(sim._seq_modules))
