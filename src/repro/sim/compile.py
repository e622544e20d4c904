"""Compiled netlist kernel: ranked static scheduling + generated step.

The ``"compiled"`` scheduler turns the declared sensitivity graph that the
event kernel interprets at runtime into one per-cycle step function
generated at the first ``step()``, the way Verilator schedules a netlist:

1. **Ranking** (:func:`rank_modules`). Every declared comb module is a
   node; a module that :meth:`~repro.sim.module.Module.drives` a signal
   another module is :meth:`~repro.sim.module.Module.sensitive_to` gets an
   edge to that reader. One depth-first walk numbers the modules (their
   *rank*) so that each ranks after every module upstream of it: the
   members of a combinational cycle rank before every reader downstream
   of them. The walk starts from the modules in elaboration order, so
   modules without edges keep that order.
   Modules that declared no sensitivity at all stay on the every-pass
   fallback, exactly as under the event kernel.

2. **Code generation** (:func:`compile_kernel`). We assemble the source of
   one fused per-cycle ``step`` function and ``exec`` it with the live
   objects it names interned into its namespace: bound ``seq`` methods,
   the fallback module tuples, the signals read by the declared seq-idle
   guards. The generated function contains, straight line: the settle —
   the event kernel's work-list delta loop, each pass sorted by rank so
   that it evaluates drivers before their readers, and a combinational
   cycle iterating across passes under the same ``max_delta`` bound — the
   bound ``seq()`` calls in elaboration order, each wrapped in its
   module's inlined ``seq_idle_when`` guard when one was declared (an
   ``("until", attr)`` deadline compares the cycle with the attribute),
   and an inlined register commit replicating ``Signal._commit``. Like
   the event kernel, a quiescent cycle skips the settle, and on a
   warp-eligible design a quiet one calls the event kernel's time-warp
   poll, ``Simulator._warp``. The guards are that poll's only
   declaration too: :func:`guard_hint` compiles each into the hint it
   reads. The generated code is only what the schedule decides; every
   module behaviour it runs is that module's own method.

3. **Code caching**. Campaigns and sweeps build many deployments that
   differ only by seed, fault plan or application, and the generated
   source names objects only through interned namespace slots, never
   through instance names, so such deployments generate equal source.
   The source itself is the cache key: an in-process dict, then the disk
   tier (:mod:`repro.sim.schedule_store`), maps it to its code object, and
   a hit skips only ``compile()``. Ranks and the namespace are rebuilt for
   every simulator, so equal source always runs the code ``compile()``
   would have made from it.

Correctness story: ``comb()`` processes are required to be idempotent and
confluent (the contract the tests' declaration audit checks on the event
kernel), so evaluation *order* only affects how many delta passes are
needed, never the settled values reached. The generated settle iterates
until the work-list drains, so even a wrong rank assignment (missing
``drives()`` declarations, say) costs extra passes, not wrong values.
Sequential order, commit order and hook order are preserved exactly.

The compile is lazy — it happens on the first ``step()`` — so profiling
wrappers installed by ``enable_profiling()`` are captured. The namespace
binds ``module.seq`` per instance, so a profiled simulator runs the same
source as an unprofiled one; enabling profiling after stepping
invalidates the kernel and forces a rebind.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.errors import CombinationalLoopError, SimulationError
from repro.sim.module import NEVER, Module
from repro.sim.signal import Signal


def rank_modules(declared: Sequence[Module]) -> None:
    """Set ``_rank`` on the declared comb modules: drivers before readers.

    A depth-first walk over the ``drives()`` → ``sensitive_to()`` edges,
    taken backwards from each module in elaboration order: a module is
    numbered once every module driving a signal it reads is numbered or
    is still on the walk (a combinational cycle back to it). ``_rank`` is
    the settle's work-list sort key. The walk is iterative, since module
    graphs can outgrow Python's stack.
    """
    drivers: Dict[int, List[Module]] = {}
    for module in declared:
        module._rank = -1                    # not reached yet
        for sig in module._drives or ():
            drivers.setdefault(id(sig), []).append(module)
    get = drivers.get

    def upstream(module: Module):
        return iter([d for s in module._sensitivity for d in get(id(s), ())])

    rank = 0
    for root in declared:
        if root._rank != -1:
            continue
        root._rank = -2                      # on the walk
        walk = [(root, upstream(root))]
        while walk:
            module, preds = walk[-1]
            for pred in preds:
                if pred._rank == -1:
                    pred._rank = -2
                    walk.append((pred, upstream(pred)))
                    break
            else:
                walk.pop()
                module._rank = rank
                rank += 1


class _Binder:
    """Interns live objects into the generated function's namespace."""

    def __init__(self, namespace: Dict[str, object]):
        self.names: Dict[int, str] = {}
        self.namespace = namespace

    def __call__(self, obj: object) -> str:
        name = self.names.get(id(obj))
        if name is None:
            name = self.names[id(obj)] = f"_g{len(self.names)}"
            self.namespace[name] = obj
        return name


# ----------------------------------------------------------------------
# seq-idle guard expressions
# ----------------------------------------------------------------------

def _attr_expr(mod_name: str, path: str) -> str:
    if not path or not all(p.isidentifier() for p in path.split(".")):
        raise SimulationError(f"bad attribute path in seq_idle_when: {path!r}")
    return f"{mod_name}.{path}"


def _guard_expr(module: Module, mod_name: str, bind, now: str,
                terms: Optional[list] = None) -> Optional[str]:
    """The inlined idle conjunction for one module, or None (always run).

    ``terms`` defaults to the module's whole guard; ``now`` is the
    expression an ``until`` term compares with the current cycle.
    """
    if terms is None:
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
            parts.append(f"not {bind(sig)}.value")
        elif kind == "nofire":
            ch = term[1]
            valid = getattr(ch, "valid", None)
            ready = getattr(ch, "ready", None)
            if not isinstance(valid, Signal) or not isinstance(ready, Signal):
                raise SimulationError(
                    f"{module.name}: ('nofire', …) wants a Channel, got {ch!r}")
            parts.append(
                f"not ({bind(valid)}.value and {bind(ready)}.value)")
        elif kind == "falsy":
            parts.append(f"not {_attr_expr(mod_name, term[1])}")
        elif kind == "truthy":
            parts.append(_attr_expr(mod_name, term[1]))
        elif kind == "none":
            parts.append(f"{_attr_expr(mod_name, term[1])} is None")
        elif kind == "sync":
            parts.append(f"{_attr_expr(mod_name, term[1])} == "
                         f"{_attr_expr(mod_name, term[2])}")
        elif kind == "until":
            parts.append(f"{now} < {_attr_expr(mod_name, term[1])}")
        else:
            raise SimulationError(
                f"{module.name}: unknown seq_idle_when term kind {kind!r}")
    return " and ".join(parts)


# Hint source → factory(module, *objects) returning the hint closure;
# modules of one class share their guard's shape, so each shape is
# exec'd once per process.
_HINT_FACTORIES: Dict[str, object] = {}


def _opaque_hint(cycle: int) -> int:
    return cycle


def guard_hint(module: Module):
    """The time-warp hint ``hint(cycle)`` read off ``module``'s guard.

    ``cycle`` while the guard does not hold; while it holds, its earliest
    ``until`` deadline, or ``None`` when it has none or the deadline is
    :data:`~repro.sim.module.NEVER`. The guard compiles to Python source,
    so a poll costs a call and the guard's attribute reads. Without a
    guard the hint is always ``cycle`` (opaque).
    """
    objects: List[object] = []

    def bind(obj) -> str:
        for i, known in enumerate(objects):
            if known is obj:
                return f"_o{i}"
        objects.append(obj)
        return f"_o{len(objects) - 1}"

    terms = module._seq_idle
    if not terms:
        return _opaque_hint
    until = [_attr_expr("_m", term[1]) for term in terms
             if term[0] == "until"]
    rest = _guard_expr(module, "_m", bind, "cycle",
                       [term for term in terms if term[0] != "until"])
    if not until:
        body = f"        return None if ({rest}) else cycle\n"
    else:
        deadline = f"min({', '.join(until)})" if until[1:] else until[0]
        body = (f"        t = {deadline}\n"
                f"        if t <= cycle"
                f"{'' if rest is None else f' or not ({rest})'}:\n"
                f"            return cycle\n"
                f"        return None if t == _NEVER else t\n")
    factory = _HINT_FACTORIES.get(body)
    if factory is None:
        args = ", ".join(["_m"] + [f"_o{i}" for i in range(len(objects))])
        ns: Dict[str, object] = {"_NEVER": NEVER}
        exec(f"def _factory({args}):\n"
             f"    def hint(cycle):\n{body}"
             f"    return hint\n", ns)
        factory = _HINT_FACTORIES[body] = ns["_factory"]
    return factory(module, *objects)


# ----------------------------------------------------------------------
# the in-process code cache
# ----------------------------------------------------------------------

#: Generated step source → its code object.
_CODE_CACHE: Dict[str, object] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def schedule_cache_stats() -> Dict[str, object]:
    """Two-tier hit/miss counters plus entry counts (for ``--profile``).

    In-process tier: ``hits`` (memory or disk), ``misses`` (cold
    compiles) and ``entries``. Disk tier (:mod:`repro.sim.schedule_store`):
    ``disk_hits``, ``disk_misses``, ``disk_invalidations``,
    ``disk_writes``, ``disk_entries``, ``disk_bytes``, ``disk_dir``.
    """
    from repro.sim import schedule_store

    stats: Dict[str, object] = dict(_CACHE_STATS)
    stats["entries"] = len(_CODE_CACHE)
    stats.update(schedule_store.stats())
    return stats


def clear_schedule_cache() -> None:
    """Drop all cached code and zero the counters (tests).

    Clears the in-process tier and the disk tier's counters and RAM
    mirror; on-disk entry *files* survive (use
    :func:`repro.sim.schedule_store.clear` to delete those).
    """
    from repro.sim import schedule_store

    _CODE_CACHE.clear()
    for k in _CACHE_STATS:
        _CACHE_STATS[k] = 0
    schedule_store.reset_stats()
    schedule_store._PRELOADED.clear()


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

class CompiledKernel:
    """One generated step function and the source it was compiled from."""

    def __init__(self, step, source: str):
        self.step = step
        self.source = source


_rank_key = attrgetter("_rank")


def _emit_settle(emit, alw: Optional[str], n_always: int) -> None:
    """Emit the combinational settle of the generated step.

    Opens ``if <work pending>:`` and fills it with the event kernel's delta
    loop: each pass takes ``S._pending``, sorts it by rank and evaluates
    it; modules pended meanwhile form the next pass, and a combinational
    cycle iterates across passes under the ``max_delta`` bound. ``alw``
    names the always-evaluated (undeclared) modules, which run on every
    pass. The caller closes the branch (its body is indented eight
    spaces).
    """
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
    """Rank ``sim``'s declared comb graph and generate its step.

    Equal generated source shares one code object: the in-process tier,
    then the disk tier, is looked up by the source itself, and only a
    miss in both pays ``compile()``. ``sim.schedule_cache_tier`` records
    which tier served the code (``"memory"``, ``"disk"`` or ``"cold"``).
    """
    from repro.sim import schedule_store

    rank_modules(sim._event_comb)
    ns: Dict[str, object] = {
        "_S": sim, "_md": sim.max_delta, "_CombLoop": CombinationalLoopError,
        "_rk": _rank_key, "_hooks": sim._cycle_hooks,
    }
    bind = _Binder(ns)

    src: List[str] = ["def _step(warp_limit=None):", "    S = _S"]
    emit = src.append

    if sim._always_comb:
        ns["_alw"] = tuple(sim._always_comb)
    _emit_settle(emit, "_alw" if sim._always_comb else None,
                 len(sim._always_comb))
    emit("        settled = True")
    emit("    else:")
    emit("        S.quiescent_cycles += 1")
    emit("        settled = False")
    if sim._warp_ok:
        # The same test as the event kernel's, so a busy cycle pays no call.
        emit("        if S._quiet_streak and not _hooks:")
        emit("            S._warp(warp_limit)")

    # --- sequential phase: straight line, elaboration order ---
    if any(term[0] == "until" for module in sim._seq_modules
           for term in module._seq_idle or ()):
        emit("    now = S.cycle")
    for mi, module in enumerate(sim._seq_modules):
        mod_name = f"_m{mi}"
        guard = _guard_expr(module, mod_name, bind, "now")
        seq_name = f"_q{mi}"
        ns[seq_name] = module.seq
        if guard is None:
            emit(f"    {seq_name}()")
        else:
            ns[mod_name] = module
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
    emit("            if nxt != sig.value:")
    emit("                sig.value = nxt")
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

    source = "\n".join(src) + "\n"
    code = _CODE_CACHE.get(source)
    tier = "memory"
    if code is None:
        code = schedule_store.load(source)
        tier = "disk"
        if code is None:
            code = compile(source, "<compiled-kernel>", "exec")
            tier = "cold"
            schedule_store.save(source, code)
        _CODE_CACHE[source] = code
    _CACHE_STATS["misses" if tier == "cold" else "hits"] += 1
    sim.schedule_cache_tier = tier
    exec(code, ns)
    return CompiledKernel(ns["_step"], source)
