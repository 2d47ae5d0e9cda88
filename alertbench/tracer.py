"""Per-layer tracing of one scenario, from outside the simulator.

The traced run wraps the entry points of each ``src/repro`` module
before ``run_experiment`` builds the stack, so nothing in ``src/``
changes.  Every wrapped call is a span: its duration, the layer of the
span that called it, and the time its nested wrapped calls took.  A
layer's *self time* is the sum of its spans' durations minus the part
covered by nested spans of any layer; its *inclusive time* sums only
the spans entered from another layer, so recursion inside a layer is
not counted twice.

Spans are aggregated in memory as they close (per function, per layer
and per caller→callee layer edge) rather than stored one by one: a
scenario makes millions of wrapped calls.

Three installation rules keep the wrappers transparent:

* Install before the stack is built.  ``PeriodicTask`` captures bound
  methods (hello rounds, location write rounds) and protocols store
  ``self._dispatch`` in every node, so later patches would miss them.
* Patch module-level functions in the module that *calls* them
  (``repro.net.network.generate_keypair``,
  ``repro.core.alert.next_hop_greedy_batched`` ...), because callers
  bound them with ``from`` imports.
* Never draw randomness or change arguments or results.  The benchmark
  checks that a traced run's simulated outputs equal the untraced
  run's, which catches a wrapper that perturbs an RNG stream.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

#: ``(layer, module, targets)``: what the traced run wraps.  A target
#: is ``"Class.method"``, ``"Class.*"`` (every non-dunder function the
#: class body defines) or a module-level ``"function"`` patched in
#: ``module``.  Targets that no longer exist are skipped and listed in
#: the trace file, so deleting a fast lane does not break the tracer.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    # experiments.runner setup phases (inclusive times)
    ("setup.network", "repro.net.network", ("Network.__init__",)),
    ("setup.location", "repro.location.service", ("LocationService.__init__",)),
    ("setup.protocol", "repro.experiments.runner", ("make_protocol",)),
    # crypto
    ("crypto.keys", "repro.net.network", ("generate_keypair",)),
    ("crypto.cipher", "repro.crypto.cipher", ("SymmetricCipher.*", "PublicKeyCipher.*")),
    # sim
    ("sim.engine", "repro.sim.engine", (
        "Engine.run", "Engine.step", "Engine.schedule_at", "Engine.schedule_in",
        "Engine.schedule_deliver", "Engine.schedule_deliver_batch",
        "Engine.schedule_timer_in",
    )),
    ("sim.process", "repro.sim.process", ("Timer.*", "PeriodicTask.*")),
    # net.network, split by concern
    ("net.hello", "repro.net.network", (
        "Network.start_hello", "Network.stop_hello", "Network._emit_hello_round",
        "Network._emit_hello_round_scalar", "Network._emit_hello",
    )),
    ("net.tx", "repro.net.network", (
        "Network.unicast", "Network.local_broadcast", "Network.broadcast_fanout",
        "Network._finish_broadcast", "Network._local_load",
        "Network._local_loads_batch", "Network._register_tx",
    )),
    ("net.topo", "repro.net.network", (
        "Network.snapshot", "Network.neighbors_of", "Network.nodes_in_rect",
        "Network.node_nearest_to", "Network.active_mask",
        "Network.position_of", "Network.batch_positions",
    )),
    ("net.neighbor", "repro.net.neighbor_table", ("NeighborTable.*",)),
    ("net.mac", "repro.net.mac", ("Mac80211Dcf.*",)),
    ("net.node", "repro.net.node", ("Node.deliver", "Node.pseudonym_at")),
    ("net.traffic", "repro.net.traffic", ("CbrSource.*", "AdaptiveSource.*")),
    ("net.feedback", "repro.net.feedback", ("FlowFeedback.*",)),
    # core.alert with its add-ons and the shared protocol base
    ("alert", "repro.routing.base", ("RoutingProtocol.*",)),
    ("alert", "repro.core.alert", (
        "AlertProtocol.*", "scramble_payload", "unscramble_payload",
    )),
    ("alert", "repro.core.notify_and_go", ("NotifyAndGo.*",)),
    ("alert", "repro.core.intersection_defense", ("HolderState.*",)),
    ("zones", "repro.core.alert", ("destination_zone", "separate_from_zone")),
    ("gpsr", "repro.core.alert", ("next_hop_greedy_batched",)),
    ("gpsr", "repro.routing.gpsr", ("next_hop_greedy", "GpsrProtocol.*")),
    ("location", "repro.location.service", ("LocationService.*",)),
    ("location", "repro.location.server", ("LocationServer.*",)),
    ("mobility", "repro.net.node", ("Node.position",)),
    ("mobility", "repro.mobility.base", ("MobilityModel.*", "SnapshotInterpolator.__call__")),
    ("mobility", "repro.mobility.random_waypoint", ("RandomWaypoint.*",)),
    ("geometry", "repro.geometry.spatial_index", ("GridIndex.*",)),
    ("metrics", "repro.experiments.metrics", ("MetricsCollector.*",)),
)

#: Calls that return one MAC outcome per frame in a list; the tracer
#: counts their frames, not their calls.
_FRAME_LISTS = frozenset({"Mac80211Dcf.unicast_batch", "Mac80211Dcf.broadcast_batch"})

_ROOT = -1


class Tracer:
    """Wraps the :data:`TARGETS` and aggregates their spans."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._fid: dict[str, int] = {}
        self.missing: list[str] = []
        # per function: calls, calls entered from another layer, items,
        # summed call durations
        self._calls: list[int] = []
        self._outer: list[int] = []
        self._items: list[int] = []
        self._fn_s: list[float] = []
        # per layer: entries from another layer, inclusive s, self s
        self._entries: list[int] = []
        self._total: list[float] = []
        self._self: list[float] = []
        # (caller layer, callee layer) -> [entries, inclusive s]
        self._edges: dict[tuple[int, int], list] = {}
        # open spans: [layer, seconds covered by nested spans]
        self._stack: list[list] = [[_ROOT, 0.0]]

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every target; call once, before the stack is built."""
        for layer, module_name, targets in TARGETS:
            module = importlib.import_module(module_name)
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if not owner_name:
                    self._patch(module, target, layer, f"{module_name}:{target}")
                    continue
                owner = getattr(module, owner_name, None)
                if owner is None:
                    self.missing.append(f"{module_name}:{target}")
                    continue
                names = (
                    [n for n in vars(owner) if not n.startswith("__")]
                    if attr == "*"
                    else [attr]
                )
                for name in names:
                    self._patch(
                        owner, name, layer, f"{module_name}:{owner_name}.{name}"
                    )

    def _patch(self, owner: Any, name: str, layer: str, label: str) -> None:
        raw = vars(owner).get(name)
        kind = type(raw)
        fn = raw.__func__ if kind in (staticmethod, classmethod) else raw
        if not callable(fn) or not hasattr(fn, "__code__"):
            if raw is None:
                self.missing.append(label)
            return  # properties, constants, nested classes
        if getattr(fn, "__isabstractmethod__", False):
            return
        short = label.rpartition(":")[2]
        wrapped = self._wrap(fn, self._layer_id(layer), label, short in _FRAME_LISTS)
        setattr(owner, name, kind(wrapped) if fn is not raw else wrapped)

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self._entries.append(0)
            self._total.append(0.0)
            self._self.append(0.0)
        return self.layers.index(layer)

    def _wrap(self, fn: Callable, layer: int, label: str, frame_list: bool) -> Callable:
        fid = self._fid[label] = len(self._fid)
        self._calls.append(0)
        self._outer.append(0)
        self._items.append(0)
        self._fn_s.append(0.0)
        stack = self._stack
        calls, outer, items, fn_s = self._calls, self._outer, self._items, self._fn_s
        entries, total, self_s, edges = self._entries, self._total, self._self, self._edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                calls[fid] += 1
                fn_s[fid] += dt
                self_s[layer] += dt - frame[1]
                caller = parent[0]
                if caller != layer:
                    outer[fid] += 1
                    entries[layer] += 1
                    total[layer] += dt
                    edge = edges.get((caller, layer))
                    if edge is None:
                        edges[(caller, layer)] = [1, dt]
                    else:
                        edge[0] += 1
                        edge[1] += dt
            if frame_list:
                items[fid] += len(out)
            return out

        return functools.update_wrapper(traced, fn)

    # -- results -------------------------------------------------------
    def report(self) -> dict:
        """Everything the spans recorded, as plain JSON-able data."""
        names = self.layers + ["root"]  # _ROOT == -1 indexes "root"
        return {
            "layers": {
                name: {
                    "entries": self._entries[i],
                    "total_s": self._total[i],
                    "self_s": self._self[i],
                }
                for i, name in enumerate(self.layers)
            },
            "edges": [
                {"caller": names[a], "callee": names[b], "entries": e, "total_s": t}
                for (a, b), (e, t) in sorted(self._edges.items())
            ],
            "functions": {
                label: {
                    "calls": self._calls[f],
                    "outer": self._outer[f],
                    "items": self._items[f],
                    "total_s": self._fn_s[f],
                }
                for label, f in self._fid.items()
                if self._calls[f]
            },
            "missing": self.missing,
        }


_NET = "repro.net.network:Network."
_MAC = "repro.net.mac:Mac80211Dcf."
_SYM = "repro.crypto.cipher:SymmetricCipher."
_PK = "repro.crypto.cipher:PublicKeyCipher."
_LOC = "repro.location.service:LocationService."
_GRID = "repro.geometry.spatial_index:GridIndex."


def layer_metrics(trace: dict, sim: dict) -> dict[str, float]:
    """The per-layer metrics of one traced scenario.

    ``trace`` is a :meth:`Tracer.report`; ``sim`` the scenario's
    simulated outputs, which supply the counts the program keeps itself
    (events by category, MAC attempts, flow outcomes, AIMD events).
    """
    layers = trace["layers"]
    functions = trace["functions"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def fn(label: str, key: str = "calls") -> float:
        return functions.get(label, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Below the MAC's batch cutover the batch calls replay the scalar
    # calls, so frames resolved by the vector code are the batch
    # frames minus the scalar calls made from inside the MAC.
    scalar = ("unicast", "broadcast")
    scalar_outer = sum(fn(_MAC + m, "outer") for m in scalar)
    scalar_inner = sum(fn(_MAC + m) for m in scalar) - scalar_outer
    batch_frames = sum(fn(_MAC + m, "items") for m in ("unicast_batch", "broadcast_batch"))
    counts = sim["event_counts"]
    return {
        "setup.network_s": layer("setup.network", "total_s"),
        "setup.location_s": layer("setup.location", "total_s"),
        "setup.protocol_s": layer("setup.protocol", "total_s"),
        "crypto.keygen_calls": layer("crypto.keys", "entries"),
        "crypto.keygen_s": layer("crypto.keys", "total_s"),
        "crypto.sym_ops": sum(
            fn(_SYM + m) for m in ("encrypt", "encrypt_cost_only", "decrypt")
        ),
        "crypto.pk_ops": sum(
            fn(_PK + m)
            for m in ("encrypt", "encrypt_cost_only", "decrypt", "sign", "verify")
        ),
        "crypto.cipher_s": layer("crypto.cipher", "total_s"),
        "sim.events": sim["events"],
        "sim.events.data": counts.get("data", 0),
        "sim.events.control": counts.get("control", 0),
        "sim.events.timer": counts.get("timer", 0),
        "sim.events.hello": counts.get("hello", 0),
        "sim.dispatch_self_s": layer("sim.engine", "self_s"),
        "net.hello.rounds": fn(_NET + "_emit_hello_round"),
        "net.hello.self_s": layer("net.hello", "self_s"),
        "net.tx.calls": layer("net.tx", "entries"),
        "net.tx.self_s": layer("net.tx", "self_s"),
        "net.fanout.calls": fn(_NET + "broadcast_fanout"),
        "net.fanout.batched_share": ratio(
            fn(_MAC + "broadcast_batch"), fn(_NET + "broadcast_fanout")
        ),
        "net.topo.calls": layer("net.topo", "entries"),
        "net.topo.self_s": layer("net.topo", "self_s"),
        "net.neighbor.calls": layer("net.neighbor", "entries"),
        "net.neighbor.self_s": layer("net.neighbor", "self_s"),
        "net.mac.calls": layer("net.mac", "entries"),
        "net.mac.attempts": sim["mac_attempts"],
        "net.mac.success_ratio": ratio(
            sim["mac_attempts"] - sim["mac_collisions"], sim["mac_attempts"]
        ),
        "net.mac.batch_share": ratio(
            batch_frames - scalar_inner, scalar_outer + batch_frames
        ),
        "net.mac.self_s": layer("net.mac", "self_s"),
        "alert.handler_calls": layer("alert", "entries"),
        "alert.self_s": layer("alert", "self_s"),
        "flows.dropped": sim["dropped"],
        "flows.unaccounted": sim["unaccounted"],
        "zones.calls": layer("zones", "entries"),
        "zones.self_s": layer("zones", "self_s"),
        "gpsr.calls": layer("gpsr", "entries"),
        "gpsr.self_s": layer("gpsr", "self_s"),
        "location.lookups": fn(_LOC + "lookup"),
        "location.lookup_s": fn(_LOC + "lookup", "total_s"),
        "location.write_rounds": fn(_LOC + "_write_round"),
        "location.write_s": fn(_LOC + "_write_round", "total_s"),
        "mobility.calls": layer("mobility", "entries"),
        "mobility.self_s": layer("mobility", "self_s"),
        "geometry.queries": sum(
            fn(_GRID + m)
            for m in ("query_radius", "query_rect", "nearest", "grouped_candidates")
        ),
        "geometry.self_s": layer("geometry", "self_s"),
        "traffic.backoff_events": sim["backoff_events"],
        "traffic.recovery_events": sim["recovery_events"],
    }
