"""Query-plan compiler: rewrite a materialized node graph before scheduling.

The declarative :class:`~repro.spe.query.Query` builds a graph where every
operator owns a thread and every edge is a bounded queue with per-tuple
lock/condvar traffic. That is faithful to Liebre's execution model but
dominates end-to-end latency long before the analytics do. Native SPEs
close this gap with plan-level optimization — Flink's operator chaining,
Strider's runtime plan adaptation — and this module reproduces the same
idea with three passes over the *materialized* node list:

* **replication** — clone maximal runs of keyed, factory-built stages
  (``partition`` / ``detectEvent`` / ``correlateEvents``) N ways behind a
  hash router, merging through an explicit Union so every replica edge
  stays single-producer and checkpoint barriers align exactly;
* **fusion** — collapse linear chains of single-input/single-output
  operators into one :class:`FusedOperator` that executes by direct
  function composition: no intermediate stream, queue, or thread hop;
  its kernel-compatible members run array-at-a-time;
* **batched edge transport** — not a graph rewrite: the plan carries an
  edge batch size that :class:`~repro.spe.scheduler.ThreadedScheduler`
  uses to move :class:`~repro.spe.stream.TupleBatch` entries through the
  remaining queues, amortizing synchronization.

Fusion is checkpoint-transparent. A fused node aligns and forwards
barriers exactly like the chain head did, and snapshots composite state
*keyed by each constituent operator's original node name* (via
``snapshot_parts``), so the recovery manifest written by a fused run is
byte-compatible with one written by an unfused run — a checkpoint taken
under either plan shape restores into the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .columnar import ColumnarBlock
from .errors import PlanError
from .operators.base import Operator
from .operators.router import HashRouter
from .operators.union import UnionOperator
from .query import KeyFunction, Node, _RouterOperator
from .stream import Stream
from .tuples import StreamTuple


@dataclass(frozen=True)
class PlanConfig:
    """Knobs for the plan compiler and the batched transport layer.

    ``fusion``           enable the chain-fusion pass.
    ``edge_batch_size``  tuples moved per queue entry on threaded edges
                         (1 = unbatched transport).
    ``parallelism``      replica count for the keyed-replication pass
                         (1 = pass disabled).
    ``linger_s``         max time a partially filled batch may wait before
                         being flushed to its edge.
    """

    fusion: bool = True
    edge_batch_size: int = 32
    parallelism: int = 1
    linger_s: float = 0.005

    def __post_init__(self) -> None:
        if self.edge_batch_size < 1:
            raise ValueError("edge_batch_size must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.linger_s < 0:
            raise ValueError("linger_s must be non-negative")

    @classmethod
    def resolve(cls, optimize: "PlanConfig | bool | None") -> "PlanConfig | None":
        """Normalize the ``optimize=`` argument of user-facing APIs."""
        if optimize is None or optimize is False:
            return None
        if optimize is True:
            return cls()
        if isinstance(optimize, cls):
            return optimize
        raise TypeError(f"optimize must be bool, None or PlanConfig, got {optimize!r}")

    def describe(self) -> str:
        parts = [
            f"fusion={'on' if self.fusion else 'off'}",
            f"batch={self.edge_batch_size}",
            f"parallelism={self.parallelism}",
        ]
        return ", ".join(parts)


class _FusedPart:
    """One constituent operator of a fused chain, with its logical names."""

    __slots__ = ("name", "base_name", "operator")

    def __init__(self, name: str, base_name: str, operator: Operator) -> None:
        self.name = name
        self.base_name = base_name
        self.operator = operator


class FusedOperator(Operator):
    """A linear operator chain executed by direct function composition.

    One cascade walks the members in order — the work four threads and
    three queues used to do happens as plain nested function calls. Each
    maximal group of consecutive *block-capable* members (the operator
    advertises ``supports_block``) runs block-to-block over the eligible
    rows that reach it, however few: the rows convert to a
    :class:`~repro.spe.columnar.ColumnarBlock` once at the group's entry,
    each member's ``process_block`` transforms it column-wise, and rows
    convert back to tuples at the group's exit. Scalar members, and rows
    a member declares ineligible (punctuation, specimen-less tuples), run
    the per-tuple path at their exact stream position, so ordering,
    punctuation semantics, and every counter match the unfused plan.
    A chain without block-capable members is the same loop with no
    groups.

    Eligibility is decided at group entry; block kernels must preserve the
    eligibility invariants downstream stages rely on (they may filter or
    fan out rows but never clear a specimen or mint punctuation — both
    use-case kernels satisfy this by construction). Blocks additionally
    split on payload-schema changes, since a block holds one column set.

    End-of-stream is cascaded stage by stage so flush ordering is
    identical to the unfused plan: when stage *i* closes, its
    ``on_input_closed``/``on_close`` output flows through stages
    *i+1..n* before stage *i+1* itself is closed.
    """

    num_inputs = 1

    def __init__(self, name: str, parts: Iterable[_FusedPart]) -> None:
        super().__init__(name)
        self._parts = list(parts)
        if len(self._parts) < 2:
            raise ValueError("fusing fewer than two operators is pointless")
        for part in self._parts:
            if part.operator.num_inputs != 1:
                raise ValueError(
                    f"fused constituent {part.name!r} must be single-input"
                )
        operators = [part.operator for part in self._parts]
        # bound methods, resolved once: the cascade runs per tuple per
        # stage and attribute lookups there are measurable
        self._processes = [op.process for op in operators]
        self._manys = [getattr(op, "process_many", None) for op in operators]
        self._block_capable = [
            bool(getattr(op, "supports_block", False)) for op in operators
        ]
        self._block_processes = [
            getattr(op, "process_block", None) for op in operators
        ]
        self._eligibles = [getattr(op, "block_eligible", None) for op in operators]
        # where the stage group starting at member i ends: one past the
        # last block-capable member of its run, or i + 1 for a scalar one
        n = len(operators)
        self._group_end = [i + 1 for i in range(n)]
        for i in range(n - 2, -1, -1):
            if self._block_capable[i] and self._block_capable[i + 1]:
                self._group_end[i] = self._group_end[i + 1]
        # per-constituent [tuples_in, tuples_out] (member stats in repro.obs)
        self._member_counts = [[0, 0] for _ in self._parts]
        # columnar transport counters (block fill ratio in repro.obs)
        self.blocks_in = 0
        self.block_rows_in = 0

    @property
    def execution_mode(self) -> str:
        """``vectorized`` when a member runs blocks, else ``scalar``."""
        return "vectorized" if any(self._block_capable) else "scalar"

    @property
    def parts(self) -> list[_FusedPart]:
        return list(self._parts)

    def part_names(self) -> list[str]:
        """Original node names, the keys fused state snapshots under."""
        return [part.name for part in self._parts]

    def member_modes(self) -> dict[str, str]:
        """Execution path per constituent, keyed by original node name."""
        return {
            part.name: "block" if capable else "scalar"
            for part, capable in zip(self._parts, self._block_capable)
        }

    def member_stats(self) -> dict[str, tuple[int, int]]:
        """Per-constituent (tuples_in, tuples_out), keyed by original name."""
        return {
            part.name: (counts[0], counts[1])
            for part, counts in zip(self._parts, self._member_counts)
        }

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        return self._cascade([t], 0)

    def process_many(self, tuples: list[StreamTuple]) -> list[StreamTuple]:
        """Cascade a whole run; equal to processing it tuple by tuple."""
        return self._cascade(tuples, 0)

    def _cascade(self, items: list[StreamTuple], start: int) -> list[StreamTuple]:
        """Push a run through constituents ``start..n-1``."""
        n = len(self._parts)
        i = start
        while i < n and items:
            j = self._group_end[i]
            if self._block_capable[i]:
                items = self._run_block_group(items, i, j)
            else:
                items = self._apply_scalar(items, i)
            i = j
        return items

    def _apply_scalar(self, tuples: list[StreamTuple], i: int) -> list[StreamTuple]:
        """One member's per-tuple path over a run."""
        counts = self._member_counts[i]
        counts[0] += len(tuples)
        many = self._manys[i]
        if len(tuples) == 1:
            # like the scheduler, accept a falsy return for "no output"
            out = self._processes[i](0, tuples[0]) or []
        elif many is not None:
            out = many(tuples)
        else:
            process = self._processes[i]
            out = []
            extend = out.extend
            for t in tuples:
                got = process(0, t)
                if got:
                    extend(got)
        counts[1] += len(out)
        return out

    def _run_block_group(
        self, items: list[StreamTuple], i: int, j: int
    ) -> list[StreamTuple]:
        """Stages ``i..j-1`` (all block-capable) over one run of tuples."""
        eligibles = [e for e in self._eligibles[i:j] if e is not None]
        out: list[StreamTuple] = []
        extend = out.extend
        run: list[StreamTuple] = []
        run_keys = None
        for t in items:
            eligible = True
            for is_eligible in eligibles:
                if not is_eligible(t):
                    eligible = False
                    break
            if eligible:
                keys = t.payload.keys()
                if run and keys != run_keys:
                    self._flush_block_run(run, i, j, extend)
                    run = []
                run_keys = keys
                run.append(t)
                continue
            if run:
                self._flush_block_run(run, i, j, extend)
                run = []
            # ineligible row: scalar through these stages, in stream order
            seq = [t]
            for k in range(i, j):
                seq = self._apply_scalar(seq, k)
                if not seq:
                    break
            if seq:
                extend(seq)
        if run:
            self._flush_block_run(run, i, j, extend)
        return out

    def _flush_block_run(self, run: list[StreamTuple], i: int, j: int, extend) -> None:
        block = ColumnarBlock.from_tuples(run)
        self.blocks_in += 1
        self.block_rows_in += len(run)
        member_counts = self._member_counts
        for k in range(i, j):
            counts = member_counts[k]
            counts[0] += len(block)
            block = self._block_processes[k](block)
            counts[1] += len(block)
            if not len(block):
                return
        extend(block.to_tuples())

    def on_input_closed(self, input_index: int) -> list[StreamTuple]:
        # Only the chain head observes the node's real input closing; what
        # it releases still flows through the rest of the chain.
        return self._cascade(self._parts[0].operator.on_input_closed(0), 1)

    def on_close(self) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        for i, part in enumerate(self._parts):
            if i > 0:
                # the upstream constituent just emitted its last tuple, so
                # this constituent's (single) input is now closed
                out.extend(self._cascade(part.operator.on_input_closed(0), i + 1))
            out.extend(self._cascade(part.operator.on_close(), i + 1))
        return out

    # -- checkpointing ----------------------------------------------------

    def snapshot_parts(self) -> dict[str, Any]:
        """Per-constituent snapshots keyed by original node name."""
        return {part.name: part.operator.snapshot_state() for part in self._parts}

    def restore_part(self, name: str, state: dict[str, Any]) -> bool:
        """Restore one manifest entry into the matching constituent(s)."""
        hit = False
        for part in self._parts:
            if name in (part.name, part.base_name):
                part.operator.restore_state(state)
                hit = True
        return hit

    def snapshot_state(self) -> dict[str, Any] | None:
        # Fused nodes checkpoint through snapshot_parts (one manifest entry
        # per constituent); the whole-node form exists for completeness.
        parts = {k: v for k, v in self.snapshot_parts().items() if v is not None}
        return parts or None

    def restore_state(self, state: dict[str, Any]) -> None:
        for name, part_state in state.items():
            if not self.restore_part(name, part_state):
                raise KeyError(f"no fused constituent named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"FusedOperator({' + '.join(self.part_names())})"


# -- fusion pass -----------------------------------------------------------


def _consumer_map(nodes: list[Node]) -> dict[int, Node]:
    return {id(s): n for n in nodes for s in n.inputs}


def fuse_linear_chains(nodes: list[Node]) -> list[Node]:
    """Collapse linear operator chains into :class:`FusedOperator` nodes.

    A chain grows from a single-input operator node across edges that are
    single-producer *and* single-consumer; it extends past a member only
    while that member broadcasts to exactly one output stream and does not
    hash-route (a router node may only terminate a chain, so the fused
    node keeps its routing table). Sources and sinks never fuse — they are
    the measurement boundaries for ingest/latency accounting. The router
    and merge of a rescalable replica group never fuse either: the elastic
    controller must be able to retire and resplice them by name.

    The fused node records why members run per tuple (``mode_reason``)
    next to the operator's ``execution_mode`` for ``explain()``.
    """
    protected: set[str] = set()
    for node in nodes:
        meta = getattr(node, "rescale_meta", None)
        if meta is not None:
            protected.add(node.name)
            protected.add(meta.merge_name)
    consumer_of = _consumer_map(nodes)
    absorbed: set[int] = set()
    fused_for_head: dict[int, Node] = {}
    for node in nodes:
        if id(node) in absorbed:
            continue
        if node.kind != "operator" or len(node.inputs) != 1:
            continue
        if node.name in protected:
            continue
        chain = [node]
        while True:
            last = chain[-1]
            if last.router is not None or len(last.outputs) != 1:
                break
            stream = last.outputs[0]
            if stream.num_producers != 1:
                break
            nxt = consumer_of.get(id(stream))
            if nxt is None or nxt.kind != "operator" or len(nxt.inputs) != 1:
                break
            if id(nxt) in absorbed or nxt.name in protected:
                break
            chain.append(nxt)
        if len(chain) < 2:
            continue
        for member in chain:
            absorbed.add(id(member))
        name = "fused[" + "+".join(m.name for m in chain) + "]"
        parts = [_FusedPart(m.name, m.base_name, m.operator) for m in chain]
        operator = FusedOperator(name, parts)
        modes = operator.member_modes()
        scalar_members = [m for m, mode in modes.items() if mode == "scalar"]
        if len(scalar_members) == len(modes):
            reason = "no member provides a block variant"
        elif scalar_members:
            reason = "scalar members: " + ", ".join(scalar_members)
        else:
            reason = None
        fused = Node(
            name, "operator", operator=operator, router=chain[-1].router
        )
        fused.mode_reason = reason
        fused.inputs = list(chain[0].inputs)
        fused.outputs = list(chain[-1].outputs)
        fused_for_head[id(chain[0])] = fused
    out: list[Node] = []
    for node in nodes:
        if id(node) in fused_for_head:
            out.append(fused_for_head[id(node)])
        elif id(node) not in absorbed:
            out.append(node)
    return out


# -- replication pass ------------------------------------------------------


@dataclass
class ReplicaGroupMeta:
    """Recipe for (re)building one keyed-replicated operator group.

    Captured when the replication pass first rewrites a group and attached
    to the router node (``node.rescale_meta``); the elastic controller
    replays the recipe at a different replica count mid-run. Capacities are
    remembered per member so respliced edges keep the original bounds.
    """

    members: list[str]
    factories: list[Callable[[], Operator]]
    key_fn: KeyFunction
    router_name: str
    merge_name: str
    member_capacities: list[int | None] = field(default_factory=list)
    out_capacity: int | None = None


def build_replicated_group(
    meta: ReplicaGroupMeta,
    parallelism: int,
    inputs: list[Stream],
    outputs: list[Stream],
) -> tuple[list[Node], dict[str, Operator]]:
    """Materialize one replica group at ``parallelism`` from its recipe.

    Returns the new nodes (router, clone chains, merge) plus the fresh
    clone operators keyed by shard name (``member::i``) so callers can
    restore re-sharded state into them *before* the chains are fused.
    """
    if parallelism < 1:
        raise PlanError("replica group parallelism must be >= 1")
    router = Node(
        meta.router_name,
        "operator",
        operator=_RouterOperator(meta.router_name),
        router=HashRouter(parallelism, meta.key_fn),
    )
    router.rescale_meta = meta
    router.inputs = list(inputs)
    merge = Node(
        meta.merge_name,
        "operator",
        operator=UnionOperator(meta.merge_name, num_inputs=parallelism),
    )
    merge.outputs = list(outputs)
    built: list[Node] = [router]
    clone_ops: dict[str, Operator] = {}
    for i in range(parallelism):
        prev = router
        for member_name, factory, capacity in zip(
            meta.members, meta.factories, meta.member_capacities
        ):
            operator = factory()
            clone = Node(
                f"{member_name}::{i}", "operator", operator=operator,
                base_name=member_name,
            )
            clone_ops[clone.name] = operator
            stream = Stream(f"{prev.name}->{clone.name}", capacity)
            prev.outputs.append(stream)
            clone.inputs.append(stream)
            built.append(clone)
            prev = clone
        stream = Stream(f"{prev.name}->{merge.name}", meta.out_capacity)
        prev.outputs.append(stream)
        merge.inputs.append(stream)
    built.append(merge)
    return built, clone_ops


def replicate_keyed_stages(
    nodes: list[Node], parallelism: int, wrap_single: bool = False
) -> list[Node]:
    """Replicate runs of keyed stages N ways behind a hash router.

    Finds maximal consecutive runs of ``replicable`` nodes (factory-built,
    keyed state) sharing one key function, connected by single-producer /
    single-consumer edges, and rewrites each run to::

        router --> run-clone 0 --> \\
               --> run-clone 1 -->  union --> (original downstream)
               --> run-clone N -->

    Each clone chain is built from fresh operators (every replica owns its
    own state) and keeps the original node names as ``base_name`` so
    recovery manifests keep restoring across plan shapes. The fusion pass
    then collapses every clone chain into a single node, so replication
    costs two extra hops (router, union) regardless of run length.

    With ``wrap_single`` the rewrite also runs at ``parallelism == 1``,
    wrapping each group in a one-way router/merge pair — the scaffolding
    the elastic controller needs to rescale the group later.
    """
    if parallelism <= 1 and not wrap_single:
        return nodes
    parallelism = max(1, parallelism)
    consumer_of = _consumer_map(nodes)
    grouped: set[int] = set()
    groups_by_head: dict[int, list[Node]] = {}
    for node in nodes:
        if id(node) in grouped:
            continue
        if not node.replicable or node.factory is None or len(node.inputs) != 1:
            continue
        group = [node]
        grouped.add(id(node))
        while True:
            last = group[-1]
            if last.router is not None or len(last.outputs) != 1:
                break
            stream = last.outputs[0]
            if stream.num_producers != 1:
                break
            nxt = consumer_of.get(id(stream))
            if (
                nxt is None
                or id(nxt) in grouped
                or not nxt.replicable
                or nxt.factory is None
                or len(nxt.inputs) != 1
                or nxt.key_fn is not group[0].key_fn
            ):
                break
            group.append(nxt)
            grouped.add(id(nxt))
        groups_by_head[id(node)] = group
    if not groups_by_head:
        return nodes

    member_ids = {id(m) for g in groups_by_head.values() for m in g}
    out: list[Node] = []
    for node in nodes:
        if id(node) in groups_by_head:
            out.extend(_replicate_group(groups_by_head[id(node)], parallelism))
        elif id(node) not in member_ids:
            out.append(node)
    return out


def _replicate_group(group: list[Node], parallelism: int) -> list[Node]:
    head, tail = group[0], group[-1]
    if head.key_fn is None:
        raise PlanError(
            f"cannot replicate keyed stage group headed by {head.name!r}: "
            f"the operator is marked replicable but declares no key "
            f"function; pass key_fn= when adding it to the query"
        )
    meta = ReplicaGroupMeta(
        members=[m.name for m in group],
        factories=[m.factory for m in group],
        key_fn=head.key_fn,
        router_name=f"{head.name}::router",
        merge_name=f"{tail.name}::merge",
        member_capacities=[m.inputs[0].capacity for m in group],
        out_capacity=tail.outputs[0].capacity,
    )
    built, _ = build_replicated_group(
        meta, parallelism, inputs=head.inputs, outputs=tail.outputs
    )
    return built


# -- driver ----------------------------------------------------------------


def compile_plan(
    nodes: list[Node], config: PlanConfig | None, force_replication: bool = False
) -> list[Node]:
    """Apply the enabled passes; ``None`` config returns the graph as-is.

    ``force_replication`` runs the replication pass even at
    ``parallelism == 1`` (wrapping groups in a one-way router/merge) so an
    elastic deployment can rescale them later.
    """
    if config is None:
        return nodes
    if config.parallelism > 1 or force_replication:
        nodes = replicate_keyed_stages(
            nodes, config.parallelism, wrap_single=force_replication
        )
    if config.fusion:
        nodes = fuse_linear_chains(nodes)
    return nodes


def render_plan(
    nodes: list[Node], title: str = "plan", config: PlanConfig | None = None
) -> str:
    """Human-readable plan listing, the output of ``explain()``."""
    lines = [f"== {title} =="]
    if config is not None:
        lines.append(f"   optimizer: {config.describe()}")
    else:
        lines.append("   optimizer: off")
    n_streams = 0
    for node in nodes:
        n_streams += len(node.outputs)
        if node.kind == "source":
            desc = f"source[{type(node.source).__name__}]"
        elif node.kind == "sink":
            desc = f"sink[{type(node.sink).__name__}]"
        elif isinstance(node.operator, FusedOperator):
            desc = "fused(" + " -> ".join(node.operator.part_names()) + ")"
        else:
            desc = type(node.operator).__name__
        if node.router is not None:
            desc += f" x{node.router.num_shards} by key-hash"
        line = f"  {node.name}  [{desc}]"
        if node.kind == "operator" and isinstance(node.operator, FusedOperator):
            line += f"  mode={node.operator.execution_mode}"
            reason = getattr(node, "mode_reason", None)
            if reason:
                line += f" ({reason})"
        if node.inputs:
            line += "  <- " + ", ".join(s.name for s in node.inputs)
        lines.append(line)
    fused_nodes = [
        n for n in nodes if n.kind == "operator" and isinstance(n.operator, FusedOperator)
    ]
    fused = len(fused_nodes)
    vectorized = sum(
        1 for n in fused_nodes if n.operator.execution_mode == "vectorized"
    )
    summary = f"   {len(nodes)} nodes / {n_streams} streams"
    if fused:
        summary += f" ({fused} fused chain{'s' if fused != 1 else ''}"
        if vectorized:
            summary += f", {vectorized} vectorized"
        summary += ")"
    lines.append(summary)
    return "\n".join(lines)
