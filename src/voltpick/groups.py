"""Construct groups: an API kind, its implementation pool, its operations.

A construct group bundles interchangeable implementations of one abstract
API kind (list, map, set out of the box; the registry is extensible) with
the operation set the benchmark harness exercises.  Each implementation is
wrapped in an adapter holding its descriptor, a factory that builds a
populated instance, and one callable per supported operation.  Operations
an implementation cannot perform are simply absent from its adapter and
surface as status "unsupported" in measurement output, never as a silent
skip.
"""

from __future__ import annotations

import random
import zlib
from array import array
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from . import structures

KIND_LIST = "list"
KIND_MAP = "map"
KIND_SET = "set"

ROLE_BUILD = "build"
ROLE_QUERY = "query"
ROLE_MUTATE = "mutate"
ROLE_ITERATE = "iterate"

LIST_OPS = (
    ("insert(start)", ROLE_BUILD),
    ("insert(middle)", ROLE_BUILD),
    ("insert(end)", ROLE_BUILD),
    ("insert(value)", ROLE_BUILD),
    ("remove(start)", ROLE_MUTATE),
    ("remove(middle)", ROLE_MUTATE),
    ("remove(end)", ROLE_MUTATE),
    ("remove(value)", ROLE_MUTATE),
    ("get(random-index)", ROLE_QUERY),
    ("iteration(iterator)", ROLE_ITERATE),
    ("iteration(random)", ROLE_ITERATE),
    ("contains(value)", ROLE_QUERY),
)
MAP_OPS = (
    ("put", ROLE_BUILD),
    ("get", ROLE_QUERY),
    ("remove", ROLE_MUTATE),
    ("iteration(entries)", ROLE_ITERATE),
)
SET_OPS = (
    ("add", ROLE_BUILD),
    ("contains", ROLE_QUERY),
    ("iteration", ROLE_ITERATE),
)

@dataclass(frozen=True)
class OperationSpec:
    op_id: str
    api_kind: str
    workload_role: str


@dataclass(frozen=True)
class ImplementationDescriptor:
    impl_id: str
    api_kind: str
    thread_safe: bool
    source_label: str


@dataclass
class Workload:
    """Pre-generated inputs for one (implementation, operation) series.

    Everything random is drawn up front from a seeded generator so every
    run of the series replays identical contents: identical seed means
    identical workload.  Destructive operations cap their repetitions at
    the structure size so a run never underflows.
    """

    contents: list[int]
    repetitions: int
    values: list[int]
    indices: list[int]
    probes: list[int]
    shuffled_order: list[int]

    @classmethod
    def generate(cls, seed: int, element_count: int, op_repetitions: int,
                 op: OperationSpec) -> "Workload":
        rng = random.Random(seed)
        span = 2**31
        contents = [rng.randrange(-span, span) for _ in range(element_count)]
        reps = op_repetitions
        if op.workload_role == ROLE_MUTATE:
            # shrinking ops cannot outrun the structure
            reps = min(reps, element_count)
        values = [rng.randrange(-span, span) for _ in range(reps)]
        indices = [rng.randrange(element_count) for _ in range(reps)]
        # half the probes hit existing elements, half likely miss
        probes = []
        for i in range(reps):
            if i % 2 == 0:
                probes.append(contents[rng.randrange(element_count)])
            else:
                probes.append(rng.randrange(-span, span))
        shuffled_order = list(range(element_count))
        rng.shuffle(shuffled_order)
        return cls(contents, reps, values, indices, probes, shuffled_order)


def derive_seed(base_seed: int, *parts: str) -> int:
    """Stable per-cell seed; crc32 keeps it identical across processes."""
    text = ":".join(parts).encode("utf-8")
    return (base_seed * 2654435761 + zlib.crc32(text)) % 2**63


OpFunc = Callable[[Any, Workload], None]


@dataclass
class ImplementationAdapter:
    """Descriptor plus the concrete way this implementation does each op.

    A descriptor-only adapter (no factory, no ops) is valid for groups that
    exist to validate reports and recommend, never to benchmark.
    """

    descriptor: ImplementationDescriptor
    factory: Callable[[Sequence[int]], Any] | None = None
    ops: dict[str, OpFunc] = field(default_factory=dict)

    @property
    def impl_id(self) -> str:
        return self.descriptor.impl_id

    def supports(self, op_id: str) -> bool:
        return op_id in self.ops


@dataclass
class ConstructGroup:
    api_kind: str
    implementations: list[ImplementationAdapter]
    operations: list[OperationSpec]

    def __post_init__(self):
        ids = [a.impl_id for a in self.implementations]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate impl ids in {self.api_kind} group: {ids}")
        op_ids = [o.op_id for o in self.operations]
        if len(op_ids) != len(set(op_ids)):
            raise ValueError(f"duplicate op ids in {self.api_kind} group: {op_ids}")
        for adapter in self.implementations:
            if adapter.descriptor.api_kind != self.api_kind:
                raise ValueError(
                    f"{adapter.impl_id} is {adapter.descriptor.api_kind}, "
                    f"not {self.api_kind}"
                )

    def descriptors(self) -> list[ImplementationDescriptor]:
        return [a.descriptor for a in self.implementations]

    def adapter(self, impl_id: str) -> ImplementationAdapter:
        for a in self.implementations:
            if a.impl_id == impl_id:
                return a
        raise KeyError(impl_id)

    def unsupported_ops(self, impl_id: str) -> list[str]:
        adapter = self.adapter(impl_id)
        return [o.op_id for o in self.operations if not adapter.supports(o.op_id)]


# --- list operation bodies ---------------------------------------------------
# Each body applies the operation workload.repetitions times; structure
# creation happens in the factory, outside the metered span.

def _seq_list_ops(random_access: bool) -> dict[str, OpFunc]:
    """Ops for anything speaking the mutable-sequence protocol."""

    def insert_start(s, w: Workload):
        for v in w.values:
            s.insert(0, v)

    def insert_middle(s, w: Workload):
        for v in w.values:
            s.insert(len(s) // 2, v)

    def insert_end(s, w: Workload):
        for v in w.values:
            s.append(v)

    def insert_value(s, w: Workload):
        for v in w.probes:
            try:
                i = s.index(v)
            except ValueError:
                i = len(s)
            s.insert(i, v)

    def remove_start(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop(0)

    def remove_middle(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop(len(s) // 2)

    def remove_end(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop()

    def remove_value(s, w: Workload):
        for v in w.probes:
            try:
                s.remove(v)
            except ValueError:
                pass

    def get_random(s, w: Workload):
        n = len(s)
        for i in w.indices:
            s[i % n]

    def iter_seq(s, w: Workload):
        for _ in range(w.repetitions):
            for _x in s:
                pass

    def iter_random(s, w: Workload):
        order = w.shuffled_order
        for _ in range(w.repetitions):
            for i in order:
                s[i]

    def contains(s, w: Workload):
        for v in w.probes:
            v in s

    ops = {
        "insert(start)": insert_start,
        "insert(middle)": insert_middle,
        "insert(end)": insert_end,
        "insert(value)": insert_value,
        "remove(start)": remove_start,
        "remove(middle)": remove_middle,
        "remove(end)": remove_end,
        "remove(value)": remove_value,
        "get(random-index)": get_random,
        "iteration(iterator)": iter_seq,
        "contains(value)": contains,
    }
    if random_access:
        ops["iteration(random)"] = iter_random
    return ops


def _deque_ops() -> dict[str, OpFunc]:
    ops = _seq_list_ops(random_access=False)

    def insert_start(s: deque, w: Workload):
        for v in w.values:
            s.appendleft(v)

    def remove_start(s: deque, w: Workload):
        for _ in range(w.repetitions):
            s.popleft()

    def remove_middle(s: deque, w: Workload):
        for _ in range(w.repetitions):
            del s[len(s) // 2]

    ops["insert(start)"] = insert_start
    ops["remove(start)"] = remove_start
    ops["remove(middle)"] = remove_middle
    return ops


def _linked_list_ops() -> dict[str, OpFunc]:
    def insert_start(s: structures.LinkedList, w: Workload):
        for v in w.values:
            s.push_front(v)

    def insert_middle(s, w: Workload):
        for v in w.values:
            s.insert_at(len(s) // 2, v)

    def insert_end(s, w: Workload):
        for v in w.values:
            s.append(v)

    def insert_value(s, w: Workload):
        for v in w.probes:
            i = s.index_of(v)
            s.insert_at(i if i >= 0 else len(s), v)

    def remove_start(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop_front()

    def remove_middle(s, w: Workload):
        for _ in range(w.repetitions):
            s.remove_at(len(s) // 2)

    def remove_end(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop_back()

    def remove_value(s, w: Workload):
        for v in w.probes:
            s.remove_value(v)

    def iter_seq(s, w: Workload):
        for _ in range(w.repetitions):
            for _x in s:
                pass

    def contains(s, w: Workload):
        for v in w.probes:
            v in s

    # no positional get: get(random-index) and iteration(random) unsupported
    return {
        "insert(start)": insert_start,
        "insert(middle)": insert_middle,
        "insert(end)": insert_end,
        "insert(value)": insert_value,
        "remove(start)": remove_start,
        "remove(middle)": remove_middle,
        "remove(end)": remove_end,
        "remove(value)": remove_value,
        "iteration(iterator)": iter_seq,
        "contains(value)": contains,
    }


def _wrapped_list_ops() -> dict[str, OpFunc]:
    """Ops for CopyOnWriteList / SynchronizedList (shared method names)."""

    def insert_start(s, w: Workload):
        for v in w.values:
            s.insert(0, v)

    def insert_middle(s, w: Workload):
        for v in w.values:
            s.insert(len(s) // 2, v)

    def insert_end(s, w: Workload):
        for v in w.values:
            s.append(v)

    def insert_value(s, w: Workload):
        for v in w.probes:
            i = s.index_of(v)
            s.insert(i if i >= 0 else len(s), v)

    def remove_start(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop(0)

    def remove_middle(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop(len(s) // 2)

    def remove_end(s, w: Workload):
        for _ in range(w.repetitions):
            s.pop()

    def remove_value(s, w: Workload):
        for v in w.probes:
            s.remove_value(v)

    def get_random(s, w: Workload):
        n = len(s)
        for i in w.indices:
            s[i % n]

    def iter_seq(s, w: Workload):
        for _ in range(w.repetitions):
            for _x in s:
                pass

    def iter_random(s, w: Workload):
        order = w.shuffled_order
        for _ in range(w.repetitions):
            for i in order:
                s[i]

    def contains(s, w: Workload):
        for v in w.probes:
            v in s

    return {
        "insert(start)": insert_start,
        "insert(middle)": insert_middle,
        "insert(end)": insert_end,
        "insert(value)": insert_value,
        "remove(start)": remove_start,
        "remove(middle)": remove_middle,
        "remove(end)": remove_end,
        "remove(value)": remove_value,
        "get(random-index)": get_random,
        "iteration(iterator)": iter_seq,
        "iteration(random)": iter_random,
        "contains(value)": contains,
    }


# --- map / set operation bodies ----------------------------------------------

def _dict_like_ops() -> dict[str, OpFunc]:
    def put(m, w: Workload):
        for v in w.values:
            m[v] = v

    def get(m, w: Workload):
        for k in w.probes:
            m.get(k)

    def remove(m, w: Workload):
        for k in w.probes:
            m.pop(k, None)

    def iter_entries(m, w: Workload):
        for _ in range(w.repetitions):
            for _kv in m.items():
                pass

    return {"put": put, "get": get, "remove": remove,
            "iteration(entries)": iter_entries}


def _method_map_ops() -> dict[str, OpFunc]:
    """Ops for AvlTreeMap / SynchronizedDict (put/get/remove methods)."""

    def put(m, w: Workload):
        for v in w.values:
            m.put(v, v)

    def get(m, w: Workload):
        for k in w.probes:
            m.get(k)

    def remove(m, w: Workload):
        for k in w.probes:
            m.remove(k)

    def iter_entries(m, w: Workload):
        for _ in range(w.repetitions):
            for _kv in m.items():
                pass

    return {"put": put, "get": get, "remove": remove,
            "iteration(entries)": iter_entries}


def _set_like_ops() -> dict[str, OpFunc]:
    def add(s, w: Workload):
        for v in w.values:
            s.add(v)

    def contains(s, w: Workload):
        for v in w.probes:
            v in s

    def iterate(s, w: Workload):
        for _ in range(w.repetitions):
            for _x in s:
                pass

    return {"add": add, "contains": contains, "iteration": iterate}


# --- built-in registry --------------------------------------------------------

def _ops_specs(kind: str, table) -> list[OperationSpec]:
    return [OperationSpec(op_id, kind, role) for op_id, role in table]


def _adapter(impl_id, kind, thread_safe, source, factory, ops):
    desc = ImplementationDescriptor(impl_id, kind, thread_safe, source)
    return ImplementationAdapter(desc, factory, ops)


def _build_list_group() -> ConstructGroup:
    impls = [
        _adapter("array_list", KIND_LIST, False, "stdlib",
                 list, _seq_list_ops(random_access=True)),
        _adapter("block_deque", KIND_LIST, False, "stdlib",
                 deque, _deque_ops()),
        _adapter("cow_list", KIND_LIST, True, "voltpick",
                 structures.CopyOnWriteList, _wrapped_list_ops()),
        _adapter("linked_list", KIND_LIST, False, "voltpick",
                 structures.LinkedList, _linked_list_ops()),
        _adapter("sync_list", KIND_LIST, True, "voltpick",
                 structures.SynchronizedList, _wrapped_list_ops()),
        _adapter("typed_array", KIND_LIST, False, "stdlib",
                 lambda values: array("q", values),
                 _seq_list_ops(random_access=True)),
    ]
    return ConstructGroup(KIND_LIST, impls, _ops_specs(KIND_LIST, LIST_OPS))


def _build_map_group() -> ConstructGroup:
    def dict_factory(values):
        return {v: v for v in values}

    def odict_factory(values):
        return OrderedDict((v, v) for v in values)

    def avl_factory(values):
        return structures.AvlTreeMap((v, v) for v in values)

    def sync_factory(values):
        return structures.SynchronizedDict((v, v) for v in values)

    impls = [
        _adapter("avl_tree_map", KIND_MAP, False, "voltpick",
                 avl_factory, _method_map_ops()),
        _adapter("hash_map", KIND_MAP, False, "stdlib",
                 dict_factory, _dict_like_ops()),
        _adapter("ordered_hash_map", KIND_MAP, False, "stdlib",
                 odict_factory, _dict_like_ops()),
        _adapter("sync_hash_map", KIND_MAP, True, "voltpick",
                 sync_factory, _method_map_ops()),
    ]
    return ConstructGroup(KIND_MAP, impls, _ops_specs(KIND_MAP, MAP_OPS))


def _build_set_group() -> ConstructGroup:
    impls = [
        _adapter("avl_tree_set", KIND_SET, False, "voltpick",
                 structures.AvlTreeSet, _set_like_ops()),
        _adapter("hash_set", KIND_SET, False, "stdlib",
                 set, _set_like_ops()),
        _adapter("sync_hash_set", KIND_SET, True, "voltpick",
                 structures.SynchronizedSet, _set_like_ops()),
    ]
    return ConstructGroup(KIND_SET, impls, _ops_specs(KIND_SET, SET_OPS))


_BUILDERS = {
    KIND_LIST: _build_list_group,
    KIND_MAP: _build_map_group,
    KIND_SET: _build_set_group,
}


def builtin_group(api_kind: str) -> ConstructGroup:
    try:
        return _BUILDERS[api_kind]()
    except KeyError:
        raise KeyError(f"no built-in group for api_kind {api_kind!r}") from None


def builtin_groups(kinds: Iterable[str] = (KIND_LIST, KIND_MAP, KIND_SET)) -> list[ConstructGroup]:
    return [builtin_group(kind) for kind in kinds]


def descriptor_index(groups: Iterable[ConstructGroup]) -> dict[str, ImplementationDescriptor]:
    """impl_id -> descriptor over a set of groups."""
    index: dict[str, ImplementationDescriptor] = {}
    for group in groups:
        for desc in group.descriptors():
            index[desc.impl_id] = desc
    return index


def make_descriptor_group(api_kind: str,
                          descriptors: Iterable[ImplementationDescriptor],
                          op_ids: Iterable[str]) -> ConstructGroup:
    """Group with descriptors only (no runnable adapters).

    Useful for validating reports and recommending against profiles that
    were built elsewhere.
    """
    adapters = [ImplementationAdapter(d) for d in descriptors]
    ops = [OperationSpec(op_id, api_kind, ROLE_QUERY) for op_id in op_ids]
    return ConstructGroup(api_kind, adapters, ops)
