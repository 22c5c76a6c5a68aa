"""voltpick's documented vocabulary, restated for the benchmark's own checks.

The ground truth, the synthetic profiles and the reference recommender read
these tables, never the package's registries, so a change inside the
package cannot quietly change what the benchmark expects.  The tables
restate the README ("What is measured") and the two shipped language
profiles.
"""

from __future__ import annotations

KIND_OPS = {
    "list": (
        "insert(start)", "insert(middle)", "insert(end)", "insert(value)",
        "remove(start)", "remove(middle)", "remove(end)", "remove(value)",
        "get(random-index)", "iteration(iterator)", "iteration(random)",
        "contains(value)",
    ),
    "map": ("put", "get", "remove", "iteration(entries)"),
    "set": ("add", "contains", "iteration"),
}

KIND_IMPLS = {
    "list": ("array_list", "block_deque", "cow_list", "linked_list",
             "sync_list", "typed_array"),
    "map": ("avl_tree_map", "hash_map", "ordered_hash_map", "sync_hash_map"),
    "set": ("avl_tree_set", "hash_set", "sync_hash_set"),
}

IMPL_KIND = {impl: kind for kind, impls in KIND_IMPLS.items() for impl in impls}

THREAD_SAFE = frozenset({"cow_list", "sync_list", "sync_hash_map", "sync_hash_set"})

# cells the built-in pool cannot run; every other cell is measured or discarded
UNSUPPORTED = frozenset({
    ("linked_list", "get(random-index)"),
    ("linked_list", "iteration(random)"),
    ("block_deque", "iteration(random)"),
})

CELLS = tuple((impl, op) for kind, impls in KIND_IMPLS.items()
              for impl in impls for op in KIND_OPS[kind])

# the time-power estimator's assumed power: every joule figure is 5 W x seconds
POWER_WATTS = 5.0

# method token -> operation, per language and api kind
METHODS = {
    "minilang": {
        "list": {
            "push_front": "insert(start)", "insert_at": "insert(middle)",
            "push": "insert(end)", "insert_near": "insert(value)",
            "pop_front": "remove(start)", "remove_at": "remove(middle)",
            "pop": "remove(end)", "remove_value": "remove(value)",
            "get": "get(random-index)", "each": "iteration(iterator)",
            "shuffled_each": "iteration(random)", "has": "contains(value)",
        },
        "map": {"put": "put", "get": "get", "drop": "remove",
                "each": "iteration(entries)"},
        "set": {"add": "add", "has": "contains", "each": "iteration"},
    },
    "clike": {
        "list": {
            "add_first": "insert(start)", "add_at": "insert(middle)",
            "add": "insert(end)", "add_near": "insert(value)",
            "remove_first": "remove(start)", "remove_at": "remove(middle)",
            "remove_last": "remove(end)", "remove": "remove(value)",
            "get": "get(random-index)", "for_each": "iteration(iterator)",
            "shuffled_each": "iteration(random)", "contains": "contains(value)",
        },
        "map": {"put": "put", "get": "get", "remove": "remove",
                "for_each": "iteration(entries)"},
        "set": {"add": "add", "contains": "contains", "for_each": "iteration"},
    },
}
