"""Logic-tree ingestion: parse, validate, and normalize query-tree JSON.

A tree document is a nested JSON object with two node forms:

* internal: ``{"op": "AND"|"OR"|"SEQ"|"RIGHT_AFTER", "children": [...]}``
* leaf: ``{"op": "LEAF", "expert": ..., "query": ...}`` or the implicit
  form ``{"expert": ..., "query": ...}`` with no ``op`` key.

Both leaf surfaces normalize to the same internal node. Parsed trees are
immutable and safe to share across concurrent evaluations. Every leaf gets
a dense integer id assigned in depth-first pre-order; these ids key the
per-leaf attribution produced downstream.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from . import jsonio
from .errors import (
    ArityError,
    EmptyQueryError,
    InactiveExpertError,
    SchemaError,
    TreeSyntaxError,
)

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_LEAVES = 4096


class ExpertKind(str, enum.Enum):
    CLIP = "CLIP"
    OVD = "OVD"
    OCR = "OCR"
    ASR = "ASR"
    CLAP = "CLAP"

    def __str__(self):
        return self.value


class OperatorKind(str, enum.Enum):
    AND = "AND"
    OR = "OR"
    SEQ = "SEQ"
    RIGHT_AFTER = "RIGHT_AFTER"

    def __str__(self):
        return self.value


ALL_EXPERTS = tuple(ExpertKind)

_LEAF_OP = "LEAF"
_LEAF_KEYS = {"op", "expert", "query"}
_INTERNAL_KEYS = {"op", "children"}


@dataclass(frozen=True)
class TreeNode:
    """One node: exclusively internal (op + children) or leaf (expert + query)."""

    op: OperatorKind | None = None
    children: tuple[TreeNode, ...] = ()
    expert: ExpertKind | None = None
    query: str | None = None
    leaf_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.expert is not None


@dataclass(frozen=True)
class LogicTree:
    """Validated, immutable tree with pre-order leaf ids 0..L-1."""

    root: TreeNode
    leaves: tuple[TreeNode, ...]
    depth: int

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)


def parse_tree(
    document: str,
    *,
    active_experts=ALL_EXPERTS,
    strict: bool = True,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_leaves: int = DEFAULT_MAX_LEAVES,
) -> LogicTree:
    """Parse a JSON document into a validated :class:`LogicTree`.

    ``strict`` rejects unknown extra fields on any node; lenient mode ignores
    them. ``active_experts`` is the configured expert set; a leaf routed to
    any other expert raises :class:`InactiveExpertError`. ``max_depth`` and
    ``max_leaves`` bound adversarial inputs.
    """
    try:
        raw = json.loads(document)
    except ValueError as exc:
        # Invalid syntax, or an integer past the interpreter's digit limit.
        raise TreeSyntaxError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # json.loads recursion-limits before our own depth cap can apply
        raise SchemaError("document nesting exceeds parser limits") from None
    active = frozenset(ExpertKind(e) for e in active_experts)
    builder = _Builder(active, strict, max_depth, max_leaves)
    root = builder.build(raw, "$", 1)
    return LogicTree(root=root, leaves=tuple(builder.leaves), depth=builder.max_seen_depth)


class _Builder:
    def __init__(self, active, strict, max_depth, max_leaves):
        self.active = active
        self.strict = strict
        self.max_depth = max_depth
        self.max_leaves = max_leaves
        self.leaves = []
        self.max_seen_depth = 0

    def build(self, raw, path, depth):
        if depth > self.max_depth:
            raise SchemaError(f"tree depth exceeds limit {self.max_depth}", path)
        if not isinstance(raw, dict):
            raise SchemaError(f"node must be a JSON object, got {type(raw).__name__}", path)
        self.max_seen_depth = max(self.max_seen_depth, depth)

        op_raw = raw.get("op")
        if op_raw is not None and not isinstance(op_raw, str):
            raise SchemaError("'op' must be a string", path)
        op_name = op_raw.upper() if isinstance(op_raw, str) else None

        if op_name is None or op_name == _LEAF_OP:
            # Leaf: explicit "LEAF" op or implicit expert+query form.
            if op_name is None and not ("expert" in raw or "query" in raw):
                raise SchemaError("node has neither 'op' nor leaf fields", path)
            return self._build_leaf(raw, path)
        if op_name in OperatorKind.__members__:
            return self._build_internal(OperatorKind[op_name], raw, path, depth)
        raise SchemaError(f"unknown op {op_raw!r}", path)

    def _check_extras(self, raw, allowed, path):
        extras = set(raw) - allowed
        if extras and self.strict:
            raise SchemaError(f"unexpected fields {sorted(extras)}", path)

    def _build_leaf(self, raw, path):
        if "children" in raw:
            raise SchemaError("leaf node must not carry 'children'", path)
        self._check_extras(raw, _LEAF_KEYS, path)
        if "expert" not in raw or "query" not in raw:
            raise SchemaError("leaf node requires 'expert' and 'query'", path)
        expert_raw = raw["expert"]
        if not isinstance(expert_raw, str):
            raise SchemaError("'expert' must be a string", path)
        try:
            expert = ExpertKind(expert_raw.upper())
        except ValueError:
            raise SchemaError(f"unknown expert {expert_raw!r}", path) from None
        query_raw = raw["query"]
        if not isinstance(query_raw, str):
            raise SchemaError("'query' must be a string", path)
        query = query_raw.strip()
        if not query:
            raise EmptyQueryError("leaf query is empty", path)
        if expert not in self.active:
            raise InactiveExpertError(
                f"expert {expert} is not in the active set "
                f"{sorted(e.value for e in self.active)}",
                path,
            )
        if len(self.leaves) >= self.max_leaves:
            raise SchemaError(f"leaf count exceeds limit {self.max_leaves}", path)
        node = TreeNode(expert=expert, query=query, leaf_id=len(self.leaves))
        self.leaves.append(node)
        return node

    def _build_internal(self, op, raw, path, depth):
        if "expert" in raw or "query" in raw:
            raise SchemaError("internal node must not carry leaf fields", path)
        self._check_extras(raw, _INTERNAL_KEYS, path)
        if "children" not in raw:
            raise SchemaError("operator node requires 'children'", path)
        children_raw = raw["children"]
        if not isinstance(children_raw, list):
            raise SchemaError("'children' must be an array", path)
        n = len(children_raw)
        if op is OperatorKind.RIGHT_AFTER and n != 2:
            raise ArityError(f"RIGHT_AFTER requires exactly 2 children, got {n}", path)
        if op is not OperatorKind.RIGHT_AFTER and n < 2:
            raise ArityError(f"{op} requires at least 2 children, got {n}", path)
        children = tuple(
            self.build(child, f"{path}.children[{i}]", depth + 1)
            for i, child in enumerate(children_raw)
        )
        return TreeNode(op=op, children=children)


def leaves_by_expert(tree: LogicTree) -> dict[ExpertKind, list[int]]:
    """Partition leaf ids by expert, preserving pre-order within each group.

    Experts with no leaves are absent from the map. Conditioning uses it to
    normalize and smooth each expert's rows as one group.
    """
    groups: dict[ExpertKind, list[int]] = {}
    for leaf in tree.leaves:
        groups.setdefault(leaf.expert, []).append(leaf.leaf_id)
    return groups
