import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himu.errors import (
    ArityError,
    EmptyQueryError,
    InactiveExpertError,
    SchemaError,
    TreeSyntaxError,
)
from himu.tree import (
    ExpertKind,
    OperatorKind,
    leaves_by_expert,
    parse_tree,
)
from oracles import tree_document


def leaf(expert="CLIP", query="a dog", explicit=True):
    node = {"expert": expert, "query": query}
    if explicit:
        node["op"] = "LEAF"
    return node


def test_single_leaf_explicit_op():
    tree = parse_tree(json.dumps(leaf("OVD", "black dog")))
    assert tree.num_leaves == 1
    assert tree.depth == 1
    assert tree.root.is_leaf
    assert tree.root.expert is ExpertKind.OVD
    assert tree.root.query == "black dog"
    assert tree.root.leaf_id == 0


def test_single_leaf_implicit_form():
    explicit = parse_tree(json.dumps(leaf("OVD", "black dog", explicit=True)))
    implicit = parse_tree(json.dumps(leaf("OVD", "black dog", explicit=False)))
    assert explicit == implicit
    assert tree_document(explicit.root) == leaf("OVD", "black dog")


def test_mcq_pattern_leaf_ids_are_preorder():
    # Shared context AND a disjunction of option branches.
    doc = {
        "op": "AND",
        "children": [
            {
                "op": "AND",
                "children": [leaf("CLIP", "lecture hall"), leaf("OCR", "slide title")],
            },
            {
                "op": "OR",
                "children": [
                    leaf("OVD", "laptop"),
                    leaf("OVD", "projector"),
                    {
                        "op": "AND",
                        "children": [leaf("ASR", "question"), leaf("CLAP", "applause")],
                    },
                    leaf("CLIP", "whiteboard"),
                ],
            },
        ],
    }
    tree = parse_tree(json.dumps(doc))
    assert tree.num_leaves == 7
    assert [l.leaf_id for l in tree.leaves] == list(range(7))
    # Pre-order: context leaves first, then options left to right.
    assert [l.query for l in tree.leaves] == [
        "lecture hall",
        "slide title",
        "laptop",
        "projector",
        "question",
        "applause",
        "whiteboard",
    ]


def test_ops_and_experts_match_case_insensitively():
    doc = {
        "op": "and",
        "children": [leaf("clip", "x"), {"op": "Leaf", "expert": "Asr", "query": "y"}],
    }
    tree = parse_tree(json.dumps(doc))
    assert tree.root.op is OperatorKind.AND
    assert tree.leaves[0].expert is ExpertKind.CLIP
    assert tree.leaves[1].expert is ExpertKind.ASR


def test_query_is_trimmed():
    tree = parse_tree(json.dumps(leaf("CLIP", "  a dog  ")))
    assert tree.root.query == "a dog"


@pytest.mark.parametrize(
    "document,error",
    [
        ("", TreeSyntaxError),
        ("{not json", TreeSyntaxError),
        ("[1, 2]", SchemaError),
        ('{"op": "NAND", "children": []}', SchemaError),
        ('{"op": 3}', SchemaError),
        ('{"weird": 1}', SchemaError),
        ('{"op": "LEAF", "expert": "CLIP"}', SchemaError),
        ('{"op": "LEAF", "query": "x"}', SchemaError),
        ('{"op": "LEAF", "expert": "SONAR", "query": "x"}', SchemaError),
        ('{"op": "AND"}', SchemaError),
        ('{"op": "AND", "children": {}}', SchemaError),
    ],
)
def test_malformed_documents(document, error):
    with pytest.raises(error):
        parse_tree(document)


def test_mixed_leaf_and_internal_fields_rejected():
    doc = {"op": "AND", "children": [leaf(), leaf()], "query": "x"}
    with pytest.raises(SchemaError):
        parse_tree(json.dumps(doc))
    doc = {"op": "LEAF", "expert": "CLIP", "query": "x", "children": []}
    with pytest.raises(SchemaError):
        parse_tree(json.dumps(doc))


def test_arity_errors():
    with pytest.raises(ArityError):
        parse_tree(json.dumps({"op": "RIGHT_AFTER", "children": [leaf()]}))
    with pytest.raises(ArityError):
        parse_tree(
            json.dumps({"op": "RIGHT_AFTER", "children": [leaf(), leaf(), leaf()]})
        )
    for op in ("AND", "OR", "SEQ"):
        with pytest.raises(ArityError):
            parse_tree(json.dumps({"op": op, "children": [leaf()]}))


def test_right_after_takes_exactly_two():
    doc = {"op": "RIGHT_AFTER", "children": [leaf("CLIP", "spark"), leaf("CLAP", "bang")]}
    tree = parse_tree(json.dumps(doc))
    assert tree.root.op is OperatorKind.RIGHT_AFTER
    assert tree.num_leaves == 2


def test_empty_query_rejected():
    with pytest.raises(EmptyQueryError):
        parse_tree(json.dumps(leaf("CLIP", "   ")))


def test_inactive_expert_rejected_with_path():
    doc = {"op": "AND", "children": [leaf("CLIP", "x"), leaf("ASR", "y")]}
    with pytest.raises(InactiveExpertError) as info:
        parse_tree(json.dumps(doc), active_experts=(ExpertKind.CLIP, ExpertKind.OVD))
    assert info.value.path == "$.children[1]"


def test_error_paths_point_at_offending_node():
    doc = {
        "op": "OR",
        "children": [
            leaf(),
            {"op": "AND", "children": [leaf(), {"op": "LEAF", "expert": "CLIP"}]},
        ],
    }
    with pytest.raises(SchemaError) as info:
        parse_tree(json.dumps(doc))
    assert info.value.path == "$.children[1].children[1]"


def test_strict_mode_rejects_unknown_fields_lenient_ignores():
    doc = {"op": "LEAF", "expert": "CLIP", "query": "x", "note": "extra"}
    with pytest.raises(SchemaError):
        parse_tree(json.dumps(doc))
    tree = parse_tree(json.dumps(doc), strict=False)
    assert tree.num_leaves == 1


def test_depth_and_leaf_limits():
    deep = leaf()
    for _ in range(40):
        deep = {"op": "AND", "children": [deep, leaf()]}
    with pytest.raises(SchemaError):
        parse_tree(json.dumps(deep), max_depth=16)
    wide = {"op": "OR", "children": [leaf(query=f"q{i}") for i in range(10)]}
    with pytest.raises(SchemaError):
        parse_tree(json.dumps(wide), max_leaves=4)


def test_extreme_nesting_is_a_schema_error_not_a_crash():
    document = '{"op":"AND","children":[' * 10_000 + "{}" + "]}" * 10_000
    with pytest.raises((SchemaError, ArityError)):
        parse_tree(document)


def test_leaves_by_expert_partition():
    doc = {
        "op": "AND",
        "children": [
            leaf("OVD", "dog"),
            leaf("ASR", "sit"),
            leaf("OVD", "ball"),
            leaf("CLIP", "park"),
        ],
    }
    tree = parse_tree(json.dumps(doc))
    groups = leaves_by_expert(tree)
    assert groups == {
        ExpertKind.OVD: [0, 2],
        ExpertKind.ASR: [1],
        ExpertKind.CLIP: [3],
    }
    assert ExpertKind.OCR not in groups
    assert ExpertKind.CLAP not in groups


def test_single_clip_leaf_group():
    tree = parse_tree(json.dumps(leaf("CLIP", "x")))
    assert leaves_by_expert(tree) == {ExpertKind.CLIP: [0]}


# --- property tests -------------------------------------------------------------

_EXPERTS = [e.value for e in ExpertKind]


def _tree_documents():
    leaf_nodes = st.builds(
        lambda e, q, explicit: (
            {"op": "LEAF", "expert": e, "query": q} if explicit else {"expert": e, "query": q}
        ),
        st.sampled_from(_EXPERTS),
        st.text(
            alphabet=st.characters(whitelist_categories=("L", "N")), min_size=1, max_size=8
        ),
        st.booleans(),
    )

    def internal(children):
        two_children = st.lists(children, min_size=2, max_size=2)
        many_children = st.lists(children, min_size=2, max_size=4)
        return st.one_of(
            st.builds(
                lambda op, cs: {"op": op, "children": cs},
                st.sampled_from(["AND", "OR", "SEQ"]),
                many_children,
            ),
            st.builds(
                lambda cs: {"op": "RIGHT_AFTER", "children": cs}, two_children
            ),
        )

    return st.recursive(leaf_nodes, internal, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_tree_documents())
def test_round_trip_and_partition(doc):
    tree = parse_tree(json.dumps(doc))
    again = parse_tree(json.dumps(tree_document(tree.root)))
    assert again == tree
    assert [l.leaf_id for l in again.leaves] == [l.leaf_id for l in tree.leaves]
    groups = leaves_by_expert(tree)
    flat = sorted(i for ids in groups.values() for i in ids)
    assert flat == list(range(tree.num_leaves))
    for expert, ids in groups.items():
        assert ids == sorted(ids)
        assert all(tree.leaves[i].expert is expert for i in ids)
