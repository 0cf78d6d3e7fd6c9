"""The flat node codec is pinned to generic RLP in both directions.

``LeafNode``/``ExtensionNode``/``BranchNode.encode`` build their bytes by
prefix arithmetic and ``decode_node`` parses them by slicing; the generic
recursive ``rlp_encode``/``rlp_decode`` are the reference.  Anything the
flat parser declines goes to the generic decoder, so malformed and
truncated input must raise exactly the exception type it always did.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import rlp_decode, rlp_encode
from repro.core.errors import TrieError
from repro.trie.nibbles import hp_decode, hp_encode
from repro.trie.nodes import (
    BRANCH_WIDTH,
    BranchNode,
    ExtensionNode,
    LeafNode,
    decode_node,
)

nibble_paths = st.lists(st.integers(0, 15), max_size=64).map(tuple)
digests = st.binary(min_size=32, max_size=32)
# Values of every RLP string form: single byte, short and long.
values = st.one_of(st.binary(max_size=3), st.binary(max_size=80), digests)

leaves = st.builds(LeafNode, nibble_paths, values)
extensions = st.builds(
    ExtensionNode, nibble_paths.filter(bool),
    st.one_of(digests, st.binary(min_size=1, max_size=40)))
branches = st.builds(
    BranchNode,
    st.lists(st.one_of(st.none(), digests, st.binary(max_size=40)),
             min_size=BRANCH_WIDTH, max_size=BRANCH_WIDTH).map(tuple),
    st.one_of(st.none(), values))
nodes = st.one_of(leaves, extensions, branches)


def reference_hp(path, is_leaf):
    flag = 2 if is_leaf else 0
    nibbles = (flag + 1,) + path if len(path) % 2 else (flag, 0) + path
    return bytes((nibbles[i] << 4) | nibbles[i + 1]
                 for i in range(0, len(nibbles), 2))


def reference_encode(node):
    if isinstance(node, LeafNode):
        return rlp_encode([reference_hp(node.path, True), node.value])
    if isinstance(node, ExtensionNode):
        return rlp_encode([reference_hp(node.path, False), node.child])
    items = [child if child is not None else b"" for child in node.children]
    items.append(node.value if node.value is not None else b"")
    return rlp_encode(items)


def reference_decode(encoded):
    items = rlp_decode(encoded)
    if not isinstance(items, list):
        raise TrieError("trie node must decode to an RLP list")
    if len(items) == 2:
        path_bytes, payload = items
        if not isinstance(path_bytes, bytes) or not isinstance(payload, bytes):
            raise TrieError("malformed two-item trie node")
        path, is_leaf = hp_decode(path_bytes)
        return (LeafNode if is_leaf else ExtensionNode)(path, payload)
    if len(items) == BRANCH_WIDTH + 1:
        children = tuple(item if isinstance(item, bytes) and item else None
                         for item in items[:BRANCH_WIDTH])
        value = items[BRANCH_WIDTH]
        return BranchNode(children,
                          value if isinstance(value, bytes) and value else None)
    raise TrieError(f"unexpected trie node arity: {len(items)}")


def outcome(decode, data):
    try:
        return "ok", decode(data)
    except Exception as error:  # the type is what must agree
        return "raised", type(error)


@settings(max_examples=400, deadline=None)
@given(nodes)
def test_encode_matches_generic_rlp(node):
    assert node.encode() == reference_encode(node)


@settings(max_examples=400, deadline=None)
@given(nodes)
def test_decode_matches_generic_rlp(node):
    encoded = node.encode()
    assert decode_node(encoded) == reference_decode(encoded)


@settings(max_examples=300, deadline=None)
@given(st.one_of(leaves, extensions, branches.filter(
    lambda b: all(c is None or c for c in b.children))))
def test_round_trip(node):
    # Empty-bytes children read back as empty slots, so they are excluded.
    decoded = decode_node(node.encode())
    if isinstance(node, BranchNode):
        assert decoded == BranchNode(node.children, node.value or None)
    else:
        assert decoded == node


@settings(max_examples=200, deadline=None)
@given(nodes, st.data())
def test_truncated_input_raises_what_generic_raises(node, data):
    encoded = node.encode()
    cut = data.draw(st.integers(0, len(encoded) - 1))
    assert outcome(decode_node, encoded[:cut]) == outcome(
        reference_decode, encoded[:cut])


@settings(max_examples=300, deadline=None)
@given(nodes, st.data())
def test_corrupted_input_agrees_with_generic(node, data):
    encoded = bytearray(node.encode())
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(st.integers(0, len(encoded) - 1))
        encoded[index] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        encoded += data.draw(st.binary(min_size=1, max_size=3))
    corrupted = bytes(encoded)
    assert outcome(decode_node, corrupted) == outcome(reference_decode, corrupted)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=120))
def test_arbitrary_bytes_agree_with_generic(data):
    assert outcome(decode_node, data) == outcome(reference_decode, data)


@settings(max_examples=300, deadline=None)
@given(nibble_paths, st.booleans())
def test_hex_prefix_matches_reference(path, is_leaf):
    encoded = hp_encode(path, is_leaf)
    assert encoded == reference_hp(path, is_leaf)
    assert hp_decode(encoded) == (path, is_leaf)
