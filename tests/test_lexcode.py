import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import lexcode, oracles, suites
from orderlab.errors import AlphabetMismatch, MalformedCode, UnknownTieBreak
from orderlab.order import Poset, seq_less_by, validate_poset
from orderlab.trees import TreeAutomaton, automaton


def antichain3():
    return validate_poset([], [0, 1, 2])


def chain3():
    # 2 below 1 below 0
    return validate_poset([(2, 1), (1, 0)], [0, 1, 2])


def test_antichain_table():
    code = lexcode.encode_order(antichain3())
    assert code.table == {0: (1,), 1: (3,), 2: (5,)}
    assert code.processing_order == (0, 1, 2)


def test_two_element_table():
    code = lexcode.encode_order(validate_poset([(1, 0)], [0, 1]))
    assert code.table == {0: (1,), 1: (0, 1)}


def test_chain_table():
    code = lexcode.encode_order(chain3())
    assert code.table == {0: (1,), 1: (0, 1), 2: (0, 0, 1)}
    for below, above in [(2, 1), (1, 0), (2, 0)]:
        assert seq_less_by(code.table[below], code.table[above], int.__lt__)


def test_anchor_must_be_least_word():
    # 2 sits below both roots; anchoring on the higher word (3,) would
    # produce (2,1), which is not below (1,)
    po = validate_poset([(2, 0), (2, 1)], [0, 1, 2])
    for tie in lexcode.TIE_BREAKS:
        assert lexcode.encode_order(po, tie).table[2] == (0, 1)
    # deeper case: the anchored word (0,1) beats both roots
    po = validate_poset([(2, 0), (3, 1), (3, 2)], [0, 1, 2, 3])
    for tie in lexcode.TIE_BREAKS:
        table = lexcode.encode_order(po, tie).table
        assert table[3] == (0, 0, 1)
        assert seq_less_by(table[3], table[2], int.__lt__)


def test_tie_break_validation():
    with pytest.raises(UnknownTieBreak):
        lexcode.encode_order(antichain3(), "middle-id")


def test_word_shape_and_injectivity():
    for lt in [[], [(1, 0)], [(2, 1), (1, 0)], [(2, 0), (2, 1)], [(3, 1), (3, 2), (2, 0)]]:
        elems = sorted({x for p in lt for x in p} | {0, 1, 2})
        code = lexcode.encode_order(validate_poset(lt, elems))
        words = list(code.table.values())
        assert len(set(words)) == len(words)
        for w in words:
            assert all(d % 2 == 0 for d in w[:-1])
            assert w[-1] % 2 == 1


def test_encode_element_appends_id():
    code = lexcode.encode_order(antichain3())
    assert lexcode.encode_element(code, 0) == (1, 0)
    chain = lexcode.encode_order(chain3())
    assert lexcode.encode_element(chain, 2) == (0, 0, 1, 2)


def test_encode_seq_concatenates():
    code = lexcode.encode_order(chain3())
    assert lexcode.encode_seq(code, ()) == ()
    assert lexcode.encode_seq(code, (0, 1)) == (1, 0, 0, 1, 1)
    anti = lexcode.encode_order(antichain3())
    assert lexcode.encode_seq(anti, (2,)) == (5, 2)


def test_decode_path_roundtrip_and_errors():
    code = lexcode.encode_order(chain3())
    assert lexcode.decode_path(code, (1, 0, 0, 1, 1)) == (0, 1)
    assert lexcode.decode_path(code, ()) == ()
    with pytest.raises(MalformedCode):
        lexcode.decode_path(code, (0, 0))
    with pytest.raises(MalformedCode):
        lexcode.decode_path(code, (1,))
    with pytest.raises(MalformedCode):
        # odd terminator followed by an id whose code is different
        lexcode.decode_path(code, (1, 2))


def test_converse_witness_on_small_posets():
    # whenever one word extends another's decremented stem, the owner of
    # the extension sits strictly below the stem's owner
    for lt in [[(2, 1), (1, 0)], [(2, 0), (2, 1)], [(3, 1), (3, 2), (2, 0)], []]:
        elems = sorted({x for p in lt for x in p} | {0, 1, 2})
        po = validate_poset(lt, elems)
        code = lexcode.encode_order(po)
        for x, y in itertools.permutations(elems, 2):
            wx, wy = code.table[x], code.table[y]
            stem = wx[:-1] + (wx[-1] - 1,)
            if len(wy) > len(stem) and wy[: len(stem)] == stem:
                assert po.less(y, x)


def test_prefix_freeness_with_ids():
    code = lexcode.encode_order(antichain3())
    full = {x: lexcode.encode_element(code, x) for x in (0, 1, 2)}
    for x, y in itertools.permutations((0, 1, 2), 2):
        assert full[y][: len(full[x])] != full[x]


def test_lift_tree_accepts_coded_nodes():
    po = chain3()
    code = lexcode.encode_order(po)
    aut = automaton(3, 2, 0, [(0, 0, 1), (0, 1, 0), (1, 2, 1)])
    lifted = lexcode.lift_tree(code, aut)
    for word in [(), (0,), (1,), (0, 2), (1, 0), (1, 1, 0, 2)]:
        if aut.run(word) is not None:
            assert lifted.run(lexcode.encode_seq(code, word)) is not None
    # prefixes of coded nodes are nodes of the lift
    coded = lexcode.encode_seq(code, (0, 2))
    for i in range(len(coded) + 1):
        assert lifted.run(coded[:i]) is not None


def test_lift_tree_unary_loop():
    po = validate_poset([], [0])
    code = lexcode.encode_order(po)
    lifted = lexcode.lift_tree(code, automaton(1, 1, 0, [(0, 0, 0)]))
    assert lifted.alphabet_size == 2
    assert lifted.run((1, 0, 1, 0)) is not None
    assert lifted.run((1, 0, 1)) is not None
    assert lifted.run((0,)) is None


def test_lift_tree_rejects_mismatched_alphabet():
    code = lexcode.encode_order(validate_poset([], [0, 1]))
    with pytest.raises(AlphabetMismatch):
        lexcode.lift_tree(code, automaton(3, 1, 0, []))


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(0, 2), max_size=6), st.sampled_from(lexcode.TIE_BREAKS))
def test_roundtrip_random_sequences(seq, tie):
    code = lexcode.encode_order(chain3(), tie)
    assert lexcode.decode_path(code, lexcode.encode_seq(code, seq)) == tuple(seq)


# Reference copies of the quadratic-anchor `encode_order` and the
# states-by-alphabet `lift_tree` that the current routines replaced; the
# current ones must give the same tables and the same lifted automata.


def _reference_encode_order(order, tie_break="smallest-id"):
    sign = 1 if tie_break == "smallest-id" else -1
    elems = order.sorted_elements()
    table = {}
    used = set()
    for y in elems:
        anchors = [x for x in elems if x < y and order.less(y, x)]
        if anchors:
            word = table[min(anchors, key=lambda x: (table[x], sign * x))]
            stem = word[:-1] + (word[-1] - 1,)
        else:
            stem = ()
        digit = 1
        while stem + (digit,) in used:
            digit += 2
        code = stem + (digit,)
        used.add(code)
        table[y] = code
    return table


def _reference_lift_tree(code, aut):
    words = {a: code.table[a] + (a,) for a in range(aut.alphabet_size)}
    alphabet = max((d for w in words.values() for d in w), default=-1) + 1
    delta = {}
    fresh = aut.states
    for s in range(aut.states):
        for a in range(aut.alphabet_size):
            target = aut.delta.get((s, a))
            if target is None:
                continue
            cur = s
            word = words[a]
            for d in word[:-1]:
                nxt = delta.get((cur, d))
                if nxt is None:
                    nxt = fresh
                    fresh += 1
                    delta[(cur, d)] = nxt
                cur = nxt
            delta[(cur, word[-1])] = target
    return TreeAutomaton(alphabet, fresh, aut.start, delta)


def _random_automaton(rng, letters):
    states = rng.randint(1, 5)
    delta = {
        (s, a): rng.randrange(states)
        for s in range(states)
        for a in range(letters)
        if rng.random() < 0.6
    }
    return TreeAutomaton(letters, states, rng.randrange(states), delta)


def _assert_same_as_reference(poset, rng):
    for tie in lexcode.TIE_BREAKS:
        code = lexcode.encode_order(poset, tie)
        assert code.table == _reference_encode_order(poset, tie), (poset, tie)
        assert code.processing_order == poset.sorted_elements()
    n = len(poset.elements)
    for aut in (_random_automaton(rng, n), _random_automaton(rng, n)):
        assert lexcode.lift_tree(code, aut) == _reference_lift_tree(code, aut)


def test_encode_and_lift_match_reference_on_all_small_orders():
    rng = random.Random("lexcode-reference")
    posets = oracles.all_posets(4)
    assert len(posets) == 243
    for poset in posets:
        _assert_same_as_reference(poset, rng)


def test_encode_and_lift_match_reference_on_random_orders():
    rng = random.Random("lexcode-random-reference")
    for _ in range(300):
        poset = oracles.random_poset(rng, 12)
        _assert_same_as_reference(poset, rng)
        # the same order on ids spread over 0..39
        ids = rng.sample(range(40), len(poset.elements))
        spread = Poset(frozenset(ids), frozenset((ids[x], ids[y]) for x, y in poset.lt))
        for tie in lexcode.TIE_BREAKS:
            assert lexcode.encode_order(spread, tie).table == _reference_encode_order(spread, tie)


def test_tie_break_never_decides_on_the_suite_corpus():
    """The least anchor word is unique because no word is assigned twice,
    so the id tie-break never decides: both rules give the same table."""
    for seed in range(8):
        for poset in suites._poset_corpus(random.Random(seed)):
            smallest = _reference_encode_order(poset, "smallest-id")
            assert _reference_encode_order(poset, "largest-id") == smallest
            for tie in lexcode.TIE_BREAKS:
                assert lexcode.encode_order(poset, tie).table == smallest


def test_long_descending_chain_gets_zero_runs():
    n = 1000
    ids = list(range(n - 1, -1, -1))  # 999 < 998 < ... < 0
    lt = frozenset((ids[i], ids[j]) for i in range(n) for j in range(i + 1, n))
    table = lexcode.encode_order(Poset(frozenset(ids), lt)).table
    assert table == {k: (0,) * k + (1,) for k in range(n)}
