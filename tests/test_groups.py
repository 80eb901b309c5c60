import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyball import SpecParseError, WordError, parse_group_spec
from cayleyball.groups import InternalCheckError
from oracles import z2z3_rewrite


def test_parse_free_group():
    spec = parse_group_spec("F(a,b)")
    assert spec.generator_names == ("a", "b")


def test_parse_free_product_of_cyclics():
    spec = parse_group_spec("Z2 * Z3")
    assert spec.generator_names == ("t1", "t2")
    # t1 has order 2, t2 order 3
    t1, t2 = (spec.parse_word(n) for n in ("t1", "t2"))
    assert spec.multiply(t1, t1) == spec.identity()
    assert spec.multiply(t2, spec.multiply(t2, t2)) == spec.identity()


def test_parse_direct_product_and_nesting():
    spec = parse_group_spec("(Z2 * Z3) x Z")
    assert spec.generator_names == ("t1", "t2", "t3")
    spec = parse_group_spec("Z x Z")
    assert spec.parse_word("t1.t2^-1") == (1, -1)


def test_parse_symmetric():
    spec = parse_group_spec("S4")
    assert spec.generator_names == ("s1_1", "s1_2", "s1_3")
    s1 = spec.parse_word("s1_1")
    assert spec.multiply(s1, s1) == spec.identity()


@pytest.mark.parametrize(
    "bad",
    ["F(a,a)", "Z1", "S1", "F(a,b", "", "ZxZ", "F()", "Z2 Z3", "* Z2", "F(1a)"],
)
def test_parse_errors(bad):
    with pytest.raises(SpecParseError):
        parse_group_spec(bad)


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError) as err:
        parse_group_spec("F(a,a)")
    assert err.value.position == 4


def test_unknown_generator_in_word():
    spec = parse_group_spec("F(a,b)")
    with pytest.raises(WordError):
        spec.parse_word("a.c")


def test_inverse_cancellation():
    spec = parse_group_spec("F(a,b)")
    assert spec.multiply(spec.parse_word("a"), spec.parse_word("a^-1")) == spec.identity()


def test_one_reduction_step():
    spec = parse_group_spec("F(a,b)")
    product = spec.multiply(spec.parse_word("a.b"), spec.parse_word("b^-1.a"))
    assert product == spec.parse_word("a.a")


def test_free_product_syllable_collapse():
    # st * tt = s: the t-syllable becomes t^3 = 1 and vanishes
    spec = parse_group_spec("Z2 * Z3")
    st, tt = spec.parse_word("t1.t2"), spec.parse_word("t2.t2")
    assert spec.multiply(st, tt) == spec.parse_word("t1")


def _random_word(rng, names, length):
    return ".".join(
        n if rng.random() < 0.5 else f"{n}^-1"
        for n in (rng.choice(names) for _ in range(length))
    )


GROUPS = ["F(a,b)", "Z", "Z6", "S4", "Z2 * Z3", "Z x Z", "(Z2 * Z3) x Z2"]


@pytest.mark.parametrize("text", GROUPS)
def test_word_evaluation_matches_letter_chain(text):
    # parse_word agrees with multiplying the letters one at a time
    spec = parse_group_spec(text)
    names = list(spec.generator_names)
    rng = random.Random(101)
    for _ in range(1000):
        word = _random_word(rng, names, rng.randint(0, 8))
        chained = spec.identity()
        if word:
            for token in word.split("."):
                chained = spec.multiply(chained, spec.parse_word(token))
        assert spec.parse_word(word) == chained


@pytest.mark.parametrize("text", GROUPS)
def test_group_axioms_on_random_triples(text):
    spec = parse_group_spec(text)
    names = list(spec.generator_names)
    rng = random.Random(202)
    for _ in range(300):
        e, f, g = (
            spec.parse_word(_random_word(rng, names, rng.randint(0, 6)))
            for _ in range(3)
        )
        assert spec.multiply(spec.multiply(e, f), g) == spec.multiply(e, spec.multiply(f, g))
        assert spec.multiply(e, spec.identity()) == e
        assert spec.multiply(spec.identity(), e) == e
        assert spec.multiply(spec.invert(e), e) == spec.identity()
        assert spec.multiply(e, spec.invert(e)) == spec.identity()


@pytest.mark.parametrize("text", GROUPS)
def test_format_parse_round_trip(text):
    spec = parse_group_spec(text)
    names = list(spec.generator_names)
    rng = random.Random(303)
    for _ in range(300):
        e = spec.parse_word(_random_word(rng, names, rng.randint(0, 8)))
        assert spec.parse_word(spec.format_element(e)) == e
    assert spec.format_element(spec.identity()) == "1"
    assert spec.parse_word("1") == spec.identity()


def test_free_product_normal_form_is_reduced():
    spec = parse_group_spec("Z2 * Z3")
    rng = random.Random(404)
    names = list(spec.generator_names)
    for _ in range(500):
        e = spec.parse_word(_random_word(rng, names, rng.randint(0, 10)))
        f = spec.parse_word(_random_word(rng, names, rng.randint(0, 10)))
        product = spec.multiply(e, f)
        for i, (fi, comp) in enumerate(product):
            assert comp != spec.root.factors[fi].identity()
            if i:
                assert product[i - 1][0] != fi


def _full_rescan_multiply(root, a, b):
    # free reduction of the concatenation, then a check of every syllable
    out = list(a)
    for fi, e in b:
        if out and out[-1][0] == fi:
            merged = root.factors[fi].multiply(out[-1][1], e)
            if merged == root.factors[fi].identity():
                out.pop()
            else:
                out[-1] = (fi, merged)
        else:
            out.append((fi, e))
    if not root._reduced(out):
        raise InternalCheckError("free-product normal form violated")
    return tuple(out)


def _draw_syllables(data, root):
    # a reduced syllable word: non-identity syllables, neighbours in
    # different factors
    word = []
    for _ in range(data.draw(st.integers(0, 6))):
        fi = data.draw(st.sampled_from([f for f in range(len(root.factors)) if not word or word[-1][0] != f]))
        factor = root.factors[fi]
        gens = [e for _, e in factor.gens()] + [factor.invert(e) for _, e in factor.gens()]
        e = factor.identity()
        for g in data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)):
            e = factor.multiply(e, g)
        if e != factor.identity():
            word.append((fi, e))
    return tuple(word)


@settings(max_examples=300)
@given(data=st.data())
def test_free_product_junction_check_matches_full_rescan(data):
    # multiply checks the normal form only where its factors meet; on
    # reduced factors it agrees with free reduction followed by a check of
    # every syllable, and so it does on a left factor with an identity
    # syllable that the right factor uncovers by cancelling what follows it
    text = data.draw(st.sampled_from(["Z2 * Z3", "Z * Z4", "S3 * Z", "(Z x Z) * Z2", "Z2 * Z3 * Z"]))
    root = parse_group_spec(text).root
    a, b = _draw_syllables(data, root), _draw_syllables(data, root)
    if data.draw(st.booleans()):
        a += ((0, root.factors[0].identity()),) + b
        b = root.invert(b)
    try:
        want = _full_rescan_multiply(root, a, b)
    except InternalCheckError:
        with pytest.raises(InternalCheckError):
            root.multiply(a, b)
    else:
        assert root.multiply(a, b) == want


def test_free_product_against_rewriting_oracle():
    # canonicity: two words are equal iff the string-rewriting oracle agrees
    spec = parse_group_spec("Z2 * Z3")
    rng = random.Random(505)
    alphabet = {"t1": "s", "t2": "t", "t2^-1": "T"}

    def to_oracle(word):
        return "".join(alphabet[tok] for tok in word.split(".")) if word else ""

    seen = {}
    for _ in range(1000):
        tokens = [rng.choice(list(alphabet)) for _ in range(rng.randint(0, 9))]
        word = ".".join(tokens)
        element = spec.parse_word(word)
        normal = z2z3_rewrite(to_oracle(word))
        if normal in seen:
            assert seen[normal] == element
        else:
            seen[normal] = element
    # distinct normal forms stayed distinct elements
    assert len(set(seen.values())) == len(seen)


def test_symmetric_word_decomposition():
    import itertools

    spec = parse_group_spec("S4")
    for perm in itertools.permutations(range(4)):
        assert spec.parse_word(spec.format_element(perm)) == perm


def test_elements_are_hashable_values():
    spec = parse_group_spec("(Z2 * Z3) x Z2")
    e = spec.parse_word("t1.t3")
    assert {e: 1}[spec.multiply(e, spec.identity())] == 1
