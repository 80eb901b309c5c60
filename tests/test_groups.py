import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyball import SpecParseError, WordError, groups, parse_group_spec
from cayleyball.ball import resolve_letters
from cayleyball.groups import ElementCodes, InternalCheckError
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
    ["F(a,a)", "Z1", "S1", "F(a,b", "", "ZxZ", "F()", "Z2 Z3", "* Z2", "F(1a)", "Z4611686018427387905"],
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


def test_powers_by_squaring():
    # huge exponents take about 2 log2 |k| products, not |k|
    assert parse_group_spec("Z").parse_word("t1^1000000000000") == 10**12
    for text, word, expected in [
        ("Z2 * Z3", "t2^1000000001", "t2^-1"),
        ("S4", "s1_1^1000000001", "s1_1"),
        ("F(a,b)", "a^-5.b^3", "a^-1.a^-1.a^-1.a^-1.a^-1.b.b.b"),
    ]:
        spec = parse_group_spec(text)
        assert spec.parse_word(word) == spec.parse_word(expected)


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


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from(["t1", "t2"]), st.integers(-4, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        max_size=10,
    )
)
def test_free_group_is_the_free_product_of_z(tokens):
    # F(t1,t2) and Z * Z are one group with one element form
    word = ".".join(tokens)
    free, star = parse_group_spec("F(t1,t2)"), parse_group_spec("Z * Z")
    e = free.parse_word(word)
    assert e == star.parse_word(word)
    assert free.format_element(e) == star.format_element(e)


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


def _codes(text):
    spec = parse_group_spec(text)
    return spec, ElementCodes(spec.root)


@pytest.mark.parametrize("letter", ["1", "t2", "t2^-1"])
def test_free_product_codes_check_normal_form(letter):
    # a non-reduced element trips the scalar junction check, and encoding one
    # (an identity syllable, or two neighbouring syllables of one factor) is
    # refused rather than given a prefix-table id
    spec, codes = _codes("Z2 * Z3")
    identity_syllable = ((0, spec.root.factors[0].identity()),)
    e = spec.parse_word(letter)
    with pytest.raises(InternalCheckError, match="free-product normal form"):
        spec.multiply(identity_syllable, e)
    for bad in (identity_syllable + e, e + identity_syllable, ((1, 1),) + e + ((1, 2),)):
        with pytest.raises(InternalCheckError, match="free-product normal form"):
            codes.encode(bad)


@pytest.mark.parametrize(
    "text,full,letter,fresh",
    [("Z2 * Z3", "t1.t2", "t1", "t2^-1"), ("F(a,b)", "a.b", "a", "a^-1"), ("(Z2 * Z3) x Z", "t1.t2", "t1", "t2^-1")],
)
def test_codes_refuse_id_overflow(monkeypatch, text, full, letter, fresh):
    # with ids bounded by 3, the table holds the identity, full's prefix and
    # full, and syllable ids 1 and 2: one more id of either kind raises
    # before the table changes, so no key ever wraps
    spec, codes = _codes(text)
    block = codes.encode(spec.parse_word(full))[None, :]
    monkeypatch.setattr(groups, "_MAX_ID", 3)
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="ids past 3"):
            codes.multiply(block, [spec.parse_word(letter)])
        with pytest.raises(InternalCheckError, match="ids past 3"):
            codes.encode(spec.parse_word(f"{full}.{letter}"))
        with pytest.raises(InternalCheckError, match="ids past 3"):
            codes.multiply(codes.encode(spec.identity())[None, :], [spec.parse_word(fresh)])
    assert codes.multiply(block, [spec.parse_word(letter)], add=False)[0, 0, 0] == -1
    assert codes.encode(spec.parse_word(full)).tolist() == block[0].tolist()


def test_codes_refuse_value_beyond_bound():
    # a Z value reaching 2**62 raises, one just below multiplies exactly,
    # and so no sum of two in-range values wraps int64
    limit = 1 << 62
    spec, codes = _codes("Z x Z")
    block = codes.encode(spec.parse_word(f"t1^{limit // 2}"))[None, :]
    below = codes.multiply(block, [spec.parse_word(f"t1^{limit // 2 - 1}"), spec.parse_word(f"t1^{-limit // 2 + 1}")])
    assert below.dtype == np.int64 and below.tolist() == [[[limit - 1, 0], [1, 0]]]
    with pytest.raises(ValueError, match=r"2\*\*62"):
        codes.multiply(block, [spec.parse_word(f"t1^{limit // 2}")])
    for value in (limit, -limit, 10**20):
        with pytest.raises(ValueError, match=r"2\*\*62"):
            codes.encode(spec.parse_word(f"t2^{value}"))
    assert codes.encode(spec.parse_word(f"t2^{1 - limit}")).tolist() == [0, 1 - limit]


@settings(max_examples=200)
@given(data=st.data())
def test_codes_multiply_like_elements(data):
    # codes of a * b for random a and letters b equal the codes of the
    # scalar products, and equal codes mean equal elements
    texts = ["Z2 * Z3", "F(a,b)", "S3 * Z", "(Z x Z4) * S3", "(Z2 * Z3) x Z", "(Z * Z2) * F(a)"]
    texts += ["Z x Z", "Z6 x S3", "Z x Z4 x S3"]  # no free product
    text = data.draw(st.sampled_from(texts))
    spec, codes = _codes(text)
    names = list(spec.generator_names)
    token = st.sampled_from(names + [f"{n}^-1" for n in names])
    words = data.draw(st.lists(st.lists(token, max_size=4), min_size=1, max_size=6))
    elements = [spec.parse_word(".".join(w)) for w in words]
    letters = [l.element for l in resolve_letters(spec)]
    block = np.stack([codes.encode(e) for e in elements])
    products = codes.multiply(block, letters)
    for i, e in enumerate(elements):
        for li, b in enumerate(letters):
            assert products[i, li].tolist() == codes.encode(spec.multiply(e, b)).tolist()
    rows = {codes.encode(e).tobytes(): e for e in elements}
    assert len(rows) == len(set(elements))
