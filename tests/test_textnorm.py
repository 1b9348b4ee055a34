import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from pdcurate.textnorm import NormMode, char_ratios, is_alpha_word, normalize, tokenize, word_ngrams


def test_tokenize_whitespace_runs():
    assert tokenize("hello  world") == ["hello", "world"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_sinhala_sentence():
    assert len(tokenize("මම ගෙදර යමි .")) == 4


def test_tokenize_mixed_whitespace():
    assert tokenize("a\tb\nc d") == ["a", "b", "c", "d"]


@given(st.text())
def test_tokenize_join_idempotent(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


def test_normalize_identity():
    assert normalize("Call  077-123!", NormMode.IDENTITY) == "Call  077-123!"


def test_normalize_strip_punct_nums():
    assert normalize("Call 077-123!", NormMode.STRIP_PUNCT_NUMS) == "Call"


def test_normalize_no_digits_or_punct_is_unchanged():
    for mode in (NormMode.IDENTITY, NormMode.STRIP_NUMS, NormMode.STRIP_PUNCT_NUMS):
        assert normalize("abc", mode) == "abc"


def test_normalize_all_digits_to_empty():
    assert normalize("2024", NormMode.STRIP_NUMS) == ""


def test_normalize_nums_keeps_punct():
    assert normalize("a1b, c2!", NormMode.STRIP_NUMS) == "ab, c!"


def test_normalize_underscore_counts_as_punct():
    assert normalize("a_b", NormMode.STRIP_PUNCT_NUMS) == "ab"


def test_normalize_strips_currency_and_math_symbols():
    assert normalize("5 + $3 = ?", NormMode.STRIP_PUNCT_NUMS) == ""


@given(st.text())
def test_strip_punct_nums_leaves_no_stripped_categories(text):
    result = normalize(text, NormMode.STRIP_PUNCT_NUMS)
    for ch in result:
        cat = unicodedata.category(ch)
        assert cat[0] not in ("P", "S") and cat != "Nd", (ch, cat)


@given(st.text())
def test_tokenize_gives_the_tokens_of_normalize(text):
    for mode in NormMode:
        tokens = tokenize(text, mode)
        assert tokens == normalize(text, mode).split()
        if mode is not NormMode.IDENTITY:
            assert normalize(text, mode) == " ".join(tokens)


@given(st.text())
def test_strip_modes_collapse_whitespace(text):
    for mode in (NormMode.STRIP_NUMS, NormMode.STRIP_PUNCT_NUMS):
        result = normalize(text, mode)
        assert "  " not in result
        assert result == result.strip()


def test_char_ratios_word_ratio_example():
    alpha_chars, alpha_words = char_ratios("hello world 123")
    assert alpha_words == pytest.approx(2 / 3)
    assert alpha_chars == pytest.approx(10 / 13)


def test_char_ratios_all_letters():
    assert char_ratios("abc") == (1.0, 1.0)


def test_char_ratios_no_letters():
    assert char_ratios("123 456") == (0.0, 0.0)


def test_char_ratios_empty_vacuous():
    assert char_ratios("") == (1.0, 1.0)
    assert char_ratios("   ") == (1.0, 1.0)


def test_char_ratios_sinhala_counts_as_alpha():
    assert char_ratios("මම ගෙදර") == (1.0, 1.0)


@given(st.text())
def test_char_ratios_bounded(text):
    alpha_chars, alpha_words = char_ratios(text)
    assert 0.0 <= alpha_chars <= 1.0
    assert 0.0 <= alpha_words <= 1.0


# whitespace of several kinds, combining marks, Nd digits of three
# scripts, punctuation and symbols, letters of each tracked script and
# astral ones, a zero-width joiner
_mixed = st.text(st.sampled_from(list(" \t\r\xa0\u2028\u3000්ිிa_Z9٣෦.!$+«මකதமΩ\u200d\U0001d400\U0001f600")))


@given(st.one_of(st.text(), _mixed))
def test_the_per_text_functions_give_the_oracles_values(text):
    for mode in NormMode:
        assert normalize(text, mode) == oracle.strip(text, mode.value)
        assert tokenize(text, mode) == oracle.strip(text, mode.value).split()
    assert char_ratios(text) == (oracle.alpha_char_ratio(text), oracle.alpha_word_ratio(text))
    assert [is_alpha_word(token) for token in text.split()] == [all(map(oracle.is_alpha, token)) for token in text.split()]


def test_word_ngrams_definition():
    assert word_ngrams(["a", "b", "c"], 2) == {"a b", "b c"}


def test_word_ngrams_too_short():
    assert word_ngrams(["a", "b"], 3) == set()


def test_word_ngrams_set_semantics():
    assert word_ngrams(["a", "b", "a", "b"], 2) == {"a b", "b a"}


def test_word_ngrams_rejects_bad_order():
    with pytest.raises(ValueError):
        word_ngrams(["a"], 0)


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=30), st.integers(1, 5))
def test_word_ngrams_count_bound(tokens, n):
    grams = word_ngrams(tokens, n)
    if len(tokens) >= n:
        assert len(grams) <= len(tokens) - n + 1
    else:
        assert grams == set()
