import itertools

import pytest
from hypothesis import example, given, assume, settings, strategies as st

from bruteforce import reference_split
from favd.splitter import split

# Sample words from the per-project most/least dangerous lists; each must
# survive splitting unchanged when it appears as an underscore-delimited
# segment of a larger name.
SAMPLE_WORDS = [
    "LZWDecode",
    "readwrite",
    "httpconn",
    "264",
    "16",
    "LOADSparse",
    "png",
    "handle",
    "JPEG",
    "pdf",
    "Checked",
    "readgitimage",
    "Recieve",
    "mxit",
    "slplink",
    "untar",
    "milliwatt",
    "PLTE",
    "avi",
    "cvt",
]


def test_snake_case():
    assert split("read_file") == ["read", "file"]


def test_multi_segment_snake():
    assert split("png_push_read_chunk") == ["png", "push", "read", "chunk"]


def test_upper_then_lower_is_not_a_boundary():
    assert split("LZWDecode") == ["LZWDecode"]
    assert split("LOADSparse") == ["LOADSparse"]


def test_letter_digit_boundaries_both_directions():
    assert split("h264") == ["h", "264"]
    assert split("x264x") == ["x", "264", "x"]
    assert split("AB2cd") == ["AB", "2", "cd"]


def test_compound_lowercase_words_stay_whole():
    assert split("maxstrlen") == ["maxstrlen"]
    assert split("readwrite") == ["readwrite"]


def test_camel_case_boundary():
    assert split("aB") == ["a", "B"]
    assert split("readFile") == ["read", "File"]


@pytest.mark.parametrize("word", SAMPLE_WORDS)
def test_sample_words_survive_embedding(word):
    assert word in split(f"pre_{word}_post")


def test_empty_identifier_rejected():
    with pytest.raises(ValueError):
        split("")


def test_separator_only_identifier_yields_no_terms():
    assert split("_") == []
    assert split("___") == []


def test_leading_and_trailing_underscores():
    assert split("_x_") == ["x"]
    assert split("__init__") == ["init"]


def test_case_folding_flag():
    assert split("readFile") == ["read", "File"]


def test_symbols_do_not_split():
    assert split("a$b") == ["a$b"]


identifiers = st.text(alphabet="abcXYZ019_", min_size=1, max_size=24)


@given(identifiers)
def test_terms_are_never_empty(ident):
    assert all(term for term in split(ident))


@given(identifiers)
def test_concatenation_reconstructs_identifier(ident):
    assert "".join(split(ident)) == ident.replace("_", "")


@given(st.text(alphabet="abcdwxyz", min_size=1, max_size=12))
def test_single_class_lowercase_never_splits(word):
    assert split(word) == [word]


@given(st.text(alphabet="ABCDWXYZ", min_size=1, max_size=12))
def test_single_class_uppercase_never_splits(word):
    assert split(word) == [word]


@given(st.text(alphabet="0123456789", min_size=1, max_size=12))
def test_single_class_digits_never_split(word):
    assert split(word) == [word]


@given(identifiers)
def test_case_folding_commutes_without_case_boundaries(ident):
    assume(not any(a.islower() and b.isupper() for a, b in zip(ident, ident[1:])))
    assert split(ident.lower()) == [t.lower() for t in split(ident)]


# ASCII, underscores, and letters and digits whose Unicode case and class
# disagree with ASCII intuition: Roman numerals are lowercase or uppercase
# but not letters, a titlecase letter is neither lower nor upper, and
# superscript two is a digit but not a decimal.
unicode_identifier = st.text(
    alphabet=st.one_of(st.sampled_from("aZ_9xY0_ⅰǅé²Ⅸ٣ß"), st.characters(max_codepoint=0x2FFF)),
    min_size=1,
    max_size=14,
)


@settings(max_examples=1000)
@given(unicode_identifier)
@example("ⅰaⅨb²c٣ǅd")
def test_split_matches_the_character_by_character_reference(ident):
    assert split(ident) == reference_split(ident)


def test_split_matches_the_reference_on_every_short_string():
    """Every string of up to five characters over lowercase, uppercase, digit,
    underscore, non-ASCII lower and upper, and a symbol: each transition
    between the lowercase path, the ASCII pattern and the per-character loop."""
    for length in range(1, 6):
        for chars in itertools.product("aB1_é$É", repeat=length):
            ident = "".join(chars)
            assert split(ident) == reference_split(ident), ident
