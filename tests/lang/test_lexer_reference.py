"""The single-regex lexer against the character-at-a-time reference.

``reference_lexer`` holds the lexer that :mod:`repro.lang.lexer`
replaced.  On any text both must produce the same ``(kind, text, line,
column, value)`` stream, or raise a :class:`LexerError` with the same
message and position.

The one intended difference is a hex literal whose digits are not all
ASCII.  The reference reads any ``str.isdigit`` character into a hex
literal, so it crashes with ``ValueError`` on ``0x`` without digits
(and on ``0x²``) and accepts ``0x٣``.  The regex lexer rejects all of
them with a :class:`LexerError`.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lexer import reference_tokenize

from repro.errors import LexerError
from repro.lang.lexer import tokenize
from repro.lang.tokens import KEYWORDS, OPERATORS

_HEX = re.compile(r"0[xX]([0-9A-Fa-f]*)")


def _outcome(lex, text):
    try:
        return [(t.kind, t.text, t.line, t.column, t.value) for t in lex(text)]
    except LexerError as error:
        return ("error", str(error), error.line, error.column)


def _hex_quirk(text):
    """Whether ``text`` holds a hex prefix the two lexers read apart: no
    ASCII hex digit after ``0x``, or another digit after the ASCII ones.
    (Also true where the prefix sits in a comment or an identifier: the
    check below then merely accepts an error from the new lexer.)"""
    for match in _HEX.finditer(text):
        after = text[match.end():match.end() + 1]
        if not match[1] or after.isdigit():
            return True
    return False


def _check(text):
    try:
        expected = _outcome(reference_tokenize, text)
    except ValueError:
        expected = None  # the reference's hex crash
    actual = _outcome(tokenize, text)
    if _hex_quirk(text):
        assert actual == expected or actual[0] == "error", text
    else:
        assert actual == expected, text


fragments = st.one_of(
    st.sampled_from([spelling for spelling, _ in OPERATORS]),
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.from_regex(r"(0[xX][0-9A-Fa-f]{0,4}|[0-9]{1,6})[uUlL]{0,2}",
                  fullmatch=True),
    st.from_regex(r"'(\\.|[^\\'\n])'|\"([^\"\\\n]|\\.){0,5}\"",
                  fullmatch=True),
    st.sampled_from(["'", '"', "\\", "/*", "*/", "//", "#", "'''", "'\\'",
                     "\"a\\", "0x", "08", "$", "@", "\f", "\x00", "é", "²",
                     "٣", "'\n'", "'\\\n'", "\"a\nb\""]),
)
separators = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  "])


@given(st.lists(st.tuples(fragments, separators), max_size=25))
@settings(max_examples=300, deadline=None)
@example([("0x", ""), (";", "")])
@example([("/*", " "), ("x", "\n"), ("*/", ""), ('"', "")])
def test_token_soup_matches_reference(parts):
    _check("".join(fragment + separator for fragment, separator in parts))


@given(st.text(alphabet="ab_0189xXuL+-*/%=<>!&|^~?:;,.()[]{}'\"\\# \t\r\n",
               max_size=80))
@settings(max_examples=300, deadline=None)
def test_c_flavoured_text_matches_reference(text):
    _check(text)


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
@example("int x = 0x;")
@example("0x²")
def test_arbitrary_text_matches_reference(text):
    _check(text)
